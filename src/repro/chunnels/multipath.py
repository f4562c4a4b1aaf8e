"""The weighted-multipath Chunnel (ROADMAP item 3: one flow, many tunnels).

``WeightedMultipath`` spreads one connection's datagrams over up to
``tunnels`` edge-disjoint network paths: the sender-side stage queries
:meth:`~repro.sim.network.Network.k_routes` once at start, then picks a
tunnel per packet from the negotiated weights using a seeded
per-connection RNG, and pins the chosen path into the datagram with the
:data:`~repro.sim.network.SRCROUTE_HEADER` source route.  The receive
side strips the routing headers and keeps per-tunnel delivery counters.

Weights are ordinary Chunnel args, so they travel through negotiation
like any other spec parameter — and, critically, they can be *renegotiated
mid-connection*: a same-shape transition carrying a reweighted spec
rebuilds only this node (see ``ChunnelDag.merge_arg_updates``), leaving a
reliability stage above it — and its unacked window — untouched.  That is
the zero-app-loss live-rebalancing mechanism PROTOCOL.md §10 documents:
a path-quality trigger shifts traffic off a degrading link without the
application noticing.

Retransmissions re-roll the tunnel choice for free: a reliability stage
above this one buffers its copy *before* the multipath headers are
stamped, so a retransmit re-traverses this stage and may escape a path
that just went bad.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional

from ..core.chunnel import (
    ChunnelImpl,
    ChunnelSpec,
    ChunnelStage,
    ImplMeta,
    Message,
    Role,
    register_spec,
)
from ..core.registry import catalog
from ..core.scope import Endpoints, Placement, Scope
from ..errors import ChunnelArgumentError
from ..sim.network import SRCROUTE_HEADER

__all__ = ["MULTIPATH_TUNNEL_HEADER", "MultipathWeighted", "WeightedMultipath"]

#: Header carrying the chosen tunnel index (an int in ``[0, tunnels)``),
#: stamped by the sender and stripped — after counting — by the receiver.
MULTIPATH_TUNNEL_HEADER = "mp_tunnel"


@register_spec
class WeightedMultipath(ChunnelSpec):
    """Per-packet weighted spreading over ``tunnels`` disjoint paths.

    Parameters
    ----------
    tunnels:
        How many edge-disjoint paths to request from the topology.
    weights:
        Relative (not necessarily normalized) positive weight per tunnel;
        defaults to equal weights.  ``weights[i]`` is the probability mass
        of tunnel ``i`` under the seeded per-connection chooser.
    seed:
        Chooser seed.  The per-connection RNG is derived from
        ``(seed, conn_id, role)``, so same-seed runs pick bit-identical
        tunnel sequences while distinct connections stay uncorrelated.
    """

    type_name = "multipath"

    def __init__(
        self,
        tunnels: int = 2,
        weights: Optional[list[float]] = None,
        seed: int = 0,
    ):
        if tunnels < 1:
            raise ChunnelArgumentError("multipath needs at least one tunnel")
        if weights is None:
            weights = [1.0] * tunnels
        weights = [float(w) for w in weights]
        if len(weights) != tunnels:
            raise ChunnelArgumentError(
                f"got {len(weights)} weights for {tunnels} tunnels"
            )
        if any(w < 0 for w in weights) or not any(w > 0 for w in weights):
            raise ChunnelArgumentError(
                "tunnel weights must be non-negative with a positive sum"
            )
        super().__init__(tunnels=tunnels, weights=weights, seed=seed)


class _MultipathStage(ChunnelStage):
    """Sender-side weighted chooser + receiver-side header stripping.

    Both endpoints run the stage (``endpoints::Both``): each side computes
    its own forward paths toward the peer at start time and pins its own
    sends, so request and reply traffic both spread.
    """

    PER_MESSAGE_COST = 0.05e-6

    def __init__(self, impl: ChunnelImpl, role: Role):
        super().__init__(impl, role)
        args = impl.spec.args
        self.tunnels: int = args["tunnels"]
        self.weights: list[float] = list(args["weights"])
        self.seed: int = args["seed"]
        self._cumulative: list[float] = []
        total = 0.0
        for weight in self.weights:
            total += weight
            self._cumulative.append(total)
        self._total = total
        self._rng: Optional[random.Random] = None
        #: tunnel index → pinned path (tuple of node names); None until
        #: start, or when the topology yields no paths to pin.
        self._paths: Optional[list[tuple[str, ...]]] = None
        self._peer_host: Optional[str] = None
        self.sent_by_tunnel = [0] * self.tunnels
        self.received_by_tunnel = [0] * self.tunnels
        #: Sends that could not be pinned (no paths, or an explicit
        #: destination off the negotiated peer path) and went out unpinned.
        self.pins_skipped = 0

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> None:
        conn = self.connection
        if conn is None:
            return
        self._rng = random.Random(
            f"{self.seed}:{conn.conn_id}:{self.role.value}"
        )
        src_entity = (
            conn.client_entity
            if self.role is Role.CLIENT
            else conn.server_entity
        )
        dst_entity = (
            conn.server_entity
            if self.role is Role.CLIENT
            else conn.client_entity
        )
        if not src_entity or not dst_entity:
            return
        net = conn.runtime.network
        src = net.entity(src_entity).host.name
        dst = net.entity(dst_entity).host.name
        self._peer_host = dst
        if src == dst:
            # Same-host traffic never crosses a link; nothing to pin.
            return
        self._paths = [
            tuple(path) for path in net.k_routes(src, dst, self.tunnels)
        ]
        obs = net.obs
        prefix = f"multipath.{conn.conn_id}.{self.role.value}"
        for index in range(self.tunnels):
            obs.replace(
                f"{prefix}.t{index}.sent",
                lambda stage=self, i=index: stage.sent_by_tunnel[i],
            )
            obs.replace(
                f"{prefix}.t{index}.received",
                lambda stage=self, i=index: stage.received_by_tunnel[i],
            )
        obs.replace(
            f"{prefix}.pins_skipped", lambda stage=self: stage.pins_skipped
        )

    # -- data path ---------------------------------------------------------
    def choose_tunnel(self) -> int:
        """Draw one tunnel index from the weight distribution."""
        draw = self._rng.random() * self._total
        for index, bound in enumerate(self._cumulative):
            if draw < bound:
                return index
        return self.tunnels - 1

    def _destination_host(self, msg: Message) -> Optional[str]:
        conn = self.connection
        dst = msg.dst or (conn.peer if conn is not None else None)
        if dst is None:
            return None
        entity = conn.runtime.network.entities.get(dst.host)
        return entity.host.name if entity is not None else None

    def on_send(self, msg: Message) -> Iterable[Message]:
        self.charge(self.PER_MESSAGE_COST)
        if self._paths is None or self._rng is None:
            self.pins_skipped += 1
            return [msg]
        if self._destination_host(msg) != self._peer_host:
            # An explicit destination off the negotiated peer (e.g. a
            # balancing stage below rewrote it): routing tables apply.
            self.pins_skipped += 1
            return [msg]
        tunnel = self.choose_tunnel()
        self.sent_by_tunnel[tunnel] += 1
        msg.headers[MULTIPATH_TUNNEL_HEADER] = tunnel
        msg.headers[SRCROUTE_HEADER] = self._paths[tunnel % len(self._paths)]
        return [msg]

    def on_recv(self, msg: Message) -> Iterable[Message]:
        msg.headers.pop(SRCROUTE_HEADER, None)
        tunnel = msg.headers.pop(MULTIPATH_TUNNEL_HEADER, None)
        if isinstance(tunnel, int) and 0 <= tunnel < self.tunnels:
            self.received_by_tunnel[tunnel] += 1
        return [msg]


@catalog.add
class MultipathWeighted(ChunnelImpl):
    """Software weighted spreading (always available on any host)."""

    meta = ImplMeta(
        chunnel_type="multipath",
        name="weighted",
        priority=10,
        scope=Scope.APPLICATION,
        endpoints=Endpoints.BOTH,
        placement=Placement.HOST_SOFTWARE,
        description="seeded weighted per-packet tunnel selection",
    )

    def make_stage(self, role: Role) -> ChunnelStage:
        return _MultipathStage(self, role)
