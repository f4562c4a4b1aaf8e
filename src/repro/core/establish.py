"""The one establishment pipeline (§4.3's "both sides instantiate").

Connection construction used to be copy-pasted across four call sites —
client connect, non-Bertha direct connect, Listener accept, and the
reconfiguration engine's partial rebuild — each re-implementing the same
sequence: instantiate implementations for the decided choice, run setup
contexts in topological order, build the per-node stage map, construct the
:class:`~repro.core.connection.Connection`, run ``after_establish`` hooks.
This module is that sequence written once, with the genuine behavioural
differences as explicit parameters:

* ``degraded`` — the client proceeded without discovery (fallback-only);
* ``hello`` — clients announce their data address after establishment;
* ``changed`` / ``reuse`` — the reconfiguration engine rebuilds only the
  nodes whose implementation changed, carrying over the rest of an
  existing connection's impls, contexts, and stages;
* ``fresh_params`` — establishment shares one params dict across a
  connection's setup contexts (so the transport hook's choice is visible
  to the accept reply), while a rebuild hands each node a private copy of
  the connection's params (a rebuild must not mutate the live binding).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from ..errors import BerthaError, ConnectionClosedError, NegotiationError
from ..sim.datagram import Address
from ..sim.eventloop import Interrupt
from ..sim.transport import PipeSocket, SimSocket, UdpSocket
from . import messages as msgs
from .chunnel import ChunnelImpl, Offer, Role
from .connection import Connection
from .dag import ChunnelDag
from .wire import decode, encode
from .stack import SetupContext

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.host import NetEntity
    from .leases import LeaseHandle
    from .runtime import Runtime

__all__ = [
    "SplitProxy",
    "build_binding",
    "establish_connection",
    "make_data_socket",
    "teardown_nodes",
]


def make_data_socket(entity: "NetEntity", transport: str) -> SimSocket:
    """The data socket for a negotiated transport."""
    if transport == "pipe":
        return PipeSocket(entity)
    if transport == "udp":
        return UdpSocket(entity)
    raise NegotiationError(f"unknown negotiated transport {transport!r}")


def teardown_nodes(
    impls: dict[int, ChunnelImpl],
    contexts: dict[int, SetupContext],
    nodes: Iterable[int],
) -> None:
    """Tear down the given nodes' implementations, swallowing Bertha
    errors (used on partial-failure cleanup paths, where the original
    error must win)."""
    for node_id in nodes:
        impl = impls.get(node_id)
        ctx = contexts.get(node_id)
        if impl is None or ctx is None:
            continue
        try:
            impl.teardown(ctx)
        except BerthaError:
            pass


def build_binding(
    runtime: "Runtime",
    *,
    role: Role,
    conn_id: str,
    dag: ChunnelDag,
    choice: dict[int, Offer],
    client_entity: str,
    server_entity: str,
    params: Optional[dict] = None,
    reservations: Optional[Mapping[int, "LeaseHandle"]] = None,
    changed: Optional[Iterable[int]] = None,
    reuse: Optional[Connection] = None,
    fresh_params: bool = False,
):
    """Instantiate and set up the implementations for a binding.

    For every node in ``changed`` (default: all), instantiate the chosen
    implementation and run its setup hook in topological order; unchanged
    nodes carry over ``reuse``'s impl, context, and stage.  On a setup
    failure the nodes built so far are torn down before re-raising, so a
    half-built binding never leaks device programs.  ``reservations`` maps
    node id → the lease reference taken for it; each built node's context
    carries its own, to be given back when that node's binding goes.

    Every epoch change rides this carry-over: the reconfiguration engine
    rebuilds only the nodes whose choice changed, whether a transition
    re-decided them or a migration (:mod:`repro.core.failover`) took a
    *standby's* accept, while unchanged stages — including the reliability
    stage whose unacked window must survive the migration — carry straight
    over.

    Returns ``(impls, contexts, stage_map)`` where ``contexts`` maps node
    id → :class:`SetupContext` and ``stage_map`` maps node id → stage (or
    None where the implementation runs elsewhere).
    """
    params = {} if params is None else params
    reservations = reservations or {}
    order = dag.topological_order()
    changed_set = set(order) if changed is None else set(changed)
    impls: dict[int, ChunnelImpl] = {}
    contexts: dict[int, SetupContext] = {}
    built: list[int] = []
    try:
        for node_id in order:
            if node_id not in changed_set:
                impls[node_id] = reuse.impls[node_id]
                contexts[node_id] = reuse._context_for(node_id)
                continue
            offer = choice.get(node_id)
            if offer is None:
                raise NegotiationError(
                    f"{conn_id}: negotiation chose nothing for node {node_id}"
                )
            spec = dag.nodes[node_id]
            impl = runtime.catalog.instantiate(
                offer.meta.chunnel_type,
                offer.meta.name,
                spec,
                location=offer.location,
            )
            ctx = SetupContext(
                runtime=runtime,
                role=role,
                conn_id=conn_id,
                dag=dag,
                offer=offer,
                spec=spec,
                client_entity=client_entity,
                server_entity=server_entity,
                params=dict(params) if fresh_params else params,
                reservations=(
                    [reservations[node_id]] if node_id in reservations else []
                ),
            )
            impl.setup(ctx)
            impls[node_id] = impl
            contexts[node_id] = ctx
            built.append(node_id)
    except BerthaError:
        teardown_nodes(impls, contexts, built)
        raise
    old_map = (reuse._stage_map or {}) if reuse is not None else {}
    stage_map = {
        node_id: (
            impls[node_id].make_stage(role)
            if node_id in changed_set
            else old_map.get(node_id)
        )
        for node_id in order
    }
    return impls, contexts, stage_map


def establish_connection(
    runtime: "Runtime",
    *,
    name: str,
    conn_id: str,
    role: Role,
    dag: ChunnelDag,
    choice: dict[int, Offer],
    client_entity: str,
    server_entity: str,
    peers: Sequence[Address] = (),
    transport: Optional[str] = None,
    params: Optional[dict] = None,
    reservations: Optional[Mapping[int, "LeaseHandle"]] = None,
    degraded: bool = False,
    negotiation_state: Optional[dict] = None,
    hello: bool = False,
) -> Connection:
    """Build a live :class:`Connection` from a decided binding.

    The pipeline: instantiate impls → run setup contexts (sharing
    ``params``, so a server-side transport hook's choice is seen here) →
    create the data socket (``transport=None`` reads the hooks' choice
    from ``params``) → build the stage map → construct the Connection →
    run ``after_establish`` hooks → optionally send the client hello.
    """
    params = {} if params is None else params
    trace = runtime.network.trace
    span = trace.begin("establish", conn_id, role=role.value, degraded=degraded)
    try:
        impls, contexts, stage_map = build_binding(
            runtime,
            role=role,
            conn_id=conn_id,
            dag=dag,
            choice=choice,
            client_entity=client_entity,
            server_entity=server_entity,
            params=params,
            reservations=reservations,
        )
        if transport is None:
            transport = params.get("transport", "udp")
        socket = make_data_socket(runtime.entity, transport)
        order = dag.topological_order()
        connection = Connection(
            runtime=runtime,
            name=name,
            conn_id=conn_id,
            role=role,
            dag=dag,
            impls=impls,
            stack_stages=stage_map,
            socket=socket,
            peers=list(peers),
            transport=transport,
            params=params,
            setup_contexts=[contexts[node_id] for node_id in order],
            choice=choice,
            client_entity=client_entity,
            server_entity=server_entity,
            negotiation_state=negotiation_state,
        )
        connection.degraded = degraded
        for node_id in order:
            impls[node_id].after_establish(contexts[node_id], connection)
        if hello:
            # Tell the server our data address (offload programs pass control
            # datagrams through), so it can initiate live transitions even
            # when the data path never reaches its socket.
            connection.send_ctl(msgs.Hello(conn_id=conn_id))
    except BerthaError as error:
        trace.finish(span, status="error", error=type(error).__name__)
        raise
    trace.finish(span, transport=connection.transport, nodes=len(impls))
    return connection


class SplitProxy:
    """A mid-path Bertha node that stitches two independently negotiated
    connections into one end-to-end flow (connection splitting).

    The proxy listens for downstream connections with ``downstream_dag``
    and, per accepted connection, re-originates an upstream connection to
    ``target`` with ``upstream_dag``, then relays application messages in
    both directions.  Each segment runs its *own* negotiation and its own
    Chunnel stack — a Reliable node recovers losses over its segment's
    RTT, not the end-to-end RTT, which is the whole point: splitting wins
    when one segment is lossy and the other long (loss recovery stays
    local to the bad segment), and loses on clean paths (two stack
    traversals and a store-and-forward hop for nothing).

    The upstream DAG is a structural clone of ``downstream_dag`` (fresh
    spec objects via the wire codec), so the two segments never share
    negotiation state.
    """

    def __init__(
        self,
        runtime: "Runtime",
        name: str,
        target: Address,
        downstream_dag: ChunnelDag,
        *,
        port: Optional[int] = None,
    ):
        self.runtime = runtime
        self.env = runtime.env
        self.name = name
        self.target = target
        self.upstream_dag = decode(encode(downstream_dag))
        self.listener = runtime.new(name, downstream_dag).listen(port=port)
        self.bridges: list[tuple[Connection, Connection]] = []
        self.splits = 0
        self.relayed_upstream = 0
        self.relayed_downstream = 0
        self.upstream_failures = 0
        #: Messages that arrived before the other segment had revealed a
        #: reply address (dropped: nowhere to send them).
        self.relay_no_destination = 0
        #: Per-connection reply address, learned from the source address
        #: of the traffic flowing the *other* way (a server-side segment
        #: has no default peer until its client has sent something).
        self._reply_to: dict[int, Address] = {}
        obs = runtime.network.obs
        prefix = f"splitproxy.{runtime.entity.name}.{name}"
        obs.bind(f"{prefix}.splits", self, "splits", replace=True)
        obs.bind(
            f"{prefix}.relayed_upstream", self, "relayed_upstream", replace=True
        )
        obs.bind(
            f"{prefix}.relayed_downstream",
            self,
            "relayed_downstream",
            replace=True,
        )
        obs.bind(
            f"{prefix}.upstream_failures",
            self,
            "upstream_failures",
            replace=True,
        )
        obs.bind(
            f"{prefix}.relay_no_destination",
            self,
            "relay_no_destination",
            replace=True,
        )
        self.env.process(self._serve(), name=f"{name}.split-proxy")

    def _serve(self):
        while True:
            try:
                down = yield self.listener.accept()
            except (Interrupt, ConnectionClosedError):
                return
            self.env.process(
                self._bridge(down),
                name=f"{self.name}.bridge-{self.splits}",
            )

    def _bridge(self, down: Connection):
        """Originate the upstream segment, then pump both directions."""
        endpoint = self.runtime.new(
            f"{self.name}-up{self.splits}",
            decode(encode(self.upstream_dag)),
        )
        try:
            up = yield from endpoint.connect(self.target)
        except (BerthaError, Interrupt):
            # The stitch failed half-way: the downstream client holds an
            # established connection that leads nowhere — close it so the
            # client sees teardown rather than a black hole.
            self.upstream_failures += 1
            down.close()
            return
        self.splits += 1
        self.bridges.append((down, up))
        self.runtime.network.trace.event(
            "splitproxy",
            down.conn_id,
            action="stitched",
            upstream=up.conn_id,
        )
        self.env.process(
            self._relay(down, up, "relayed_upstream"),
            name=f"{down.conn_id}.relay-up",
        )
        self.env.process(
            self._relay(up, down, "relayed_downstream"),
            name=f"{up.conn_id}.relay-down",
        )

    def _relay(self, source: Connection, sink: Connection, counter: str):
        """Pump application messages from one segment into the other."""
        while True:
            try:
                message = yield source.recv()
            except (Interrupt, ConnectionClosedError):
                return
            if sink.closed:
                return
            if message.src is not None:
                self._reply_to[id(source)] = message.src
            dst = None if sink.peer is not None else self._reply_to.get(id(sink))
            if sink.peer is None and dst is None:
                self.relay_no_destination += 1
                continue
            try:
                sink.send(
                    message.payload,
                    size=message.size or None,
                    dst=dst,
                    headers=message.headers,
                )
            except ConnectionClosedError:
                return
            setattr(self, counter, getattr(self, counter) + 1)
