"""Discovery-plane selector for the chaos and churn worlds.

Both experiments default to their original control plane — one
:class:`~repro.discovery.DiscoveryService` on a ``dsc`` host — which
keeps the recorded baselines byte-identical.  The ``--shards`` /
``--replicas-per-shard`` CLI knobs swap in the planet-scale plane
instead: an RSM-replicated :class:`~repro.discovery.DiscoveryShardTier`
behind a :class:`~repro.discovery.ShardRouter`, with every runtime
routing through a :class:`~repro.discovery.ShardedDiscoveryClient`.  The
experiment drivers only see this facade, so the sweep logic (and its
invariants) is identical either way.

Host/link placement is split from service construction because fault
plans attach per link: :meth:`DiscoveryPlane.add_hosts` must run before
``attach_faults_everywhere`` so the control plane shares the
experiment's fault model, and :meth:`DiscoveryPlane.build` after it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..discovery import (
    DiscoveryService,
    DiscoveryShardTier,
    RemoteDiscoveryClient,
    ShardRouter,
    ShardedDiscoveryClient,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim.network import Network

__all__ = ["DiscoveryPlane", "audits_ok"]


def audits_ok(snap) -> bool:
    """Every discovery service's lease audit in one verdict.

    The single service binds ``discovery.audit_ok``; shard replicas bind
    ``discovery.s<k>.<host>.audit_ok`` — suffix matching covers both, so
    the single-shard value is exactly the old ``discovery.audit_ok``.
    """
    flags = [
        value
        for name, value in snap.as_dict().items()
        if name.startswith("discovery.") and name.endswith("audit_ok")
    ]
    return bool(flags) and all(flags)


class DiscoveryPlane:
    """One control plane, two shapes, one facade.

    ``shards == 1`` (the default) is the legacy single service;
    ``shards > 1`` builds the replicated tier.  ``crash``/``restart``
    model the experiments' total control-plane outage: on the tier they
    take down (and bring back) *every* replica of *every* shard at once,
    which is the sharded analogue of crashing the one service.
    """

    def __init__(
        self,
        shards: int = 1,
        replicas_per_shard: int = 3,
        *,
        retries: int = 5,
    ):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if shards > 1 and replicas_per_shard < 1:
            raise ValueError("replicas_per_shard must be >= 1")
        self.shards = shards
        self.replicas_per_shard = replicas_per_shard
        self.retries = retries
        self.service: Optional[DiscoveryService] = None
        self.tier: Optional[DiscoveryShardTier] = None
        self.router: Optional[ShardRouter] = None
        self._shard_hosts: list[list[str]] = []

    @property
    def sharded(self) -> bool:
        return self.shards > 1

    # -- construction ----------------------------------------------------------
    # Host creation and link creation are separate steps (and callers must
    # keep their original ordering around them): entity creation order
    # feeds deterministic tie-breaking, so moving the ``dsc`` host would
    # shift every recorded baseline.
    def add_hosts(self, net: "Network") -> None:
        """Add the plane's hosts (in the legacy single-service position)."""
        if not self.sharded:
            net.add_host("dsc")
            return
        for shard in range(self.shards):
            hosts = []
            for replica in range(self.replicas_per_shard):
                name = f"dsc-s{shard}r{replica}"
                net.add_host(name)
                hosts.append(name)
            self._shard_hosts.append(hosts)
        net.add_host("rtr")

    def add_links(self, net: "Network", switch: str, latency: float) -> None:
        """Link every plane host to ``switch`` (before fault attachment)."""
        if not self.sharded:
            net.add_link("dsc", switch, latency=latency)
            return
        for hosts in self._shard_hosts:
            for name in hosts:
                net.add_link(name, switch, latency=latency)
        net.add_link("rtr", switch, latency=latency)

    def build(self, net: "Network") -> None:
        """Construct the services (after fault attachment)."""
        if not self.sharded:
            self.service = DiscoveryService(net.hosts["dsc"])
            return
        self.tier = DiscoveryShardTier(net, self._shard_hosts)
        self.router = ShardRouter(net.hosts["rtr"], self.tier.map)

    # -- facade ----------------------------------------------------------------
    def register(self, meta, location: str):
        if self.sharded:
            return self.tier.seed_record(meta, location)
        return self.service.register(meta, location=location)

    def client(self, entity):
        """A discovery client for one runtime, with the plane's retries."""
        if self.sharded:
            return ShardedDiscoveryClient(
                entity, self.router.address, retries=self.retries
            )
        return RemoteDiscoveryClient(
            entity, self.service.address, retries=self.retries
        )

    def crash(self) -> None:
        """Total control-plane outage."""
        if self.sharded:
            for replicas in self.tier.shards:
                for replica in replicas:
                    replica.crash()
        else:
            self.service.crash()

    def restart(self) -> None:
        if self.sharded:
            for replicas in self.tier.shards:
                for replica in replicas:
                    replica.restart()
        else:
            self.service.restart()
