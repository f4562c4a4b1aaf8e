"""The sharded, replicated discovery tier (PROTOCOL.md §8).

One :class:`~repro.discovery.service.DiscoveryService` is a single point of
failure and a scalability wall.  This module scales it out on two axes:

* **sharding** — implementation records, device accounting, and service
  names are partitioned across N shards by hashing the chunnel type (for
  records) or the service name (for names).  Record ids carry their shard
  in the prefix (``s<k>-<n>``), so reserve/release/watch route without a
  lookup.
* **replication** — each shard is R replicas of the *same*
  ``DiscoveryService`` state, kept consistent by submitting every registry
  mutation (reserve/release/watch/register_name/revoke/
  unregister) through the repo's own NOPaxos-style replicated state
  machine (:mod:`repro.apps.rsm`) — discovery dogfoods the consensus
  Chunnel it serves offers for.  Reads (``disc.query``, ``disc.ping``,
  and ``disc.lease_check`` — which is how a runtime that already holds a
  lease revalidates it per connection without a logged mutation) are
  served from local state by the replica asked; epoch validity is
  enforced by the versioned promote handshake (a stale promote is
  refused).

Clients talk to one replica per shard — the **primary** named by the
shard map (:class:`ShardMap`, served by
:class:`repro.discovery.router.ShardRouter`).  Only the primary emits
revocation pushes and mirrors names into the cluster name service;
standbys apply the same mutation log silently, so a promoted standby
already holds the records, leases, *and watch table* (which is why shard
replicas run with ``durable_watches``).

Deliberate modelling simplifications, documented: a crashed replica
misses mutations (state transfer on rejoin is NOPaxos's recovery
protocol, out of scope here — crash standbys or fail over away from
primaries); per-shard device accounting is exact only while all records
at one location share a shard (true whenever one location hosts one
chunnel type, as in every experiment here); and the fallback sequencer is
a separate process on the lowest-named member host, so it survives a
co-located replica's *process* crash.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..apps.rsm import QuorumError, RsmClient, RsmReplica
from ..chunnels.multicast import McastSequencerFallback
from ..chunnels.serialize import SerializeFallback
from ..core import messages as msgs
from ..core.chunnel import ImplMeta
from ..core.runtime import Runtime
from ..core.wire import register_wire_type
from ..errors import BerthaError
from ..sim.datagram import Address
from ..sim.eventloop import Process
from .records import ImplementationRecord
from .service import DEFAULT_DISCOVERY_PORT, DiscoveryService

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.network import Network

__all__ = [
    "ShardInfo",
    "ShardMap",
    "ShardReplica",
    "DiscoveryShardTier",
    "DEFAULT_RSM_PORT",
]

DEFAULT_RSM_PORT = 7400


def _stable_hash(key: str) -> int:
    """Deterministic cross-run hash (``hash()`` is salted per process)."""
    return int.from_bytes(
        hashlib.blake2b(key.encode(), digest_size=8).digest(), "big"
    )


@dataclass
class ShardInfo:
    """One shard's replica set and current primary."""

    shard_id: int
    primary: Address
    replicas: list[Address] = field(default_factory=list)


register_wire_type("shard_info", ShardInfo)


class ShardMap:
    """Versioned routing table: which shard owns which key space.

    Routing is consistent hashing in its simplest form — a stable hash
    modulo the (fixed) shard count; chunnel types and service names hash
    over disjoint key prefixes so the two namespaces spread independently.
    Record ids skip hashing entirely: the minting shard is in the prefix.
    """

    def __init__(self, version: int, shards: list[ShardInfo]):
        if not shards:
            raise ValueError("a shard map needs at least one shard")
        self.version = version
        self.shards = shards

    def shard_for_type(self, chunnel_type: str) -> int:
        return _stable_hash(f"type:{chunnel_type}") % len(self.shards)

    def shard_for_name(self, service_name: str) -> int:
        return _stable_hash(f"name:{service_name}") % len(self.shards)

    def shard_for_record(self, record_id: str) -> int:
        """The shard that minted ``record_id`` (``s<k>-<n>``); falls back
        to hashing foreign-format ids so routing stays total."""
        prefix = record_id.split("-", 1)[0]
        if prefix.startswith("s") and prefix[1:].isdigit():
            return int(prefix[1:]) % len(self.shards)
        return _stable_hash(f"record:{record_id}") % len(self.shards)

    def primary_of(self, shard_id: int) -> Address:
        return self.shards[shard_id].primary

    def replicas_of(self, shard_id: int) -> list[Address]:
        return list(self.shards[shard_id].replicas)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ShardMap v{self.version} shards={len(self.shards)}>"


class _ShardRsmReplica(RsmReplica):
    """The RSM participant co-located with one shard replica: applies
    replicated registry mutations into the local service state."""

    def __init__(self, service: "ShardReplica", *args, **kwargs):
        self.service = service
        super().__init__(*args, **kwargs)

    def _apply(self, op: dict) -> object:
        kind = op.get("disc")
        if kind is None:
            return super()._apply(op)
        return self.service._apply_shard_op(kind, op)


class ShardReplica(DiscoveryService):
    """One replica of one discovery shard.

    Serves the ordinary discovery protocol on its UDP socket, but routes
    every mutation through the shard's RSM group before answering, so all
    live replicas apply the same mutation log in the same order.  Reads
    are answered from local state, at once — also while mutations are in
    their replication round, since each of those runs detached from the
    serve loop (:meth:`DiscoveryService._serve`).  Only the current primary
    pushes revocations and mirrors names into the cluster name service.
    """

    def __init__(
        self,
        runtime: Runtime,
        shard_id: int,
        group: str,
        members: list[str],
        port: int = DEFAULT_DISCOVERY_PORT,
        rsm_port: int = DEFAULT_RSM_PORT,
        is_primary: bool = False,
    ):
        entity = runtime.entity
        super().__init__(entity, port=port, shard_id=shard_id)
        self.runtime = runtime
        self.group = group
        self.is_primary = is_primary
        #: The promote-handshake epoch: a replica refuses a promote older
        #: than the newest map version it has acknowledged.
        self.map_version = 1
        self.promotions = 0
        #: Shard-local name table (replicated via the mutation log); the
        #: primary mirrors it into the cluster name service.
        self._names: dict[str, list[Address]] = {}
        self.rsm = _ShardRsmReplica(
            self, runtime, port=rsm_port, group=group, members=members
        )
        self._rsm_client = RsmClient(runtime, group, name=f"{group}-submit")
        self._rsm_addresses: list[Address] = []
        self._rsm_connect: Optional[Process] = None
        self.network.obs.bind(
            f"discovery.s{shard_id}.{entity.name}.promotions",
            self,
            "promotions",
            replace=True,
        )

    # -- replication plumbing ----------------------------------------------
    def set_rsm_addresses(self, addresses: list[Address]) -> None:
        """Where to submit mutations (every group member's RSM listener)."""
        self._rsm_addresses = list(addresses)

    def _rsm_submit(self, op: dict):
        """Generator: replicate one mutation; returns the applied result.

        The group connection is made on first use, once: mutations that
        arrive while it is being negotiated wait on the same process.  A
        connect that fails is forgotten, so the next mutation tries again;
        the mutations that waited on it fail with :class:`QuorumError`.
        """
        connect = self._rsm_connect
        if connect is None:
            connect = self._rsm_connect = self.env.process(
                self._connect_rsm(), name=f"{self.group}.connect"
            )
        try:
            yield connect
        except BerthaError as error:
            if self._rsm_connect is connect:
                self._rsm_connect = None
            raise QuorumError(f"group connect failed: {error}") from None
        return (yield from self._rsm_client.submit(op))

    def _connect_rsm(self):
        """Generator: make the group connection, which the RSM client
        keeps; the process's value is None, so the finished process does
        not keep the connection alive after it closes."""
        yield from self._rsm_client.connect(self._rsm_addresses)

    def _apply_shard_op(self, kind: str, op: dict) -> object:
        """Apply one replicated mutation to local state (called by the
        co-located RSM replica, identically on every live replica)."""
        if kind == "reserve":
            return DiscoveryService.reserve(self, op["record_id"], op["owner"])
        if kind == "release":
            DiscoveryService.release(self, op["record_id"], op["owner"])
            return True
        if kind == "watch":
            host, port = op["address"]
            self.add_watch(op["record_id"], Address(host, port))
            return True
        if kind == "register_name":
            host, port = op["address"]
            self.register_name(op["name"], Address(host, port))
            return True
        if kind == "revoke":
            self.revoke(op["record_id"], reason=op.get("reason", "operator"))
            return True
        if kind == "unregister":
            self.unregister(op["record_id"])
            return True
        return f"error:unknown-disc-op:{kind}"

    # -- primary-gated behaviour -------------------------------------------
    def _notify_watchers(self, record_id, push) -> None:
        # Every replica applies the revoking mutation; only the primary
        # may push, or watchers would see one event per live replica.
        if self.is_primary:
            super()._notify_watchers(record_id, push)

    def register_name(self, name: str, address: Address) -> None:
        bucket = self._names.setdefault(name, [])
        if address not in bucket:
            bucket.append(address)
        if self.is_primary:
            self._mirror_name(name, address)

    def _mirror_name(self, name: str, address: Address) -> None:
        # NameService.register appends; a re-mirroring new primary must
        # not duplicate entries the old primary already published.
        existing = [r.address for r in self.network.names.resolve(name)]
        if address not in existing:
            self.network.names.register(name, address)

    def promote(self, version: int) -> bool:
        """Accept primaryship at map ``version`` (False = stale promote)."""
        if version < self.map_version:
            return False
        self.map_version = version
        if not self.is_primary:
            self.is_primary = True
            self.promotions += 1
            for name in sorted(self._names):
                for address in self._names[name]:
                    self._mirror_name(name, address)
        return True

    # -- request handling --------------------------------------------------
    _MUTATIONS = (
        msgs.Reserve,
        msgs.Release,
        msgs.Watch,
        msgs.RegisterName,
    )

    def _handle_request(self, request):
        if isinstance(request, msgs.Promote):
            ok = self.promote(request.version)
            return msgs.PromoteReply(ok=ok, version=self.map_version)
        if not isinstance(request, self._MUTATIONS):
            return self._handle(request)  # reads answer from local state
        return self._replicate(request)

    def _replicate(self, request):
        """Generator: one mutation through the replicated log → its reply.

        Runs detached from the serve loop, so several are in flight at
        once; none of them touches shard state.  State changes only in
        :meth:`_apply_shard_op`, in log order, on every live replica —
        the order the sequencer assigned, not the order requests arrived
        or replies return.
        """
        op = self._op_for(request)
        try:
            result = yield from self._rsm_submit(op)
        except QuorumError as error:
            return msgs.ServiceError(error=f"shard quorum unavailable: {error}")
        if isinstance(request, msgs.Reserve):
            return msgs.ReserveReply(ok=result is True)
        if isinstance(request, msgs.Release):
            return msgs.ReleaseReply()
        if isinstance(request, msgs.Watch):
            return msgs.WatchReply()
        return msgs.RegisterNameReply()

    def _op_for(self, request) -> dict:
        if isinstance(request, msgs.Reserve):
            return {
                "disc": "reserve",
                "record_id": request.record_id,
                "owner": request.owner,
            }
        if isinstance(request, msgs.Release):
            return {
                "disc": "release",
                "record_id": request.record_id,
                "owner": request.owner,
            }
        if isinstance(request, msgs.Watch):
            return {
                "disc": "watch",
                "record_id": request.record_id,
                "address": [request.address.host, request.address.port],
            }
        return {
            "disc": "register_name",
            "name": request.name,
            "address": [request.address.host, request.address.port],
        }

    # -- chaos ---------------------------------------------------------------
    def crash(self) -> None:
        """Crash the whole replica process: discovery front *and* its RSM
        participant (watch state survives — it is in the replicated log)."""
        was_down = self.down
        super().crash()
        if not was_down:
            self.rsm.crash()

    def restart(self) -> None:
        if self.down:
            self.rsm.restart()
        super().restart()


class DiscoveryShardTier:
    """Builder and operator handle for a whole sharded discovery tier.

    Constructs ``shards × replicas`` :class:`ShardReplica` instances on
    the given hosts (one runtime each, with the serialize and
    host-sequencer fallbacks the RSM Chunnel needs), wires each shard's
    RSM group, and exposes the authoritative :class:`ShardMap` the router
    serves — plus operator entry points (seed records at boot, revoke via
    the replicated log, crash/restart replicas).
    """

    def __init__(
        self,
        network: "Network",
        shard_hosts: list[list[str]],
        port: int = DEFAULT_DISCOVERY_PORT,
        rsm_port: int = DEFAULT_RSM_PORT,
    ):
        self.network = network
        self.shards: list[list[ShardReplica]] = []
        for shard_id, hosts in enumerate(shard_hosts):
            if not hosts:
                raise ValueError(f"shard {shard_id} has no replica hosts")
            group = f"disc-s{shard_id}"
            replicas: list[ShardReplica] = []
            for index, host in enumerate(hosts):
                runtime = Runtime(network.hosts[host], discovery=None)
                runtime.register_chunnel(SerializeFallback)
                runtime.register_chunnel(McastSequencerFallback)
                replicas.append(
                    ShardReplica(
                        runtime,
                        shard_id=shard_id,
                        group=group,
                        members=list(hosts),
                        port=port,
                        rsm_port=rsm_port,
                        is_primary=(index == 0),
                    )
                )
            rsm_addresses = [replica.rsm.address for replica in replicas]
            for replica in replicas:
                replica.set_rsm_addresses(rsm_addresses)
            self.shards.append(replicas)
        self.map = ShardMap(
            version=1,
            shards=[
                ShardInfo(
                    shard_id=shard_id,
                    primary=replicas[0].address,
                    replicas=[r.address for r in replicas],
                )
                for shard_id, replicas in enumerate(self.shards)
            ],
        )

    # -- lookup ---------------------------------------------------------------
    def primary(self, shard_id: int) -> ShardReplica:
        """The replica the map currently names primary of ``shard_id``."""
        address = self.map.primary_of(shard_id)
        for replica in self.shards[shard_id]:
            if replica.address == address:
                return replica
        raise LookupError(f"shard {shard_id}: primary {address} not found")

    # -- operator API ----------------------------------------------------------
    def seed_record(self, meta: ImplMeta, location: str) -> ImplementationRecord:
        """Boot-time registration, applied directly on every replica of
        the owning shard (identical per-replica counters mint identical
        record ids, so no wire encoding of ``ImplMeta`` is needed and the
        boot sequence costs no replication traffic)."""
        shard_id = self.map.shard_for_type(meta.chunnel_type)
        record: Optional[ImplementationRecord] = None
        for replica in self.shards[shard_id]:
            registered = DiscoveryService.register(replica, meta, location)
            if record is None:
                record = registered
            elif registered.record_id != record.record_id:
                raise RuntimeError(
                    "shard replicas diverged while seeding records"
                )
        return record

    def revoke(self, record_id: str, reason: str = "operator"):
        """Generator: revoke through the replicated log (every live
        replica expires the leases; the primary pushes to watchers).

        Submitted over replica 0's group connection, alongside whatever
        mutations that replica has in flight: the submit needs only the
        host and a quorum, so it works with replica 0's service crashed.
        """
        shard_id = self.map.shard_for_record(record_id)
        return (
            yield from self.shards[shard_id][0]._rsm_submit(
                {"disc": "revoke", "record_id": record_id, "reason": reason}
            )
        )

    def crash_primary(self, shard_id: int) -> ShardReplica:
        replica = self.primary(shard_id)
        replica.crash()
        return replica

    def close(self) -> None:
        for replicas in self.shards:
            for replica in replicas:
                replica.rsm.close()
                replica._rsm_client.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = "x".join(str(len(r)) for r in self.shards) or "0"
        return f"<DiscoveryShardTier shards={len(self.shards)} replicas={sizes}>"
