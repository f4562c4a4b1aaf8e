"""Shard map service and shard-routing discovery client (PROTOCOL.md §8).

Two halves of the same routing contract:

:class:`ShardRouter`
    The control-plane authority for *where the shards are*.  Serves the
    versioned :class:`~repro.discovery.shard.ShardMap` over
    ``disc.shard_map``, and (when its monitor is started) probes each
    shard primary with ``disc.ping``; after a consecutive-miss threshold
    it runs the failover handshake — bump the map version, ``disc.promote``
    the next standby in ring order, and republish the map.  Failover
    recovery time (first missed probe → acknowledged promote) is recorded
    for the fleet experiment.

:class:`ShardedDiscoveryClient`
    A drop-in :class:`~repro.discovery.client.DiscoveryClientBase` that
    routes every *mutation* to the owning shard's primary and every
    *read* to a pinned replica (replicas apply the same replicated
    mutation log, so any of them can answer a query — and spreading
    reads leaves the primary's NIC and CPU to mutations and probes):
    queries are partitioned by chunnel type (and service name)
    and issued to the involved shards *concurrently*;
    reserve/release/watch route by the record-id prefix; name mutations
    hash the service name.  All per-shard
    legs share one :class:`~repro.core.rpc.RpcStats`, so the runtime's
    ``rpc.discovery.<entity>`` metrics aggregate exactly as they do for a
    single service.  When a primary stops answering, the client refreshes
    the map from the router, retries the one failed leg against the new
    primary, and re-subscribes its watches on every shard whose primary
    moved — the belt to the replicated watch table's braces, keeping
    revocation pushes and negcache invalidation flowing across failover.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import TYPE_CHECKING, Iterable, Optional

from ..core import messages as msgs
from ..core import rpc
from ..core.wire import WireError
from ..errors import ConnectionClosedError, ConnectionTimeoutError
from ..sim.datagram import Address
from ..sim.eventloop import Interrupt
from ..sim.transport import UdpSocket
from .client import DiscoveryClientBase, QueryResult, RemoteDiscoveryClient
from .service import send_stamped
from .shard import ShardInfo, ShardMap, _stable_hash

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.host import NetEntity

__all__ = ["ShardRouter", "ShardedDiscoveryClient", "DEFAULT_ROUTER_PORT"]

DEFAULT_ROUTER_PORT = 53531
#: Consecutive missed probes after which the monitor fails a primary over.
MISS_THRESHOLD = 3
#: Seconds between the monitor's probe rounds.
MONITOR_INTERVAL = 2e-3


class ShardRouter:
    """Serve the shard map; detect primary failures; drive failover."""

    def __init__(
        self,
        entity: "NetEntity",
        shard_map: ShardMap,
        port: int = DEFAULT_ROUTER_PORT,
        probe_timeout: float = 2e-3,
    ):
        self.entity = entity
        self.env = entity.env
        self.network = entity.network
        self.map = shard_map
        self.socket = UdpSocket(entity, port)
        self.address = self.socket.address
        self.probe_timeout = probe_timeout
        self.stats = rpc.RpcStats()
        self.responder = rpc.Responder(self.env, 512)
        self._probe_clients: dict[Address, RemoteDiscoveryClient] = {}
        self._promote_clients: dict[Address, RemoteDiscoveryClient] = {}
        self.maps_served = 0
        self.probes_sent = 0
        self.probes_missed = 0
        self.failovers = 0
        self.failovers_failed = 0
        #: Seconds from the first missed probe to the acknowledged promote,
        #: one entry per completed failover.
        self.failover_durations: list[float] = []
        self._monitor = None
        obs = self.network.obs
        for counter in (
            "maps_served",
            "probes_sent",
            "probes_missed",
            "failovers",
            "failovers_failed",
        ):
            obs.bind(f"router.{counter}", self, counter, replace=True)
        obs.replace(
            "router.failover_last_s",
            lambda: self.failover_durations[-1] if self.failover_durations else 0.0,
        )
        self._server = self.env.process(self._serve(), name="shard-router.serve")

    # -- map service ---------------------------------------------------------
    def _serve(self):
        """Answer ``disc.shard_map`` requests through :attr:`responder`."""
        while True:
            try:
                dgram = yield self.socket.recv()
            except (Interrupt, ConnectionClosedError):
                return
            try:
                request = msgs.decode_message(dgram.payload)
            except WireError:
                continue
            if not isinstance(request, msgs.GetShardMap):
                continue
            req_id = getattr(request, "req_id", None)
            attempt = getattr(request, "attempt", 0)
            self.responder.answer(
                None if req_id is None else (request.KIND, req_id),
                self._serve_map,
                partial(send_stamped, self.socket, req_id, attempt, dgram.src),
            )

    def _serve_map(self) -> "msgs.ShardMapReply":
        self.maps_served += 1
        return msgs.ShardMapReply(
            version=self.map.version, shards=list(self.map.shards)
        )

    # -- failure detection / failover ---------------------------------------
    def start_monitor(self) -> None:
        """Start probing primaries every :data:`MONITOR_INTERVAL` (opt-in:
        the loop keeps the event heap non-empty, so callers must
        :meth:`stop` when done)."""
        if self._monitor is None:
            self._monitor = self.env.process(
                self._monitor_loop(), name="shard-router.monitor"
            )

    def _probe_client(self, address: Address) -> RemoteDiscoveryClient:
        # One probe is one datagram: misses are counted across rounds by
        # the monitor, not retransmitted within one.
        client = self._probe_clients.get(address)
        if client is None:
            client = RemoteDiscoveryClient(
                self.entity,
                address,
                timeout=self.probe_timeout,
                retries=1,
                stats=self.stats,
            )
            self._probe_clients[address] = client
        return client

    def _promote_client(self, address: Address) -> RemoteDiscoveryClient:
        client = self._promote_clients.get(address)
        if client is None:
            client = RemoteDiscoveryClient(self.entity, address, stats=self.stats)
            self._promote_clients[address] = client
        return client

    def _monitor_loop(self):
        misses = {shard.shard_id: 0 for shard in self.map.shards}
        first_miss: dict[int, float] = {}
        while True:
            try:
                yield self.env.timeout(MONITOR_INTERVAL)
            except Interrupt:
                return
            for shard in self.map.shards:
                sent_at = self.env.now
                self.probes_sent += 1
                try:
                    reply = yield from self._probe_client(shard.primary)._rpc(
                        msgs.Ping()
                    )
                    alive = isinstance(reply, msgs.Pong) and reply.ok
                except (ConnectionTimeoutError, Interrupt):
                    alive = False
                if alive:
                    misses[shard.shard_id] = 0
                    first_miss.pop(shard.shard_id, None)
                    continue
                self.probes_missed += 1
                misses[shard.shard_id] += 1
                first_miss.setdefault(shard.shard_id, sent_at)
                if misses[shard.shard_id] >= MISS_THRESHOLD:
                    misses[shard.shard_id] = 0
                    detected_at = first_miss.pop(shard.shard_id)
                    yield from self._failover(shard, detected_at)

    def _failover(self, shard, detected_at: float):
        """Promote the next standby in ring order; republish the map."""
        version = self.map.version + 1
        order = list(shard.replicas)
        start = (
            order.index(shard.primary) + 1 if shard.primary in order else 0
        )
        candidates = [
            order[(start + i) % len(order)]
            for i in range(len(order))
            if order[(start + i) % len(order)] != shard.primary
        ]
        for candidate in candidates:
            try:
                reply = yield from self._promote_client(candidate)._rpc(
                    msgs.Promote(shard_id=shard.shard_id, version=version)
                )
            except (ConnectionTimeoutError, Interrupt):
                continue
            if isinstance(reply, msgs.PromoteReply) and reply.ok:
                shard.primary = candidate
                self.map.version = version
                self.failovers += 1
                self.failover_durations.append(self.env.now - detected_at)
                return True
        self.failovers_failed += 1
        return False

    def stop(self) -> None:
        if self._monitor is not None and self._monitor.is_alive:
            self._monitor.interrupt("shard router stopped")
        if self._server is not None and self._server.is_alive:
            self._server.interrupt("shard router stopped")
        self.socket.close()


def _caught(generator):
    """Generator: ``generator``'s result, or the ConnectionTimeoutError it
    raised.  The error's traceback holds this frame, which holds nothing
    that reaches the error, so the two form no cycle."""
    try:
        return (yield from generator)
    except ConnectionTimeoutError as error:
        return error


class ShardedDiscoveryClient(DiscoveryClientBase):
    """Route discovery operations across shards via the router's map."""

    def __init__(
        self,
        entity: "NetEntity",
        router_address: Address,
        timeout: float = 2e-3,
        retries: int = 5,
    ):
        self.entity = entity
        self.env = entity.env
        self.router_address = router_address
        #: One stat set shared by the router leg and every per-shard leg,
        #: so the runtime's ``rpc.discovery.<entity>`` binding aggregates
        #: the whole fan-out.
        self.stats = rpc.RpcStats()
        #: Retry tuning applied to the router leg and every per-shard leg
        #: (the rest of :class:`RemoteDiscoveryClient`'s policy is fixed).
        self._rpc_tuning = dict(timeout=timeout, retries=retries)
        self.map: Optional[ShardMap] = None
        self.map_refreshes = 0
        self.resubscriptions = 0
        self.resubscribe_failures = 0
        #: Free-lists of per-destination RPC clients.  The rpc core is
        #: one-outstanding-call-per-socket (a mismatched reply is discarded
        #: and wastes the attempt window), so concurrent operations from
        #: overlapping establishments must each hold their own client;
        #: pooling bounds the socket count by peak concurrency.
        self._client_pool: dict[tuple, list[RemoteDiscoveryClient]] = {}
        #: Pool clients minted so far — each gets a distinct req-id
        #: namespace (they share our entity, and the services dedup
        #: req_ids globally).
        self._minted = 0
        #: record_id → watcher address, for re-subscription after failover.
        self._watches: dict[str, Address] = {}
        #: shard_id → index into the shard's replica ring for *reads*.
        #: Replicas apply the same replicated mutation log, so any of them
        #: can answer a query; pinning each client to one standby keeps
        #: read load off the primary (which proposes every mutation to
        #: the RSM log) and spreads it evenly across the fleet of
        #: clients.  A timed-out read advances the pin, so clients walk
        #: off dead replicas on their own — the router only monitors
        #: primaries.
        self._read_pins: dict[int, int] = {}
        self.read_repins = 0

    # -- map handling --------------------------------------------------------
    def _ensure_map(self):
        if self.map is None:
            yield from self._refresh_map()

    def _refresh_map(self):
        client = self._checkout(self.router_address)
        try:
            reply = yield from client._rpc(msgs.GetShardMap())
        finally:
            self._checkin(self.router_address, client)
        if not isinstance(reply, msgs.ShardMapReply) or not reply.shards or not all(
            isinstance(shard, ShardInfo) for shard in reply.shards
        ):
            raise ConnectionTimeoutError(
                f"shard router at {self.router_address} answered "
                f"{getattr(reply, 'KIND', type(reply).__name__)!r}"
            )
        old = self.map
        self.map = ShardMap(reply.version, list(reply.shards))
        if old is not None and self.map.version != old.version:
            self.map_refreshes += 1
            self._resubscribe_moved(old)

    def _resubscribe_moved(self, old: ShardMap) -> None:
        """Re-subscribe watches on shards whose primary changed.

        The replicated watch table means the new primary already knows our
        address; this re-subscription is the idempotent belt-and-braces
        (and the only defence when an operator swaps in a fresh replica).
        Fire-and-forget: nobody waits on a re-subscription, so failures
        are counted, never raised.
        """
        for record_id in sorted(self._watches):
            shard_id = self.map.shard_for_record(record_id)
            if shard_id < len(old.shards) and (
                old.primary_of(shard_id) == self.map.primary_of(shard_id)
            ):
                continue
            self.resubscriptions += 1
            self.env.process(
                self._resubscribe(record_id, self._watches[record_id]),
                name=f"{self.entity.name}.shard-rewatch:{record_id}",
            )

    def _resubscribe(self, record_id: str, address: Address):
        primary = self.map.primary_of(self.map.shard_for_record(record_id))
        client = self._checkout(primary)
        try:
            yield from client.watch(record_id, address)
        except (ConnectionTimeoutError, Interrupt):
            self.resubscribe_failures += 1
        finally:
            self._checkin(primary, client)

    def _checkout(
        self, address: Address, probe: bool = False
    ) -> RemoteDiscoveryClient:
        pool = self._client_pool.get((address, probe))
        if pool:
            return pool.pop()
        self._minted += 1
        tuning = dict(self._rpc_tuning)
        if probe:
            tuning["retries"] = min(2, tuning["retries"])
        return RemoteDiscoveryClient(
            self.entity,
            address,
            stats=self.stats,
            req_tag=f"p{self._minted}",
            **tuning,
        )

    def _checkin(
        self,
        address: Address,
        client: RemoteDiscoveryClient,
        probe: bool = False,
    ) -> None:
        self._client_pool.setdefault((address, probe), []).append(client)

    def _call_once(
        self, address: Address, method: str, args, probe=False, deadline=None
    ):
        client = self._checkout(address, probe)
        kwargs = {} if deadline is None else {"deadline": deadline}
        try:
            return (yield from getattr(client, method)(*args, **kwargs))
        finally:
            self._checkin(address, client, probe)

    def _call_shard(self, shard_id: int, method: str, *args):
        """One call against a shard's primary: a short probe chain
        against the cached primary, then — on timeout — a map refresh and
        one full chain against whatever the refreshed map names.

        The probe chain is the failover optimisation: when the primary
        just died, burning the full retransmit chain against it stalls
        the caller for tens of milliseconds before the refresh even
        starts.  A couple of attempts are enough to tell "dead or badly
        backlogged" from datagram loss; the post-refresh full chain absorbs
        loss, queueing, or the promoted standby's warm-up.  A total
        control-plane outage costs probe + one full chain, still inside
        the degraded-establishment budget, and the runtime's fallback
        owns the decision from there.
        """
        try:
            return (
                yield from self._call_once(
                    self.map.primary_of(shard_id),
                    method,
                    args,
                    probe=True,
                )
            )
        except ConnectionTimeoutError:
            yield from self._refresh_map()
            return (
                yield from self._call_once(self.map.primary_of(shard_id), method, args)
            )

    def _read_replica(self, shard_id: int) -> Address:
        """Where this client reads from: a pinned slot in the shard's
        replica ring, skipping the primary when there is a standby."""
        replicas = self.map.replicas_of(shard_id)
        if not replicas:
            return self.map.primary_of(shard_id)
        if shard_id not in self._read_pins:
            self._read_pins[shard_id] = _stable_hash(
                f"read:{self.entity.name}:{shard_id}"
            ) % len(replicas)
        index = self._read_pins[shard_id] % len(replicas)
        target = replicas[index]
        if target == self.map.primary_of(shard_id) and len(replicas) > 1:
            target = replicas[(index + 1) % len(replicas)]
        return target

    def _call_shard_read(
        self, shard_id: int, method: str, *args, deadline=None
    ):
        """One read against the shard — any replica can answer, so this
        goes to the pinned replica rather than the primary.  A timeout
        advances the pin (the next read lands on a different replica) and
        propagates: the router does not monitor standbys, so there is no
        map refresh that could name a better target, and a second timeout
        chain would double the caller's worst-case latency for nothing.
        """
        target = self._read_replica(shard_id)
        try:
            return (
                yield from self._call_once(
                    target, method, args, deadline=deadline
                )
            )
        except ConnectionTimeoutError:
            self._read_pins[shard_id] = self._read_pins.get(shard_id, 0) + 1
            self.read_repins += 1
            raise

    def _gather(self, generators: list):
        """Drive sub-operations concurrently; collect results (exceptions
        captured per leg, re-raised by the caller)."""
        results: list = [None] * len(generators)
        done = self.env.event()
        remaining = len(generators)

        def runner(index, generator):
            nonlocal remaining
            results[index] = yield from _caught(generator)
            remaining -= 1
            if remaining == 0:
                done.succeed(None)

        for index, generator in enumerate(generators):
            self.env.process(
                runner(index, generator),
                name=f"{self.entity.name}.shard-leg{index}",
            )
        if generators:
            yield done
        return results

    # -- DiscoveryClientBase -------------------------------------------------
    def query(
        self,
        types: Iterable[str],
        service_name: Optional[str] = None,
        *,
        deadline: Optional[float] = None,
    ):
        yield from self._ensure_map()
        wanted = sorted(set(types))
        by_shard: dict[int, list[str]] = {}
        for chunnel_type in wanted:
            by_shard.setdefault(
                self.map.shard_for_type(chunnel_type), []
            ).append(chunnel_type)
        name_shard = (
            self.map.shard_for_name(service_name) if service_name else None
        )
        if name_shard is not None:
            by_shard.setdefault(name_shard, [])
        plans = sorted(by_shard.items())
        legs = [
            self._call_shard_read(
                shard_id,
                "query",
                subset,
                service_name if shard_id == name_shard else None,
                deadline=deadline,
            )
            for shard_id, subset in plans
        ]
        results = yield from self._gather(legs)
        offers: dict[str, list] = {t: [] for t in wanted}
        instances: list[Address] = []
        for (shard_id, _subset), result in zip(plans, results):
            if isinstance(result, ConnectionTimeoutError):
                try:
                    raise result
                finally:
                    # The traceback holds this frame: let go of the error
                    # here, or the two form a cycle.
                    del result, results
            for chunnel_type, shard_offers in result.offers.items():
                offers.setdefault(chunnel_type, []).extend(shard_offers)
            if shard_id == name_shard:
                instances = list(result.instances)
        return QueryResult(offers, instances)

    def reserve(self, record_id: str, owner: str):
        yield from self._ensure_map()
        return (
            yield from self._call_shard(
                self.map.shard_for_record(record_id),
                "reserve",
                record_id,
                owner,
            )
        )

    def lease_check(self, record_id: str, owner: str):
        # A read, but of the lease table's newest state: it goes to the
        # primary, which every mutation of the shard passes through, not
        # to the standby this client pins its queries on.
        yield from self._ensure_map()
        return (
            yield from self._call_shard(
                self.map.shard_for_record(record_id),
                "lease_check",
                record_id,
                owner,
            )
        )

    def release(self, record_id: str, owner: str):
        yield from self._ensure_map()
        yield from self._call_shard(
            self.map.shard_for_record(record_id), "release", record_id, owner
        )

    def register_name(self, name: str, address: Address):
        yield from self._ensure_map()
        yield from self._call_shard(
            self.map.shard_for_name(name), "register_name", name, address
        )

    def watch(self, record_id: str, address: Address):
        yield from self._ensure_map()
        self._watches[record_id] = address
        yield from self._call_shard(
            self.map.shard_for_record(record_id), "watch", record_id, address
        )
