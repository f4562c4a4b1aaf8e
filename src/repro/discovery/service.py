"""The Bertha discovery service (§4.2).

One logical service per deployment tracks:

* **implementation records** — which Chunnel implementations are available
  where (registered by offload developers / operators);
* **device inventory** — the resource capacity of each programmable device,
  derived from the simulated network, plus what reservations have consumed;
* **service names** — instance registration/resolution (fronting the
  cluster name service), which is how per-connection resolution discovers a
  newly-started local instance (Figure 4).

The service answers over the network (a :class:`UdpSocket` request/response
protocol used by :class:`repro.discovery.client.RemoteDiscoveryClient` —
this exchange is one of Figure 3's "two additional IPC round trips") and
also exposes the same operations as direct method calls for operator
tooling and tests.
"""

from __future__ import annotations

import itertools
import logging
from typing import TYPE_CHECKING, Iterable, Optional

from ..core import messages as msgs
from ..core import rpc
from ..core.chunnel import ImplMeta, Offer
from ..core.resources import (
    NIC_SLOTS,
    SWITCH_SRAM_KB,
    SWITCH_STAGES,
    XDP_SHARE,
    ResourceVector,
)
from ..core.wire import WireError, wire_kind
from ..errors import DiscoveryError, RegistrationError
from ..sim.datagram import Address
from ..sim.transport import UdpSocket
from .records import ImplementationRecord, Lease

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.leases import LeaseTable
    from ..core.scheduler import OffloadScheduler
    from ..sim.host import NetEntity

__all__ = ["DiscoveryService", "DEFAULT_DISCOVERY_PORT"]

DEFAULT_DISCOVERY_PORT = 53530

_log = logging.getLogger("repro.ctl")


class DiscoveryService:
    """Deployment-wide registry of Chunnel implementations and devices."""

    def __init__(
        self,
        entity: "NetEntity",
        port: int = DEFAULT_DISCOVERY_PORT,
        scheduler: Optional["OffloadScheduler"] = None,
        shard_id: Optional[int] = None,
    ):
        self.entity = entity
        self.env = entity.env
        self.network = entity.network
        self.socket = UdpSocket(entity, port)
        self.address = self.socket.address
        #: Set when this service is one replica of discovery shard
        #: ``shard_id`` (:class:`repro.discovery.shard.ShardReplica`).
        self.shard_id = shard_id
        sharded = shard_id is not None
        #: Record-id namespace (``<prefix>-<n>``).  Each shard has its own
        #: prefix, so a record id names its owning shard and clients can
        #: route reserve/release/watch without a lookup.
        self.record_prefix = f"s{shard_id}" if sharded else "rec"
        metrics_prefix = f"discovery.s{shard_id}.{entity.name}" if sharded else "discovery"
        self.metrics_prefix = metrics_prefix
        #: Watch subscriptions are volatile (in-memory) for the single
        #: service; a shard replica's are durable, because its watch table
        #: is re-applied from the replication log.
        self.durable_watches = sharded
        self._records: dict[str, ImplementationRecord] = {}
        #: Per-service record ids (not a module-global counter): record
        #: ids ride inside sized negotiation messages, so a
        #: process-global counter would make repeated simulations in one
        #: process diverge by a wire byte once the count gains a digit.
        self._record_ids = itertools.count(1)
        self._leases: dict[tuple[str, str], Lease] = {}
        self._in_use: dict[str, ResourceVector] = {}
        self._capacity_overrides: dict[str, ResourceVector] = {}
        self.scheduler = scheduler
        self.queries_served = 0
        self.reservations_granted = 0
        self.reservations_denied = 0
        #: ``disc.lease_check`` reads answered (never logged).
        self.lease_checks = 0
        #: Watch subscriptions: record_id -> addresses to notify when the
        #: record is revoked or one of its leases is preempted.  This is the
        #: push channel live reconfiguration rides on.
        self._watchers: dict[str, set[Address]] = {}
        self.revocations = 0
        self.leases_expired = 0
        self.leases_preempted = 0
        #: At-most-once guard: req_id -> cached response message.  A client
        #: retransmit whose original request *was* handled (only the reply
        #: got lost) replays the cached verdict instead of re-executing the
        #: mutation, so `disc.reserve`/`disc.register_name` cannot
        #: double-allocate.  req_ids are globally unique per client call
        #: (``<entity>-<counter>``), so a plain bounded FIFO suffices.
        self._replies: rpc.ReplyCache = rpc.ReplyCache(2048)
        #: req_ids whose (detached) handler has not answered yet.
        self._inflight: set = set()
        self.requests_served = 0
        self.duplicate_requests = 0
        #: Requests that failed schema decoding (dropped or answered with
        #: ``disc.error`` when they carried a usable ``req_id``).
        self.malformed_total = 0
        self._malformed_logged: set = set()
        #: Chaos flag: while down the service answers nothing (see crash()).
        self.down = False
        self.crashes = 0
        # One discovery service per deployment owns the flat ``discovery.*``
        # namespace (replace: a test that builds a second service — e.g. to
        # model a migration — hands the names to the newest one).  Shard
        # replicas bind under a per-replica ``metrics_prefix`` instead, so
        # every replica's counters coexist in one snapshot.
        obs = self.network.obs
        for counter in (
            "queries_served",
            "reservations_granted",
            "reservations_denied",
            "revocations",
            "leases_expired",
            "leases_preempted",
            "requests_served",
            "duplicate_requests",
            "malformed_total",
            "crashes",
        ):
            obs.bind(f"{metrics_prefix}.{counter}", self, counter, replace=True)
        obs.replace(f"{metrics_prefix}.leases", lambda: len(self._leases))
        obs.replace(
            f"{metrics_prefix}.audit_ok",
            lambda: int(self.audit_leases()["ok"]),
        )
        self._server = self.env.process(
            self._serve(), name=f"{metrics_prefix}.serve"
        )

    # ------------------------------------------------------------------
    # Direct (operator/test) API
    # ------------------------------------------------------------------
    def register(self, meta: ImplMeta, location: str) -> ImplementationRecord:
        """Register one implementation at one location."""
        if location not in self.network.entities and (
            location not in self.network.switches
        ):
            raise RegistrationError(
                f"cannot register at unknown location {location!r}"
            )
        record = ImplementationRecord(
            meta=meta,
            location=location,
            record_id=f"{self.record_prefix}-{next(self._record_ids)}",
        )
        self._records[record.record_id] = record
        return record

    def unregister(self, record_id: str) -> None:
        """Remove a record and expire its leases.

        A lease on a record that no longer exists can never be re-validated
        or released against capacity math (the record's resource vector is
        gone), so keeping it would pin device resources forever.  Expiry
        returns the resources and notifies any watchers so lease holders can
        reconfigure away from the dead implementation.
        """
        record = self._records.pop(record_id, None)
        if record is None:
            return
        for key in [k for k in self._leases if k[0] == record_id]:
            del self._leases[key]
            if not record.meta.resources.is_zero:
                in_use = self.device_in_use(record.location)
                self._in_use[record.location] = in_use - record.meta.resources
            self.leases_expired += 1
        self._notify_watchers(record_id, msgs.Revoked(record_id=record_id))
        self._watchers.pop(record_id, None)

    def revoke(self, record_id: str, reason: str = "operator") -> None:
        """Operator fault injection: withdraw a record mid-flight.

        Identical to :meth:`unregister` (leases expire, watchers are
        pushed a ``disc.revoked`` notification) but counted separately and
        carrying a reason, so experiments can distinguish deliberate
        revocation from ordinary deregistration.
        """
        if record_id in self._records:
            self.revocations += 1
        self.unregister(record_id)

    # -- watch subscriptions ----------------------------------------------------
    def add_watch(self, record_id: str, address: Address) -> None:
        """Subscribe ``address`` to revocation events for ``record_id``."""
        self._watchers.setdefault(record_id, set()).add(address)

    def _notify_watchers(
        self, record_id: str, push: "msgs.ControlMessage"
    ) -> None:
        """Fire-and-forget push datagrams to a record's watchers."""
        payload, size = msgs.encode_message_sized(push)
        for address in sorted(self._watchers.get(record_id, ())):
            self.socket.send(payload, address, size=size)

    def records_for(self, chunnel_types: Iterable[str]) -> list[ImplementationRecord]:
        """Records matching any of ``chunnel_types``."""
        wanted = set(chunnel_types)
        return [
            record
            for record in sorted(self._records.values(), key=lambda r: r.record_id)
            if record.meta.chunnel_type in wanted
        ]

    def offers_for(self, chunnel_types: Iterable[str]) -> dict[str, list[Offer]]:
        """Network-origin offers for each requested type."""
        offers: dict[str, list[Offer]] = {t: [] for t in chunnel_types}
        for record in self.records_for(chunnel_types):
            offers[record.meta.chunnel_type].append(record.to_offer())
        return offers

    # -- device inventory -------------------------------------------------------
    def set_capacity(self, location: str, capacity: ResourceVector) -> None:
        """Override the derived capacity of a device (operator knob)."""
        self._capacity_overrides[location] = capacity

    def device_capacity(self, location: str) -> ResourceVector:
        """Total schedulable resources at ``location``.

        Derived from the simulated device unless overridden: switches expose
        stages and SRAM, hosts expose XDP cores and (if present) SmartNIC
        offload slots.
        """
        override = self._capacity_overrides.get(location)
        if override is not None:
            return override
        switch = self.network.switches.get(location)
        if switch is not None:
            return ResourceVector(
                {
                    SWITCH_STAGES: switch.stage_pool.capacity,
                    SWITCH_SRAM_KB: switch.sram_pool.capacity,
                }
            )
        entity = self.network.entities.get(location)
        if entity is not None:
            host = entity.host
            amounts = {XDP_SHARE: host.xdp_station.servers}
            if host.smartnic is not None:
                amounts[NIC_SLOTS] = host.smartnic.slots.capacity
            return ResourceVector(amounts)
        raise DiscoveryError(f"unknown device location {location!r}")

    def device_in_use(self, location: str) -> ResourceVector:
        """Resources currently reserved at ``location``."""
        return self._in_use.get(location, ResourceVector())

    # -- reservations -------------------------------------------------------------
    def reserve(self, record_id: str, owner: str) -> bool:
        """Take one holder's reference on the ``(record_id, owner)`` lease.

        Creating the lease admits, schedules and charges the record's
        resources — once: a further reference only counts, so an owner
        shared by several runtimes (a group-scoped Chunnel) does not
        consume its resources once per member.  A runtime takes one
        reference however many connections it binds (its
        :class:`~repro.core.leases.LeaseTable` counts those and asks
        :meth:`lease_check` for each).  Returns False when the device
        cannot fit the request (§6's contended-offload case).
        """
        record = self._records.get(record_id)
        if record is None:
            return False
        lease = self._leases.get((record_id, owner))
        if lease is not None:
            lease.count += 1
            return True
        need = record.meta.resources
        if not need.is_zero:
            capacity = self.device_capacity(record.location)
            in_use = self.device_in_use(record.location)
            admitted = (
                self.scheduler.admit(record, owner, need, capacity, in_use)
                if self.scheduler is not None
                else (in_use + need).fits_within(capacity)
            )
            if not admitted and self.scheduler is not None:
                admitted = self._try_preempt(record, owner, need, capacity)
                in_use = self.device_in_use(record.location)
            if not admitted:
                self.reservations_denied += 1
                return False
            self._in_use[record.location] = in_use + need
        self._leases[(record_id, owner)] = Lease(
            record_id=record_id, owner=owner, granted_at=self.env.now
        )
        self.reservations_granted += 1
        return True

    def lease_check(self, record_id: str, owner: str) -> bool:
        """Does the ``(record_id, owner)`` lease stand?  A read: true iff
        the record exists and the lease has not been released, preempted
        or expired with its record."""
        if not self.lease_checks:
            # Exported from the first check on, so a world that never
            # checks a lease keeps exactly the names it had.
            self.network.obs.bind(
                f"{self.metrics_prefix}.lease_checks",
                self,
                "lease_checks",
                replace=True,
            )
        self.lease_checks += 1
        return record_id in self._records and (record_id, owner) in self._leases

    def release(self, record_id: str, owner: str) -> None:
        """Give back one holder's reference (no-op if absent); the last
        one frees the lease's resources."""
        lease = self._leases.get((record_id, owner))
        if lease is None:
            return
        lease.count -= 1
        if lease.count > 0:
            return
        del self._leases[(record_id, owner)]
        record = self._records.get(record_id)
        if record is not None and not record.meta.resources.is_zero:
            in_use = self.device_in_use(record.location)
            self._in_use[record.location] = in_use - record.meta.resources

    def _try_preempt(
        self,
        record: "ImplementationRecord",
        owner: str,
        need: ResourceVector,
        capacity: ResourceVector,
    ) -> bool:
        """Ask the scheduler for victims; evict them and retry admission.

        Evicted lease holders get a ``disc.lease_revoked`` push (if they
        watch the record) and are expected to transition off the device —
        the scheduler-revocation trigger of graceful degradation.
        """
        lease_pairs = [
            (lease, self._records[lease.record_id])
            for lease in self.leases_at(record.location)
            if lease.record_id in self._records
        ]
        victims = self.scheduler.select_victims(
            record,
            owner,
            need,
            capacity,
            self.device_in_use(record.location),
            lease_pairs,
        )
        if not victims:
            return False
        for lease in victims:
            victim_record = self._records.get(lease.record_id)
            self._leases.pop(lease.key(), None)
            if victim_record is not None and not victim_record.meta.resources.is_zero:
                in_use = self.device_in_use(victim_record.location)
                self._in_use[victim_record.location] = (
                    in_use - victim_record.meta.resources
                )
            self.leases_preempted += 1
            self._notify_watchers(
                lease.record_id,
                msgs.LeaseRevoked(record_id=lease.record_id, owner=lease.owner),
            )
        in_use = self.device_in_use(record.location)
        return self.scheduler.admit(record, owner, need, capacity, in_use)

    def leases_at(self, location: str) -> list[Lease]:
        """All live leases whose record sits at ``location``."""
        return [
            lease
            for (record_id, _owner), lease in sorted(self._leases.items())
            if (record := self._records.get(record_id)) is not None
            and record.location == location
        ]

    # -- crash/restart (chaos) ---------------------------------------------------
    def crash(self) -> None:
        """Kill the service process: in-flight and future requests vanish.

        Durable state (records, leases, device accounting) survives — it
        models stable storage — but volatile state does not: queued requests
        are lost, the request dedup cache and in-flight table are cleared
        (a handler still running never answers), and (unless the
        service replicates its watch table, see ``durable_watches``) watch
        subscriptions are dropped — which is exactly the window the
        client-side retry, refcount, and watch re-arm semantics must
        tolerate.  The socket stays bound so a restart reuses the address.
        """
        if self.down:
            return
        self.down = True
        self.crashes += 1
        self.socket.dropping = True
        self.socket.store.clear()
        self._replies.clear()
        self._inflight.clear()
        if not self.durable_watches:
            self._watchers.clear()

    def restart(self) -> None:
        """Bring a crashed service back on the same address."""
        if not self.down:
            return
        self.down = False
        self.socket.dropping = False

    # -- invariant audit ---------------------------------------------------------
    def audit_leases(self, holders: Iterable["LeaseTable"] = ()) -> dict:
        """Cross-check lease bookkeeping against per-device accounting.

        Recomputes what :attr:`_in_use` *should* be from the live leases
        (each distinct (record, owner) lease charges its record's resource
        vector exactly once, regardless of refcount) and verifies both that
        the incremental accounting matches and that no device is over
        capacity.  The chaos experiment asserts ``ok`` after every run: a
        double-applied `disc.reserve` would show up here as a mismatch.

        Given the ``holders`` — every runtime's lease table — the audit
        also squares the service's books with theirs: ``unbacked`` lists
        references held on a lease the service does not have (a connection
        bound on resources that are free to be given away: what a release
        freeing the wrong lease leaves behind, and, until the holder's next
        check or push, what a preemption does), ``miscounted`` the leases
        whose count is not the number of holders (a leak, when nobody
        holds them).  Meaningful at quiescence only.
        """
        expected: dict[str, ResourceVector] = {}
        for (record_id, _owner) in self._leases:
            record = self._records.get(record_id)
            if record is None or record.meta.resources.is_zero:
                continue
            current = expected.get(record.location, ResourceVector())
            expected[record.location] = current + record.meta.resources
        mismatches = []
        locations = set(expected) | set(self._in_use)
        for location in sorted(locations):
            want = expected.get(location, ResourceVector())
            have = self._in_use.get(location, ResourceVector())
            if want != have:
                mismatches.append(
                    {"location": location, "expected": want, "recorded": have}
                )
        over_capacity = []
        for location in sorted(self._in_use):
            in_use = self._in_use[location]
            if in_use.is_zero:
                continue
            if not in_use.fits_within(self.device_capacity(location)):
                over_capacity.append(location)
        holders = list(holders)
        holding: dict[tuple[str, str], int] = {}
        unbacked = []
        for table in holders:
            for key, refs in sorted(table.held().items()):
                holding[key] = holding.get(key, 0) + 1
                if refs and key not in self._leases:
                    unbacked.append(key)
        miscounted = (
            [
                {"lease": key, "count": lease.count, "holders": holding.get(key, 0)}
                for key, lease in sorted(self._leases.items())
                if lease.count != holding.get(key, 0)
            ]
            if holders
            else []
        )
        return {
            "ok": not (mismatches or over_capacity or unbacked or miscounted),
            "mismatches": mismatches,
            "over_capacity": over_capacity,
            "leases": len(self._leases),
            "unbacked": unbacked,
            "miscounted": miscounted,
        }

    # -- names -------------------------------------------------------------------
    def register_name(self, name: str, address: Address) -> None:
        """Register a service instance (fronts the cluster name service)."""
        self.network.names.register(name, address)

    # ------------------------------------------------------------------
    # Network protocol
    # ------------------------------------------------------------------
    def _serve(self):
        """Request/response loop over the service's UDP socket.

        Requests are deduplicated by ``req_id``: a retransmit of an
        already-handled request replays the cached response (with the
        retransmit's ``attempt`` tag, so the client can spot late replies
        to earlier attempts) without re-executing the handler, and a
        retransmit of a request whose handler is still running is dropped
        — that handler's reply answers it.  Mutations are therefore
        at-most-once per ``req_id``.

        The loop dispatches; it never waits on a handler.  A request
        answered from local state is answered at once; one whose handler
        takes virtual time (see :meth:`_handle_request`) runs as its own
        process behind the ``req_id`` in-flight table while the loop goes
        on serving.

        A request that fails schema decoding is counted and dropped —
        unless its frame still yields a ``req_id``, in which case a
        ``disc.error`` reply tells the sender to stop retransmitting.
        """
        while True:
            dgram = yield self.socket.recv()
            try:
                request = msgs.decode_message(dgram.payload)
            except WireError as error:
                response = self._reject_malformed(dgram.payload, error)
                if response is not None:
                    self._send(response, dgram.src)
                continue
            req_id = getattr(request, "req_id", None)
            attempt = getattr(request, "attempt", 0)
            if req_id is not None:
                cached = self._replies.get(req_id, rpc.MISSING)
                if cached is not rpc.MISSING:
                    self.duplicate_requests += 1
                    self._send(cached.stamped(req_id, attempt), dgram.src)
                    continue
                if req_id in self._inflight:
                    self.duplicate_requests += 1
                    continue
            self.requests_served += 1
            outcome = self._handle_request(request)
            if isinstance(outcome, msgs.ControlMessage):
                self._reply(outcome, req_id, attempt, dgram.src)
            else:
                self._inflight.add(req_id)
                self.env.process(
                    self._detached(outcome, req_id, attempt, dgram.src),
                    name=f"{self.address}.handle:{req_id}",
                )

    def _detached(self, handler, req_id, attempt: int, dst: Address):
        """Run a handler that takes virtual time; reply when it returns.

        A handler that outlives :meth:`crash` belongs to a dead process:
        its reply is neither sent nor cached (whatever it replicated is in
        the log regardless, and the client's retransmit finds the
        restarted service or the promoted standby).
        """
        incarnation = self.crashes
        response = yield from handler
        if self.crashes != incarnation:
            return
        self._inflight.discard(req_id)
        self._reply(response, req_id, attempt, dst)

    def _reply(
        self, response: "msgs.DiscoveryMessage", req_id, attempt: int, dst: Address
    ) -> None:
        """Cache a fresh verdict under its ``req_id`` and send it."""
        if req_id is not None:
            self._replies.put(req_id, response)
        self._send(response.stamped(req_id, attempt), dst)

    def _send(self, response: "msgs.DiscoveryMessage", dst: Address) -> None:
        payload, size = msgs.encode_message_sized(response)
        self.socket.send(payload, dst, size=size)

    def _reject_malformed(
        self, payload, error: WireError
    ) -> Optional["msgs.ServiceError"]:
        """Count a malformed request; answer it only when it carries a
        ``req_id`` string to address the error to."""
        self.malformed_total += 1
        kind = wire_kind(payload)
        log_key = kind if kind is not None else type(payload).__name__
        if log_key not in self._malformed_logged:
            self._malformed_logged.add(log_key)
            _log.warning(
                "discovery service: dropping malformed request kind=%r (%s)",
                log_key,
                error,
            )
        req_id = msgs.request_id(payload)
        if req_id is None:
            return None
        return msgs.ServiceError(error=str(error), req_id=req_id)

    def _handle_request(self, request: "msgs.ControlMessage"):
        """Hook between the serve loop and :meth:`_handle`: returns the
        response — or, when producing it takes virtual time, a generator
        that returns it, which the serve loop runs detached.

        The base service answers everything from local state.  The sharded
        tier returns a generator for mutations (one replication round
        each); such handlers overlap, so they must not touch service state
        themselves — the tier's state changes only where the replicated
        log is applied, and it is the log that orders them.
        """
        return self._handle(request)

    def _handle(self, request: "msgs.ControlMessage") -> "msgs.DiscoveryMessage":
        if isinstance(request, msgs.Ping):
            return msgs.Pong(ok=not self.down)
        if isinstance(request, msgs.Query):
            self.queries_served += 1
            instances = []
            if request.service_name:
                instances = [
                    r.address
                    for r in self.network.names.resolve(request.service_name)
                ]
            return msgs.QueryReply(
                offers=self.offers_for(request.types), instances=instances
            )
        if isinstance(request, msgs.Reserve):
            return msgs.ReserveReply(
                ok=self.reserve(request.record_id, request.owner)
            )
        if isinstance(request, msgs.LeaseCheck):
            return msgs.LeaseCheckReply(
                ok=self.lease_check(request.record_id, request.owner)
            )
        if isinstance(request, msgs.Release):
            self.release(request.record_id, request.owner)
            return msgs.ReleaseReply()
        if isinstance(request, msgs.Watch):
            self.add_watch(request.record_id, request.address)
            return msgs.WatchReply()
        if isinstance(request, msgs.RegisterName):
            self.register_name(request.name, request.address)
            return msgs.RegisterNameReply()
        return msgs.ServiceError(
            error=f"unsupported request kind {request.KIND!r}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DiscoveryService @ {self.address} records={len(self._records)} "
            f"leases={len(self._leases)}>"
        )
