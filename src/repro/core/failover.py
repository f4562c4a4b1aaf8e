"""Mid-connection failover: liveness, migration, parking (PROTOCOL.md §9).

An established connection dies silently when its peer's host crashes: the
data socket never errors, retransmit timers burn their budgets against a
black hole, and the application sees an unbounded stall.  This module is
the client-side survivability layer:

**Liveness** — a per-connection watcher probes the peer with in-band
``bertha.heartbeat`` control messages, but only when the data socket has
been idle for a probe interval: an active connection's inbound traffic is
its own liveness signal, so probes cost nothing on busy paths and false
suspicion under loss requires *every* inbound datagram — data, acks, and
probe answers — to vanish for ``miss_threshold`` consecutive windows.
The per-probe wait adapts to the observed probe RTT (the shared
:class:`~repro.core.rpc.RttEstimator`, clamped to ``[min_rto, max_rto]``).

**Migration** — on suspicion the watcher freezes the reliability stages'
retransmit timers (the unacked window is the connection's transport
state; draining retry budgets against a dead peer would abandon messages
a standby could still take), tag-evicts the suspected instance's cached
negotiation results, and looks for a standby's binding through the
connection's endpoint — its resume step when the cache names a live
instance (a herd of connections migrating off one dead host pays full
negotiation once), else re-resolution and its offer step: the two steps
``connect`` takes.  The switch itself is the reconfiguration engine's one
epoch change (:meth:`repro.reconfig.engine.ReconfigManager.migrate`,
PROTOCOL.md §5.2): this module supplies only its handshake — rebind the
data socket, confirm with ``bertha.migrate`` / ``bertha.migrate_ack``,
replay the frozen unacked window before the commit — and, when that
fails, points the connection back at the old peer.  Sends stay buffered
from suspicion until the window is replayed, behind the connection's
``FAILOVER`` hold (PROTOCOL.md §5.4), which no epoch change releases.
The replay delivers exactly once: the standby's receive-side dedup table
has never seen this sender's sequence numbers.  The whole attempt chain
— discovery, negotiation, handshake — shares one elapsed-time budget
(``migration_deadline``), threaded down as an absolute
:func:`repro.core.rpc.call` deadline.

**Parking** — when no standby exists (or the budget runs out) the
connection parks: the watcher keeps probing the old peer, and a probe
answered after the host restarts resumes the connection in place —
replaying the unacked window to the revived peer.

Renegotiation uses a *fresh* connection id (``<conn_id>:m<n>``) toward
the standby: reusing the original id would hit the standby listener's
reply cache on a later migrate-back and replay a stale accept.  The
client :class:`~repro.core.connection.Connection` keeps its original id;
the migrate ack is matched by epoch, not id, since the two sides of a
migrated connection legitimately disagree about the name.

Everything here is default-off: no watcher, no probe, no metric name,
and no wire byte exists unless ``Runtime(failover=...)`` enabled it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..errors import (
    BerthaError,
    ConnectionClosedError,
    ConnectionTimeoutError,
    TransportError,
)
from ..obs.registry import Histogram
from ..sim.eventloop import Interrupt
from ..sim.datagram import Address
from . import messages as msgs
from . import rpc
from .connection import FAILOVER
from .establish import make_data_socket

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .connection import Connection
    from .runtime import Endpoint, Runtime

__all__ = ["FailoverConfig", "FailoverManager"]


#: Copies of each liveness probe sent per window.  Probes are tiny and only
#: flow when the connection is idle, so redundancy is nearly free — and it
#: is what keeps the consecutive-miss math honest on lossy multi-hop paths:
#: at 20% per-link loss over two hops a single probe/ack pair fails ~59% of
#: the time, a burst of three ~21%.
PROBE_BURST = 3


@dataclass
class FailoverConfig:
    """Tuning for the liveness watcher and the migration path."""

    #: Idle gap after which the watcher probes the peer (and the cadence
    #: of probes while the connection stays idle).
    heartbeat_interval: float = 500e-6
    #: Consecutive unanswered probe windows before the peer is suspected.
    miss_threshold: int = 8
    #: Bounds on the adaptive per-probe wait (the probe RTT estimate's
    #: RTO clamped into ``[min_rto, max_rto]``; ``max_rto`` alone until the
    #: first probe RTT sample).
    min_rto: float = 400e-6
    max_rto: float = 5e-3
    #: MIGRATE/MIGRATE_ACK handshake retry tuning.
    migrate_timeout: float = 1e-3
    migrate_retries: int = 8
    #: Renegotiation (resume or offer/accept) retry tuning.
    connect_timeout: float = 2e-3
    connect_retries: int = 8
    #: End-to-end budget for one migration: re-resolution, negotiation,
    #: and the migrate handshake share this elapsed-time budget.
    migration_deadline: float = 20e-3
    #: Cadence of parked-connection probes (old peer + re-resolution).
    park_retry_interval: float = 2e-3

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.miss_threshold < 1:
            raise ValueError("miss_threshold must be >= 1")
        if self.min_rto <= 0 or self.max_rto < self.min_rto:
            raise ValueError("need 0 < min_rto <= max_rto")
        if self.migration_deadline < self.connect_timeout:
            raise ValueError(
                "migration_deadline must cover at least one "
                "negotiation attempt"
            )


@dataclass
class _WatchState:
    """Per-connection watcher state."""

    conn: "Connection"
    #: The endpoint (and its connect target) that produced the
    #: connection — re-resolution and resume keys come from here.  A
    #: connection watched without them can only park, never migrate.
    endpoint: Optional["Endpoint"] = None
    target: object = None
    seq: int = field(default=0, init=False)
    mig_seq: int = field(default=0, init=False)
    #: probe seq → send time, for RTT sampling.
    pending: dict = field(default_factory=dict)
    rtt: rpc.RttEstimator = field(default_factory=rpc.RttEstimator)
    misses: int = field(default=0, init=False)
    #: Hosts this connection has declared dead; re-resolution filters
    #: them out so a migration never lands back on the corpse.
    suspected: set = field(default_factory=set)
    #: Set while parked: when the blackout started.
    park_suspect_at: Optional[float] = field(default=None, init=False)
    process: object = field(default=None, init=False)

    @property
    def parked(self) -> bool:
        return self.park_suspect_at is not None

    def next_seq(self) -> int:
        self.seq += 1
        return self.seq


class FailoverManager:
    """Per-runtime failover engine (``runtime.failover``)."""

    def __init__(self, runtime: "Runtime", config: Optional[FailoverConfig] = None):
        self.runtime = runtime
        self.env = runtime.env
        self.config = config if config is not None else FailoverConfig()
        self._states: dict[str, _WatchState] = {}
        self.heartbeats_sent = 0
        self.heartbeat_acks = 0
        self.suspicions_total = 0
        self.migrations_total = 0
        self.migration_failures = 0
        self.parked_total = 0
        self.resumed_total = 0
        #: Shared RPC counters for migrate handshakes (same dialect as
        #: negotiation, discovery, and reconfig).
        self.rpc_stats = rpc.RpcStats()
        obs = runtime.network.obs
        entity = runtime.entity.name
        for counter in (
            "heartbeats_sent",
            "heartbeat_acks",
            "suspicions_total",
            "migrations_total",
            "migration_failures",
            "parked_total",
            "resumed_total",
        ):
            obs.bind(f"failover.{entity}.{counter}", self, counter, replace=True)
        obs.bind_stats(f"rpc.failover.{entity}", self.rpc_stats)
        # Hand-registered so a rebuilt runtime (simulated process restart)
        # can take the names over, like every other replace=True binding.
        self.blackouts = Histogram(f"failover.{entity}.blackout_seconds")
        for stat in ("count", "sum", "min", "max"):
            obs.replace(
                f"{self.blackouts.name}.{stat}",
                lambda stat=stat, h=self.blackouts: h.summary()[stat],
            )

    # ------------------------------------------------------------------
    # Subscription
    # ------------------------------------------------------------------
    def watch(
        self,
        conn: "Connection",
        endpoint: Optional["Endpoint"] = None,
        target: object = None,
    ) -> _WatchState:
        """Attach a liveness watcher to ``conn`` (idempotent per id).

        ``endpoint``/``target`` enable migration: re-resolution queries
        the target service and resume keys come from the endpoint.
        Without them the watcher can still detect death and park.
        """
        state = self._states.get(conn.conn_id)
        if state is not None:
            return state
        state = _WatchState(conn=conn, endpoint=endpoint, target=target)
        self._states[conn.conn_id] = state
        obs = self.runtime.network.obs
        prefix = f"conn.{conn.conn_id}.{conn.role.value}"
        obs.bind(f"{prefix}.migrations_total", conn, "migrations", replace=True)
        obs.bind(f"{prefix}.blackout", conn, "blackout", replace=True)
        state.process = self.env.process(
            self._watch_loop(state), name=f"{conn.conn_id}.failover"
        )
        return state

    # ------------------------------------------------------------------
    # In-band control handling (called from the pump via ReconfigManager)
    # ------------------------------------------------------------------
    def handle_heartbeat_ack(
        self, conn: "Connection", message: "msgs.HeartbeatAck", src: Address
    ) -> None:
        self.heartbeat_acks += 1
        state = self._states.get(conn.conn_id)
        if state is None:
            return
        sent_at = state.pending.pop(message.seq, None)
        if sent_at is not None:
            state.rtt.observe(self.env.now - sent_at)
        state.misses = 0
        if state.parked:
            # The old peer answered: its host restarted with sockets and
            # processes intact (restart_host semantics), so the
            # connection resumes in place — no renegotiation needed.
            self._unpark(state, src)

    def _unpark(self, state: _WatchState, src: Address) -> None:
        conn = state.conn
        state.suspected.discard(src.host)
        self.resumed_total += 1
        blackout = self.env.now - state.park_suspect_at
        conn.blackout += blackout
        self.blackouts.observe(blackout)
        state.park_suspect_at = None
        replayed = self._replay(conn)
        conn.release(FAILOVER)
        self.runtime.network.trace.event(
            "park", conn.conn_id, resumed=True, replayed=replayed
        )

    # ------------------------------------------------------------------
    # The watcher
    # ------------------------------------------------------------------
    def _watch_loop(self, state: _WatchState):
        conn = state.conn
        key = conn.conn_id
        config = self.config
        try:
            while not conn.closed:
                try:
                    yield self.env.timeout(config.heartbeat_interval)
                except Interrupt:
                    return
                if conn.closed:
                    return
                if state.parked:
                    continue  # the park loop owns probing until resume
                now = self.env.now
                last = conn.last_inbound_at
                if last is not None and now - last < config.heartbeat_interval:
                    # Inbound traffic within the window is liveness enough.
                    state.misses = 0
                    continue
                dst = conn.peer or conn.last_src
                if dst is None:
                    continue
                probe_at = now
                if not self._probe(state, dst):
                    continue
                try:
                    yield self.env.timeout(
                        state.rtt.rto(config.min_rto, config.max_rto)
                    )
                except Interrupt:
                    return
                if conn.closed:
                    return
                if (
                    conn.last_inbound_at is not None
                    and conn.last_inbound_at >= probe_at
                ):
                    state.misses = 0
                    continue
                state.misses += 1
                if state.misses < config.miss_threshold:
                    continue
                state.misses = 0
                yield from self._failover(state, dst)
        finally:
            # A closed connection's state (and the connection, endpoint and
            # probes it holds) must not outlive its watcher.
            if self._states.get(key) is state:
                del self._states[key]

    def _probe(self, state: _WatchState, dst: Address) -> bool:
        conn = state.conn
        seq = state.next_seq()
        state.pending[seq] = self.env.now
        # A burst of identical probes per window (acks are idempotent;
        # the first one consumes the RTT sample, the rest just reset the
        # miss counter) so one lossy hop cannot fake a silent window.
        for _copy in range(PROBE_BURST):
            try:
                conn.send_ctl(
                    msgs.Heartbeat(conn_id=conn.conn_id, seq=seq), dst=dst
                )
            except (TransportError, ConnectionClosedError):
                state.pending.pop(seq, None)
                return False
            self.heartbeats_sent += 1
        return True

    # ------------------------------------------------------------------
    # Suspicion and migration
    # ------------------------------------------------------------------
    def _failover(self, state: _WatchState, dst: Address):
        """Generator: suspect ``dst``, try to migrate, else park."""
        conn = state.conn
        runtime = self.runtime
        config = self.config
        suspect_at = self.env.now
        state.suspected.add(dst.host)
        self.suspicions_total += 1
        # The suspect's cached negotiation results are lies now: a resume
        # against it would burn a timeout chain inside the migration
        # budget, and a sibling connect would land on the corpse.
        runtime.negcache.suspect_instance(dst.host)
        span = runtime.network.trace.begin(
            "migrate", conn.conn_id, suspect=dst.host
        )
        conn.hold(FAILOVER)
        frozen = self._freeze(conn)
        deadline = suspect_at + config.migration_deadline
        while not conn.closed and self.env.now < deadline:
            found = yield from self._find_standby(state, deadline)
            if found is None:
                break
            if (yield from self._migrate(state, *found, deadline, suspect_at)):
                accept, _ctl_addr, resumed = found
                runtime.network.trace.finish(
                    span,
                    standby=accept.data_addr.host,
                    resumed=resumed,
                    frozen=frozen,
                    blackout=self.env.now - suspect_at,
                )
                return
        # No standby (or the budget ran out): park degraded.  Sends stay
        # buffered; the unacked window stays frozen; probes continue to
        # the old peer so a restarted host resumes the connection.
        self.parked_total += 1
        state.park_suspect_at = suspect_at
        runtime.network.trace.finish(span, status="parked", frozen=frozen)
        runtime.network.trace.event("park", conn.conn_id, suspect=dst.host)
        yield from self._park_loop(state, dst)

    def _park_loop(self, state: _WatchState, dst: Address):
        conn = state.conn
        config = self.config
        while not conn.closed and state.parked:
            try:
                yield self.env.timeout(config.park_retry_interval)
            except Interrupt:
                return
            if conn.closed or not state.parked:
                break
            # Probe the old peer: restart_host revives its sockets and
            # processes, so an answered probe unparks (via the pump).
            self._probe(state, dst)
            # And keep looking for a standby that registered since.
            deadline = self.env.now + config.migration_deadline
            found = yield from self._find_standby(state, deadline)
            if found is None or conn.closed or not state.parked:
                continue
            if (yield from self._migrate(
                state, *found, deadline, state.park_suspect_at
            )):
                state.park_suspect_at = None
        state.misses = 0

    def _find_standby(self, state: _WatchState, deadline: float):
        """Generator → ``(accept, ctl_addr, resumed)`` from a live instance
        of the connection's target, or None (PROTOCOL.md §9.3).

        The endpoint's own resume and offer steps under a fresh migration
        conn id, skipping suspected hosts; the resume is this manager's
        RPC.  No degraded mode and no query cache: a discovery timeout, a
        refusal or no live instance returns None — and so does a
        connection without an endpoint.  An address target gets the
        resume only.
        """
        endpoint, target, avoid = state.endpoint, state.target, state.suspected
        if endpoint is None:
            return None
        state.mig_seq += 1
        conn_id = f"{state.conn.conn_id}:m{state.mig_seq}"
        config = self.config
        timing = (config.connect_timeout, config.connect_retries, deadline)
        resumed = yield from endpoint._resume(
            conn_id, endpoint._resume_key(target), avoid, self.rpc_stats, *timing
        )
        if resumed:
            return (*resumed, True)
        if not isinstance(target, str):
            # An address target names one instance; with it dead there is
            # nothing to re-resolve.
            return None
        query_types = sorted(endpoint._query_types())
        try:
            disc = yield from self.runtime.discovery.query(
                query_types, service_name=target, deadline=deadline
            )
        except ConnectionTimeoutError:
            return None
        try:
            targets, accepts = yield from endpoint._offer(
                conn_id, target, query_types, disc, avoid, *timing
            )
        except BerthaError:
            return None
        return accepts[0], targets[0], False

    def _migrate(
        self, state: _WatchState, accept: "msgs.Accept", ctl_addr: Address,
        resumed: bool, deadline: float, suspect_at: float,
    ):
        """Generator → bool: move the connection onto a standby's accepted
        binding through the reconfiguration engine's epoch change; this
        side supplies the handshake and points the connection back at the
        old peer if it fails.  Sends stay held by ``FAILOVER`` until the
        window is replayed, so an abort sends nothing anywhere."""
        conn = state.conn
        runtime = self.runtime
        old_peers = list(conn.peers)
        old_transport = conn.transport
        replayed = 0

        def handshake(epoch, stack):
            nonlocal replayed
            conn.rebind_socket(make_data_socket(runtime.entity, accept.transport))
            conn.transport = accept.transport
            conn.peers = [accept.data_addr]
            conn.last_src = None
            ack = yield from runtime.reconfig.announce(
                conn,
                msgs.Migrate(
                    conn_id=conn.conn_id,
                    epoch=epoch,
                    client_entity=runtime.entity.name,
                ),
                accept.data_addr,
                self.config.migrate_timeout,
                self.config.migrate_retries,
                self.rpc_stats,
                deadline,
            )
            if ack is None or not ack.ok:
                return False
            # Replay the frozen window *before* the commit drains the send
            # buffer: replayed messages carry the older sequence numbers,
            # so this keeps delivery in order on the standby.
            replayed = self._replay(conn, stack)
            conn.release(FAILOVER)
            return True

        try:
            old_epoch = yield from runtime.reconfig.migrate(conn, accept, handshake)
        except BerthaError:
            old_epoch = None
        if old_epoch is None:
            conn.peers = old_peers
            conn.transport = old_transport
            self.migration_failures += 1
            return False
        conn.migrations += 1
        self.migrations_total += 1
        blackout = self.env.now - suspect_at
        conn.blackout += blackout
        self.blackouts.observe(blackout)
        state.misses = 0
        runtime.reconfig._log(
            conn,
            "migrated",
            f"epoch {conn.epoch} -> {accept.data_addr.host} "
            f"({'resume' if resumed else 'offer'}, replayed {replayed})",
        )
        # Refresh the cache so sibling connections of this endpoint
        # fast-path their own migration to the same standby in one RTT.
        key = state.endpoint._resume_key(state.target)
        if key is not None:
            state.endpoint._remember(key, ctl_addr, accept)
        return True

    # ------------------------------------------------------------------
    # Window freeze/replay plumbing
    # ------------------------------------------------------------------
    def _freeze(self, conn: "Connection") -> int:
        """Stop every reliability stage's retransmit timers; returns how
        many unacked messages are frozen."""
        return sum(
            stage.freeze_retransmits()
            for stage in conn.live_stages()
            if hasattr(stage, "freeze_retransmits")
        )

    def _replay(self, conn: "Connection", stack=None) -> int:
        """Replay every frozen unacked window (toward the current peer);
        returns how many messages were re-sent."""
        stages = stack.stages if stack is not None else conn.live_stages()
        return sum(
            stage.replay_unacked()
            for stage in stages
            if hasattr(stage, "replay_unacked")
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FailoverManager on {self.runtime.entity.name!r} "
            f"migrations={self.migrations_total} "
            f"parked={self.parked_total}>"
        )
