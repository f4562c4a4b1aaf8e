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
negotiation results, re-resolves the service, renegotiates with a standby
(one-RTT resume when the cache names a live instance — a herd of
connections migrating off one dead host pays full negotiation once —
falling back to a full offer/accept), rebinds the data socket under a
fresh migration epoch, confirms with a ``bertha.migrate`` /
``bertha.migrate_ack`` handshake, replays the frozen unacked window, and
commits.  The replay delivers exactly once: the standby's receive-side
dedup table has never seen this sender's sequence numbers.  The whole
attempt chain — discovery, negotiation, handshake — shares one
elapsed-time budget (``migration_deadline``), threaded down as an
absolute :func:`repro.core.rpc.call` deadline.

**Parking** — when no standby exists (or the budget runs out) the
connection parks: sends stay buffered, the watcher keeps probing the old
peer, and a probe answered after the host restarts resumes the
connection in place — replaying the unacked window to the revived peer.

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
from ..reconfig.engine import _same_offer
from ..sim.eventloop import Event, Interrupt
from ..sim.transport import UdpSocket
from ..sim.datagram import Address
from . import messages as msgs
from . import rpc
from .establish import build_binding, make_data_socket, teardown_nodes
from .wire import WireError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .connection import Connection
    from .runtime import Endpoint, Runtime

__all__ = ["FailoverConfig", "FailoverManager"]


@dataclass
class FailoverConfig:
    """Tuning for the liveness watcher and the migration path."""

    #: Idle gap after which the watcher probes the peer (and the cadence
    #: of probes while the connection stays idle).
    heartbeat_interval: float = 500e-6
    #: Consecutive unanswered probe windows before the peer is suspected.
    miss_threshold: int = 8
    #: Copies of each probe sent per window.  Probes are tiny and only
    #: flow when the connection is idle, so redundancy is nearly free —
    #: and it is what keeps the consecutive-miss math honest on lossy
    #: multi-hop paths: at 20% per-link loss over two hops a single
    #: probe/ack pair fails ~59% of the time, a burst of three ~21%.
    probe_burst: int = 3
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
        if self.probe_burst < 1:
            raise ValueError("probe_burst must be >= 1")
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
    seq: int = 0
    mig_seq: int = 0
    #: probe seq → send time, for RTT sampling.
    pending: dict = field(default_factory=dict)
    rtt: rpc.RttEstimator = field(default_factory=rpc.RttEstimator)
    misses: int = 0
    #: Hosts this connection has declared dead; re-resolution filters
    #: them out so a migration never lands back on the corpse.
    suspected: set = field(default_factory=set)
    #: Set while parked: when the blackout started.
    park_suspect_at: Optional[float] = None
    process: object = None

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
        #: (conn_id, epoch) → Event the pump fulfils with the MigrateAck.
        self._migrate_waiters: dict[tuple, Event] = {}
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
        obs.bind_stats(f"rpc.failover.{entity}", self.rpc_stats, replace=True)
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
        if conn.parked:
            # The old peer answered: its host restarted with sockets and
            # processes intact (restart_host semantics), so the
            # connection resumes in place — no renegotiation needed.
            self._unpark(state, src)

    def handle_migrate_ack(
        self, conn: "Connection", message: "msgs.MigrateAck", src: Address
    ) -> None:
        waiter = self._migrate_waiters.get((conn.conn_id, message.epoch))
        if waiter is not None and not waiter.triggered:
            waiter.succeed(message)

    def _unpark(self, state: _WatchState, src: Address) -> None:
        conn = state.conn
        conn.parked = False
        state.suspected.discard(src.host)
        self.resumed_total += 1
        if state.park_suspect_at is not None:
            blackout = self.env.now - state.park_suspect_at
            conn.blackout += blackout
            self.blackouts.observe(blackout)
            state.park_suspect_at = None
        replayed = self._replay(conn)
        conn.resume_sends()
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
                if conn.parked:
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
        for _copy in range(self.config.probe_burst):
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
        conn.pause_sends()
        frozen = self._freeze(conn)
        deadline = suspect_at + config.migration_deadline
        while not conn.closed and self.env.now < deadline:
            try:
                accept, ctl_addr, resumed = yield from self._renegotiate(
                    state, deadline
                )
            except ConnectionTimeoutError:
                break
            if accept is None:
                break
            ok = yield from self._adopt(
                state, accept, ctl_addr, resumed, deadline, suspect_at
            )
            if ok:
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
        conn.parked = True
        state.park_suspect_at = suspect_at
        runtime.network.trace.finish(span, status="parked", frozen=frozen)
        runtime.network.trace.event("park", conn.conn_id, suspect=dst.host)
        yield from self._park_loop(state, dst)

    def _park_loop(self, state: _WatchState, dst: Address):
        conn = state.conn
        config = self.config
        while not conn.closed and conn.parked:
            try:
                yield self.env.timeout(config.park_retry_interval)
            except Interrupt:
                return
            if conn.closed or not conn.parked:
                break
            # Probe the old peer: restart_host revives its sockets and
            # processes, so an answered probe unparks (via the pump).
            self._probe(state, dst)
            # And keep looking for a standby that registered since.
            deadline = self.env.now + config.migration_deadline
            try:
                accept, ctl_addr, resumed = yield from self._renegotiate(
                    state, deadline
                )
            except ConnectionTimeoutError:
                continue
            if conn.closed or not conn.parked or accept is None:
                continue
            suspect_at = state.park_suspect_at
            ok = yield from self._adopt(
                state,
                accept,
                ctl_addr,
                resumed,
                deadline,
                suspect_at if suspect_at is not None else self.env.now,
            )
            if ok:
                conn.parked = False
                state.park_suspect_at = None
        state.misses = 0

    def _renegotiate(self, state: _WatchState, deadline: float):
        """Generator → ``(accept, ctl_addr, resumed)`` or ``(None, ..)``.

        One renegotiation attempt under a fresh migration conn id: the
        cached-entry resume fast path first (one control RTT), then a
        full re-resolution + offer/accept.
        """
        conn = state.conn
        runtime = self.runtime
        endpoint = state.endpoint
        if endpoint is None:
            return None, None, False
        state.mig_seq += 1
        mig_id = f"{conn.conn_id}:m{state.mig_seq}"
        resumable = runtime.negcache.enabled and isinstance(
            state.target, (str, Address)
        )
        if resumable:
            key = endpoint._resume_key(state.target)
            entry = runtime.negcache.lookup(key)
            if entry is not None and entry["ctl_addr"].host not in state.suspected:
                accept = yield from self._resume_once(
                    state, mig_id, entry, deadline
                )
                if accept is not None:
                    return accept, entry["ctl_addr"], True
                runtime.negcache.note_fallback(key)
        if not isinstance(state.target, str):
            # An address target names one instance; with it dead there is
            # nothing to re-resolve.
            return None, None, False
        query_types = set(endpoint.dag.chunnel_types()) | (
            runtime.registry.registered_types()
        )
        disc = yield from runtime.discovery.query(
            sorted(query_types),
            service_name=state.target,
            deadline=deadline,
        )
        candidates = [
            addr for addr in disc.instances if addr.host not in state.suspected
        ]
        if not candidates:
            return None, None, False
        target_addr = endpoint._select_instance(candidates)
        offer_msg = msgs.Offer(
            conn_id=mig_id,
            dag=endpoint.dag,
            offers=runtime.registry.offers_for(
                sorted(query_types), origin="client"
            ),
            client_entity=runtime.entity.name,
            network_offers=disc.offers,
        )
        ctl = UdpSocket(runtime.entity)
        try:
            accept = yield from endpoint._negotiate_once(
                ctl,
                target_addr,
                offer_msg,
                self.config.connect_timeout,
                self.config.connect_retries,
                deadline=deadline,
            )
        except ConnectionTimeoutError:
            raise
        except BerthaError:
            return None, None, False
        finally:
            ctl.close()
        return accept, target_addr, False

    def _resume_once(self, state: _WatchState, mig_id: str, entry, deadline):
        """Generator: one RESUME round trip against a cached binding.

        Like :meth:`Endpoint._try_resume` but stops at the accept — the
        binding is applied to the existing connection, not a new one.
        Returns the :class:`~repro.core.messages.Accept` or None.
        """
        runtime = self.runtime
        endpoint = state.endpoint
        ctl_addr = entry["ctl_addr"]
        resume_msg = msgs.Resume(
            conn_id=mig_id,
            dag=endpoint.dag,
            choice=entry["choice"],
            client_entity=runtime.entity.name,
            policy_epoch=entry["server_epoch"],
        )
        payload, size = msgs.encode_message_sized(resume_msg)
        ctl = UdpSocket(runtime.entity)

        def send(_attempt: int) -> None:
            ctl.send(payload, ctl_addr, size=size)

        def match(dgram, _attempt: int):
            try:
                reply = msgs.decode_message(dgram.payload)
            except WireError:
                return None
            if getattr(reply, "conn_id", None) != mig_id:
                return None
            if isinstance(reply, (msgs.Accept, msgs.ResumeReject, msgs.Error)):
                return reply
            return None

        try:
            reply = yield from rpc.call(
                runtime.env,
                rpc.RetryPolicy(
                    timeout=self.config.connect_timeout,
                    retries=self.config.connect_retries,
                ),
                send,
                rpc.socket_waiter(runtime.env, ctl, match),
                stats=self.rpc_stats,
                describe=f"migration resume with {ctl_addr}",
                trace=runtime.network.trace,
                conn_id=state.conn.conn_id,
                deadline=deadline,
            )
        except ConnectionTimeoutError:
            reply = None
        finally:
            ctl.close()
        return reply if isinstance(reply, msgs.Accept) else None

    def _adopt(
        self,
        state: _WatchState,
        accept: "msgs.Accept",
        ctl_addr,
        resumed: bool,
        deadline: float,
        suspect_at: float,
    ):
        """Generator → bool: apply a standby's accepted binding to the
        live connection under a fresh migration epoch."""
        conn = state.conn
        runtime = self.runtime
        reconfig = runtime.reconfig
        # Same shape ⇒ keep our DAG object so node identities (and the
        # setup contexts keyed on them) survive, like a transition.
        same_shape = (
            accept.dag.canonical_shape() == conn.dag.canonical_shape()
        )
        dag = conn.dag if same_shape else accept.dag
        choice = accept.choice
        changed = {
            node_id
            for node_id in dag.topological_order()
            if not _same_offer(conn.choice.get(node_id), choice.get(node_id))
        }
        if not same_shape:
            changed = set(dag.topological_order())
        rstate = reconfig._state(conn)
        epoch = rstate.next_epoch
        rstate.next_epoch += 1
        try:
            impls, ctx_map, stage_map = build_binding(
                runtime,
                role=conn.role,
                conn_id=conn.conn_id,
                dag=dag,
                choice=choice,
                client_entity=conn.client_entity,
                server_entity=accept.data_addr.host,
                params=conn.params,
                changed=changed,
                reuse=conn,
                fresh_params=True,
            )
        except BerthaError:
            self.migration_failures += 1
            return False
        # A replaced reliability binding cannot carry its stage object
        # over; hand the frozen unacked window to the replacement so the
        # replay still covers it.
        old_map = conn._stage_map or {}
        for node_id in sorted(changed):
            old_stage = old_map.get(node_id)
            new_stage = stage_map.get(node_id)
            if (
                old_stage is not None
                and new_stage is not None
                and hasattr(new_stage, "adopt_window")
                and getattr(old_stage, "_unacked", None)
            ):
                new_stage.adopt_window(old_stage._unacked)
        try:
            stages = [
                stage_map[node_id]
                for node_id in dag.topological_order()
                if stage_map[node_id] is not None
            ]
            new_stack = conn.prepare_transition(epoch, stages)
            for node_id in sorted(changed):
                impls[node_id].after_establish(ctx_map[node_id], conn)
        except BerthaError:
            conn.abort_transition(epoch)
            teardown_nodes(impls, ctx_map, changed)
            # abort resumed sends toward the dead peer; re-freeze (the
            # flushed messages stay recoverable in the unacked window).
            conn.pause_sends()
            self._freeze(conn)
            self.migration_failures += 1
            return False
        old_peers = list(conn.peers)
        old_transport = conn.transport
        conn.rebind_socket(make_data_socket(runtime.entity, accept.transport))
        conn.transport = accept.transport
        conn.peers = [accept.data_addr]
        conn.last_src = None
        ack = yield from self._exchange_migrate(
            conn, mig_id_epoch=epoch, dst=accept.data_addr, deadline=deadline
        )
        if ack is None or not ack.ok:
            conn.abort_transition(epoch)
            teardown_nodes(impls, ctx_map, changed)
            conn.peers = old_peers
            conn.transport = old_transport
            conn.pause_sends()
            self._freeze(conn)
            self.migration_failures += 1
            return False
        # Commit.  Replay the frozen window *before* the commit flushes
        # the send buffer: replayed messages carry the older sequence
        # numbers, so this keeps delivery in order on the standby.
        old_choice = dict(conn.choice)
        old_impls = dict(conn.impls)
        old_ctxs = {
            n: conn._context_for(n) for n in changed if n in conn.impls
        }
        replayed = self._replay(conn, new_stack)
        contexts = [
            ctx_map[node_id]
            for node_id in dag.topological_order()
            if ctx_map[node_id] is not None
        ]
        old_epoch = conn.commit_transition(
            epoch,
            dag=dag,
            impls=impls,
            choice=choice,
            contexts=contexts,
            stage_map=stage_map,
        )
        for node_id in sorted(changed):
            impl = old_impls.get(node_id)
            octx = old_ctxs.get(node_id)
            if impl is not None and octx is not None:
                impl.teardown(octx)
                for handle in octx.reservations:
                    runtime.spawn_release(handle)
        conn.retire_epoch(old_epoch, grace=reconfig.retire_grace)
        conn.migrations += 1
        conn.parked = False
        self.migrations_total += 1
        blackout = self.env.now - suspect_at
        conn.blackout += blackout
        self.blackouts.observe(blackout)
        state.misses = 0
        reconfig._log(
            conn,
            "migrated",
            f"epoch {epoch} -> {accept.data_addr.host} "
            f"({'resume' if resumed else 'offer'}, replayed {replayed})",
        )
        # Refresh the cache so sibling connections of this endpoint
        # fast-path their own migration to the same standby in one RTT.
        if (
            state.endpoint is not None
            and runtime.negcache.enabled
            and isinstance(state.target, (str, Address))
        ):
            record_ids = {
                o.record_id for o in choice.values() if o.record_id
            }
            runtime.negcache.store(
                state.endpoint._resume_key(state.target),
                {
                    "ctl_addr": ctl_addr,
                    "choice": choice,
                    "server_epoch": accept.policy_epoch,
                },
                tags=record_ids
                | {
                    state.endpoint.dag.canonical_shape(),
                    dag.canonical_shape(),
                    runtime.negcache.instance_tag(accept.data_addr.host),
                },
            )
            runtime.negcache_watch_records(record_ids)
        return True

    def _exchange_migrate(self, conn, mig_id_epoch: int, dst, deadline):
        """Generator: MIGRATE with retries → the MigrateAck, or None."""
        epoch = mig_id_epoch
        announcement = msgs.Migrate(
            conn_id=conn.conn_id,
            epoch=epoch,
            client_entity=self.runtime.entity.name,
        )
        ack_event = Event(self.env)
        self._migrate_waiters[(conn.conn_id, epoch)] = ack_event
        policy = rpc.RetryPolicy(
            timeout=self.config.migrate_timeout,
            retries=self.config.migrate_retries,
        )
        try:
            return (
                yield from rpc.call(
                    self.env,
                    policy,
                    lambda attempt: conn.send_ctl(announcement, dst=dst),
                    rpc.event_waiter(self.env, ack_event),
                    stats=self.rpc_stats,
                    describe=f"{conn.conn_id}: migrate epoch {epoch}",
                    trace=self.runtime.network.trace,
                    conn_id=conn.conn_id,
                    deadline=deadline,
                )
            )
        except ConnectionTimeoutError:
            return None
        finally:
            self._migrate_waiters.pop((conn.conn_id, epoch), None)

    # ------------------------------------------------------------------
    # Window freeze/replay plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _stages_of(conn: "Connection"):
        seen: dict[int, object] = {}
        for stack in conn._stacks.values():
            for stage in stack.stages:
                seen[id(stage)] = stage
        return list(seen.values())

    def _freeze(self, conn: "Connection") -> int:
        """Stop every reliability stage's retransmit timers; returns how
        many unacked messages are frozen."""
        frozen = 0
        for stage in self._stages_of(conn):
            freeze = getattr(stage, "freeze_retransmits", None)
            if freeze is not None:
                frozen += freeze()
        return frozen

    def _replay(self, conn: "Connection", stack=None) -> int:
        """Replay every frozen unacked window (toward the current peer);
        returns how many messages were re-sent."""
        stages = stack.stages if stack is not None else self._stages_of(conn)
        replayed = 0
        seen: set[int] = set()
        for stage in stages:
            if id(stage) in seen:
                continue
            seen.add(id(stage))
            replay = getattr(stage, "replay_unacked", None)
            if replay is not None:
                replayed += replay()
        return replayed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FailoverManager on {self.runtime.entity.name!r} "
            f"migrations={self.migrations_total} "
            f"parked={self.parked_total}>"
        )
