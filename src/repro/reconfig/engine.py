"""The live-transition engine: every epoch change of a connection.

The decision side reuses negotiation's machinery
(:func:`repro.core.negotiation.decide_with_reservations` against a fresh
discovery query), so a transition is "establishment, minus the offer/accept
round trip": the server already holds the client's offers from the original
exchange and re-decides locally.

A connection changes epoch when the server commits a transition it
decided, when the peer adopts one (synchronously, in its pump) and when a
failed-over client moves onto a standby's binding
(:meth:`ReconfigManager.migrate`, driven by :mod:`repro.core.failover`).
All three run one sequence, :meth:`ReconfigManager._change_epoch`
(PROTOCOL.md §5.2):

1. **Prepare** — instantiate implementations for the nodes whose binding
   changed (unchanged nodes carry their live stage objects — and therefore
   their state — into the new stack), let each successor adopt the state
   of the stage it replaces (``adopt_state``: a reliability stage's
   numbering, frozen window, RTT estimate and dedup table), and run setup
   *and* after-establish hooks.  Device programs are thus installed while
   the old stack still serves: an upgrade redirects packets before they
   can miss the new stack.
2. **Announce** — an initiator holds sends (the connection's ``EPOCH``
   hold), sends ``TRANSITION`` or ``MIGRATE`` in-band and waits for the
   ack (:meth:`ReconfigManager.announce`).
3. **Commit** — swap the current epoch (releasing ``EPOCH``), release
   leases, tear down replaced implementations, and retire the old stack
   after a grace period.  On a refusal, a timeout or a failed prepare,
   tear the *new* implementations down and keep the old stack (rollback;
   the abort releases ``EPOCH`` too).

The callers differ only in data: the epoch's source (the connection
numbers its own epochs, :meth:`Connection.new_epoch`; an adopting peer
takes the announced one), the server entity, and how leases go back (the
server waits, a migration spawns, the peer holds none).

Messages in flight during the handover carry their stack's epoch in a
header; the receiving connection routes each message to the stack of its
epoch, so no message is ever processed by a half-matching stack — the
zero-loss property the reconfig tests assert.  A stack whose offload device
died is *broken*: its stragglers route to the newest stack instead.

Transitions on one connection serialize: a second request queues until the
first commits or rolls back.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Iterable, Optional

from ..core import messages as msgs
from ..core import rpc
from ..core.chunnel import Role, same_binding
from ..core.connection import EPOCH
from ..core.dag import ChunnelDag
from ..core.establish import build_binding
from ..core.negotiation import candidate_pool, decide_with_reservations
from ..core.scope import Placement
from ..errors import BerthaError, ConnectionTimeoutError, ReconfigurationError
from ..sim.eventloop import Event, Interrupt
from .triggers import DeviceFailureDetector, DiscoveryWatcher

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.connection import Connection
    from ..core.runtime import Runtime

__all__ = ["ReconfigManager", "TransitionRecord"]

#: How often :meth:`ReconfigManager.enable_upgrade_polling` re-decides.
UPGRADE_POLL_INTERVAL = 0.25

#: The ack kind that answers each epoch announcement: the waiter table's
#: key is ``(ack kind, epoch)``.
_ACK_KIND = {
    msgs.Transition: msgs.TransitionAck.KIND,
    msgs.Migrate: msgs.MigrateAck.KIND,
}


def _resolve_dag(conn: "Connection", incoming: ChunnelDag):
    """``(dag, forced)``: the DAG an epoch change builds, and the nodes it
    rebuilds whatever the choice.  A same-structure ``incoming`` whose
    specs differ only in args (a multipath weight update, a retuned
    timeout) merges into the live DAG, and only the nodes whose args
    changed are forced to rebuild.  A same-shape DAG that
    won't merge (relabeled node ids) keeps ours wholesale; a different
    shape rebuilds every node."""
    merge = ChunnelDag.merge_arg_updates(conn.dag, incoming)
    if merge is not None:
        return merge
    if incoming.canonical_shape() == conn.dag.canonical_shape():
        return conn.dag, set()
    return incoming, set(incoming.topological_order())


def _changed_nodes(conn: "Connection", dag: ChunnelDag, choice, forced) -> set:
    """Nodes whose binding changes: a different offer, or ``forced``."""
    return forced | {
        node_id
        for node_id in dag.topological_order()
        if not same_binding(conn.choice.get(node_id), choice.get(node_id))
    }


@dataclass
class TransitionRecord:
    """One engine event, for experiment timelines and debugging."""

    time: float
    conn_id: str
    event: str
    detail: str = ""


@dataclass
class _ConnState:
    """Per-connection engine state."""

    conn: "Connection"
    #: Adopting side: one ack per ``(announcement KIND, epoch)``.
    acks: rpc.Responder
    busy: bool = field(default=False, init=False)
    queue: deque = field(default_factory=deque)
    #: Announcing side: in-flight ack waiter per ``(ack kind, epoch)``.
    ack_waiters: dict = field(default_factory=dict)
    #: Client side: done-events for requests sent to the server.
    pending_requests: list = field(default_factory=list)
    #: Sticky (impl name, record_id) exclusions, e.g. failed devices.
    excluded: set = field(default_factory=set)
    #: location -> exclusions added for that device (cleared on recovery).
    device_exclusions: dict = field(default_factory=dict)
    watched_records: set = field(default_factory=set)
    watched_devices: set = field(default_factory=set)


class ReconfigManager:
    """Per-runtime transition engine (``runtime.reconfig``)."""

    def __init__(self, runtime: "Runtime"):
        self.runtime = runtime
        self.env = runtime.env
        #: TRANSITION/ACK retransmission: the first wait and the attempts.
        self.ack_timeout = 2e-3
        self.ack_retries = 8
        self.failure_detector = DeviceFailureDetector(runtime.network)
        self._discovery_watcher: Optional[DiscoveryWatcher] = None
        self._states: dict[str, _ConnState] = {}
        self.transitions_started = 0
        self.transitions_committed = 0
        self.transitions_rolled_back = 0
        self.transitions_failed = 0
        self.transitions_noop = 0
        #: Shared RPC counters for TRANSITION/ACK exchanges (same dialect
        #: as negotiation and discovery).
        self.rpc_stats = rpc.RpcStats()
        self.pause_times: list[float] = []
        self.log: list[TransitionRecord] = []
        # Engine counters in the world registry (replace: the engine is
        # created on demand, and a rebuilt runtime rebuilds its engine).
        obs = runtime.network.obs
        entity = runtime.entity.name
        for counter in (
            "transitions_started",
            "transitions_committed",
            "transitions_rolled_back",
            "transitions_failed",
            "transitions_noop",
        ):
            obs.bind(f"reconfig.{entity}.{counter}", self, counter, replace=True)
        obs.bind_stats(f"rpc.reconfig.{entity}", self.rpc_stats)

    # ------------------------------------------------------------------
    # Subscription
    # ------------------------------------------------------------------
    @property
    def discovery_watcher(self) -> DiscoveryWatcher:
        if self._discovery_watcher is None:
            self._discovery_watcher = DiscoveryWatcher(self.runtime)
        return self._discovery_watcher

    def watch(self, conn: "Connection") -> None:
        """Subscribe ``conn`` to revocation pushes and device failures for
        every offload its current binding uses."""
        state = self._state(conn)
        self._watch_choice(state)

    def _watch_choice(self, state: _ConnState) -> None:
        conn = state.conn
        for offer in conn.choice.values():
            record_id = offer.record_id
            if record_id and record_id not in state.watched_records:
                state.watched_records.add(record_id)
                self.discovery_watcher.watch_record(
                    record_id,
                    lambda rid, kind, push, c=conn: self._on_record_event(
                        c, rid, kind, push
                    ),
                )
            location = offer.location
            if (
                location
                and offer.meta.placement
                in (Placement.SWITCH, Placement.SMARTNIC)
                and location not in state.watched_devices
            ):
                if self.failure_detector.watch(
                    location,
                    lambda loc, dev, failed, reason, c=conn: (
                        self._on_device_event(c, loc, dev, failed, reason)
                    ),
                ):
                    state.watched_devices.add(location)

    def enable_upgrade_polling(self, conn: "Connection"):
        """Re-decide every :data:`UPGRADE_POLL_INTERVAL`, so a newly
        (re)registered better implementation is adopted without an external
        trigger.  Returns the polling process (interrupt it, or close the
        connection, to stop)."""
        self._state(conn)

        def _poll():
            while not conn.closed:
                try:
                    yield self.env.timeout(UPGRADE_POLL_INTERVAL)
                except Interrupt:
                    return
                if conn.closed:
                    return
                self.request_transition(conn, reason="upgrade-poll")

        return self.env.process(_poll(), name=f"{conn.conn_id}.upgrade-poll")

    # ------------------------------------------------------------------
    # Triggers
    # ------------------------------------------------------------------
    def _on_record_event(
        self, conn: "Connection", record_id: str, kind: str, push
    ) -> None:
        if conn.closed:
            return
        in_use = any(o.record_id == record_id for o in conn.choice.values())
        if not in_use:
            return
        state = self._state(conn)
        if kind == msgs.Revoked.KIND:
            # The record is gone for good: never pick it again.
            for offer in conn.choice.values():
                if offer.record_id == record_id:
                    state.excluded.add((offer.meta.name, record_id))
        self._log(conn, "trigger", f"{kind}:{record_id}")
        self.request_transition(conn, reason=f"{kind}:{record_id}")

    def _on_device_event(
        self, conn: "Connection", location: str, device, failed: bool, reason: str
    ) -> None:
        if conn.closed:
            return
        state = self._state(conn)
        if failed:
            pairs = {
                (offer.meta.name, offer.record_id)
                for offer in conn.choice.values()
                if offer.location == location and offer.meta.placement.is_offload
            }
            if not pairs:
                return
            state.device_exclusions.setdefault(location, set()).update(pairs)
            state.excluded |= pairs
            # The device is dead *now*: stragglers stamped with the current
            # epoch must already be routed to whatever stack is newest.
            conn.mark_broken()
            self._log(conn, "trigger", f"device-failed:{location} ({reason})")
            self.request_transition(conn, reason=f"device-failed:{location}")
        else:
            pairs = state.device_exclusions.pop(location, set())
            if not pairs:
                return
            state.excluded -= pairs
            self._log(conn, "trigger", f"device-recovered:{location}")
            self.request_transition(conn, reason=f"device-recovered:{location}")

    # ------------------------------------------------------------------
    # Transition entry points
    # ------------------------------------------------------------------
    def request_transition(
        self,
        conn: "Connection",
        reason: str = "",
        exclude: Iterable = (),
        target_dag: Optional[ChunnelDag] = None,
    ) -> Event:
        """Ask for a renegotiation of ``conn``; returns a done-event.

        On the deciding side (the server) the transition is queued —
        concurrent requests on one connection serialize.  On a client the
        request is forwarded in-band to the server; the done-event fires
        when a resulting TRANSITION commits locally (a server-side "no
        change needed" verdict produces no TRANSITION, so callers polling
        for upgrades should not block on it).
        """
        state = self._state(conn)
        done = Event(self.env)
        if conn.role is Role.CLIENT:
            state.pending_requests.append(done)
            conn.send_ctl(
                msgs.TransitionRequest(conn_id=conn.conn_id, reason=reason)
            )
            return done
        state.queue.append((reason, set(exclude), target_dag, done))
        self._kick(state)
        return done

    def _kick(self, state: _ConnState) -> None:
        if state.busy or not state.queue or state.conn.closed:
            return
        state.busy = True
        item = state.queue.popleft()
        self.env.process(
            self._run_transition(state, item),
            name=f"{state.conn.conn_id}.transition",
        )

    def _run_transition(self, state: _ConnState, item):
        reason, exclude, target_dag, done = item
        conn = state.conn
        self.transitions_started += 1
        trace = self.runtime.network.trace
        span = trace.begin(
            "reconfig", conn.conn_id, epoch=conn.epochs_issued + 1, reason=reason
        )
        outcome = "failed"
        try:
            outcome = yield from self._transition(
                state, reason, exclude, target_dag
            )
        except BerthaError as error:
            self.transitions_failed += 1
            self._log(conn, "failed", f"{type(error).__name__}: {error}")
        finally:
            trace.finish(span, status=outcome)
            state.busy = False
            if not done.triggered:
                done.succeed(outcome)
            self._kick(state)

    # ------------------------------------------------------------------
    # The transition itself (server side)
    # ------------------------------------------------------------------
    def _transition(self, state: _ConnState, reason, exclude, target_dag):
        conn = state.conn
        runtime = self.runtime
        if conn.negotiation_state is None:
            raise ReconfigurationError(
                f"{conn.conn_id}: no negotiation state — only the deciding "
                "(server) side of a negotiated connection can transition"
            )
        offers, ctx = conn.negotiation_state
        # The owner the listener reserved under: ``<entity>:<endpoint>``.
        owner = f"{runtime.entity.name}:{conn.name}"
        old_shape = conn.dag.canonical_shape()
        dag, forced = _resolve_dag(
            conn, conn.dag if target_dag is None else target_dag
        )

        # Re-decide against fresh offers: the client's stored offers, our
        # registry, and a *new* discovery query (the client's establishment-
        # time network view is stale by definition here).
        candidates = yield from self._assemble_candidates(conn, dag, offers)
        excluded = set(state.excluded) | set(exclude)
        choice, confirmed = yield from decide_with_reservations(
            runtime,
            dag,
            candidates,
            ctx,
            owner,
            excluded=excluded,
            conn_id=conn.conn_id,
        )

        changed = _changed_nodes(conn, dag, choice, forced)
        if dag is conn.dag and not changed:
            yield from self._release_all(confirmed.values())
            self.transitions_noop += 1
            self._log(conn, "noop", reason)
            return "noop"

        epoch = conn.new_epoch()
        self._log(conn, "prepare", f"epoch {epoch}: {reason}")
        # Stragglers stamped with the old epoch may rely on a device
        # program the new binding removes: once committed, they route to
        # the new stack.
        replaced_offload = any(
            conn.impls[node_id].meta.placement.is_offload
            for node_id in changed
            if node_id in conn.impls
        )
        reply = None

        def handshake(epoch, _stack):
            nonlocal reply
            started = self.env.now
            # A connection whose peer address is unknown (no traffic seen,
            # no hello) commits unilaterally.
            target = conn.peer or conn.last_src
            if target is not None:
                reply = yield from self.announce(
                    conn,
                    msgs.Transition(
                        conn_id=conn.conn_id,
                        epoch=epoch,
                        dag=dag,
                        choice=choice,
                        reason=reason,
                    ),
                    target,
                    self.ack_timeout,
                    self.ack_retries,
                    self.rpc_stats,
                )
                if reply is None or not reply.ok:
                    return False
            self.pause_times.append(self.env.now - started)
            return True

        old_epoch = yield from self._change_epoch(
            conn, dag, choice, changed, epoch, reservations=confirmed,
            announce=handshake,
        )
        if old_epoch is None:
            error = "ack timeout" if reply is None else reply.error
            self.transitions_rolled_back += 1
            self._log(conn, "rolled-back", f"epoch {epoch}: {error}")
            return "rolled-back"
        if replaced_offload:
            conn.mark_broken(old_epoch)
        self._evict_cached(old_shape, dag)
        self.transitions_committed += 1
        self._log(
            conn,
            "committed",
            f"epoch {epoch}: "
            + ", ".join(
                f"{dag.nodes[n].type_name}->{choice[n].meta.name}"
                for n in sorted(changed)
            ),
        )
        if state.watched_records or state.watched_devices:
            self._watch_choice(state)
        return "committed"

    def migrate(self, conn: "Connection", accept: "msgs.Accept", handshake):
        """Generator → the replaced epoch, or None when the standby never
        acked: move a failed-over client onto a standby's accepted binding
        (PROTOCOL.md §9.3).  ``handshake(epoch, stack)`` is the failover
        side's announce step (rebind, ``MIGRATE``, replay)."""
        dag, forced = _resolve_dag(conn, accept.dag)
        changed = _changed_nodes(conn, dag, accept.choice, forced)
        return (yield from self._change_epoch(
            conn, dag, accept.choice, changed, conn.new_epoch(),
            server_entity=accept.data_addr.host, announce=handshake,
        ))

    # ------------------------------------------------------------------
    # The one epoch change
    # ------------------------------------------------------------------
    def _change_epoch(
        self, conn: "Connection", dag: ChunnelDag, choice: dict, changed: set,
        epoch: int, *, server_entity=None, reservations=None, announce=None,
    ):
        """Generator → the replaced epoch once ``epoch`` is current, or
        None when ``announce(epoch, stack)``, a generator returning whether
        the peer acked, returned False and the epoch rolled back.  An
        initiator holds ``EPOCH`` while it announces; the commit or the
        abort releases it.  A failed build raises with nothing prepared; a
        failed prepare or announce rolls back, then raises.

        ``reservations`` maps node id → the lease reference a re-decision
        took for it.  Unchanged nodes keep their context, and with it the
        reference they were established under, so theirs are surplus and
        go back on every outcome.  Each node that goes — a prepared one on
        a rollback, a replaced one on a commit — goes through
        :meth:`Binding.release`, and the epoch change waits for any
        ``disc.release`` that starts.  Each replaced stage hands its state
        to its successor (:meth:`ChunnelStage.adopt_state`).
        """
        reservations = reservations or {}
        surplus = [
            handle
            for node_id, handle in reservations.items()
            if node_id not in changed
        ]
        try:
            # Changed nodes are set up fresh, each with a private copy of
            # the connection's params: a rebuild must not mutate the live
            # binding.
            binding = build_binding(
                self.runtime,
                role=conn.role,
                conn_id=conn.conn_id,
                dag=dag,
                choice=choice,
                client_entity=conn.client_entity,
                server_entity=server_entity or conn.server_entity,
                params=conn.params,
                reservations=reservations,
                changed=changed,
                reuse=conn.binding,
                fresh_params=True,
            )
        except BerthaError:
            yield from self._release_all(surplus)
            raise
        old_stages, stages = conn.binding.stages, binding.stages
        for node_id in sorted(changed):
            if old_stages.get(node_id) is not None and stages[node_id] is not None:
                stages[node_id].adopt_state(old_stages[node_id])
        failure = acked = None
        try:
            stack = conn.prepare_transition(epoch, binding)
            # Device programs go live *now*, while the old stack still
            # serves — an upgrade loses nothing during the handover.
            for node_id in sorted(changed):
                binding.impls[node_id].after_establish(
                    binding.contexts[node_id], conn
                )
            if announce is not None:
                # Sends wait for the commit or the abort, which release
                # the hold: each is processed by exactly one epoch.
                conn.hold(EPOCH)
            acked = announce is None or (yield from announce(epoch, stack))
        except BerthaError as error:
            failure = error
        if not acked:
            conn.abort_transition(epoch)
            yield from self._release_nodes(binding, surplus, changed)
            if failure is not None:
                raise failure
            return None

        old = conn.binding
        old_epoch = conn.commit_transition(epoch)
        yield from self._release_nodes(old, surplus, changed)
        conn.retire_epoch(old_epoch)
        return old_epoch

    def _release_nodes(self, binding, surplus, nodes):
        """Generator: give back the ``surplus`` lease references, then
        release those of ``nodes`` that ``binding`` holds, in id order,
        waiting for each ``disc.release`` that starts."""
        yield from self._release_all(surplus)
        for node_id in sorted(nodes & binding.contexts.keys()):
            pending = binding.release(node_id)
            if pending is not None:
                yield pending

    def announce(
        self,
        conn: "Connection",
        message: "msgs.ControlMessage",
        dst,
        timeout: float,
        retries: int,
        stats: rpc.RpcStats,
        deadline: Optional[float] = None,
    ):
        """Generator: send an epoch announcement (``Transition`` or
        ``Migrate``) in-band, ``retries`` times ``timeout`` apart at most →
        its ack, or None on timeout.

        The ack comes back through the connection's pump
        (:meth:`handle_ctl`) into a waiter keyed by ``(ack kind, epoch)``.
        """
        key = (_ACK_KIND[type(message)], message.epoch)
        ack_event = Event(self.env)
        waiters = self._state(conn).ack_waiters
        waiters[key] = ack_event
        try:
            return (
                yield from rpc.call(
                    self.env,
                    rpc.RetryPolicy(timeout=timeout, retries=retries),
                    lambda attempt: conn.send_ctl(message, dst=dst),
                    rpc.event_waiter(self.env, ack_event),
                    stats=stats,
                    describe=(
                        f"{conn.conn_id}: {message.KIND.split('.')[-1]} "
                        f"epoch {message.epoch}"
                    ),
                    trace=self.runtime.network.trace,
                    conn_id=conn.conn_id,
                    deadline=deadline,
                )
            )
        except ConnectionTimeoutError:
            return None
        finally:
            waiters.pop(key, None)

    # ------------------------------------------------------------------
    # In-band control handling (both roles; called from the pump)
    # ------------------------------------------------------------------
    def handle_ctl(
        self, conn: "Connection", message: "msgs.ControlMessage", src
    ) -> None:
        if isinstance(message, msgs.Transition):
            self._answer(conn, message, src, self._adopt_transition)
        elif isinstance(message, (msgs.TransitionAck, msgs.MigrateAck)):
            state = self._states.get(conn.conn_id)
            if state is None:
                return
            waiter = state.ack_waiters.get((message.KIND, message.epoch))
            if waiter is not None and not waiter.triggered:
                waiter.succeed(message)
        elif isinstance(message, msgs.TransitionRequest):
            self.request_transition(conn, reason=message.reason)
        elif isinstance(message, msgs.Heartbeat):
            # Passive liveness responder: any connection answers probes —
            # the watcher side decides whether to send them at all.
            conn.send_ctl(
                msgs.HeartbeatAck(conn_id=conn.conn_id, seq=message.seq),
                dst=src,
            )
        elif isinstance(message, msgs.Migrate):
            self._answer(conn, message, src, self._adopt_migrate)
        elif isinstance(message, msgs.HeartbeatAck):
            manager = self.runtime.failover
            if manager is not None:
                manager.handle_heartbeat_ack(conn, message, src)
        # anything else (Hello, ...) only updates conn.last_src, which the
        # pump already did.

    def _answer(self, conn: "Connection", message, src, adopt) -> None:
        """Answer an epoch announcement once per ``(KIND, epoch)``: a
        duplicate gets the ack ``adopt(conn, message)`` gave the first."""
        self._state(conn).acks.answer(
            (message.KIND, message.epoch),
            partial(adopt, conn, message),
            partial(conn.send_ctl, dst=src),
        )

    def _adopt_migrate(self, conn: "Connection", message: "msgs.Migrate"):
        """Acknowledge a migration epoch announced by a failed-over client.

        The heavy lifting (negotiation with this standby) already happened
        before the MIGRATE was sent; the ack confirms the return address
        and readiness for the replayed unacked window.
        """
        ack = msgs.MigrateAck(conn_id=conn.conn_id, epoch=message.epoch, ok=True)
        self._log(
            conn,
            "migrate-adopted",
            f"epoch {message.epoch} from {message.client_entity or '?'}",
        )
        self.runtime.network.trace.event(
            "migrate", conn.conn_id, epoch=message.epoch, role=conn.role.value
        )
        return ack

    def _adopt_transition(self, conn: "Connection", message: "msgs.Transition"):
        """Adopt (or refuse) an epoch announced by the peer.  Synchronous:
        runs inside the connection's pump, so the ack goes out before the
        next data message is processed."""
        state = self._state(conn)
        epoch = message.epoch
        if epoch <= conn.epoch:
            return msgs.TransitionAck(conn_id=conn.conn_id, epoch=epoch, ok=True)
        try:
            old_shape = conn.dag.canonical_shape()
            dag, forced = _resolve_dag(conn, message.dag)
            changed = _changed_nodes(conn, dag, message.choice, forced)
            # Nothing to announce and no lease to give back: the epoch
            # change never waits, so it runs to its end right here.
            for _wait in self._change_epoch(
                conn, dag, message.choice, changed, epoch
            ):
                raise RuntimeError("the adopting peer's epoch change waited")
            # Adopted a new binding: the client's cached negotiation
            # results for this DAG shape no longer match what the server
            # would accept.
            self._evict_cached(old_shape, dag)
            ack = msgs.TransitionAck(conn_id=conn.conn_id, epoch=epoch, ok=True)
            self._log(conn, "adopted", f"epoch {epoch}")
            for done in state.pending_requests:
                if not done.triggered:
                    done.succeed("committed")
            state.pending_requests.clear()
        except BerthaError as error:
            ack = msgs.TransitionAck(
                conn_id=conn.conn_id,
                epoch=epoch,
                ok=False,
                error=f"{type(error).__name__}: {error}",
            )
            self._log(conn, "refused", f"epoch {epoch}: {error}")
        self.runtime.network.trace.event(
            "reconfig",
            conn.conn_id,
            epoch=epoch,
            outcome="adopted" if ack.ok else "refused",
        )
        return ack

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _release_all(self, handles):
        """Generator: give back lease references, waiting for discovery
        where one is the runtime's last on its lease.  The lease table
        absorbs a discovery outage (it owes the release and retries), so
        a committed or rolled-back transition is never reported as failed
        over bookkeeping."""
        for handle in handles:
            yield from self.runtime.leases.release(handle)

    def _assemble_candidates(self, conn, dag: ChunnelDag, offers: dict):
        """Generator: the re-decision candidate pool — the stored client
        ``offers``, our registry, and a fresh discovery query."""
        types = dag.chunnel_types()
        registry = self.runtime.registry
        try:
            fresh = yield from self.runtime.discovery.query(sorted(set(types)))
        except ConnectionTimeoutError:
            # Discovery outage mid-transition: re-decide from the stored
            # client offers and our registry alone.  A device-failure
            # trigger still degrades to a fallback; upgrades wait until
            # discovery is reachable again.
            self._log(conn, "degraded", "re-decision without discovery")
            return candidate_pool(registry, types, offers)
        return candidate_pool(registry, types, offers, fresh.offers)

    def _evict_cached(self, old_shape: tuple, dag: ChunnelDag) -> None:
        """The committed binding supersedes whatever negotiation results
        were cached for this DAG shape: evict them so a later resume
        renegotiates instead of replaying the pre-transition choice."""
        negcache = self.runtime.negcache
        negcache.invalidate_tag(old_shape)
        if dag.canonical_shape() != old_shape:
            negcache.invalidate_tag(dag.canonical_shape())

    def forget(self, conn: "Connection") -> None:
        """Drop the state of ``conn``, which closed: the engine outlives
        its connections and must not keep one alive."""
        state = self._states.get(conn.conn_id)
        if state is not None and state.conn is conn:
            del self._states[conn.conn_id]

    def _state(self, conn: "Connection") -> _ConnState:
        state = self._states.get(conn.conn_id)
        if state is None:
            state = _ConnState(conn=conn, acks=rpc.Responder(self.env, 64))
            self._states[conn.conn_id] = state
        return state

    def _log(self, conn, event: str, detail: str = "") -> None:
        self.log.append(
            TransitionRecord(self.env.now, conn.conn_id, event, detail)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ReconfigManager on {self.runtime.entity.name!r} "
            f"committed={self.transitions_committed} "
            f"rolled_back={self.transitions_rolled_back}>"
        )
