"""The live-transition engine: renegotiate an established connection.

The decision side reuses negotiation's machinery
(:func:`repro.core.negotiation.decide_with_reservations` against a fresh
discovery query), so a transition is "establishment, minus the offer/accept
round trip": the server already holds the client's offers from the original
exchange and re-decides locally.

The swap is a two-phase epoch handover (PROTOCOL.md §"Live reconfiguration"):

1. **Prepare** — instantiate implementations for the nodes whose binding
   changed (unchanged nodes carry their live stage objects — and therefore
   their state — into the new stack), run their setup *and* after-establish
   hooks.  Device programs are thus installed while the old stack still
   serves: an upgrade redirects packets before they can miss the new stack.
2. **Commit** — send ``TRANSITION`` in-band over the data socket, pause
   application sends, and wait for the ``TRANSITION_ACK``.  On ok, swap the
   current epoch, release the old binding's reservations, tear down replaced
   implementations, and retire the old stack after a grace period.  On
   refusal or timeout, tear the *new* implementations down and resume the
   old stack untouched (rollback).

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
from typing import TYPE_CHECKING, Iterable, Optional

from ..core import messages as msgs
from ..core import rpc
from ..core.chunnel import Offer, Role
from ..core.dag import ChunnelDag
from ..core.establish import build_binding, teardown_nodes
from ..core.negotiation import decide_with_reservations
from ..core.scope import Placement
from ..errors import BerthaError, ConnectionTimeoutError, ReconfigurationError
from ..sim.eventloop import Event, Interrupt
from .triggers import DeviceFailureDetector, DiscoveryWatcher

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.connection import Connection
    from ..core.runtime import Runtime

__all__ = ["ReconfigManager", "TransitionRecord"]


def _same_offer(a: Optional[Offer], b: Optional[Offer]) -> bool:
    return (
        a is not None
        and b is not None
        and a.meta.name == b.meta.name
        and a.record_id == b.record_id
        and a.location == b.location
    )


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
    busy: bool = False
    queue: deque = field(default_factory=deque)
    next_epoch: int = 1
    #: Client side: cached acks per epoch, replayed on duplicate TRANSITION.
    #: Bounded — retransmits arrive within the sender's retry window, so
    #: only the most recent epochs' verdicts are ever needed.
    acks: rpc.ReplyCache = field(default_factory=lambda: rpc.ReplyCache(64))
    #: Server side: in-flight ack waiter per epoch.
    ack_waiters: dict = field(default_factory=dict)
    #: Client side: done-events for requests sent to the server.
    pending_requests: list = field(default_factory=list)
    #: Sticky (impl name, record_id) exclusions, e.g. failed devices.
    excluded: set = field(default_factory=set)
    #: location -> exclusions added for that device (cleared on recovery).
    device_exclusions: dict = field(default_factory=dict)
    watched_records: set = field(default_factory=set)
    watched_devices: set = field(default_factory=set)

    def cache_ack(self, epoch: int, ack: "msgs.TransitionAck") -> None:
        self.acks.put(epoch, ack)


class ReconfigManager:
    """Per-runtime transition engine (``runtime.reconfig``)."""

    def __init__(
        self,
        runtime: "Runtime",
        ack_timeout: float = 2e-3,
        ack_retries: int = 8,
        retire_grace: float = 5e-3,
    ):
        self.runtime = runtime
        self.env = runtime.env
        self.ack_timeout = ack_timeout
        self.ack_retries = ack_retries
        #: How long a superseded epoch's stack stays around for stragglers.
        self.retire_grace = retire_grace
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
        self.last_pause: Optional[float] = None
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
        obs.bind_stats(f"rpc.reconfig.{entity}", self.rpc_stats, replace=True)

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
                    lambda rid, kind, body, c=conn: self._on_record_event(
                        c, rid, kind, body
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

    def enable_upgrade_polling(self, conn: "Connection", interval: float = 0.25):
        """Periodically re-decide, so a newly (re)registered better
        implementation is adopted without an external trigger.  Returns the
        polling process (interrupt it, or close the connection, to stop)."""
        self._state(conn)

        def _poll():
            while not conn.closed:
                try:
                    yield self.env.timeout(interval)
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
        self, conn: "Connection", record_id: str, kind: str, body: dict
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
            "reconfig", conn.conn_id, epoch=state.next_epoch, reason=reason
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
            # Never leave the connection with sends paused.
            if conn._send_paused:
                conn.resume_sends()
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
        ns = conn.negotiation_state
        if not ns:
            raise ReconfigurationError(
                f"{conn.conn_id}: no negotiation state — only the deciding "
                "(server) side of a negotiated connection can transition"
            )
        message, ctx, owner = ns["message"], ns["ctx"], ns["owner"]
        old_shape = conn.dag.canonical_shape()
        dag = target_dag if target_dag is not None else conn.dag
        arg_changed: set[int] = set()
        merged_args = False
        if dag is not conn.dag:
            # A same-structure target whose specs differ only in args (a
            # multipath weight update, a retuned timeout) merges into the
            # live DAG: unchanged nodes keep their spec objects — and so
            # their contexts and stages — and only arg-changed nodes
            # rebuild.  ``None`` means a genuinely different structure:
            # fall through to the historical full rebuild.
            merge = ChunnelDag.merge_arg_updates(conn.dag, dag)
            if merge is not None:
                dag, arg_changed = merge
                merged_args = True

        # Re-decide against fresh offers: the client's stored offers, our
        # registry, and a *new* discovery query (the client's establishment-
        # time network view is stale by definition here).
        candidates = yield from self._assemble_candidates(conn, dag, message)
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

        changed = {
            node_id
            for node_id in dag.topological_order()
            if not _same_offer(conn.choice.get(node_id), choice[node_id])
        } | arg_changed
        if dag is conn.dag and not changed:
            yield from self._release_all(confirmed.values())
            self.transitions_noop += 1
            self._log(conn, "noop", reason)
            return "noop"

        epoch = state.next_epoch
        state.next_epoch += 1
        self._log(conn, "prepare", f"epoch {epoch}: {reason}")

        if dag is not conn.dag and not merged_args:
            changed = set(dag.topological_order())
        impls, ctx_map, stage_map = self._build_side(
            conn, dag, choice, changed, confirmed, conn.role
        )
        try:
            stages = [
                stage_map[node_id]
                for node_id in dag.topological_order()
                if stage_map[node_id] is not None
            ]
            conn.prepare_transition(epoch, stages)
            # Device programs go live *now*, while the old stack still
            # serves — an upgrade loses nothing during the handover.
            for node_id in sorted(changed):
                impls[node_id].after_establish(ctx_map[node_id], conn)
        except BerthaError:
            conn.abort_transition(epoch)
            self._teardown_nodes(impls, ctx_map, changed)
            yield from self._release_all(confirmed.values())
            raise

        started = self.env.now
        conn.pause_sends()
        reply = yield from self._exchange_transition(
            state, conn, epoch, dag, choice, reason
        )

        if reply is None or not reply.ok:
            error = "ack timeout" if reply is None else reply.error
            conn.abort_transition(epoch)
            self._teardown_nodes(impls, ctx_map, changed)
            yield from self._release_all(confirmed.values())
            self.transitions_rolled_back += 1
            self._log(conn, "rolled-back", f"epoch {epoch}: {error}")
            return "rolled-back"

        # Commit: swap epochs, then settle the books.
        old_impls = dict(conn.impls)
        old_ctxs = {n: conn._context_for(n) for n in changed if n in conn.impls}
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
        pause = self.env.now - started
        self.pause_times.append(pause)
        self.last_pause = pause

        # Unchanged nodes keep their context, and with it the reference
        # they were established under: the one the re-decision took for
        # them is surplus.
        yield from self._release_all(
            handle
            for node_id, handle in confirmed.items()
            if node_id not in changed
        )

        # Tear down what the new binding replaced, and release its leases.
        replaced_offload = False
        for node_id in sorted(changed):
            impl = old_impls.get(node_id)
            if impl is None:
                continue
            if impl.meta.placement.is_offload:
                replaced_offload = True
            octx = old_ctxs.get(node_id)
            if octx is not None:
                impl.teardown(octx)
                yield from self._release_all(octx.reservations)
        if replaced_offload:
            # Stragglers stamped with the old epoch may have relied on the
            # now-removed device program; route them to the new stack.
            conn.mark_broken(old_epoch)
        conn.retire_epoch(old_epoch, grace=self.retire_grace)

        # The committed binding supersedes whatever negotiation results
        # were cached for this DAG shape: evict them so a later resume
        # renegotiates instead of replaying the pre-transition choice.
        runtime.negcache.invalidate_tag(old_shape)
        if dag.canonical_shape() != old_shape:
            runtime.negcache.invalidate_tag(dag.canonical_shape())

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

    def _exchange_transition(self, state, conn, epoch, dag, choice, reason):
        """Generator: send TRANSITION, wait for the ACK (with retries).

        Returns the :class:`~repro.core.messages.TransitionAck`, or None on
        timeout.  A connection whose peer address is unknown (no traffic
        seen, no hello) commits unilaterally: returns an implicit ok.
        """
        target = conn.peer or conn.last_src
        if target is None:
            return msgs.TransitionAck(conn_id=conn.conn_id, epoch=epoch, ok=True)
        announcement = msgs.Transition(
            conn_id=conn.conn_id,
            epoch=epoch,
            dag=dag,
            choice=choice,
            reason=reason,
        )
        ack_event = Event(self.env)
        state.ack_waiters[epoch] = ack_event
        policy = rpc.RetryPolicy(
            timeout=self.ack_timeout, retries=self.ack_retries
        )
        try:
            return (
                yield from rpc.call(
                    self.env,
                    policy,
                    lambda attempt: conn.send_ctl(announcement, dst=target),
                    rpc.event_waiter(self.env, ack_event),
                    stats=self.rpc_stats,
                    describe=f"{conn.conn_id}: transition epoch {epoch}",
                    trace=self.runtime.network.trace,
                    conn_id=conn.conn_id,
                )
            )
        except ConnectionTimeoutError:
            return None
        finally:
            state.ack_waiters.pop(epoch, None)

    # ------------------------------------------------------------------
    # In-band control handling (both roles; called from the pump)
    # ------------------------------------------------------------------
    def handle_ctl(
        self, conn: "Connection", message: "msgs.ControlMessage", src
    ) -> None:
        if isinstance(message, msgs.Transition):
            self._handle_transition(conn, message, src)
        elif isinstance(message, msgs.TransitionAck):
            state = self._states.get(conn.conn_id)
            if state is None:
                return
            waiter = state.ack_waiters.get(message.epoch)
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
            self._handle_migrate(conn, message, src)
        elif isinstance(message, (msgs.HeartbeatAck, msgs.MigrateAck)):
            manager = self.runtime.failover
            if manager is not None:
                if isinstance(message, msgs.HeartbeatAck):
                    manager.handle_heartbeat_ack(conn, message, src)
                else:
                    manager.handle_migrate_ack(conn, message, src)
        # anything else (Hello, ...) only updates conn.last_src, which the
        # pump already did.

    def _handle_migrate(
        self, conn: "Connection", message: "msgs.Migrate", src
    ) -> None:
        """Acknowledge a migration epoch announced by a failed-over client.

        The heavy lifting (negotiation with this standby) already happened
        before the MIGRATE was sent; the ack confirms the return address
        and readiness for the replayed unacked window.  Duplicates replay
        the cached verdict, like TRANSITION (keys are namespaced so
        migration epochs cannot collide with transition epochs).
        """
        state = self._state(conn)
        key = ("migrate", message.epoch)
        cached = state.acks.get(key)
        if cached is not None:
            conn.send_ctl(cached, dst=src)
            return
        ack = msgs.MigrateAck(
            conn_id=conn.conn_id, epoch=message.epoch, ok=True
        )
        state.acks.put(key, ack)
        self._log(
            conn,
            "migrate-adopted",
            f"epoch {message.epoch} from {message.client_entity or '?'}",
        )
        self.runtime.network.trace.event(
            "migrate", conn.conn_id, epoch=message.epoch, role=conn.role.value
        )
        conn.send_ctl(ack, dst=src)

    def _handle_transition(
        self, conn: "Connection", message: "msgs.Transition", src
    ) -> None:
        """Adopt (or refuse) an epoch announced by the peer.  Synchronous:
        runs inside the connection's pump, so the ack goes out before the
        next data message is processed."""
        state = self._state(conn)
        epoch = message.epoch
        cached = state.acks.get(epoch)
        if cached is not None:  # duplicate announcement: replay the verdict
            conn.send_ctl(cached, dst=src)
            return
        if epoch <= conn.epoch:
            ack = msgs.TransitionAck(conn_id=conn.conn_id, epoch=epoch, ok=True)
            state.cache_ack(epoch, ack)
            conn.send_ctl(ack, dst=src)
            return
        try:
            # Same structure ⇒ keep our spec objects for unchanged nodes so
            # node identities (and the setup contexts keyed on them)
            # survive the transition, adopting the announced args only
            # where they differ (e.g. a multipath weight update).  A
            # same-shape DAG that won't merge (relabeled node ids) keeps
            # our DAG wholesale, as before; a different shape is a full
            # rebuild from the announcement.
            old_shape = conn.dag.canonical_shape()
            merge = ChunnelDag.merge_arg_updates(conn.dag, message.dag)
            arg_changed: set[int] = set()
            if merge is not None:
                dag, arg_changed = merge
            elif message.dag.canonical_shape() == old_shape:
                dag = conn.dag
            else:
                dag = message.dag
            choice = message.choice
            changed = {
                node_id
                for node_id in dag.topological_order()
                if not _same_offer(conn.choice.get(node_id), choice.get(node_id))
            } | arg_changed
            if dag is not conn.dag and merge is None:
                changed = set(dag.topological_order())
            impls, ctx_map, stage_map = self._build_side(
                conn, dag, choice, changed, [], conn.role
            )
            try:
                stages = [
                    stage_map[node_id]
                    for node_id in dag.topological_order()
                    if stage_map[node_id] is not None
                ]
                conn.prepare_transition(epoch, stages)
                for node_id in sorted(changed):
                    impls[node_id].after_establish(ctx_map[node_id], conn)
            except BerthaError:
                conn.abort_transition(epoch)
                self._teardown_nodes(impls, ctx_map, changed)
                raise
            old_impls = dict(conn.impls)
            old_ctxs = {
                n: conn._context_for(n) for n in changed if n in conn.impls
            }
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
            conn.retire_epoch(old_epoch, grace=self.retire_grace)
            # Adopted a new binding: the client's cached negotiation
            # results for this DAG shape no longer match what the server
            # would accept — evict so the next connect renegotiates.
            self.runtime.negcache.invalidate_tag(old_shape)
            if dag.canonical_shape() != old_shape:
                self.runtime.negcache.invalidate_tag(dag.canonical_shape())
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
        state.cache_ack(epoch, ack)
        self.runtime.network.trace.event(
            "reconfig",
            conn.conn_id,
            epoch=epoch,
            outcome="adopted" if ack.ok else "refused",
        )
        conn.send_ctl(ack, dst=src)

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

    def _assemble_candidates(self, conn, dag: ChunnelDag, message: "msgs.Offer"):
        """Generator: the re-decision candidate pool — stored client offers,
        our registry, and a fresh discovery query (dedup by record id)."""
        runtime = self.runtime
        wanted = set(dag.chunnel_types())
        candidates: dict[str, list[Offer]] = {}
        for ctype, offers in message.offers.items():
            if ctype in wanted:
                candidates.setdefault(ctype, []).extend(offers)
        for ctype, offers in runtime.registry.offers_for(
            sorted(wanted), origin="server"
        ).items():
            candidates.setdefault(ctype, []).extend(offers)
        try:
            fresh = yield from runtime.discovery.query(sorted(wanted))
        except ConnectionTimeoutError:
            # Discovery outage mid-transition: re-decide from the stored
            # client offers and our registry alone.  A device-failure
            # trigger still degrades to a fallback; upgrades wait until
            # discovery is reachable again.
            self._log(conn, "degraded", "re-decision without discovery")
            return candidates
        seen: set[str] = set()
        for ctype, offers in fresh.offers.items():
            if ctype not in wanted:
                continue
            for offer in offers:
                if offer.record_id and offer.record_id in seen:
                    continue
                if offer.record_id:
                    seen.add(offer.record_id)
                candidates.setdefault(ctype, []).append(offer)
        return candidates

    def _build_side(self, conn, dag, choice, changed, reservations, role):
        """Partial rebuild via the shared establishment pipeline: changed
        nodes are instantiated and set up fresh (each with a private copy
        of the connection's params — a rebuild must not mutate the live
        binding), the rest carry over ``conn``'s impls, contexts, and stage
        objects."""
        return build_binding(
            self.runtime,
            role=role,
            conn_id=conn.conn_id,
            dag=dag,
            choice=choice,
            client_entity=conn.client_entity,
            server_entity=conn.server_entity,
            params=conn.params,
            reservations=reservations,
            changed=changed,
            reuse=conn,
            fresh_params=True,
        )

    @staticmethod
    def _teardown_nodes(impls, ctx_map, nodes) -> None:
        teardown_nodes(impls, ctx_map, nodes)

    def _state(self, conn: "Connection") -> _ConnState:
        state = self._states.get(conn.conn_id)
        if state is None:
            state = _ConnState(conn=conn)
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
