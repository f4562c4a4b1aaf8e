"""Established Bertha connections (§3.1).

A :class:`Connection` is what ``connect``/``accept`` return: a bound Chunnel
stack over a data socket.  Its interface mirrors the paper's: ``send`` and
``recv``, where the *unit* depends on the DAG — bytes on a bare connection,
objects above a serialization Chunnel ("the use of a serialization Chunnel
changes the connection's interface", §3.2).

A connection may have several peers (ordered multicast connects to a whole
replica group, Listing 2) and its messages may be steered per-message by
routing Chunnels (sharding), so ``send`` accepts an optional explicit
destination and received messages expose their source.

Connections are also *live-reconfigurable*: the runtime's reconfiguration
engine (:mod:`repro.reconfig`) can renegotiate the implementation choice
mid-stream and swap in a new Chunnel stack.  The connection keeps one stack
per **epoch** so in-flight messages stamped with an older epoch still find
the stack that knows how to process them; see PROTOCOL.md §"Live
reconfiguration".
"""

from __future__ import annotations

import itertools
import logging
from typing import TYPE_CHECKING, Any, Iterable, Optional, Union

from ..errors import ConnectionClosedError, TransportError
from ..sim.datagram import Address, Datagram
from ..sim.eventloop import Event
from ..sim.resources import Store
from . import messages as msgs
from .chunnel import ChunnelImpl, ChunnelStage, Message, Offer, Role
from .dag import ChunnelDag
from .stack import ChunnelStack, SetupContext
from .wire import CTL_HEADER, EPOCH_HEADER, WireError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.transport import SimSocket
    from .runtime import Runtime

__all__ = ["Connection", "LIFECYCLE"]

_log = logging.getLogger("repro.ctl")

#: How long a superseded epoch's stack stays around for stragglers.
RETIRE_GRACE = 5e-3

#: The holds on a connection's data path (``Connection.holds``).  They
#: overlap, so the state is a set of them; ``BROKEN`` is not a hold.
VERDICT, EPOCH, FAILOVER = "verdict", "epoch", "failover"
BROKEN, HELD = "newest stack broken", "buffered"

#: The connection lifecycle (PROTOCOL.md §5.4 is generated from it): for
#: each hold, and for a broken newest stack, what happens to an
#: application send, an inbound data datagram and an in-band control
#: message, and what releases it.  ``HELD`` buffers that traffic and keeps
#: its buffer from draining; an epoch change keeps the inbound buffer too.
LIFECYCLE = {
    VERDICT: (HELD, HELD, "to the engine", "the last verdict"),
    EPOCH: (HELD, "its epoch's stack", "to the engine", "commit or abort"),
    FAILOVER: (HELD, "its epoch's stack", "to the engine", "the window's replay"),
    BROKEN: ("the current stack", HELD, "to the engine", "the next drain"),
}
_DATA_HELD = frozenset(h for h, row in LIFECYCLE.items() if row[1] == HELD) - {BROKEN}
_SENDS_HELD = frozenset(h for h, row in LIFECYCLE.items() if row[0] == HELD) - {BROKEN}
_INBOUND_BLOCKERS = _DATA_HELD | {EPOCH}


def next_conn_id(entity) -> str:
    """A fresh connection identifier, unique within the entity's network.

    The counter lives on the entity (not module-global) so repeated
    simulations in one process produce byte-identical connection ids —
    negotiation messages are sized from their content, and a process-wide
    counter would leak one run's id lengths into the next run's timings.
    """
    entity._conn_counter = getattr(entity, "_conn_counter", itertools.count(1))
    return f"{entity.name}/conn-{next(entity._conn_counter)}"


class _Pump:
    """Process-free, slot-free receive pump.

    The historical pump was a generator Process blocked on
    ``socket.recv()``: every datagram cost a getter Event, a zero-delay
    heap slot, and a Process resume.  This object sits directly in the
    socket store's getter queue (it speaks the ``triggered``/``succeed``
    protocol :meth:`Store.put` expects) and dispatches **synchronously**:
    the receive stack runs inside the delivery instant itself, and buffered
    datagrams drain in a loop rather than one wakeup slot apiece.  The only
    heap slot left is the real one — a positive stage CPU charge defers
    delivery (and the next receive) behind a timer, exactly as the
    generator's ``yield`` did.

    Interrupting it is a flag write; a datagram handed to a dead pump is
    lost, just as it was when a stale getter resumed a dead generator.
    """

    __slots__ = ("conn", "socket", "dead", "triggered", "_held")

    def __init__(self, conn: "Connection", socket: "SimSocket"):
        self.conn = conn
        self.socket = socket
        self.dead = False
        #: Store-getter protocol: a triggered getter is skipped by ``put``.
        self.triggered = False
        self._held: Optional[list] = None
        self._request_next()

    @property
    def is_alive(self) -> bool:
        return not self.dead

    def interrupt(self, cause: object = None) -> None:
        """Stop the pump (socket rebind / connection close)."""
        self.dead = True

    # -- store-getter protocol -------------------------------------------
    def succeed(self, item: Datagram) -> None:
        """Called by :meth:`Store.put` when this pump is the oldest waiter."""
        if self.dead:
            # Rebound or closed while queued as a getter: the datagram is
            # lost, as it was with a stale getter and a dead generator.
            return
        if self._dispatch(item):
            self._request_next()

    # -- machinery --------------------------------------------------------
    def _request_next(self) -> None:
        conn = self.conn
        while not self.dead and not conn.closed:
            sock = self.socket
            if sock.closed:
                self.dead = True
                return
            store = sock.store
            if not store._items:
                store._getters.append(self)
                return
            store.gets += 1
            if not self._dispatch(store._items.popleft()):
                return

    def _dispatch(self, dgram: Datagram) -> bool:
        """Run one datagram up the stack; False if delivery was deferred."""
        conn = self.conn
        env = conn.runtime.env
        conn.last_src = dgram.src
        conn.last_inbound_at = env.now
        headers = dict(dgram.headers)
        ctl_kind = headers.get(CTL_HEADER)
        if ctl_kind is not None:
            # In-band control (TRANSITION and friends): handled by the
            # reconfiguration engine, never enters the Chunnel stack.
            try:
                ctl_msg = msgs.decode_message(dgram.payload)
            except WireError as error:
                conn.ctl_malformed_total += 1
                if ctl_kind not in conn._ctl_malformed_logged:
                    conn._ctl_malformed_logged.add(ctl_kind)
                    _log.warning(
                        "%s: dropping malformed in-band control message "
                        "kind=%r (%s)",
                        conn.conn_id,
                        ctl_kind,
                        error,
                    )
            else:
                conn.runtime.reconfig.handle_ctl(conn, ctl_msg, dgram.src)
            if conn.holds:
                conn._saw_peer()
            return True
        msg = Message(
            payload=dgram.payload,
            size=dgram.size,
            headers=headers,
            src=dgram.src,
        )
        if conn.holds and not conn.holds.isdisjoint(_DATA_HELD):
            # A lease verdict is still out: no stage may see this yet.
            conn._inbound_buffer.append(msg)
            conn._saw_peer()
            return True
        stack = conn._stack_for(headers.get(EPOCH_HEADER, 0))
        if stack.broken:
            # Even the newest stack lost its device (the failure was just
            # detected): hold the message until the replacement stack
            # commits — zero loss, bounded delay.
            conn._inbound_buffer.append(msg)
            return True
        delivered, charge = stack.receive(msg)
        if charge > 0:
            # Mirrors the busy-receive-thread timeout: delivery (and the
            # next receive) waits out the stage CPU charge.
            self._held = delivered
            env.call_in(charge, self._release)
            return False
        for out in delivered:
            conn._deliver(out)
        return True

    def _release(self) -> None:
        held, self._held = self._held, None
        if self.dead:
            return
        for out in held:
            self.conn._deliver(out)
        self._request_next()


class Connection:
    """A live connection: stack(s) + data socket + peer set."""

    def __init__(
        self,
        runtime: "Runtime",
        name: str,
        conn_id: str,
        role: Role,
        dag: ChunnelDag,
        impls: dict[int, ChunnelImpl],
        stack_stages: Union[list, dict],
        socket: "SimSocket",
        peers: Iterable[Address] = (),
        transport: str = "udp",
        params: Optional[dict] = None,
        setup_contexts: Optional[list[SetupContext]] = None,
        choice: Optional[dict[int, Offer]] = None,
        client_entity: str = "",
        server_entity: str = "",
        negotiation_state: Optional[dict] = None,
    ):
        self.runtime = runtime
        self.name = name
        self.conn_id = conn_id
        self.role = role
        self.dag = dag
        self.impls = impls
        self.socket = socket
        self.peers: list[Address] = list(peers)
        self.transport = transport
        self.params = dict(params or {})
        self.inbox = Store(runtime.env, name=f"{conn_id}.inbox")
        self.closed = False
        #: True when establishment fell back to fallback-only stacks
        #: because discovery was unreachable (see
        #: :class:`repro.errors.DegradedEstablishmentWarning`).
        self.degraded = False
        self.messages_sent = 0
        self.messages_received = 0
        #: In-band control datagrams the pump rejected as malformed (not
        #: the encoding of a registered control message).  Each offending
        #: kind is additionally logged once per connection.
        self.ctl_malformed_total = 0
        self._ctl_malformed_logged: set = set()
        self.established_at = runtime.env.now
        self._setup_contexts = list(setup_contexts or [])
        #: The negotiated per-node binding (needed to re-decide later).
        self.choice: dict[int, Offer] = dict(choice or {})
        self.client_entity = client_entity or (
            runtime.entity.name if role is Role.CLIENT else ""
        )
        self.server_entity = server_entity or (
            runtime.entity.name if role is Role.SERVER else ""
        )
        #: Server-side: what the engine needs to renegotiate (the client's
        #: original offer message, the policy context, the reservation
        #: owner).  Empty on clients and raw connections.
        self.negotiation_state = dict(negotiation_state or {})
        #: Live-reconfiguration state.
        self.epoch = 0
        self.transitions = 0
        #: Mid-connection failover state (repro.core.failover).  Plain
        #: attributes — no timing or wire impact unless a failover watcher
        #: is attached to the connection.
        self.migrations = 0
        self.blackout = 0.0
        self.last_inbound_at: Optional[float] = None
        self.last_src: Optional[Address] = None
        #: The holds on the data path (rows of :data:`LIFECYCLE`); only
        #: :meth:`hold` and :meth:`release` change it.
        self.holds: set[str] = set()
        self._send_buffer: list[Message] = []
        self._inbound_buffer: list[Message] = []
        #: Fires at the next inbound datagram while the verdicts wait for
        #: a peer address to announce a transition to.
        self._peer_waiter: Optional[Event] = None
        self._pcie, self._pcie_crossings = self._pcie_profile(
            dag, impls, transport
        )
        if isinstance(stack_stages, dict):
            self._stage_map: Optional[dict[int, Optional[ChunnelStage]]] = dict(
                stack_stages
            )
            stages = [
                self._stage_map[node_id]
                for node_id in dag.topological_order()
                if self._stage_map[node_id] is not None
            ]
        else:
            self._stage_map = None
            stages = list(stack_stages)
        self.stack = ChunnelStack(
            runtime.env, stages, transmit=self._transmit, deliver=self._deliver
        )
        self.stack.connection = self
        self._stacks: dict[int, ChunnelStack] = {0: self.stack}
        self.stack.start()
        self._first_delivery_seen = False
        #: Set by the accepting Listener (server side) so an ephemeral
        #: close can drop out of its connection list.
        self.listener = None
        # Per-connection data-path counters.  conn ids are shared by the
        # two ends of one connection, so the role disambiguates; replace
        # covers a conn id reused after a simulated process restart.
        obs = runtime.network.obs
        prefix = f"conn.{conn_id}.{role.value}"
        obs.bind(f"{prefix}.messages_sent", self, "messages_sent", replace=True)
        obs.bind(
            f"{prefix}.messages_received", self, "messages_received", replace=True
        )
        obs.bind(
            f"{prefix}.ctl_malformed_total", self, "ctl_malformed_total", replace=True
        )
        obs.bind(f"{prefix}.transitions", self, "transitions", replace=True)
        obs.replace(
            f"{prefix}.stack_retransmissions",
            lambda: sum(
                getattr(stage, "retransmissions", 0) for stage in self.live_stages()
            ),
        )
        self._pump = _Pump(self, socket)

    # -- properties -----------------------------------------------------------
    @property
    def env(self):
        return self.runtime.env

    @property
    def peer(self) -> Optional[Address]:
        """The default peer (first in the peer set), if any."""
        return self.peers[0] if self.peers else None

    @property
    def local_address(self) -> Address:
        """This side's data-socket address."""
        return self.socket.address

    @property
    def awaiting_verdict(self) -> bool:
        """True while the data path is held for a lease verdict
        (:meth:`await_verdicts`): quiet, but not idle."""
        return VERDICT in self.holds

    # -- data path ---------------------------------------------------------------
    def send(
        self,
        payload: Any,
        size: Optional[int] = None,
        dst: Optional[Address] = None,
        headers: Optional[dict] = None,
    ) -> None:
        """Send one message through the Chunnel stack.

        ``size`` may be omitted for ``bytes`` payloads and for payloads a
        serialization Chunnel will size; ``dst`` overrides the default peer
        (servers answering a specific client pass the request's source).
        """
        if self.closed:
            raise ConnectionClosedError(f"send on closed connection {self.conn_id}")
        msg = Message(
            payload=payload,
            size=size or 0,
            headers=dict(headers or {}),
            dst=dst,
        )
        self.messages_sent += 1
        if self.holds and not self.holds.isdisjoint(_SENDS_HELD):
            # Held (a verdict, an epoch change, a failover): the message
            # leaves when the last hold goes, through the stack current
            # then, so it is processed by exactly one epoch.
            self._send_buffer.append(msg)
            return
        self.stack.send(msg)

    def recv(self) -> Event:
        """Event that fires with the next application-level Message."""
        if self.closed:
            raise ConnectionClosedError(f"recv on closed connection {self.conn_id}")
        return self.inbox.get()

    def try_recv(self) -> tuple[bool, Optional[Message]]:
        """Non-blocking receive."""
        return self.inbox.try_get()

    def send_ctl(
        self,
        message: "msgs.ControlMessage",
        dst: Optional[Address] = None,
        size: Optional[int] = None,
    ) -> None:
        """Send an in-band control message (bypasses the Chunnel stack).

        ``message`` is a :mod:`repro.core.messages` dataclass; it is
        wire-encoded here and sized from its content unless ``size``
        overrides.  The peer's pump intercepts it before stack processing;
        offload programs pass control traffic through to the socket.
        """
        dst = dst or self.peer or self.last_src
        if dst is None:
            raise TransportError(
                f"{self.conn_id}: no control destination (no peer and no "
                "traffic source seen yet)"
            )
        payload, wire_size = msgs.encode_message_sized(message)
        self.socket.send(
            payload,
            dst,
            size=wire_size if size is None else size,
            headers={CTL_HEADER: message.KIND},
        )

    # -- lease verdicts (PROTOCOL.md §2) -------------------------------------------
    def await_verdicts(self, handles: dict) -> None:
        """Take the ``VERDICT`` hold until every lease verdict is in.

        ``handles`` maps node id → the lease reference its binding took
        before discovery answered.  Verdicts that stand release the hold,
        a re-reserved handle swapped in where the check said no and
        admission was granted again.  A verdict without a lease first
        steers the connection off every binding left without one — the
        transition a ``disc.lease_revoked`` push asks for — so the held
        data drains into the newest stack; a connection that cannot move
        off such a binding is closed instead.
        """
        bindings = [
            (node_id, self.choice[node_id], handle)
            for node_id, handle in handles.items()
        ]
        self.hold(VERDICT)
        self.runtime.env.process(
            self._settle_verdicts(bindings), name=f"{self.conn_id}.verdicts"
        )

    def _settle_verdicts(self, bindings):
        denied: set = set()
        for node_id, offer, handle in bindings:
            stands = yield handle.verdict
            if stands is None:
                denied.add((offer.meta.name, offer.record_id))
            elif stands is not handle:
                ctx = self._context_for(node_id)
                if not self.closed and ctx is not None and handle in ctx.reservations:
                    ctx.reservations[ctx.reservations.index(handle)] = stands
                else:
                    self.runtime.spawn_release(stands)
        if denied and not self.closed:
            yield from self._steer_off(denied)
        # The stacks the verdicts replaced never ran: whatever still
        # carries their epoch belongs to the newest one.
        for stack in self._stacks.values():
            if stack is not self.stack:
                stack.broken = True
        self.release(VERDICT)

    def _steer_off(self, denied: set):
        """Generator: transition off the ``(impl, record_id)`` bindings in
        ``denied``, or close the connection if that does not happen."""
        while self.peer is None and self.last_src is None:
            # Nowhere to announce the transition yet: wait for the
            # client's first datagram (its hello, or data).
            self._peer_waiter = self.runtime.env.event()
            yield self._peer_waiter
        records = ",".join(sorted(record_id for _, record_id in denied))
        yield self.runtime.reconfig.request_transition(
            self, reason=f"lease-check:{records}", exclude=denied
        )
        if any((o.meta.name, o.record_id) in denied for o in self.choice.values()):
            self.close()

    def _saw_peer(self) -> None:
        waiter, self._peer_waiter = self._peer_waiter, None
        if waiter is not None:
            waiter.succeed()

    # -- the lifecycle (LIFECYCLE; PROTOCOL.md §5.4) ---------------------------------
    def hold(self, hold: str) -> None:
        """Put the data path under ``hold`` (a row of :data:`LIFECYCLE`)."""
        self.holds.add(hold)

    def release(self, hold: str) -> None:
        """Drop ``hold`` (held or not) and drain, in this order, the inbound
        buffer into the current stack and then the send buffer through it —
        each only when no remaining hold blocks it.  A closed connection
        drains nothing."""
        self.holds.discard(hold)
        if self.closed:
            return
        if self.holds.isdisjoint(_INBOUND_BLOCKERS):
            pending, self._inbound_buffer = self._inbound_buffer, []
            for msg in pending:
                delivered, _charge = self.stack.receive(msg)
                for out in delivered:
                    self._deliver(out)
        if self.holds.isdisjoint(_SENDS_HELD):
            buffered, self._send_buffer = self._send_buffer, []
            for msg in buffered:
                self.stack.send(msg)

    # -- live reconfiguration ------------------------------------------------------
    def prepare_transition(self, epoch: int, stages: list) -> ChunnelStack:
        """Build and start the stack for a new epoch (not yet current).

        Stage objects carried over from the current stack re-home to the
        new one (state continuity); only genuinely new stages are started.
        """
        live = {id(stage) for stage in self.live_stages()}
        stack = ChunnelStack(
            self.env, stages, transmit=self._transmit, deliver=self._deliver
        )
        stack.connection = self
        stack.epoch = epoch
        self._stacks[epoch] = stack
        for stage in stack.stages:
            if id(stage) not in live:
                stage.start()
        return stack

    def commit_transition(
        self,
        epoch: int,
        *,
        dag: ChunnelDag,
        impls: dict[int, ChunnelImpl],
        choice: dict[int, Offer],
        contexts: list[SetupContext],
        stage_map: Optional[dict] = None,
    ) -> int:
        """Make ``epoch`` the current stack; returns the previous epoch.

        The caller (the reconfiguration engine) is responsible for tearing
        down replaced implementations and retiring the old epoch's stack
        after a grace period.
        """
        old_epoch = self.epoch
        self.epoch = epoch
        self.stack = self._stacks[epoch]
        self.dag = dag
        self.impls = impls
        self.choice = dict(choice)
        self._setup_contexts = list(contexts)
        if stage_map is not None:
            self._stage_map = dict(stage_map)
        self._pcie, self._pcie_crossings = self._pcie_profile(
            dag, impls, self.transport
        )
        self.transitions += 1
        self.release(EPOCH)
        return old_epoch

    def abort_transition(self, epoch: int) -> None:
        """Discard a prepared epoch (rollback) and resume the old stack."""
        stack = self._stacks.pop(epoch, None)
        if stack is not None:
            self._dispose_stack(stack)
            # Carried-over stages re-homed to the aborted stack; point them
            # back at the stack that remains current.
            for index, stage in enumerate(self.stack.stages):
                stage.attach(self.stack, index)
        self.release(EPOCH)

    def mark_broken(self, epoch: Optional[int] = None) -> None:
        """Route messages stamped with ``epoch`` (default: current) to the
        newest stack — its device is gone, its stack can no longer serve."""
        stack = self._stacks.get(self.epoch if epoch is None else epoch)
        if stack is not None:
            stack.broken = True

    def retire_epoch(self, epoch: int) -> None:
        """Drop an old epoch's stack once stragglers have drained: after
        :data:`RETIRE_GRACE`."""

        def _wait():
            yield self.env.timeout(RETIRE_GRACE)
            if epoch == self.epoch or self.closed:
                return
            stack = self._stacks.pop(epoch, None)
            if stack is not None:
                self._dispose_stack(stack)

        self.env.process(_wait(), name=f"{self.conn_id}.retire-{epoch}")

    def rebind_socket(self, socket: "SimSocket") -> None:
        """Swap the data socket under the connection (migration rebind).

        The pump blocks on the old socket's receive; closing that socket
        would terminate the pump for good, so the rebind interrupts it,
        closes the old socket, and respawns the pump on the new one.  The
        Chunnel stacks are untouched — ``_transmit`` always reads
        ``self.socket``, so in-flight stage state (unacked windows,
        sequence counters) carries over to the new binding.
        """
        old = self.socket
        self.socket = socket
        if self._pump.is_alive:
            self._pump.interrupt("socket rebound")
        old.close()
        self._pump = _Pump(self, socket)

    def _stack_for(self, epoch: int) -> ChunnelStack:
        """The stack that should process a message stamped with ``epoch``.

        Unknown epochs (already retired, or never seen) and broken epochs
        route to the newest stack — the only one guaranteed to be backed by
        live implementations.
        """
        stack = self._stacks.get(epoch)
        if stack is None or stack.broken:
            return self._stacks[max(self._stacks)]
        return stack

    def live_stages(self) -> list[ChunnelStage]:
        """Every stage of every epoch's stack, once: oldest epoch first, a
        stage carried across epochs at its place in the newest stack."""
        stages: dict[int, ChunnelStage] = {}
        for epoch in sorted(self._stacks):
            for stage in self._stacks[epoch].stages:
                stages.pop(id(stage), None)
                stages[id(stage)] = stage
        return list(stages.values())

    def _dispose_stack(self, stack: ChunnelStack) -> None:
        """Stop the stages of a dropped stack that no other stack shares."""
        live = {id(stage) for stage in self.live_stages()}
        for stage in reversed(stack.stages):
            if id(stage) not in live:
                stage.stop()

    # -- plumbing ------------------------------------------------------------------
    def _pcie_profile(self, dag: ChunnelDag, impls, transport: str):
        """How many host↔NIC bus crossings each sent message costs.

        On a SmartNIC host, every datagram crosses PCIe at least once on
        its way out; a pipeline that interleaves host stages between
        device-placed Chunnels crosses more (§6's reordering motivation).
        Returns ``(bus, crossings)`` — ``(None, 0)`` when the host has no
        SmartNIC or the transport never touches the NIC (pipes).
        """
        smartnic = self.runtime.entity.host.smartnic
        if smartnic is None or transport == "pipe":
            return None, 0
        from .optimizer import count_device_crossings

        order = dag.topological_order()
        chain = [dag.nodes[node].type_name for node in order]
        offloaded = {
            dag.nodes[node].type_name
            for node in order
            if impls[node].meta.placement.is_offload
        }
        return smartnic.pcie, count_device_crossings(chain, offloaded)

    def _transmit(self, msg: Message, extra_delay: float) -> None:
        """Bottom of the stack: put one message on the data socket."""
        dst = msg.dst or self.peer
        if dst is None:
            raise TransportError(
                f"{self.conn_id}: no destination (connection has no peer and "
                "the message carries none)"
            )
        if self._pcie is not None:
            for _crossing in range(self._pcie_crossings):
                extra_delay += self._pcie.transfer(msg.size)
        self.socket.send(
            msg.payload,
            dst,
            size=msg.size,
            headers=msg.headers,
            extra_delay=extra_delay,
        )

    def _deliver(self, msg: Message) -> None:
        """Top of the stack: hand one message to the application."""
        if not self._first_delivery_seen:
            self._first_delivery_seen = True
            self.runtime.network.trace.event(
                "data", self.conn_id, role=self.role.value
            )
        self.messages_received += 1
        self.inbox.put(msg)

    # -- lifecycle -----------------------------------------------------------------
    def close(self) -> None:
        """Tear down: stop stages, run teardown hooks, release the socket."""
        if self.closed:
            return
        self.closed = True
        self.runtime.network.trace.event(
            "teardown",
            self.conn_id,
            role=self.role.value,
            sent=self.messages_sent,
            received=self.messages_received,
        )
        for stage in reversed(self.live_stages()):
            stage.stop()
        for node_id, impl in self.impls.items():
            ctx = self._context_for(node_id)
            if ctx is not None:
                impl.teardown(ctx)
        for ctx in self._setup_contexts:
            for handle in ctx.reservations:
                self.runtime.spawn_release(handle)
        if self._pump.is_alive:
            self._pump.interrupt("connection closed")
        self.socket.close()
        if self.runtime.ephemeral_connections:
            obs = self.runtime.network.obs
            prefix = f"conn.{self.conn_id}.{self.role.value}"
            for suffix in (
                "messages_sent",
                "messages_received",
                "ctl_malformed_total",
                "transitions",
                "stack_retransmissions",
            ):
                obs.unregister(f"{prefix}.{suffix}")
            if self.listener is not None:
                try:
                    self.listener.connections.remove(self)
                except ValueError:
                    pass
                self.listener = None

    def _context_for(self, node_id: int) -> Optional[SetupContext]:
        for ctx in self._setup_contexts:
            if ctx.spec is self.dag.nodes.get(node_id):
                return ctx
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Connection {self.conn_id} role={self.role.value} "
            f"epoch={self.epoch} peers={[str(p) for p in self.peers]} "
            f"tx={self.messages_sent} rx={self.messages_received}>"
        )
