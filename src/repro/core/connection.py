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
mid-stream and swap in a new Chunnel stack.  The connection keeps one
:class:`Binding` per **epoch** — the DAG, the choice, and per node its
implementation, setup context and stage, plus the epoch's stack — so
in-flight messages stamped with an older epoch still find the stack that
knows how to process them; see PROTOCOL.md §"Live reconfiguration".
"""

from __future__ import annotations

import itertools
import logging
from typing import TYPE_CHECKING, Any, Iterable, Optional

from ..errors import ConnectionClosedError, TransportError
from ..sim.datagram import Address, Datagram
from ..sim.eventloop import Event, Process
from ..sim.resources import Store
from . import messages as msgs
from .chunnel import ChunnelImpl, ChunnelStage, Message, Offer, Role
from .dag import ChunnelDag
from .stack import ChunnelStack, SetupContext
from .wire import CTL_HEADER, EPOCH_HEADER, WireError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.transport import SimSocket
    from .runtime import Runtime

__all__ = ["Binding", "Connection", "LIFECYCLE"]

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
#: ``Connection.holds`` when nothing holds the data path, shared by every
#: connection.
_NO_HOLDS: frozenset = frozenset()

#: The registry sources of a connection, under ``conn.<id>.<role>.``: bound
#: at construction, frozen (or, for ephemeral connections, dropped) at close.
_SOURCES = (
    "messages_sent",
    "messages_received",
    "ctl_malformed_total",
    "transitions",
    "stack_retransmissions",
)


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
    heap slot, and a Process resume.  This object waits directly in the
    socket store's queue (it speaks the ``triggered``/``succeed``
    protocol :meth:`Store.wait` expects) and dispatches **synchronously**:
    the receive stack runs inside the delivery instant itself, and buffered
    datagrams drain in a loop rather than one wakeup slot apiece.  The only
    heap slot left is the real one — a positive stage CPU charge defers
    delivery (and the next receive) behind a timer, exactly as the
    generator's ``yield`` did.

    Interrupting it marks it dead, takes it out of the socket store's
    queue and drops its connection, so a dead pump holds nothing that
    points back at the connection (DESIGN.md §7).  A datagram handed to a
    dead pump is lost, just as it was when a stale getter resumed a dead
    generator.
    """

    __slots__ = ("conn", "socket", "dead", "triggered", "_held")

    def __init__(self, conn: "Connection", socket: "SimSocket"):
        self.conn: Optional["Connection"] = conn
        self.socket = socket
        self.dead = False
        #: Store-getter protocol: a triggered getter is skipped by ``put``.
        self.triggered = False
        self._held: Optional[list] = None
        self._request_next()

    def interrupt(self, cause: object = None) -> None:
        """Stop the pump (socket rebind / connection close) and let go of
        its connection; idempotent."""
        self.dead = True
        self.conn = None
        self.socket.store.cancel(self)

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
                self.interrupt("socket closed")
                return
            buffered, dgram = sock.store.try_get()
            if not buffered:
                sock.store.wait(self)
                return
            if not self._dispatch(dgram):
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
                    conn._ctl_malformed_logged += (ctl_kind,)
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


class Binding:
    """One epoch of a connection: the DAG, the per-node choice, and keyed
    by node id the implementations, their setup contexts and their stages
    (None where the implementation runs elsewhere), plus the epoch's
    stack once the connection has built it.

    :func:`repro.core.establish.build_binding` makes one; an epoch change
    builds the next from the current one, carrying every unchanged node's
    implementation, context and stage over.
    """

    __slots__ = ("dag", "choice", "impls", "contexts", "stages", "stack")

    def __init__(
        self,
        dag: ChunnelDag,
        choice: dict[int, Offer],
        impls: dict[int, ChunnelImpl],
        contexts: dict[int, SetupContext],
        stages: dict[int, Optional[ChunnelStage]],
    ):
        self.dag = dag
        self.choice = choice
        self.impls = impls
        self.contexts = contexts
        self.stages = stages
        self.stack: Optional[ChunnelStack] = None

    def release(self, node_id: int) -> Optional[Process]:
        """Give back what ``node_id`` holds, the one way a node goes: run
        its ``teardown`` hook, then give back its shares, last taken first,
        and its lease reference.  Returns the ``disc.release`` the
        runtime's last reference on that lease started, or None; the
        caller may wait for it."""
        ctx = self.contexts[node_id]
        try:
            self.impls[node_id].teardown(ctx)
        finally:
            pending = ctx.release()
        return pending


class Connection:
    """A live connection: stack(s) + data socket + peer set.

    Slotted: a server holds one per connection it accepted, and with more
    than 30 attributes CPython (3.11) stops sharing instance-dict keys, so
    each instance would carry a dict of its own (DESIGN.md §7).
    ``__weakref__`` keeps weak references working (teardown censuses).
    """

    __slots__ = (
        "runtime", "name", "conn_id", "role", "binding", "socket", "peers",
        "transport", "params", "inbox", "closed", "degraded", "messages_sent",
        "messages_received", "ctl_malformed_total", "_ctl_malformed_logged",
        "client_entity", "server_entity", "negotiation_state", "epoch",
        "epochs_issued", "_epochs", "transitions", "migrations", "blackout",
        "last_inbound_at", "last_src", "holds", "_send_buffer",
        "_inbound_buffer", "_peer_waiter", "_pcie", "_pcie_crossings",
        "_first_delivery_seen", "listener", "_pump", "__weakref__",
    )

    def __init__(
        self,
        runtime: "Runtime",
        name: str,
        conn_id: str,
        role: Role,
        binding: Binding,
        socket: "SimSocket",
        peers: Iterable[Address] = (),
        transport: str = "udp",
        params: Optional[dict] = None,
        client_entity: str = "",
        server_entity: str = "",
        negotiation_state: Optional[tuple] = None,
    ):
        self.runtime = runtime
        self.name = name
        self.conn_id = conn_id
        self.role = role
        #: The current epoch's binding (``_epochs[epoch]``).
        self.binding = binding
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
        self._ctl_malformed_logged: tuple = ()
        self.client_entity = client_entity or (
            runtime.entity.name if role is Role.CLIENT else ""
        )
        self.server_entity = server_entity or (
            runtime.entity.name if role is Role.SERVER else ""
        )
        #: Server-side: what a transition re-decides from — the client's
        #: expanded offer lists and the policy context, as
        #: ``(offers, ctx)``.  None on clients and raw connections.
        self.negotiation_state = negotiation_state
        #: Live-reconfiguration state: the current epoch, the highest
        #: epoch number :meth:`new_epoch` has handed out, and the binding
        #: of every epoch still live (current, prepared, or retiring).
        self.epoch = 0
        self.epochs_issued = 0
        self._epochs: dict[int, Binding] = {}
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
        self.holds: frozenset[str] = _NO_HOLDS
        self._send_buffer: list[Message] = []
        self._inbound_buffer: list[Message] = []
        #: Fires at the next inbound datagram while the verdicts wait for
        #: a peer address to announce a transition to.
        self._peer_waiter: Optional[Event] = None
        self._pcie, self._pcie_crossings = self._pcie_profile(binding)
        self._install(0, binding)
        self._first_delivery_seen = False
        #: Set by the accepting Listener (server side) so a close can drop
        #: out of its connection list.
        self.listener = None
        # Per-connection data-path counters.  conn ids are shared by the
        # two ends of one connection, so the role disambiguates; replace
        # covers a conn id reused after a simulated process restart.
        obs = runtime.network.obs
        prefix = f"conn.{conn_id}.{role.value}"
        for source in _SOURCES:
            obs.bind(f"{prefix}.{source}", self, source, replace=True)
        self._pump = _Pump(self, socket)

    # -- properties -----------------------------------------------------------
    @property
    def env(self):
        return self.runtime.env

    @property
    def dag(self) -> ChunnelDag:
        """The current epoch's DAG."""
        return self.binding.dag

    @property
    def impls(self) -> dict[int, ChunnelImpl]:
        """The current epoch's implementation per node id."""
        return self.binding.impls

    @property
    def choice(self) -> dict[int, Offer]:
        """The current epoch's negotiated offer per node id."""
        return self.binding.choice

    @property
    def stack(self) -> ChunnelStack:
        """The current epoch's stack."""
        return self.binding.stack

    @property
    def peer(self) -> Optional[Address]:
        """The default peer (first in the peer set), if any."""
        return self.peers[0] if self.peers else None

    @property
    def local_address(self) -> Address:
        """This side's data-socket address."""
        return self.socket.address

    @property
    def stack_retransmissions(self) -> int:
        """Retransmissions by every live stage that counts them."""
        return sum(
            getattr(stage, "retransmissions", 0) for stage in self.live_stages()
        )

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
        self.binding.stack.send(msg)

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
            stands = handle.standing((yield handle.verdict))
            if stands is None:
                denied.add((offer.meta.name, offer.record_id))
            elif stands is not handle:
                ctx = self.binding.contexts.get(node_id)
                if not self.closed and ctx is not None and ctx.lease is handle:
                    ctx.lease = stands
                else:
                    self.runtime.leases.release_nowait(stands)
        if denied and not self.closed:
            yield from self._steer_off(denied)
        # The stacks the verdicts replaced never ran: whatever still
        # carries their epoch belongs to the newest one.
        for binding in self._epochs.values():
            if binding is not self.binding:
                binding.stack.broken = True
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
        self.holds = self.holds | {hold}

    def release(self, hold: str) -> None:
        """Drop ``hold`` (held or not) and drain, in this order, the inbound
        buffer into the current stack and then the send buffer through it —
        each only when no remaining hold blocks it.  A closed connection
        drains nothing."""
        self.holds = self.holds - {hold} or _NO_HOLDS
        if self.closed:
            return
        if self.holds.isdisjoint(_INBOUND_BLOCKERS):
            pending, self._inbound_buffer = self._inbound_buffer, []
            for msg in pending:
                delivered, _charge = self.binding.stack.receive(msg)
                for out in delivered:
                    self._deliver(out)
        if self.holds.isdisjoint(_SENDS_HELD):
            buffered, self._send_buffer = self._send_buffer, []
            for msg in buffered:
                self.binding.stack.send(msg)

    # -- live reconfiguration ------------------------------------------------------
    def new_epoch(self) -> int:
        """Hand out this connection's next epoch number: above every one it
        handed out or holds (an adopted one too), so it is new to it."""
        self.epochs_issued = max(self.epochs_issued, *self._epochs) + 1
        return self.epochs_issued

    def prepare_transition(self, epoch: int, binding: Binding) -> ChunnelStack:
        """Build and start the stack of ``binding`` as ``epoch`` (not yet
        current).

        Stage objects carried over from the current stack re-home to the
        new one (state continuity); only genuinely new stages are started.
        """
        return self._install(epoch, binding)

    def commit_transition(self, epoch: int) -> int:
        """Make the prepared ``epoch`` current; returns the previous epoch.

        The caller (the reconfiguration engine) is responsible for
        releasing the replaced nodes (:meth:`Binding.release`) and retiring
        the old epoch's stack after a grace period.
        """
        old_epoch = self.epoch
        self.epoch = epoch
        self.binding = binding = self._epochs[epoch]
        # Here, not at prepare: a migration's handshake changes the
        # transport in between.
        self._pcie, self._pcie_crossings = self._pcie_profile(binding)
        self.transitions += 1
        self.release(EPOCH)
        return old_epoch

    def abort_transition(self, epoch: int) -> None:
        """Discard a prepared epoch (rollback) and resume the old stack."""
        binding = self._epochs.pop(epoch, None)
        if binding is not None:
            # Carried-over stages re-homed to the aborted stack; point them
            # back at the stack that remains current, so detaching it stops
            # only the stages it brought.
            current = self.binding.stack
            for index, stage in enumerate(current.stages):
                stage.attach(current, index)
            binding.stack.detach()
        self.release(EPOCH)

    def mark_broken(self, epoch: Optional[int] = None) -> None:
        """Route messages stamped with ``epoch`` (default: current) to the
        newest stack — its device is gone, its stack can no longer serve."""
        binding = self._epochs.get(self.epoch if epoch is None else epoch)
        if binding is not None:
            binding.stack.broken = True

    def retire_epoch(self, epoch: int) -> None:
        """Drop an old epoch's stack once stragglers have drained: after
        :data:`RETIRE_GRACE`, and only the binding ``epoch`` holds now —
        whatever holds that number then is left alone."""
        binding = self._epochs.get(epoch)

        def _wait():
            yield self.env.timeout(RETIRE_GRACE)
            if self.closed or binding is None or binding is self.binding:
                return
            if self._epochs.get(epoch) is binding:
                del self._epochs[epoch]
                binding.stack.detach()

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
        self._pump.interrupt("socket rebound")
        old.close()
        self._pump = _Pump(self, socket)

    def _stack_for(self, epoch: int) -> ChunnelStack:
        """The stack that should process a message stamped with ``epoch``.

        Unknown epochs (already retired, or never seen) and broken epochs
        route to the newest stack — the only one guaranteed to be backed by
        live implementations.
        """
        binding = self._epochs.get(epoch)
        if binding is None or binding.stack.broken:
            return self._epochs[max(self._epochs)].stack
        return binding.stack

    def live_stages(self) -> list[ChunnelStage]:
        """Every stage of every epoch's stack, once: oldest epoch first, a
        stage carried across epochs at its place in the newest stack."""
        stages: dict[int, ChunnelStage] = {}
        for epoch in sorted(self._epochs):
            for stage in self._epochs[epoch].stack.stages:
                stages.pop(id(stage), None)
                stages[id(stage)] = stage
        return list(stages.values())

    # -- plumbing ------------------------------------------------------------------
    def _install(self, epoch: int, binding: Binding) -> ChunnelStack:
        """Build ``binding``'s stack — its stages in topological order —
        start the stages no other epoch runs, and enter it in the epoch
        table as ``epoch`` (establishment installs epoch 0)."""
        live = {id(stage) for stage in self.live_stages()}
        stages = binding.stages
        stack = ChunnelStack(
            self.runtime.env,
            [
                stages[node_id]
                for node_id in binding.dag.topological_order()
                if stages[node_id] is not None
            ],
            transmit=self._transmit,
            deliver=self._deliver,
        )
        stack.connection = self
        stack.epoch = epoch
        binding.stack = stack
        self._epochs[epoch] = binding
        for stage in stack.stages:
            if id(stage) not in live:
                stage.start()
        return stack

    def _pcie_profile(self, binding: Binding):
        """How many host↔NIC bus crossings each sent message costs.

        On a SmartNIC host, every datagram crosses PCIe at least once on
        its way out; a pipeline that interleaves host stages between
        device-placed Chunnels crosses more (§6's reordering motivation).
        Returns ``(bus, crossings)`` — ``(None, 0)`` when the host has no
        SmartNIC or the transport never touches the NIC (pipes).
        """
        smartnic = self.runtime.entity.host.smartnic
        if smartnic is None or self.transport == "pipe":
            return None, 0
        from .optimizer import count_device_crossings

        dag, impls = binding.dag, binding.impls
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
        """Tear down: detach every stack (which stops its stages), give
        back what each node holds (:meth:`Binding.release`), release the
        socket, and leave the listener.

        Ownership runs one way — connection → stacks → stages, connection
        → pump → socket — and once this returns nothing the connection
        owns points back at it and nothing that outlives it holds it, so
        reference counting frees it as soon as the application drops it
        (DESIGN.md §7)."""
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
        # Newest epoch first: each stack stops the stages attached to it,
        # so a stage carried across epochs stops once, with its newest one.
        for epoch in sorted(self._epochs, reverse=True):
            self._epochs[epoch].stack.detach()
        for node_id in self.binding.contexts:
            self.binding.release(node_id)
        self._pump.interrupt("connection closed")
        self.socket.close()
        if self.runtime._reconfig is not None:
            self.runtime._reconfig.forget(self)
        # The per-connection sources read this connection; freezing them
        # (or, for ephemeral connections, dropping them) lets the registry
        # release it.
        obs = self.runtime.network.obs
        ephemeral = self.runtime.ephemeral_connections
        release = obs.unregister if ephemeral else obs.freeze
        prefix = f"conn.{self.conn_id}.{self.role.value}"
        for source in _SOURCES:
            release(f"{prefix}.{source}")
        if self.listener is not None:
            self.listener.connections.remove(self)
            self.listener = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Connection {self.conn_id} role={self.role.value} "
            f"epoch={self.epoch} peers={[str(p) for p in self.peers]} "
            f"tx={self.messages_sent} rx={self.messages_received}>"
        )
