"""Chunnel stack construction and the per-connection setup context (§4.1).

After negotiation chooses an implementation for every DAG node, each side
instantiates its **stack**: the topologically-ordered list of data-path
stages between the application and the transport socket.  Nodes whose chosen
implementation runs elsewhere (offloaded to a device, or entirely on the
peer) contribute no stage here — their :meth:`ChunnelImpl.setup` hook
configured the device instead.

The :class:`SetupContext` given to setup/teardown hooks is the automation
surface the paper describes in §4.2: it exposes the simulated network (so a
hook can install an XDP program or a switch rule — the work a human
system/network operator does today, Figure 1), reference-counted runtime-wide
shares (so a program installed for one connection is reused by the next and
removed with the last), and the negotiation parameter channel (so a
server-side hook can, e.g., switch the connection's transport to pipes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..errors import NegotiationError
from .chunnel import ChunnelSpec, ChunnelStage, Message, Offer, Role
from .wire import EPOCH_HEADER

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from ..sim.eventloop import Environment, Process
    from ..sim.host import NetEntity
    from ..sim.network import Network
    from .leases import LeaseHandle
    from .runtime import Runtime

__all__ = ["SetupContext", "ChunnelStack"]


@dataclass
class _Share:
    """One runtime-wide object and the number of nodes holding it."""

    value: Any
    destroy: Optional[Callable[[Any], None]]
    refs: int = 0


@dataclass
class SetupContext:
    """Everything a Chunnel setup/teardown hook may touch.

    State a hook keeps has one of two lifetimes.  What belongs to this
    node lives on the impl or its stage and goes with the node.  What
    several connections use at once — an installed device program, a
    group's resequencer — is a runtime-wide :meth:`share`: made by the
    first node that asks, held by each asking node until that node is
    torn down, and destroyed with the last holder (or kept for the
    runtime's life when it has no ``destroy``).
    """

    runtime: "Runtime"
    role: Role
    conn_id: str
    offer: Offer
    spec: ChunnelSpec
    client_entity: str
    server_entity: str
    params: dict[str, Any] = field(default_factory=dict)
    #: The lease reference this node holds, if it bears resources.
    lease: Optional["LeaseHandle"] = None
    #: Keys of the shares this node holds, in the order it took them (a
    #: tuple: most nodes hold none, and an empty one costs nothing).
    _held: tuple[str, ...] = field(default=(), init=False, repr=False)

    @property
    def env(self) -> "Environment":
        return self.runtime.env

    @property
    def network(self) -> "Network":
        return self.runtime.network

    @property
    def local_entity(self) -> "NetEntity":
        return self.runtime.entity

    def share(
        self,
        key: str,
        make: Callable[[], Any],
        destroy: Optional[Callable[[Any], None]] = None,
    ) -> Any:
        """The runtime-wide object under ``key``, made by ``make()`` if no
        node holds it yet; this node holds a reference to it until it is
        torn down.  ``destroy(obj)`` runs when the last reference goes;
        without one, the object lives as long as the runtime."""
        entry = self.runtime.shared.get(key)
        if entry is None:
            entry = self.runtime.shared[key] = _Share(make(), destroy)
        entry.refs += 1
        self._held += (key,)
        return entry.value

    def release(self) -> Optional["Process"]:
        """Give back what this node holds: every share, last taken first,
        destroying each object whose last reference this was, then its
        lease reference.  Returns the ``disc.release`` the runtime's last
        reference on the lease started, or None.  Only
        :meth:`Binding.release <repro.core.connection.Binding.release>`
        calls it, right after the node's ``teardown`` hook."""
        shared = self.runtime.shared
        held, self._held = self._held, ()
        for key in reversed(held):
            entry = shared[key]
            entry.refs -= 1
            if entry.refs == 0 and entry.destroy is not None:
                del shared[key]
                entry.destroy(entry.value)
        lease, self.lease = self.lease, None
        return None if lease is None else self.runtime.leases.release_nowait(lease)

    @property
    def is_server(self) -> bool:
        return self.role is Role.SERVER

    def select_transport(self, transport: str) -> None:
        """Server-side hooks call this to pick the data transport
        (``"udp"`` or ``"pipe"``); the choice travels in the accept message.
        """
        if not self.is_server:
            raise NegotiationError(
                "only the server side selects the connection transport"
            )
        self.params["transport"] = transport


class ChunnelStack:
    """The per-side data path: ordered stages between app and transport.

    ``transmit(message, extra_delay)`` is called for every message that
    reaches the bottom; ``deliver(message)`` for every message that reaches
    the top.  During a :meth:`receive` call, delivered messages are instead
    collected and returned together with the CPU time stages charged, so the
    caller (the connection's pump process) can model the receive thread
    being busy.
    """

    def __init__(
        self,
        env: "Environment",
        stages: list[ChunnelStage],
        transmit: Callable[[Message, float], None],
        deliver: Callable[[Message], None],
    ):
        self.env = env
        self.stages = list(stages)
        self._transmit = transmit
        self._deliver = deliver
        self._charge = 0.0
        self._collecting: Optional[list[Message]] = None
        #: Back-reference set by the owning Connection (stages that need the
        #: peer set — e.g. multicast fan-out — read it via Stage.connection);
        #: :meth:`detach` drops it.
        self.connection = None
        #: Live-reconfiguration epoch.  0 (the establishment stack) stamps
        #: nothing, so a connection that never transitions has an unchanged
        #: wire format; later epochs stamp EPOCH_HEADER on every transmit.
        self.epoch = 0
        #: Set when the epoch's offload device failed: stale messages still
        #: carrying this epoch must be routed to the newest stack instead.
        self.broken = False
        for index, stage in enumerate(self.stages):
            stage.attach(self, index)

    # -- lifecycle -------------------------------------------------------------
    def detach(self) -> None:
        """Let go of the connection: stop, last first, the stages attached
        to this stack, clear their back-references, and drop the owner and
        its callbacks.  A stage carried into a later epoch is attached
        there, so it keeps running.  Afterwards nothing this stack owns
        points back at it or at the connection, and reference counting
        frees both once they are dropped (the kernel pauses the cyclic
        collector while it runs)."""
        owned = [stage for stage in self.stages if stage._stack is self]
        for stage in reversed(owned):
            stage.stop()
        for stage in owned:
            stage._stack = None
        self.connection = self._transmit = self._deliver = None

    # -- accounting ---------------------------------------------------------------
    def charge(self, seconds: float) -> None:
        """Accumulate stage CPU time for the in-flight operation."""
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        self._charge += seconds

    def _take_charge(self) -> float:
        charge, self._charge = self._charge, 0.0
        return charge

    # -- send path -----------------------------------------------------------------
    def send(self, msg: Message) -> None:
        """Run ``msg`` down the whole stack and transmit the results."""
        self.send_from(0, msg)

    def send_from(self, index: int, msg: Message) -> None:
        """Run ``msg`` downward starting at stage ``index``.

        Stages use this (via :meth:`ChunnelStage.send_below`) to inject
        acks and retransmissions below themselves.
        """
        outputs = [msg]
        # ``index == 0`` (a fresh send) is the hot case; avoid slicing.
        for stage in self.stages if index == 0 else self.stages[index:]:
            next_outputs: list[Message] = []
            for current in outputs:
                next_outputs.extend(stage.on_send(current))
            outputs = next_outputs
            if not outputs:
                return
        if self._collecting is not None:
            # Send triggered from inside receive processing (e.g. the
            # userspace sharder forwarding a request): the forwarded message
            # leaves after the CPU time spent so far, AND that time still
            # occupies the receive thread — so peek, don't consume.
            charge = self._charge
        else:
            charge = self._take_charge()
        for out in outputs:
            if self.epoch:
                out.headers[EPOCH_HEADER] = self.epoch
            self._transmit(out, charge)
            charge = 0.0  # cost is paid once, before the first transmission

    # -- receive path ---------------------------------------------------------------
    def receive(self, msg: Message) -> tuple[list[Message], float]:
        """Run a wire message up the stack; returns (app messages, charge)."""
        self._collecting = []
        try:
            self.receive_from(len(self.stages), msg)
            return self._collecting, self._take_charge()
        finally:
            self._collecting = None

    def receive_from(self, index: int, msg: Message) -> None:
        """Run ``msg`` upward starting below stage index ``index``.

        ``index == len(stages)`` starts at the very bottom.  Stages use this
        (via :meth:`ChunnelStage.deliver_above`) for spontaneous upward
        deliveries such as reorder-buffer flushes.
        """
        outputs = [msg]
        stages = self.stages
        # ``index == len(stages)`` (a wire arrival) is the hot case.
        bottom_up = (
            reversed(stages) if index == len(stages) else reversed(stages[:index])
        )
        for stage in bottom_up:
            next_outputs: list[Message] = []
            for current in outputs:
                next_outputs.extend(stage.on_recv(current))
            outputs = next_outputs
            if not outputs:
                return
        for out in outputs:
            if self._collecting is not None:
                self._collecting.append(out)
            else:
                self._deliver(out)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        chain = " | ".join(type(s).__name__ for s in self.stages)
        return f"<ChunnelStack [{chain}]>"
