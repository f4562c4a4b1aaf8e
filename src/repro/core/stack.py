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
system/network operator does today, Figure 1), the runtime's shared state
(so a program installed for one connection is reused by the next), and the
negotiation parameter channel (so a server-side hook can, e.g., switch the
connection's transport to pipes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..errors import NegotiationError
from .chunnel import ChunnelSpec, ChunnelStage, Message, Offer, Role
from .dag import ChunnelDag
from .wire import EPOCH_HEADER

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from ..sim.eventloop import Environment
    from ..sim.host import NetEntity
    from ..sim.network import Network
    from .leases import LeaseHandle
    from .runtime import Runtime

__all__ = ["SetupContext", "ChunnelStack"]


@dataclass
class SetupContext:
    """Everything a Chunnel setup/teardown hook may touch."""

    runtime: "Runtime"
    role: Role
    conn_id: str
    dag: ChunnelDag
    offer: Offer
    spec: ChunnelSpec
    client_entity: str
    server_entity: str
    params: dict[str, Any] = field(default_factory=dict)
    #: The lease reference this node's binding holds, if it bears resources.
    reservations: list["LeaseHandle"] = field(default_factory=list)

    @property
    def env(self) -> "Environment":
        return self.runtime.env

    @property
    def network(self) -> "Network":
        return self.runtime.network

    @property
    def local_entity(self) -> "NetEntity":
        return self.runtime.entity

    @property
    def shared(self) -> dict:
        """Runtime-lifetime state shared across connections (idempotent
        device configuration stashes its handles here)."""
        return self.runtime.shared

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
        #: peer set — e.g. multicast fan-out — read it via Stage.connection).
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
    def start(self) -> None:
        """Start every stage (timers etc.)."""
        for stage in self.stages:
            stage.start()

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
