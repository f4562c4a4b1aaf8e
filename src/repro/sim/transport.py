"""Simulated transports: UDP datagrams, loopback TCP, and pipes.

Three data paths, mirroring the ones the paper's Figure 3 compares:

``UdpSocket``
    Connectionless datagrams through the full network stack.  Every message
    pays one stack traversal on each side plus NIC/link/switch costs if it
    crosses the wire (loopback latency if it stays on the host).  This is
    the substrate for Bertha's negotiation messages and for all cross-host
    Chunnels.

``TcpLoopbackSocket``
    The Figure 3 baseline: inter-container TCP.  Adds per-message cost over
    UDP (socket locking, reliability machinery) and a connect-time
    SYN/SYN-ACK handshake implemented as real simulated messages.

``PipeSocket``
    UNIX-pipe-class IPC between entities on the *same host*.  Bypasses the
    network stack entirely — one IPC charge per message.  This is what the
    ``local_or_remote`` Chunnel negotiates when both endpoints share a host.
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import AddressError, ConnectionClosedError, TransportError
from .datagram import Address, Datagram
from .eventloop import Event
from .host import NetEntity
from .network import Network
from .resources import Store

__all__ = ["SimSocket", "UdpSocket", "TcpLoopbackSocket", "PipeSocket"]


class SimSocket:
    """Base socket: a bound port plus a mailbox of received datagrams."""

    def __init__(self, entity: NetEntity, port: Optional[int] = None):
        self.entity = entity
        self.env = entity.env
        self.network: Network = entity.network
        self.port = entity.bind(self, port)
        self.address = Address(entity.name, self.port)
        self.store = Store(self.env, name=f"{self.address}")
        self.closed = False
        #: Chaos flag: a dropping socket silently discards arrivals while
        #: keeping its port bound, modelling a crashed service whose address
        #: must survive until restart.
        self.dropping = False
        self.sent = 0
        self.received = 0

    # -- network-facing ------------------------------------------------------
    def deliver(self, dgram: Datagram) -> None:
        """Called by the network when a datagram reaches this socket."""
        if self.closed or self.dropping:
            return
        self.received += 1
        self.store.put(dgram)

    # -- application-facing ----------------------------------------------------
    def recv(self) -> Event:
        """Event that fires with the next received :class:`Datagram`."""
        if self.closed:
            raise ConnectionClosedError(f"recv on closed socket {self.address}")
        return self.store.get()

    def try_recv(self) -> tuple[bool, Optional[Datagram]]:
        """Non-blocking receive: ``(True, dgram)`` or ``(False, None)``."""
        return self.store.try_get()

    def close(self) -> None:
        """Release the port; further sends/recvs raise."""
        if not self.closed:
            self.closed = True
            self.entity.release(self.port)

    def _make_datagram(
        self, payload: Any, dst: Address, size: Optional[int], headers: Optional[dict]
    ) -> Datagram:
        if self.closed:
            raise ConnectionClosedError(f"send on closed socket {self.address}")
        dgram = Datagram(
            src=self.address,
            dst=dst,
            payload=payload,
            size=size if size is not None else 0,
            headers=dict(headers or {}),
        )
        self.sent += 1
        return dgram

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.address} rx={self.received}>"


class UdpSocket(SimSocket):
    """Connectionless datagrams through the full network stack."""

    def send(
        self,
        payload: Any,
        dst: Address,
        size: Optional[int] = None,
        headers: Optional[dict] = None,
        extra_delay: float = 0.0,
    ) -> Datagram:
        """Send one datagram; returns it (already in flight).

        ``extra_delay`` models sender CPU work above the stack (Chunnel
        stage processing) and is charged before the stack traversal.
        """
        dgram = self._make_datagram(payload, dst, size, headers)
        tx_cost = self.entity.host.cost.stack_cost(dgram.size)
        self.network.transmit(dgram, after=extra_delay + tx_cost)
        return dgram


class TcpLoopbackSocket(SimSocket):
    """The inter-container TCP baseline (Figure 3).

    Per-message costs are UDP's plus ``tcp_loopback_extra_per_msg`` on each
    side.  :meth:`handshake` performs the connect-time SYN/SYN-ACK exchange;
    a listening socket answers SYNs automatically (they never appear in its
    receive mailbox).
    """

    _CTL = "tcp_ctl"

    def __init__(
        self, entity: NetEntity, port: Optional[int] = None, listening: bool = False
    ):
        super().__init__(entity, port)
        self.listening = listening
        self.handshakes_answered = 0

    def deliver(self, dgram: Datagram) -> None:
        ctl = dgram.headers.get(self._CTL)
        if ctl == "syn":
            if self.listening and not self.closed:
                self.handshakes_answered += 1
                self._send_raw(b"", dgram.src, 0, {self._CTL: "synack"})
            return
        super().deliver(dgram)

    def handshake(self, dst: Address):
        """Generator: perform SYN/SYN-ACK with ``dst``; yields sim events."""
        self._send_raw(b"", dst, 0, {self._CTL: "syn"})
        reply = yield self.recv()
        if reply.headers.get(self._CTL) != "synack":
            raise TransportError(
                f"handshake with {dst} got unexpected message {reply!r}"
            )
        return reply

    def send(
        self,
        payload: Any,
        dst: Address,
        size: Optional[int] = None,
        headers: Optional[dict] = None,
        extra_delay: float = 0.0,
    ) -> Datagram:
        """Send one message on an (assumed established) connection."""
        return self._send_raw(payload, dst, size, headers, extra_delay)

    def _send_raw(
        self,
        payload: Any,
        dst: Address,
        size: Optional[int],
        headers: Optional[dict],
        extra_delay: float = 0.0,
    ) -> Datagram:
        dgram = self._make_datagram(payload, dst, size, headers)
        cost_model = self.entity.host.cost
        tx_cost = cost_model.tcp_loopback_cost(dgram.size)
        # Receive side pays TCP costs too; stamp them so the delivery engine
        # charges the right amount at the destination host.
        dst_entity = self.network.entities.get(dst.host)
        if dst_entity is not None:
            dgram.headers["rx_stack_cost"] = dst_entity.host.cost.tcp_loopback_cost(
                dgram.size
            )
        self.network.transmit(dgram, after=extra_delay + tx_cost)
        return dgram


class PipeSocket(SimSocket):
    """UNIX-pipe-class IPC between two entities on the same host."""

    def send(
        self,
        payload: Any,
        dst: Address,
        size: Optional[int] = None,
        headers: Optional[dict] = None,
        extra_delay: float = 0.0,
    ) -> Datagram:
        """Deliver one message over IPC; raises if ``dst`` is not host-local."""
        dgram = self._make_datagram(payload, dst, size, headers)
        dst_entity = self.network.entities.get(dst.host)
        if dst_entity is None:
            raise AddressError(f"pipe send to unknown entity {dst.host!r}")
        if dst_entity.host is not self.entity.host:
            raise TransportError(
                f"pipe from {self.address} to {dst} crosses hosts "
                f"({self.entity.host.name} -> {dst_entity.host.name})"
            )
        target = dst_entity.ports.get(dst.port)
        if target is None:
            raise AddressError(f"pipe send to unbound port {dst}")
        delay = extra_delay + self.entity.host.cost.ipc_cost(dgram.size)
        done = self.env.event()
        done.succeed(dgram, delay=delay)

        def _arrive(event) -> None:
            arrived = event.value
            arrived.visit(f"pipe:{self.entity.host.name}")
            self.network.delivered += 1
            target.deliver(arrived)

        done.add_callback(_arrive)
        return dgram
