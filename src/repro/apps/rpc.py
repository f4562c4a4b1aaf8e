"""A minimal RPC (ping/echo) application on the Bertha API.

This is the measurement app of the paper's Figures 3 and 4: a client opens
a connection, sends a few requests, measures each round trip, closes, and
repeats.  The server echoes.  Both sides are ordinary Bertha endpoints —
which Chunnels run, and over which transport, is whatever negotiation
decided.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core.connection import Connection
from ..core.dag import ChunnelDag
from ..core.runtime import Listener, Runtime
from ..sim.datagram import Address
from ..sim.eventloop import Interrupt

__all__ = ["EchoServer", "PingResult", "ping_connection", "ping_session"]


class EchoServer:
    """Accepts connections forever; echoes every request.

    The reply payload mirrors the request (so byte-level apps measure pure
    transport cost), addressed to the request's source — which also makes
    the server correct behind routing Chunnels.
    """

    def __init__(
        self,
        runtime: Runtime,
        port: int,
        dag: Optional[ChunnelDag] = None,
        service_name: Optional[str] = None,
        name: str = "echo-server",
        idle_close: Optional[float] = None,
    ):
        self.runtime = runtime
        self.endpoint = runtime.new(name, dag)
        self.listener: Listener = self.endpoint.listen(
            port=port, service_name=service_name
        )
        self.connections_served = 0
        self.requests_served = 0
        self.idle_closed = 0
        #: A client close is silent on the wire, so a fleet-scale server
        #: must shed server-side state itself: when ``idle_close`` is set,
        #: a reaper closes any connection with no traffic for one full
        #: sweep interval.  Off by default — the reaper's periodic timeout
        #: keeps the event heap non-empty until the deadline.
        self.idle_close = idle_close
        #: conn -> (serve process, messages_received at last sweep)
        self._sessions: dict[Connection, tuple] = {}
        self._acceptor = runtime.env.process(self._accept_loop(), name=f"{name}.accept")
        self._reaper = (
            runtime.env.process(self._reap_loop(), name=f"{name}.reaper")
            if idle_close is not None
            else None
        )

    @property
    def address(self) -> Address:
        return self.listener.address

    def _accept_loop(self):
        while True:
            conn = yield self.listener.accept()
            self.connections_served += 1
            proc = self.runtime.env.process(
                self._serve(conn), name=f"{self.endpoint.name}.conn"
            )
            if self.idle_close is not None:
                self._sessions[conn] = (proc, -1)

    def _serve(self, conn: Connection):
        while not conn.closed:
            try:
                msg = yield conn.recv()
            except Interrupt:
                return
            self.requests_served += 1
            conn.send(msg.payload, size=msg.size, dst=msg.src)

    def _reap_loop(self):
        while True:
            try:
                yield self.runtime.env.timeout(self.idle_close)
            except Interrupt:
                return
            for conn in list(self._sessions):
                proc, seen = self._sessions[conn]
                if conn.closed:
                    del self._sessions[conn]
                elif conn.messages_received == seen and not conn.awaiting_verdict:
                    # A full interval without traffic: the client is gone
                    # (its close never crosses the wire).  A connection
                    # holding data for a lease verdict is not idle.
                    del self._sessions[conn]
                    self.idle_closed += 1
                    if proc.is_alive:
                        proc.interrupt("idle close")
                    conn.close()
                else:
                    self._sessions[conn] = (proc, conn.messages_received)

    def close(self) -> None:
        """Stop accepting new connections (and the idle reaper)."""
        if self._reaper is not None and self._reaper.is_alive:
            self._reaper.interrupt("server closed")
        self.listener.close()


@dataclass
class PingResult:
    """Measurements from one client session."""

    setup_time: float
    rtts: list[float] = field(default_factory=list)
    transport: str = ""
    server_entity: str = ""


def ping_connection(conn: Connection, payload: bytes, count: int):
    """Generator: ``count`` request/response RTTs on an open connection."""
    env = conn.env
    rtts: list[float] = []
    for _ in range(count):
        start = env.now
        conn.send(payload, size=len(payload))
        yield conn.recv()
        rtts.append(env.now - start)
    return rtts


def ping_session(
    runtime: Runtime,
    target,
    dag: Optional[ChunnelDag] = None,
    size: int = 64,
    count: int = 3,
    name: str = "ping-client",
):
    """Generator → :class:`PingResult`: connect, ping ``count`` times, close.

    This is one sample of the Figure 3/4 experiments: connection
    establishment (which includes the discovery + negotiation round trips)
    is timed separately from the per-request RTTs.
    """
    env = runtime.env
    endpoint = runtime.new(name, dag)
    start = env.now
    conn = yield from endpoint.connect(target)
    setup_time = env.now - start
    payload = bytes(size)
    rtts = yield from ping_connection(conn, payload, count)
    result = PingResult(
        setup_time=setup_time,
        rtts=rtts,
        transport=conn.transport,
        server_entity=conn.peer.host if conn.peer else "",
    )
    conn.close()
    return result
