"""Hosts, containers, and per-host cost models.

A :class:`Host` is a machine: it owns a NIC, a kernel fast path where
XDP-like programs run, a cost model for its network stack and IPC
primitives, and zero or more :class:`Container`\\ s.

Containers matter because of the paper's Figure 3: two containers on the
same host each have their own network namespace, so a UDP/TCP message
between them traverses the full network stack twice even though no wire is
involved.  Bertha's ``local_or_remote`` Chunnel escapes that by negotiating
a pipe (UNIX-socket-class IPC) when both endpoints share a host.  In the
simulator both paths exist: loopback messages pay ``CostModel`` stack costs,
pipe messages pay the (much smaller) IPC costs.

Cost-model calibration (see DESIGN.md §2): constants are set to the order of
magnitude of a ~2015 Xeon running Linux 5.4 — ~6 µs per stack traversal,
~2 µs per pipe message, 3 GB/s loopback copy bandwidth, 6 GB/s pipe copy
bandwidth — so absolute latencies land in the paper's regime and, more
importantly, the *ratios* between data paths match.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Optional

from ..errors import AddressError, TransportError
from .datagram import Datagram
from .eventloop import Environment
from .nic import Nic, SmartNic
from .programs import PacketProgram
from .resources import Station

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .network import Network
    from .transport import SimSocket

__all__ = ["CostModel", "NetEntity", "Host", "Container"]

#: Kernel fast-path (XDP) cores per host: the station's servers.
XDP_CORES = 1

_EPHEMERAL_BASE = 40000
_EPHEMERAL_MAX = 65536


@dataclass
class CostModel:
    """Per-host data-path cost constants (seconds and bytes/second).

    ``udp_*`` cover one traversal of the kernel network stack (charged on
    both the sending and receiving side).  ``tcp_loopback_extra_per_msg`` is
    the additional per-message cost of loopback TCP over UDP (socket locking,
    reliability machinery) used by the Figure 3 baseline.  ``ipc_*`` cover a
    pipe/UNIX-socket message.  ``xdp_per_packet`` is the kernel fast-path
    service time for one datagram.  The class constants are the same on
    every host.
    """

    tcp_loopback_extra_per_msg: ClassVar[float] = 3.0e-6
    ipc_per_msg: ClassVar[float] = 6.0e-6
    ipc_per_byte: ClassVar[float] = 1 / 6.0e9
    loopback_latency: ClassVar[float] = 0.5e-6

    udp_per_msg: float = 7.0e-6
    udp_per_byte: float = 1 / 3.0e9
    xdp_per_packet: float = 0.8e-6
    #: Multiplicative cost jitter fraction (0 = exact costs).  Jitter is
    #: drawn from a seeded per-model RNG, so runs stay reproducible; turn
    #: it on for experiments whose output is a latency *distribution*
    #: (Figure 3's boxplots) rather than a point estimate.
    jitter: float = 0.0
    jitter_seed: int = 0xC057

    def __post_init__(self) -> None:
        if not 0 <= self.jitter < 1:
            raise ValueError("jitter must be in [0, 1)")
        self._rng = random.Random(self.jitter_seed)

    def _jittered(self, cost: float) -> float:
        if self.jitter == 0:
            return cost
        return cost * (1 + self._rng.uniform(-self.jitter, self.jitter))

    def stack_cost(self, size: int) -> float:
        """One network-stack traversal for a ``size``-byte message."""
        cost = self.udp_per_msg + size * self.udp_per_byte
        return cost if self.jitter == 0 else self._jittered(cost)

    def tcp_loopback_cost(self, size: int) -> float:
        """One loopback-TCP stack traversal for a ``size``-byte message."""
        cost = (
            self.udp_per_msg
            + size * self.udp_per_byte
            + self.tcp_loopback_extra_per_msg
        )
        return cost if self.jitter == 0 else self._jittered(cost)

    def ipc_cost(self, size: int) -> float:
        """One pipe/UNIX-socket message of ``size`` bytes."""
        cost = self.ipc_per_msg + size * self.ipc_per_byte
        return cost if self.jitter == 0 else self._jittered(cost)


class NetEntity:
    """Anything that can bind ports: a host or a container."""

    def __init__(self, env: Environment, network: "Network", name: str):
        self.env = env
        self.network = network
        self.name = name
        self.ports: dict[int, "SimSocket"] = {}
        self._next_ephemeral = _EPHEMERAL_BASE

    def bind(self, socket: "SimSocket", port: Optional[int] = None) -> int:
        """Bind ``socket`` to ``port`` (or an ephemeral one); returns it."""
        if port is None:
            port = self.alloc_port()
        elif port in self.ports:
            raise AddressError(f"{self.name}: port {port} already bound")
        self.ports[port] = socket
        return port

    def release(self, port: int) -> None:
        """Unbind ``port`` (no-op if not bound)."""
        self.ports.pop(port, None)

    def alloc_port(self) -> int:
        """Pick a free ephemeral port, wrapping like a real OS allocator.

        Long-lived entities that mint one short-lived socket per RPC (the
        discovery clients) walk through the ephemeral range; without the
        wrap a busy entity runs off the end of the port space after ~25k
        allocations even though almost every earlier port is free again.
        """
        for _ in range(_EPHEMERAL_MAX - _EPHEMERAL_BASE):
            if self._next_ephemeral >= _EPHEMERAL_MAX:
                self._next_ephemeral = _EPHEMERAL_BASE
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if port not in self.ports:
                return port
        raise AddressError(f"{self.name}: no free ephemeral ports")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} ports={sorted(self.ports)}>"


class Host(NetEntity):
    """A machine: NIC + kernel fast path + cost model + containers."""

    def __init__(
        self,
        env: Environment,
        network: "Network",
        name: str,
        cost: Optional[CostModel] = None,
        nic: Optional[Nic] = None,
    ):
        super().__init__(env, network, name)
        self.cost = cost or CostModel()
        #: Chaos flag: a down host neither sends nor receives datagrams.
        #: Sockets and processes survive (the crash models the machine
        #: dropping off the network, restart a fast supervisor recovery).
        self.down = False
        self.nic = nic or Nic(env, name=f"{name}.nic")
        self.containers: dict[str, Container] = {}
        self.kernel_programs: list[PacketProgram] = []
        self.xdp_station = Station(
            env,
            service_time=self.cost.xdp_per_packet,
            servers=XDP_CORES,
            name=f"{name}.xdp",
        )

    @property
    def host(self) -> "Host":
        return self

    @property
    def smartnic(self) -> Optional[SmartNic]:
        """The host's NIC if it is programmable, else None."""
        return self.nic if isinstance(self.nic, SmartNic) else None

    def add_container(self, name: str) -> "Container":
        """Create a container (own namespace, own ports) on this host."""
        if name in self.network.entities:
            raise AddressError(f"entity name {name!r} already in use")
        container = Container(self.env, self.network, name, self)
        self.containers[name] = container
        self.network.entities[name] = container
        return container

    def install_kernel_program(self, program: PacketProgram) -> None:
        """Install an XDP-like program on this host's receive fast path."""
        if program.station is None:
            program.station = self.xdp_station
        self.kernel_programs.append(program)

    def remove_kernel_program(self, program: PacketProgram) -> None:
        """Uninstall a kernel fast-path program."""
        try:
            self.kernel_programs.remove(program)
        except ValueError:
            raise TransportError(
                f"{self.name}: program {program.name!r} is not installed"
            ) from None


class Container(NetEntity):
    """A container: its own name and ports, its host's hardware."""

    def __init__(self, env: Environment, network: "Network", name: str, host: Host):
        super().__init__(env, network, name)
        self._host = host

    @property
    def host(self) -> Host:
        return self._host
