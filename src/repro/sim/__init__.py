"""Simulated substrate: event loop, topology, devices, and transports.

This package is the laptop-scale stand-in for the paper's testbed *and* for
the hardware offloads (SmartNICs, programmable switches) the paper only
gestures at.  Everything is deterministic: the same script produces the same
virtual-time measurements on every run.

Typical construction::

    from repro.sim import Environment, Network

    net = Network()
    client = net.add_host("client")
    server = net.add_host("server")
    net.add_switch("tor")
    net.add_link("client", "tor", latency=5e-6)
    net.add_link("server", "tor", latency=5e-6)
"""

from .datagram import Address, Datagram
from .eventloop import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from .faults import ChaosController, ChaosEvent, FaultDecision, FaultPlan
from .host import Container, CostModel, Host, NetEntity
from .link import GBPS, MBPS, MS, US, Link
from .network import SRCROUTE_HEADER, NameService, Network, ServiceRecord
from .nic import Nic, SmartNic
from .pcie import PcieBus
from .programs import LossProgram, PacketAction, PacketProgram, ProgramResult
from .resources import Station, Store, TokenResource
from .switch import ProgrammableSwitch, SwitchProgramFootprint
from .transport import PipeSocket, SimSocket, TcpLoopbackSocket, UdpSocket

__all__ = [
    "Address",
    "AllOf",
    "AnyOf",
    "ChaosController",
    "ChaosEvent",
    "Container",
    "CostModel",
    "Datagram",
    "Environment",
    "Event",
    "FaultDecision",
    "FaultPlan",
    "GBPS",
    "Host",
    "Interrupt",
    "Link",
    "LossProgram",
    "MBPS",
    "MS",
    "NameService",
    "NetEntity",
    "Network",
    "Nic",
    "PacketAction",
    "PacketProgram",
    "PcieBus",
    "PipeSocket",
    "Process",
    "ProgramResult",
    "ProgrammableSwitch",
    "ServiceRecord",
    "SimSocket",
    "SimulationError",
    "SRCROUTE_HEADER",
    "SmartNic",
    "Station",
    "Store",
    "SwitchProgramFootprint",
    "TcpLoopbackSocket",
    "Timeout",
    "TokenResource",
    "UdpSocket",
    "US",
]
