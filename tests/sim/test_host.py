"""Tests for hosts, containers, ports, and kernel-program management."""

import pytest

from repro.errors import AddressError, TransportError
from repro.sim import CostModel, LossProgram, Network, SmartNic, UdpSocket
from repro.sim import host as host_mod
from repro.sim.link import LINK_BANDWIDTH


class TestHostAndContainers:
    def test_container_creation_and_lookup(self):
        net = Network()
        host = net.add_host("box")
        ct = host.add_container("ct")
        assert net.entity("ct") is ct
        assert ct.host is host
        assert host.containers == {"ct": ct}

    def test_container_name_collision_rejected(self):
        net = Network()
        host = net.add_host("box")
        host.add_container("ct")
        with pytest.raises(AddressError):
            host.add_container("ct")
        with pytest.raises(AddressError):
            host.add_container("box")

    def test_host_is_its_own_host(self):
        net = Network()
        host = net.add_host("box")
        assert host.host is host

    def test_smartnic_property(self):
        net = Network()
        plain = net.add_host("plain")
        smart = net.add_host("smart", nic=SmartNic(net.env, name="smart.nic"))
        assert plain.smartnic is None
        assert smart.smartnic is smart.nic

    def test_unknown_entity_lookup_raises(self):
        net = Network()
        with pytest.raises(AddressError):
            net.entity("ghost")


class TestPorts:
    def test_ephemeral_ports_are_distinct_and_high(self):
        net = Network()
        host = net.add_host("box")
        ports = {UdpSocket(host).port for _ in range(10)}
        assert len(ports) == 10
        assert all(port >= 40000 for port in ports)

    def test_explicit_bind_then_release_then_rebind(self):
        net = Network()
        host = net.add_host("box")
        sock = UdpSocket(host, 5000)
        sock.close()
        UdpSocket(host, 5000)

    def test_ephemeral_allocation_skips_taken_ports(self):
        net = Network()
        host = net.add_host("box")
        UdpSocket(host, 40000)
        UdpSocket(host, 40001)
        sock = UdpSocket(host)
        assert sock.port not in (40000, 40001)

    def test_ephemeral_allocation_wraps_at_port_space_end(self):
        # A long-lived entity that mints one socket per RPC walks through
        # the ephemeral range; after ~25k allocations the allocator must
        # wrap back to the base instead of minting port 65536.
        net = Network()
        host = net.add_host("box")
        pinned = UdpSocket(host, 40000)
        host._next_ephemeral = 65535
        last = UdpSocket(host)
        wrapped = UdpSocket(host)
        assert last.port == 65535
        assert wrapped.port == 40001  # skips the still-bound base port
        assert pinned.port == 40000

    def test_ephemeral_exhaustion_raises_address_error(self):
        net = Network()
        host = net.add_host("box")
        for port in range(40000, 65536):
            host.ports[port] = object()
        with pytest.raises(AddressError):
            host.alloc_port()


class TestKernelPrograms:
    def test_install_and_remove(self):
        net = Network()
        host = net.add_host("box")
        program = LossProgram("p")
        host.install_kernel_program(program)
        assert program in host.kernel_programs
        assert program.station is host.xdp_station
        host.remove_kernel_program(program)
        assert program not in host.kernel_programs

    def test_remove_unknown_program_raises(self):
        net = Network()
        host = net.add_host("box")
        with pytest.raises(TransportError):
            host.remove_kernel_program(LossProgram("ghost"))

    def test_xdp_cores_configurable(self, monkeypatch):
        monkeypatch.setattr(host_mod, "XDP_CORES", 4)
        net = Network()
        host = net.add_host("box")
        assert host.xdp_station.servers == 4


class TestCostModelExtras:
    def test_custom_cost_model_applies(self):
        fast = CostModel(udp_per_msg=1e-6, udp_per_byte=0)
        net = Network()
        net.add_host("a", cost=fast)
        net.add_host("b", cost=fast)
        net.add_link("a", "b", latency=1e-6)
        env = net.env
        arrived = {}

        def server(env):
            sock = UdpSocket(net.hosts["b"], 5000)
            yield sock.recv()
            arrived["t"] = env.now

        def client(env):
            sock = UdpSocket(net.hosts["a"])
            from repro.sim import Address

            sock.send(b"x", Address("b", 5000), size=1)
            yield env.timeout(0)

        env.process(server(env))
        env.process(client(env))
        env.run(until=1.0)
        # tx stack 1us + link 1us (and one byte at 10 Gbit/s) + NIC 0.5us
        # + rx stack 1us = 3.5us
        assert arrived["t"] == pytest.approx(3.5e-6 + 1 / LINK_BANDWIDTH, rel=1e-6)

    def test_per_host_cost_models_are_independent(self):
        net = Network()
        cheap = net.add_host("cheap", cost=CostModel(udp_per_msg=1e-6))
        default = net.add_host("default")
        assert cheap.cost.stack_cost(0) < default.cost.stack_cost(0)
