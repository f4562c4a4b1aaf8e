"""Tests for topology, routing, delivery, programs-in-path, and naming."""

import pytest

from repro.errors import AddressError
from repro.sim import (
    Address,
    CostModel,
    Datagram,
    LossProgram,
    Network,
    PacketAction,
    PacketProgram,
    ProgramResult,
    SmartNic,
    Station,
    UdpSocket,
)


def star(n_hosts=2, latency=5e-6):
    """n hosts behind one switch."""
    net = Network()
    for index in range(n_hosts):
        net.add_host(f"h{index}")
    net.add_switch("sw")
    for index in range(n_hosts):
        net.add_link(f"h{index}", "sw", latency=latency)
    return net


class TestTopology:
    def test_duplicate_names_rejected(self):
        net = Network()
        net.add_host("a")
        with pytest.raises(AddressError):
            net.add_host("a")
        with pytest.raises(AddressError):
            net.add_switch("a")

    def test_link_to_unknown_node_rejected(self):
        net = Network()
        net.add_host("a")
        with pytest.raises(AddressError):
            net.add_link("a", "ghost")

    def test_route_is_shortest_by_latency(self):
        net = Network()
        for name in ("a", "b"):
            net.add_host(name)
        net.add_switch("fast")
        net.add_switch("slow")
        net.add_link("a", "fast", latency=1e-6)
        net.add_link("fast", "b", latency=1e-6)
        net.add_link("a", "slow", latency=50e-6)
        net.add_link("slow", "b", latency=50e-6)
        assert net.route("a", "b") == ["a", "fast", "b"]

    def test_no_route_raises(self):
        net = Network()
        net.add_host("a")
        net.add_host("b")
        with pytest.raises(AddressError):
            net.route("a", "b")

    def test_route_cache_invalidated_by_new_link(self):
        net = Network()
        net.add_host("a")
        net.add_host("b")
        net.add_switch("s1")
        net.add_link("a", "s1", latency=10e-6)
        net.add_link("s1", "b", latency=10e-6)
        assert net.route("a", "b") == ["a", "s1", "b"]
        net.add_switch("s2")
        net.add_link("a", "s2", latency=1e-6)
        net.add_link("s2", "b", latency=1e-6)
        assert net.route("a", "b") == ["a", "s2", "b"]

    def test_container_shares_host_links(self):
        net = star(2)
        ct = net.hosts["h0"].add_container("ct")
        assert net.entity("ct").host is net.hosts["h0"]


def two_path_net():
    """a and b joined by a cheap path (via ``fast``) and a dear one
    (via ``slow``)."""
    net = Network()
    for name in ("a", "b"):
        net.add_host(name)
    net.add_switch("fast")
    net.add_switch("slow")
    net.add_link("a", "fast", latency=1e-6)
    net.add_link("fast", "b", latency=1e-6)
    net.add_link("a", "slow", latency=50e-6)
    net.add_link("slow", "b", latency=50e-6)
    return net


class TestRoutingUnderLinkFailure:
    """Regression: only ``add_link`` used to clear the route cache — a
    link failing *after* a path was cached kept attracting traffic
    (dropped as ``link_down``) even when an up alternate existed."""

    def test_link_failure_invalidates_cached_route(self):
        net = two_path_net()
        assert net.route("a", "b") == ["a", "fast", "b"]  # cached now
        net.link_between("a", "fast").up = False
        assert net.route("a", "b") == ["a", "slow", "b"]

    def test_link_recovery_restores_preferred_route(self):
        net = two_path_net()
        link = net.link_between("a", "fast")
        link.up = False
        assert net.route("a", "b") == ["a", "slow", "b"]
        link.up = True
        assert net.route("a", "b") == ["a", "fast", "b"]

    def test_severed_network_keeps_link_down_semantics(self):
        # With *no* up path left, route() must still return the full-
        # topology path so the walk drops at the dead link and counts
        # link_down — routing does not mask a genuinely severed network.
        net = Network()
        net.add_host("a")
        net.add_host("b")
        net.add_switch("s1")
        net.add_link("a", "s1", latency=1e-6)
        net.add_link("s1", "b", latency=1e-6)
        net.link_between("a", "s1").up = False
        assert net.route("a", "b") == ["a", "s1", "b"]

    def test_partition_set_and_clear_invalidate_route_cache(self):
        net = two_path_net()
        net.route("a", "b")
        assert net._route_cache
        net._partition = {"a": 0, "b": 1}
        assert not net._route_cache
        net.route("a", "b")
        assert net._route_cache
        net._partition = None
        assert not net._route_cache

    def test_redundant_state_write_does_not_thrash_cache(self):
        net = two_path_net()
        net.route("a", "b")
        net.link_between("a", "fast").up = True  # already up: no change
        assert net._route_cache


class TestDelivery:
    def ping(self, net, src_entity, dst_entity, dst_port=5000, size=64):
        """Send one datagram; returns (delivered dgram or None, rtt)."""
        env = net.env
        result = {}

        def server(env):
            sock = UdpSocket(net.entity(dst_entity), dst_port)
            dgram = yield sock.recv()
            result["dgram"] = dgram
            result["at"] = env.now

        def client(env):
            sock = UdpSocket(net.entity(src_entity))
            sock.send(b"x" * size, Address(dst_entity, dst_port), size=size)
            yield env.timeout(0)

        env.process(server(env))
        env.process(client(env))
        env.run(until=1.0)
        return result

    def test_cross_host_delivery(self):
        net = star(2)
        result = self.ping(net, "h0", "h1")
        assert result["dgram"].payload == b"x" * 64
        assert net.delivered == 1

    def test_fused_receive_dispatches_four_heap_entries(self):
        # Depart, leave the switch, arrive at the host, deliver: the NIC
        # receive on a host without programs is arithmetic, not an entry.
        net = star(2)
        sock = UdpSocket(net.hosts["h1"], 5000)
        net.transmit(Datagram(Address("h0", 6000), Address("h1", 5000), b"x", 64))
        net.env.run()
        assert (sock.received, net.hosts["h1"].nic.rx_station.jobs_served) == (1, 1)
        assert net.env.dispatched == 4

    def test_delivery_reroutes_around_failed_link(self):
        # End-to-end shape of the route-cache fix: traffic that cached the
        # cheap path keeps flowing over the alternate after a failure
        # instead of being dropped as link_down.
        net = two_path_net()
        env = net.env
        received = []

        def server(env):
            sock = UdpSocket(net.entity("b"), 5000)
            while True:
                dgram = yield sock.recv()
                received.append(dgram)

        def client(env):
            sock = UdpSocket(net.entity("a"))
            sock.send(b"x" * 64, Address("b", 5000), size=64)  # caches fast path
            yield env.timeout(1e-3)
            net.link_between("a", "fast").up = False
            sock.send(b"y" * 64, Address("b", 5000), size=64)

        env.process(server(env))
        env.process(client(env))
        env.run(until=1.0)
        assert [d.payload for d in received] == [b"x" * 64, b"y" * 64]
        assert net.dropped_link_down == 0

    def test_hop_trace_records_path(self):
        net = star(2)
        result = self.ping(net, "h0", "h1")
        hops = result["dgram"].hops
        assert any(h.startswith("switch:sw") for h in hops)
        assert any(h.startswith("nic:h1") for h in hops)
        assert hops[-1].startswith("socket:")

    def test_same_host_skips_nic(self):
        net = Network()
        host = net.add_host("box")
        host.add_container("ca")
        host.add_container("cb")
        result = self.ping(net, "ca", "cb")
        assert not any(h.startswith("nic:") for h in result["dgram"].hops)

    def test_unbound_port_counts_drop(self):
        net = star(2)
        env = net.env
        sock = UdpSocket(net.hosts["h0"])
        sock.send(b"x", Address("h1", 9999), size=10)
        env.run(until=1.0)
        assert net.dropped_unbound == 1
        assert net.delivered == 0

    def test_unknown_entity_counts_drop(self):
        net = star(2)
        sock = UdpSocket(net.hosts["h0"])
        sock.send(b"x", Address("nowhere", 1), size=10)
        net.env.run(until=1.0)
        assert net.dropped_no_entity == 1

    def test_transmit_from_unknown_entity_raises(self):
        net = star(2)
        with pytest.raises(AddressError):
            net.transmit(
                Datagram(src=Address("ghost", 1), dst=Address("h1", 1), size=1)
            )

    def test_latency_components_add_up(self):
        net = star(2, latency=5e-6)
        result = self.ping(net, "h0", "h1", size=64)
        # tx stack + 2 links + switch + NIC + rx stack; all defaults known.
        cost = CostModel()
        expected = (
            cost.stack_cost(64)
            + 2 * (5e-6 + 64 / (10 * 125_000_000.0))
            + net.switches["sw"].forward_latency
            + 0.5e-6  # NIC rx per packet
            + cost.stack_cost(64)
        )
        assert result["at"] == pytest.approx(expected, rel=1e-6)

    def test_delivery_to_closed_socket_is_dropped_silently(self):
        net = star(2)
        env = net.env
        sock_rx = UdpSocket(net.hosts["h1"], 5000)
        sock_rx.close()
        sock_tx = UdpSocket(net.hosts["h0"])
        sock_tx.send(b"x", Address("h1", 5000), size=1)
        env.run(until=1.0)
        assert net.delivered == 0


class _RewriteProgram(PacketProgram):
    """Redirects port 7000 to port 7001."""

    def __init__(self):
        super().__init__("rewrite")

    def match(self, dgram):
        return dgram.dst.port == 7000

    def handle(self, dgram):
        dgram.dst = Address(dgram.dst.host, 7001)
        return ProgramResult(action=PacketAction.REDIRECT)



class _Sink(UdpSocket):
    """Logs ``(instant, address, payload)`` per delivery instead of queueing."""

    def __init__(self, entity, port, log):
        super().__init__(entity, port)
        self.log = log

    def deliver(self, dgram):
        self.log.append((self.env.now, str(self.address), dgram.payload))


class _Step(PacketProgram):
    """Logs ``(instant, name, payload)`` per run, then returns a preset
    verdict, first rewriting the destination and/or emitting clones."""

    def __init__(
        self,
        name,
        world,
        station=None,
        action=PacketAction.PASS,
        to=None,
        clones=(),
        after=PacketAction.PASS,
    ):
        super().__init__(name, station)
        self.world = world
        self.action = action
        self.to = to
        self.clones = clones
        self.after = after

    def match(self, dgram):
        return True

    def handle(self, dgram):
        self.world.runs.append((self.world.env.now, self.name, dgram.payload))
        if self.to is not None:
            dgram.dst = self.to
        clones = [
            Datagram(dgram.src, dst, dgram.payload + b"'", dgram.size)
            for dst in self.clones
        ]
        return ProgramResult(self.action, clones, self.after)


class _ProgramWorld:
    """Hosts a, b, c with SmartNICs (one shared cost model, so jittered
    draws interleave across hosts) behind switch ``sw``; four 64 B datagrams
    a -> b:7000 due at 0, 0, 0.1 and 3 us: two tie, one queues behind them,
    one finds the stations idle again."""

    def __init__(self, jitter):
        self.net = net = Network()
        self.env = net.env
        cost = CostModel(jitter=jitter)
        for name in "abc":
            net.add_host(
                name, cost=cost, nic=SmartNic(net.env, name=f"{name}.nic")
            )
        net.add_switch("sw")
        for name in "abc":
            net.add_link(name, "sw")
        self.runs = []
        self.delivered = []
        for host, port in (("b", 7000), ("b", 7001), ("c", 7001)):
            _Sink(net.hosts[host], port, self.delivered)

    def step(self, name, **kwargs):
        return _Step(name, self, **kwargs)

    def run(self):
        dgrams = [
            Datagram(Address("a", 6000), Address("b", 7000), payload, 64)
            for payload in (b"A", b"B", b"C", b"D")
        ]
        for dgram, due in zip(dgrams, (0.0, 0.0, 0.1e-6, 3e-6)):
            self.net.transmit(dgram, after=due)
        self.env.run()
        return dgrams


def _us(log):
    """A ``_Sink``/``_Step`` log with instants in microseconds (0.1 ns grid)."""
    return [(round(when * 1e6, 4), *rest) for when, *rest in log]


def _arrivals(address, instants, payloads=(b"A", b"B", b"C", b"D")):
    return [(when, address, p) for when, p in zip(instants, payloads)]


#: Every scenario below runs with exact and with jittered stack costs.  The
#: expected instants, hop lists and event counts were recorded before packet
#: programs moved onto the walk, so they pin its schedule, not just its output.
both_cost_models = pytest.mark.parametrize("jitter", [0, 0.1])

#: Two kernel programs sharing b's one-core XDP station (0.8 us a packet): a
#: datagram's K2 turn queues behind the next datagram's K1 turn.
_K1_THEN_K2 = [
    (11.8024, "K1", b"A"), (12.6024, "K1", b"B"), (13.4024, "K2", b"A"),
    (14.2024, "K1", b"C"), (15.0024, "K2", b"B"), (15.8024, "K1", b"D"),
    (16.6024, "K2", b"C"), (17.4024, "K2", b"D"),
]  # fmt: skip


class TestProgramsInPath:
    def test_switch_program_redirects(self):
        net = star(2)
        net.switches["sw"].install(_RewriteProgram())
        env = net.env
        received = []

        def server(env):
            sock = UdpSocket(net.hosts["h1"], 7001)
            dgram = yield sock.recv()
            received.append(dgram)

        def client(env):
            sock = UdpSocket(net.hosts["h0"])
            sock.send(b"x", Address("h1", 7000), size=8)
            yield env.timeout(0)

        env.process(server(env))
        env.process(client(env))
        env.run(until=1.0)
        assert len(received) == 1
        assert received[0].dst.port == 7001

    def test_switch_loss_program_drops(self):
        net = star(2)
        net.switches["sw"].install(LossProgram("loss", drop_first=1))
        env = net.env
        sock_rx = UdpSocket(net.hosts["h1"], 7000)
        sock_tx = UdpSocket(net.hosts["h0"])
        sock_tx.send(b"1", Address("h1", 7000), size=1)
        sock_tx.send(b"2", Address("h1", 7000), size=1)
        env.run(until=1.0)
        assert net.dropped_by_program == 1
        assert sock_rx.received == 1

    def test_kernel_program_runs_only_for_wire_traffic(self):
        net = Network()
        host = net.add_host("box")
        host.add_container("ca")
        host.add_container("cb")
        counted = LossProgram("count", drop_rate=0.0)
        host.install_kernel_program(counted)
        env = net.env
        UdpSocket(net.entity("cb"), 5000)
        sock = UdpSocket(net.entity("ca"))
        sock.send(b"x", Address("cb", 5000), size=1)
        env.run(until=1.0)
        assert counted.matched == 0  # loopback traffic bypasses XDP

    def test_smartnic_program_runs_before_kernel_program(self):
        net = Network()
        net.add_host("h0")
        host = net.add_host(
            "h1", nic=SmartNic(net.env, name="h1.nic")
        )
        net.add_switch("sw")
        net.add_link("h0", "sw")
        net.add_link("h1", "sw")
        order = []

        class Tap(PacketProgram):
            def __init__(self, name):
                super().__init__(name)

            def match(self, dgram):
                return True

            def handle(self, dgram):
                order.append(self.name)
                return ProgramResult(action=PacketAction.PASS)

        host.smartnic.install(Tap("nic"))
        host.install_kernel_program(Tap("xdp"))
        UdpSocket(host, 5000)
        sock = UdpSocket(net.hosts["h0"])
        sock.send(b"x", Address("h1", 5000), size=1)
        net.env.run(until=1.0)
        assert order == ["nic", "xdp"]

    def test_forwarding_loop_detected(self):
        # hA — s1 — s2 — hB, with programs on the two switches bouncing the
        # datagram's destination back and forth between the hosts forever.
        net = Network()
        net.add_host("hA")
        net.add_host("hB")
        net.add_switch("s1")
        net.add_switch("s2")
        net.add_link("hA", "s1")
        net.add_link("s1", "s2")
        net.add_link("s2", "hB")

        class Flip(PacketProgram):
            def __init__(self, name, target):
                super().__init__(name)
                self.target = target

            def match(self, dgram):
                return True

            def handle(self, dgram):
                dgram.dst = Address(self.target, 7000)
                return ProgramResult(action=PacketAction.REDIRECT)

        net.switches["s1"].install(Flip("to-b", "hB"))
        net.switches["s2"].install(Flip("to-a", "hA"))
        sock = UdpSocket(net.hosts["hA"])
        sock.send(b"x", Address("hB", 7000), size=1)
        with pytest.raises(AddressError, match="loop"):
            net.env.run(until=1.0)

    def test_host_bounce_loop_detected(self):
        # Kernel programs on b and c redirect to each other: the hop budget
        # spans host-level restarts, so the bounce ends like a switch loop.
        world = _ProgramWorld(jitter=0)
        hosts = world.net.hosts
        hosts["b"].install_kernel_program(
            world.step("to-c", action=PacketAction.REDIRECT, to=Address("c", 7001))
        )
        hosts["c"].install_kernel_program(
            world.step("to-b", action=PacketAction.REDIRECT, to=Address("b", 7000))
        )
        world.net.transmit(Datagram(Address("a", 6000), Address("b", 7000), b"x", 64))
        with pytest.raises(AddressError, match="exceeded 32 redirects"):
            world.env.run(until=1e-3)

    @both_cost_models
    def test_switch_chain_station_inline_station(self, jitter):
        # Each station is FIFO on its own: A and B clear S1 (1 us) and the
        # station-less S2 before A clears S3 (2 us).
        world = _ProgramWorld(jitter)
        s1, s3 = Station(world.env, 1e-6), Station(world.env, 2e-6)
        for program in (
            world.step("S1", station=s1),
            world.step("S2"),
            world.step("S3", station=s3),
        ):
            world.net.switches["sw"].install(program)
        dgrams = world.run()
        assert _us(world.runs) == [
            (6.4512, "S1", b"A"), (6.4512, "S2", b"A"),
            (7.4512, "S1", b"B"), (7.4512, "S2", b"B"),
            (8.4512, "S1", b"C"), (8.4512, "S2", b"C"), (8.4512, "S3", b"A"),
            (9.4512, "S1", b"D"), (9.4512, "S2", b"D"),
            (10.4512, "S3", b"B"), (12.4512, "S3", b"C"), (14.4512, "S3", b"D"),
        ]  # fmt: skip
        assert _us(world.delivered) == _arrivals("b:7000", {
            0: [21.0237, 23.0237, 25.0237, 27.0237],
            0.1: [20.5349, 22.5291, 25.324, 26.9412],
        }[jitter])  # fmt: skip
        assert all(d.hops == [
            "switch:sw", "program:S1@sw", "program:S2@sw", "program:S3@sw",
            "nic:b.nic", "socket:b:7000",
        ] for d in dgrams)  # fmt: skip
        assert (s1.jobs_served, s3.jobs_served, world.net.delivered) == (4, 4, 4)
        assert world.env.dispatched == {0: 24, 0.1: 28}[jitter]

    @both_cost_models
    def test_kernel_chain_pass_then_nonlocal_redirect(self, jitter):
        world = _ProgramWorld(jitter)
        host = world.net.hosts["b"]
        host.install_kernel_program(world.step("K1"))
        host.install_kernel_program(
            world.step("K2", action=PacketAction.REDIRECT, to=Address("c", 7001))
        )
        dgrams = world.run()
        assert _us(world.runs) == _K1_THEN_K2
        assert _us(world.delivered) == _arrivals("c:7001", {
            0: [31.4261, 33.0261, 34.6261, 35.4261],
            0.1: [30.9373, 32.5315, 34.9264, 35.3436],
        }[jitter])  # fmt: skip
        assert all(d.hops == [
            "switch:sw", "nic:b.nic", "program:K1@b", "program:K2@b",
            "switch:sw", "nic:c.nic", "socket:c:7001",
        ] for d in dgrams)  # fmt: skip
        assert (host.xdp_station.jobs_served, world.net.delivered) == (8, 4)
        assert world.env.dispatched == {0: 40, 0.1: 44}[jitter]

    @both_cost_models
    def test_smartnic_local_redirect_then_kernel_program(self, jitter):
        # A REDIRECT that stays on the host ends the NIC chain only: the
        # kernel stage still runs, then the rewritten port is delivered.
        world = _ProgramWorld(jitter)
        host = world.net.hosts["b"]
        host.smartnic.install(
            world.step("N", action=PacketAction.REDIRECT, to=Address("b", 7001))
        )
        host.install_kernel_program(world.step("K"))
        dgrams = world.run()
        assert _us(world.runs) == [
            (11.3024, "N", b"A"), (11.8024, "N", b"B"), (12.1024, "K", b"A"),
            (12.3024, "N", b"C"), (12.9024, "K", b"B"), (13.7024, "K", b"C"),
            (14.3024, "N", b"D"), (15.1024, "K", b"D"),
        ]  # fmt: skip
        assert _us(world.delivered) == _arrivals("b:7001", {
            0: [19.1237, 19.9237, 20.7237, 22.1237],
            0.1: [18.6349, 19.4291, 21.024, 22.0412],
        }[jitter])  # fmt: skip
        assert all(d.hops == [
            "switch:sw", "nic:b.nic", "program:N@b", "program:K@b", "socket:b:7001",
        ] for d in dgrams)  # fmt: skip
        assert host.smartnic.compute.jobs_served == 4
        assert (host.xdp_station.jobs_served, world.net.delivered) == (4, 4)
        assert world.env.dispatched == 28

    @both_cost_models
    def test_mid_chain_drop_never_queues_at_later_station(self, jitter):
        world = _ProgramWorld(jitter)
        host = world.net.hosts["b"]
        later = Station(world.env, 1e-6)
        host.install_kernel_program(world.step("K1"))
        host.install_kernel_program(world.step("K2", action=PacketAction.DROP))
        host.install_kernel_program(world.step("K3", station=later))
        dgrams = world.run()
        assert _us(world.runs) == _K1_THEN_K2
        assert world.delivered == []
        assert all(d.hops == [
            "switch:sw", "nic:b.nic", "program:K1@b", "program:K2@b",
        ] for d in dgrams)  # fmt: skip
        assert (world.net.dropped_by_program, later.jobs_served) == (4, 0)
        assert (host.xdp_station.jobs_served, world.net.delivered) == (8, 0)
        assert world.env.dispatched == 24

    @both_cost_models
    def test_kernel_clone_then_drop_original(self, jitter):
        # Clones start fresh walks from b at delay 0: one leaves through the
        # switch, one is loopback on b; the original is counted as dropped.
        world = _ProgramWorld(jitter)
        host = world.net.hosts["b"]
        host.install_kernel_program(
            world.step(
                "K",
                action=PacketAction.CLONE,
                clones=(Address("c", 7001), Address("b", 7001)),
                after=PacketAction.DROP,
            )
        )
        dgrams = world.run()
        assert _us(world.runs) == [
            (11.8024, "K", b"A"), (12.6024, "K", b"B"),
            (13.4024, "K", b"C"), (14.8024, "K", b"D"),
        ]  # fmt: skip
        copies = (b"A'", b"B'", b"C'", b"D'")
        assert _us(world.delivered) == _arrivals("b:7001", {
            0: [19.3237, 20.1237, 20.9237, 22.3237],
            0.1: [18.8349, 19.6291, 21.224, 22.2412],
        }[jitter], copies) + _arrivals("c:7001", {
            0: [29.8261, 30.6261, 31.4261, 32.8261],
            0.1: [29.4207, 30.8358, 30.9128, 32.8689],
        }[jitter], copies)  # fmt: skip
        assert all(
            d.hops == ["switch:sw", "nic:b.nic", "program:K@b"] for d in dgrams
        )
        assert (world.net.dropped_by_program, world.net.delivered) == (4, 8)
        assert host.xdp_station.jobs_served == 4
        assert world.env.dispatched == {0: 44, 0.1: 52}[jitter]

    @both_cost_models
    def test_nic_nonlocal_redirect_skips_local_kernel_stage(self, jitter):
        world = _ProgramWorld(jitter)
        b, c = world.net.hosts["b"], world.net.hosts["c"]
        b.smartnic.install(
            world.step("N", action=PacketAction.REDIRECT, to=Address("c", 7001))
        )
        b.install_kernel_program(world.step("Kb"))
        c.install_kernel_program(world.step("Kc"))
        dgrams = world.run()
        assert _us(world.runs) == [
            (11.3024, "N", b"A"), (11.8024, "N", b"B"),
            (12.3024, "N", b"C"), (14.3024, "N", b"D"),
            (23.1048, "Kc", b"A"), (23.9048, "Kc", b"B"),
            (24.7048, "Kc", b"C"), (26.1048, "Kc", b"D"),
        ]  # fmt: skip
        assert _us(world.delivered) == _arrivals("c:7001", {
            0: [30.1261, 30.9261, 31.7261, 33.1261],
            0.1: [29.6373, 30.4315, 32.0264, 33.0436],
        }[jitter])  # fmt: skip
        assert all(d.hops == [
            "switch:sw", "nic:b.nic", "program:N@b",
            "switch:sw", "nic:c.nic", "program:Kc@c", "socket:c:7001",
        ] for d in dgrams)  # fmt: skip
        assert b.smartnic.compute.jobs_served == 4
        assert (b.xdp_station.jobs_served, c.xdp_station.jobs_served) == (0, 4)
        assert world.env.dispatched == 44


class TestNameService:
    def test_register_resolve_unregister(self):
        net = star(2)
        addr = Address("h1", 7000)
        net.names.register("svc", addr)
        assert [r.address for r in net.names.resolve("svc")] == [addr]
        net.names.unregister("svc", addr)
        assert net.names.resolve("svc") == []

    def test_resolution_order_is_registration_order(self):
        net = star(3)
        net.names.register("svc", Address("h1", 1))
        net.names.register("svc", Address("h2", 1))
        addresses = [r.address.host for r in net.names.resolve("svc")]
        assert addresses == ["h1", "h2"]

    def test_resolve_unknown_name_is_empty(self):
        net = star(1)
        assert net.names.resolve("ghost") == []


class TestKRoutes:
    """Edge-disjoint path queries and their cache discipline."""

    def test_edge_disjoint_paths_in_cost_order(self):
        net = two_path_net()
        assert net.k_routes("a", "b", 2) == [
            ["a", "fast", "b"],
            ["a", "slow", "b"],
        ]

    def test_k_beyond_diversity_returns_what_exists(self):
        net = two_path_net()
        assert len(net.k_routes("a", "b", 4)) == 2

    def test_result_is_cached(self):
        net = two_path_net()
        assert net.k_routes("a", "b", 2) is net.k_routes("a", "b", 2)

    def test_invalid_k_rejected(self):
        net = two_path_net()
        with pytest.raises(ValueError):
            net.k_routes("a", "b", 0)

    def test_unknown_destination_raises_address_error(self):
        net = two_path_net()
        with pytest.raises(AddressError):
            net.k_routes("a", "ghost", 2)

    def test_link_state_change_invalidates(self):
        net = two_path_net()
        assert net.k_routes("a", "b", 2)[0] == ["a", "fast", "b"]
        link = net.link_between("a", "fast")
        link.up = False
        assert net.k_routes("a", "b", 2) == [["a", "slow", "b"]]
        link.up = True
        assert net.k_routes("a", "b", 2)[0] == ["a", "fast", "b"]

    def test_partition_set_and_clear_invalidate(self):
        net = two_path_net()
        net.k_routes("a", "b", 2)
        assert net._k_route_cache
        net._partition = {"a": 0, "b": 1}
        assert not net._k_route_cache
        net.k_routes("a", "b", 2)
        assert net._k_route_cache
        net._partition = None
        assert not net._k_route_cache

    def test_new_link_invalidates(self):
        net = two_path_net()
        assert len(net.k_routes("a", "b", 3)) == 2
        net.add_switch("mid")
        net.add_link("a", "mid", latency=10e-6)
        net.add_link("mid", "b", latency=10e-6)
        assert len(net.k_routes("a", "b", 3)) == 3

    def test_severed_network_degenerates_to_route(self):
        # No up path at all: fall back to the full-topology route so the
        # walk keeps its link_down drop semantics (mirrors route()).
        net = Network()
        net.add_host("a")
        net.add_host("b")
        net.add_switch("s1")
        net.add_link("a", "s1", latency=1e-6)
        net.add_link("s1", "b", latency=1e-6)
        net.link_between("a", "s1").up = False
        assert net.k_routes("a", "b", 2) == [["a", "s1", "b"]]


class TestSourceRoutePin:
    """Datagrams carrying a pinned path override the routing tables."""

    def _one_way(self, net, headers):
        from repro.sim import SRCROUTE_HEADER  # noqa: F401  (doc pointer)

        env = net.env
        result = {}

        def server(env):
            sock = UdpSocket(net.entity("b"), 5000)
            result["dgram"] = yield sock.recv()

        def client(env):
            sock = UdpSocket(net.entity("a"))
            sock.send(b"x", Address("b", 5000), size=8, headers=headers)
            yield env.timeout(0)

        env.process(server(env))
        env.process(client(env))
        env.run(until=1e-2)
        return result.get("dgram")

    def test_pin_steers_off_the_preferred_path(self):
        from repro.sim import SRCROUTE_HEADER

        net = two_path_net()
        dgram = self._one_way(
            net, {SRCROUTE_HEADER: ("a", "slow", "b")}
        )
        assert dgram is not None
        assert "switch:slow" in dgram.hops
        assert net.srcroute_fallbacks == 0

    def test_stale_pin_falls_back_to_routing(self):
        from repro.sim import SRCROUTE_HEADER

        net = two_path_net()
        dgram = self._one_way(
            net, {SRCROUTE_HEADER: ("a", "ghost", "b")}
        )
        assert dgram is not None  # rerouted, not dropped
        assert "switch:fast" in dgram.hops
        assert net.srcroute_fallbacks > 0


class TestRouteTieBreaks:
    """Routes where several paths cost the same.  The expected paths are
    the ones networkx's searches chose, so worlds route (and every recorded
    baseline replays) as they did when networkx did the routing."""

    def test_equal_cost_diamond(self):
        net = Network()
        net.add_host("a")
        net.add_host("b")
        net.add_switch("s1")
        net.add_switch("s2")
        for a, b in (("a", "s1"), ("s1", "b"), ("a", "s2"), ("s2", "b")):
            net.add_link(a, b)
        assert net.route("a", "b") == ["a", "s1", "b"]
        assert net.route("b", "a") == ["b", "s1", "a"]
        assert net.k_routes("a", "b", 2) == [["a", "s1", "b"], ["a", "s2", "b"]]

    def test_two_tier_topology_past_300_vertices(self):
        net = Network()
        for spine in ("spine0", "spine1"):
            net.add_switch(spine)
        for t in range(15):
            tor = f"tor{t}"
            net.add_switch(tor)
            for spine in ("spine0", "spine1"):
                net.add_link(tor, spine, latency=2e-6)
            for h in range(19):
                net.add_host(f"h{t}.{h}")
                net.add_link(f"h{t}.{h}", tor)
        assert len(net.adj) == 302
        expected = {
            ("h0.0", "h14.18"): ["h0.0", "tor0", "spine0", "tor14", "h14.18"],
            ("h14.18", "h0.0"): ["h14.18", "tor14", "spine0", "tor0", "h0.0"],
            ("h3.5", "h3.6"): ["h3.5", "tor3", "h3.6"],
            ("h7.1", "h12.9"): ["h7.1", "tor7", "spine0", "tor12", "h12.9"],
            ("h12.9", "h7.1"): ["h12.9", "tor12", "spine0", "tor7", "h7.1"],
            ("tor2", "h9.0"): ["tor2", "spine0", "tor9", "h9.0"],
            ("spine1", "h5.5"): ["spine1", "tor5", "h5.5"],
        }
        for (src, dst), path in expected.items():
            assert net.route(src, dst) == path

    def test_fault_seeds_follow_edge_order(self):
        from repro.sim.faults import FaultPlan

        net = Network()
        net.add_host("x")
        net.add_switch("tor")
        net.add_host("b")
        net.add_host("a")
        for u, v in (("x", "tor"), ("tor", "b"), ("a", "tor"), ("b", "a")):
            net.add_link(u, v)
        plans = net.attach_faults_everywhere(FaultPlan(drop_rate=0.1, seed=5))
        assert [(key, plan.seed) for key, plan in plans.items()] == [
            (("b", "a"), 7924),
            (("tor", "a"), 15843),
            (("tor", "b"), 23762),
            (("x", "tor"), 31681),
        ]
