"""Tests for the fault-injection layer: plans, counters, and chaos."""

import pytest

from repro.errors import AddressError
from repro.sim import (
    Address,
    ChaosController,
    Datagram,
    FaultPlan,
    Network,
    UdpSocket,
)
from repro.sim.faults import CORRUPT_HEADER, clone_datagram


def pair(latency=5e-6):
    """Two hosts joined by one link, with sockets and a receive log."""
    net = Network()
    net.add_host("a")
    net.add_host("b")
    net.add_link("a", "b", latency=latency)
    tx = UdpSocket(net.hosts["a"], 100)
    rx = UdpSocket(net.hosts["b"], 200)
    received = []

    def sink(env):
        while True:
            dgram = yield rx.recv()
            received.append((env.now, dgram.payload))

    net.env.process(sink(net.env), name="sink")
    return net, tx, rx, received


def blast(net, tx, count, gap=50e-6, payload="m"):
    def source(env):
        for index in range(count):
            tx.send(f"{payload}{index}", Address("b", 200), size=64)
            yield env.timeout(gap)

    net.env.process(source(net.env), name="source")


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(duplicate_rate=-0.1)

    def test_is_benign(self):
        assert FaultPlan().is_benign
        assert not FaultPlan(drop_rate=0.01).is_benign

    def test_with_seed_copies_parameters(self):
        plan = FaultPlan(drop_rate=0.2, duplicate_rate=0.1, seed=3)
        copy = plan.with_seed(99)
        assert (copy.drop_rate, copy.duplicate_rate, copy.seed) == (0.2, 0.1, 99)
        assert copy.evaluated == 0

    def test_decision_stream_is_deterministic(self):
        def stream(seed):
            plan = FaultPlan(
                drop_rate=0.3, duplicate_rate=0.2, reorder_rate=0.2,
                corrupt_rate=0.1, seed=seed,
            )
            dgram = Datagram(
                src=Address("a", 1), dst=Address("b", 2), payload=b"", size=64
            )
            return [
                (d.drop, d.duplicate, d.corrupt, d.extra_delay)
                for d in (plan.decide(dgram) for _ in range(500))
            ]

        assert stream(7) == stream(7)
        assert stream(7) != stream(8)

    def test_clone_datagram_is_independent(self):
        dgram = Datagram(
            src=Address("a", 1), dst=Address("b", 2), payload=b"x",
            size=64, headers={"k": 1},
        )
        copy = clone_datagram(dgram)
        assert copy.uid != dgram.uid
        copy.headers["k"] = 2
        assert dgram.headers["k"] == 1


class TestFaultsOnTheWire:
    def test_certain_drop_loses_everything(self):
        net, tx, rx, received = pair()
        net.attach_faults("a", "b", FaultPlan(drop_rate=1.0, seed=1))
        blast(net, tx, 10)
        net.env.run(until=0.01)
        assert received == []
        assert net.dropped_by_fault == 10
        assert net.fault_drops == 10

    def test_corruption_dropped_by_nic_checksum(self):
        net, tx, rx, received = pair()
        net.attach_faults("a", "b", FaultPlan(corrupt_rate=1.0, seed=1))
        blast(net, tx, 10)
        net.env.run(until=0.01)
        assert received == []
        assert net.dropped_corrupt == 10
        assert net.dropped_by_fault == 0  # counters distinguish the cause

    def test_corrupt_header_never_reaches_the_application(self):
        net, tx, rx, received = pair()
        net.attach_faults("a", "b", FaultPlan(corrupt_rate=0.5, seed=2))
        blast(net, tx, 40)
        net.env.run(until=0.01)
        assert received  # some got through
        assert net.dropped_corrupt > 0
        assert len(received) + net.dropped_corrupt == 40

    def test_duplicates_arrive_twice(self):
        net, tx, rx, received = pair()
        net.attach_faults("a", "b", FaultPlan(duplicate_rate=1.0, seed=1))
        blast(net, tx, 10)
        net.env.run(until=0.01)
        assert len(received) == 20
        # Copies are real deliveries of the same payload, not re-sends.
        payloads = sorted(p for _, p in received)
        assert payloads == sorted([f"m{i}" for i in range(10)] * 2)

    def test_reordering_is_bounded(self):
        net, tx, rx, received = pair(latency=5e-6)
        plan = FaultPlan(reorder_rate=1.0, seed=1)
        net.attach_faults("a", "b", plan)
        blast(net, tx, 20, gap=10e-6)
        net.env.run(until=0.01)
        assert len(received) == 20  # reordering never loses anything
        assert plan.reordered == 20
        arrival_order = [p for _, p in received]
        assert arrival_order != [f"m{i}" for i in range(20)]

    def test_identical_seeds_identical_traces(self):
        def trace(seed):
            net, tx, rx, received = pair()
            net.attach_faults(
                "a", "b",
                FaultPlan(drop_rate=0.2, duplicate_rate=0.1,
                          reorder_rate=0.3, seed=seed),
            )
            blast(net, tx, 50)
            net.env.run(until=0.05)
            return received

        assert trace(5) == trace(5)
        assert trace(5) != trace(6)

    def test_attach_faults_everywhere_gives_each_link_its_own_stream(self):
        net = Network()
        for name in ("a", "b"):
            net.add_host(name)
        net.add_switch("sw")
        net.add_link("a", "sw", latency=5e-6)
        net.add_link("b", "sw", latency=5e-6)
        plans = net.attach_faults_everywhere(FaultPlan(drop_rate=0.5, seed=9))
        assert len(plans) == 2
        seeds = {plan.seed for plan in plans.values()}
        assert len(seeds) == 2  # derived, not shared


class TestChaosController:
    def test_link_down_blocks_and_up_restores(self):
        net, tx, rx, received = pair()
        chaos = ChaosController(net)
        chaos.set_link("a", "b", up=False)
        blast(net, tx, 5)
        net.env.run(until=0.001)
        assert received == [] and net.dropped_link_down == 5
        chaos.set_link("a", "b", up=True)
        blast(net, tx, 5)
        net.env.run(until=0.002)
        assert len(received) == 5

    def test_scheduled_action_fires_at_virtual_time(self):
        net, tx, rx, received = pair()
        chaos = ChaosController(net)
        chaos.set_link("a", "b", up=False, at=2e-4)
        blast(net, tx, 10, gap=50e-6)  # sends at 0, 50us, ... 450us
        net.env.run(until=0.01)
        assert len(received) == 4  # those sent before the cut
        assert [e.action for e in chaos.events] == ["set_link"]
        assert chaos.events[0].time == pytest.approx(2e-4)

    def test_cannot_schedule_in_the_past(self):
        net, *_ = pair()
        net.env.run(until=1e-3)
        chaos = ChaosController(net)
        with pytest.raises(ValueError):
            chaos.set_link("a", "b", up=False, at=1e-4)

    def test_flap_link_cycles(self):
        net, tx, rx, received = pair()
        chaos = ChaosController(net)
        chaos.flap_link("a", "b", down_for=1e-4, up_for=1e-4, cycles=2)
        blast(net, tx, 8, gap=50e-6)
        net.env.run(until=0.01)
        actions = [e.action for e in chaos.events]
        assert actions == ["link_down", "link_up", "link_down", "link_up"]
        assert 0 < len(received) < 8
        assert net.dropped_link_down == 8 - len(received)

    def test_host_crash_and_restart(self):
        net, tx, rx, received = pair()
        chaos = ChaosController(net)
        chaos.crash_host("b")
        blast(net, tx, 3)
        net.env.run(until=0.001)
        assert received == [] and net.dropped_host_down == 3
        chaos.restart_host("b")
        blast(net, tx, 3)
        net.env.run(until=0.002)
        assert len(received) == 3

    def test_crashed_host_cannot_send_either(self):
        net, tx, rx, received = pair()
        chaos = ChaosController(net)
        chaos.crash_host("a")
        blast(net, tx, 3)
        net.env.run(until=0.001)
        assert received == []
        assert net.dropped_host_down == 3

    def test_partition_blocks_cross_group_traffic(self):
        net, tx, rx, received = pair()
        chaos = ChaosController(net)
        chaos.partition(["a"], ["b"])
        blast(net, tx, 4)
        net.env.run(until=0.001)
        assert received == [] and net.dropped_partition == 4
        chaos.heal_partition()
        blast(net, tx, 4)
        net.env.run(until=0.002)
        assert len(received) == 4

    def test_partition_validates_nodes(self):
        net, *_ = pair()
        chaos = ChaosController(net)
        with pytest.raises(AddressError):
            chaos.partition(["a"], ["ghost"])

    def test_unknown_host_rejected(self):
        net, *_ = pair()
        chaos = ChaosController(net)
        with pytest.raises(AddressError):
            chaos.crash_host("ghost")
