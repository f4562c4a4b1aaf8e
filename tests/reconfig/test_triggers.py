"""Unit tests for the reconfiguration trigger sources."""

import pytest

from repro.chunnels import SerializeFallback, ShardXdp
from repro.reconfig import (
    DeviceFailureDetector,
    DiscoveryWatcher,
    PathQualityMonitor,
)
from repro.reconfig import triggers
from repro.sim import FaultPlan, Network

from ..conftest import run


class TestDeviceFailureDetector:
    def test_switch_and_nic_events_fan_out(self, two_hosts):
        detector = DeviceFailureDetector(two_hosts.net)
        seen = []
        assert detector.watch("tor", lambda *a: seen.append(("w1",) + a))
        assert detector.watch("tor", lambda *a: seen.append(("w2",) + a))
        assert detector.watch("srv", lambda *a: seen.append(("nic",) + a))

        tor = two_hosts.net.switches["tor"]
        tor.fail("cable pulled")
        tor.recover()
        two_hosts.net.hosts["srv"].nic.fail()

        assert [(e[0], e[1], e[3]) for e in seen] == [
            ("w1", "tor", True),
            ("w2", "tor", True),
            ("w1", "tor", False),
            ("w2", "tor", False),
            ("nic", "srv", True),
        ]
        assert seen[0][4] == "cable pulled"
        assert detector.events == 3  # per device event, not per callback

    def test_unknown_location_is_not_watchable(self, two_hosts):
        detector = DeviceFailureDetector(two_hosts.net)
        assert not detector.watch("atlantis", lambda *a: None)

    def test_failed_switch_still_forwards(self):
        net = Network()
        net.add_host("a")
        net.add_host("b")
        net.add_switch("sw")
        net.add_link("a", "sw", latency=1e-6)
        net.add_link("b", "sw", latency=1e-6)
        from repro.sim import UdpSocket

        sender = UdpSocket(net.entity("a"), 1000)
        receiver = UdpSocket(net.entity("b"), 2000)
        net.switches["sw"].fail()

        def scenario(env):
            sender.send(b"ping", receiver.address, size=4)
            dgram = yield receiver.recv()
            return bytes(dgram.payload)

        assert run(net.env, scenario(net.env)) == b"ping"
        # ...but its programmability is gone while failed.
        assert net.switches["sw"].matching_programs is not None


class TestDiscoveryWatcher:
    def test_revocation_push_reaches_callback(self, two_hosts):
        runtime = two_hosts.runtime("cl")
        record = two_hosts.discovery.register(ShardXdp.meta, location="srv")
        watcher = DiscoveryWatcher(runtime)
        events = []
        watcher.watch_record(
            record.record_id, lambda rid, kind, body: events.append((rid, kind))
        )

        def scenario(env):
            yield env.timeout(1e-3)  # let the watch RPC register
            two_hosts.discovery.revoke(record.record_id)
            yield env.timeout(1e-3)  # push datagram in flight
            return list(events)

        got = run(two_hosts.env, scenario(two_hosts.env))
        assert got == [(record.record_id, "disc.revoked")]
        assert watcher.notifications == 1

    def test_explicit_rearm_restores_watches(self, two_hosts):
        runtime = two_hosts.runtime("cl")
        record = two_hosts.discovery.register(ShardXdp.meta, location="srv")
        watcher = DiscoveryWatcher(runtime)
        events = []
        watcher.watch_record(
            record.record_id, lambda rid, kind, body: events.append(kind)
        )

        def scenario(env):
            yield env.timeout(1e-3)
            two_hosts.discovery.crash()
            yield env.timeout(1e-3)
            two_hosts.discovery.restart()
            watcher.rearm()
            yield env.timeout(1e-3)
            two_hosts.discovery.revoke(record.record_id)
            yield env.timeout(1e-3)
            return list(events)

        got = run(two_hosts.env, scenario(two_hosts.env))
        assert got == ["disc.revoked"]
        assert watcher.rearms == 1

    def test_unwatched_records_do_not_notify(self, two_hosts):
        runtime = two_hosts.runtime("cl")
        watched = two_hosts.discovery.register(ShardXdp.meta, location="srv")
        other = two_hosts.discovery.register(
            SerializeFallback.meta, location="srv"
        )
        watcher = DiscoveryWatcher(runtime)
        events = []
        watcher.watch_record(
            watched.record_id, lambda rid, kind, body: events.append(kind)
        )

        def scenario(env):
            yield env.timeout(1e-3)
            two_hosts.discovery.revoke(other.record_id)
            yield env.timeout(1e-3)
            return list(events)

        assert run(two_hosts.env, scenario(two_hosts.env)) == []


class TestPathQualityMonitor:
    @pytest.fixture(autouse=True)
    def _poll_every_millisecond(self, monkeypatch):
        monkeypatch.setattr(triggers, "PATH_POLL_INTERVAL", 1e-3)
        monkeypatch.setattr(triggers, "PATH_MIN_SAMPLES", 8)

    def _world(self):
        net = Network()
        net.add_host("a")
        net.add_host("b")
        net.add_switch("sw")
        net.add_link("a", "sw")
        net.add_link("sw", "b")
        plan = FaultPlan(drop_rate=0.0, seed=1)
        net.attach_faults("a", "sw", plan)
        return net, plan

    def test_lossy_window_alarms_once_then_rearms(self):
        net, plan = self._world()
        monitor = PathQualityMonitor(net)
        alarms = []
        monitor.watch_path(
            "p",
            ["a", "sw", "b"],
            threshold=0.2,
            callback=lambda name, path, rate: alarms.append(rate),
        )

        def scenario(env):
            plan.evaluated += 20
            plan.dropped += 10  # 50% loss in this window
            yield env.timeout(2e-3)
            first = len(alarms)
            yield env.timeout(3e-3)  # no new traffic: windows skipped
            held = len(alarms)
            plan.evaluated += 40  # clean window: rate 0 <= threshold/2
            yield env.timeout(2e-3)
            plan.evaluated += 20
            plan.corrupted += 10  # corruption counts as loss too
            yield env.timeout(2e-3)
            monitor.stop()
            return first, held, len(alarms)

        first, held, final = run(net.env, scenario(net.env))
        assert (first, held, final) == (1, 1, 2)
        assert alarms == [0.5, 0.5]
        assert monitor.alarms == 2

    def test_down_link_reads_as_total_loss(self):
        net, _plan = self._world()
        monitor = PathQualityMonitor(net)
        alarms = []
        monitor.watch_path(
            "p",
            ["a", "sw", "b"],
            threshold=0.5,
            callback=lambda name, path, rate: alarms.append(rate),
        )

        def scenario(env):
            yield env.timeout(2e-3)
            quiet = len(alarms)  # no traffic, link up: nothing fires
            net.link_between("a", "sw").up = False
            yield env.timeout(2e-3)
            monitor.stop()
            return quiet

        quiet = run(net.env, scenario(net.env))
        assert quiet == 0
        assert alarms == [1.0]

    def test_windows_below_min_samples_are_skipped(self):
        net, plan = self._world()
        monitor = PathQualityMonitor(net)
        alarms = []
        monitor.watch_path(
            "p",
            ["a", "sw", "b"],
            threshold=0.2,
            callback=lambda name, path, rate: alarms.append(rate),
        )

        def scenario(env):
            plan.evaluated += 4
            plan.dropped += 4  # 100% loss but only 4 samples
            yield env.timeout(2e-3)
            monitor.stop()

        run(net.env, scenario(net.env))
        assert alarms == []

    def test_stop_drains_the_poll_loop(self):
        net, _plan = self._world()
        monitor = PathQualityMonitor(net)
        monitor.watch_path("p", ["a", "sw", "b"], 0.5, lambda *a: None)

        def scenario(env):
            yield env.timeout(5e-3)
            monitor.stop()

        run(net.env, scenario(net.env))
        net.env.run()
        assert not monitor._proc.is_alive
