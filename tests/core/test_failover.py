"""Mid-connection failover (PROTOCOL.md §9): liveness, migration, parking.

These tests pin the tentpole's correctness bar end to end on small worlds:

* a crashed serving host is *suspected* (adaptive heartbeat timeout), its
  cached negotiation results are evicted, and the connection migrates to
  a standby with the reliability chunnel's unacked window replayed —
  every in-flight and buffered message delivered exactly once, in order;
* with no standby the connection parks degraded and resumes in place
  when the host comes back, again without loss or duplication — also
  when it adopts the server's transition while parked, which must not
  release the sends held behind the failover;
* at 20% link loss with *no* crashes the suspicion logic never fires —
  steady inbound traffic and the Jacobson-style retransmission timeout
  keep false positives at zero;
* a changed reliability node's successor adopts the frozen window, the
  estimate and the dedup table, and numbers past the inherited window (a
  reused sequence number would be swallowed by the receiver's dedup) —
  unit-tested, and end to end off a NIC-offloaded primary;
* a migration whose acks are lost rolls its epoch back completely (old
  stack only, prepared impls torn down, old peer and transport back,
  sends still held, nothing sent to the standby) and a later attempt
  still loses nothing and delivers in order;
* a client that adopted the server's epoch and then migrates prepares an
  epoch it has already had (ROADMAP 1(b)) — pinned as a strict xfail.
"""

import itertools
import warnings

import pytest

from repro.chunnels import (
    Reliable,
    ReliableFallback,
    ReliableToe,
    Serialize,
    SerializeFallback,
)
from repro.chunnels.reliability import _SEQ, _ReliableStage
from repro.core import Runtime
from repro.core.chunnel import ChunnelStage, Role
from repro.core.dag import wrap
from repro.core.connection import FAILOVER, Connection
from repro.core.failover import FailoverConfig, FailoverManager
from repro.core.negcache import NegotiationCache
from repro.core.policy import PriorityFirstPolicy
from repro.core.rpc import RttEstimator
from repro.errors import (
    ConnectionTimeoutError,
    DeadlineExceeded,
    DegradedEstablishmentWarning,
)
from repro.experiments._plane import DiscoveryPlane
from repro.sim import ChaosController, FaultPlan, Network, SmartNic

from ..conftest import tap_control

#: Liveness tuning sized to the test worlds' ~20us RTT: single-digit-ms
#: crash detection, parked probes every millisecond.
LIVENESS = FailoverConfig(
    heartbeat_interval=250e-6,
    miss_threshold=5,
    min_rto=250e-6,
    max_rto=1.5e-3,
    migrate_timeout=1e-3,
    migrate_retries=8,
    connect_timeout=2e-3,
    connect_retries=8,
    migration_deadline=15e-3,
    park_retry_interval=1e-3,
)


def dag():
    # The retransmit budget must span the longest blackout a test stages
    # (suspicion + migration, or a parked outage) so the reliability
    # stage never abandons a message mid-failover.
    return wrap(Serialize() >> Reliable(timeout=400e-6, max_retries=200))


class RecordingServer:
    """An echo server that records every request id it delivers, in
    arrival order — the tests' exactly-once / in-order ground truth."""

    def __init__(self, runtime, port=7400):
        self.runtime = runtime
        self.endpoint = runtime.new("flow", dag())
        self.listener = self.endpoint.listen(port=port, service_name="flow")
        self.arrived: list[bytes] = []
        self.seen: dict[bytes, int] = {}
        runtime.env.process(
            self._accept(), name=f"{runtime.entity.name}.accept"
        )

    def _accept(self):
        while True:
            conn = yield self.listener.accept()
            self.runtime.env.process(
                self._serve(conn), name=f"{self.runtime.entity.name}.serve"
            )

    def _serve(self, conn):
        while not conn.closed:
            msg = yield conn.recv()
            key = bytes(msg.payload)
            self.arrived.append(key)
            self.seen[key] = self.seen.get(key, 0) + 1
            conn.send(msg.payload, size=msg.size, dst=msg.src)


def build_world(servers=2, loss=0.0, seed=7, liveness=LIVENESS, toe_primary=False):
    """``servers`` recording echo servers named "flow" plus one failover-
    enabled client runtime; returns (net, [servers], client_rt).

    ``toe_primary`` gives srv0 a SmartNIC running ``ReliableToe`` and a
    policy that ranks it first, while every other server can only take the
    client's ``ReliableFallback``: a migration off srv0 then replaces the
    reliability binding instead of carrying its stage over."""
    net = Network()
    for index in range(servers):
        nic = None
        if toe_primary and index == 0:
            nic = SmartNic(net.env, name="srv0.nic", offload_slots=4)
        net.add_host(f"srv{index}", nic=nic)
    net.add_host("cl")
    plane = DiscoveryPlane(1, 1)
    plane.add_hosts(net)
    net.add_switch("tor")
    for index in range(servers):
        net.add_link(f"srv{index}", "tor", latency=5e-6)
    net.add_link("cl", "tor", latency=5e-6)
    plane.add_links(net, "tor", 5e-6)
    if loss:
        net.attach_faults_everywhere(FaultPlan(drop_rate=loss, seed=seed))
    plane.build(net)
    if toe_primary:
        plane.register(ReliableToe.meta, location="srv0")

    def _runtime(host, **kwargs):
        runtime = Runtime(
            host,
            discovery=plane.client(host),
            negotiation_cache_size=8,
            **kwargs,
        )
        runtime.register_chunnel(SerializeFallback)
        runtime.register_chunnel(ReliableFallback)
        return runtime

    recorders = [
        RecordingServer(
            _runtime(
                net.hosts[f"srv{index}"],
                **(
                    {"policy": PriorityFirstPolicy()}
                    if toe_primary and index == 0
                    else {}
                ),
            )
        )
        for index in range(servers)
    ]
    client_rt = _runtime(net.hosts["cl"], failover=liveness)
    return net, recorders, client_rt


def union_counts(recorders):
    union: set = set()
    duplicates = 0
    for recorder in recorders:
        union |= set(recorder.seen)
        duplicates += sum(count - 1 for count in recorder.seen.values())
    return union, duplicates


def drive(net, generator, until):
    done = {}

    def _main():
        done["value"] = yield from generator

    net.env.process(_main(), name="test.main")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedEstablishmentWarning)
        net.env.run(until=until)
    assert "value" in done, "driver did not finish"
    return done["value"]


class TestMigration:
    def test_crash_migrates_with_exactly_once_in_order_delivery(self):
        net, recorders, client_rt = build_world(servers=2)
        env = net.env
        chaos = ChaosController(net, seed=7)
        sent: list[bytes] = []

        def driver():
            yield env.timeout(1e-3)
            endpoint = client_rt.new("mig", dag())
            conn = yield from endpoint.connect("flow", deadline=10e-3)
            # Steady sends straddle the crash: some land pre-crash, some
            # sit unacked in the window, some buffer during the paused
            # migration — all must come out exactly once, in order.
            for index in range(120):
                payload = f"id-{index:04d}".encode()
                sent.append(payload)
                conn.send(payload, size=64)
                yield env.timeout(200e-6)
            return conn

        chaos.crash_host("srv0", at=5e-3)
        conn = drive(net, driver(), until=80e-3)

        union, duplicates = union_counts(recorders)
        assert union == set(sent)
        assert duplicates == 0
        assert conn.migrations == 1
        assert client_rt.failover.migrations_total == 1
        assert client_rt.failover.suspicions_total >= 1
        assert FAILOVER not in conn.holds
        assert conn.blackout > 0
        # The standby saw the client's ids in send order: replayed window
        # first, then the sends buffered while the migration was paused.
        standby_ids = [p for p in recorders[1].arrived if p in set(sent)]
        assert standby_ids == sorted(standby_ids)
        # The crash evicted the primary's cached negotiation entries.
        assert "srv0" in client_rt.failover._states[conn.conn_id].suspected

    def test_standby_resume_charges_failover_rpc_stats(self):
        # The standby search's RESUME is the failover manager's RPC; its
        # full offer/accept stays on the runtime's negotiation counters.
        net, _recorders, client_rt = build_world(servers=2)
        env = net.env
        manager = client_rt.failover

        def driver():
            yield env.timeout(1e-3)
            conn = yield from client_rt.new("mig", dag()).connect("flow")
            state = manager._states[conn.conn_id]
            found = []
            for suspected in (set(), {"srv0"}):
                state.suspected = suspected
                negotiation = client_rt.negotiation_stats.round_trips
                failover = manager.rpc_stats.round_trips
                accept, _ctl_addr, resumed = yield from manager._find_standby(
                    state, env.now + 10e-3
                )
                found.append((
                    resumed,
                    accept.data_addr.host,
                    client_rt.negotiation_stats.round_trips - negotiation,
                    manager.rpc_stats.round_trips - failover,
                ))
            return found

        assert drive(net, driver(), until=40e-3) == [
            (True, "srv0", 0, 1),
            (False, "srv1", 1, 0),
        ]

    def test_suspicion_evicts_negcache_by_instance_tag(self):
        cache = NegotiationCache(8)
        cache.store(
            "a", {"x": 1}, tags=(NegotiationCache.instance_tag("srv0"),)
        )
        cache.store(
            "b", {"x": 2}, tags=(NegotiationCache.instance_tag("srv0"),)
        )
        cache.store(
            "c", {"x": 3}, tags=(NegotiationCache.instance_tag("srv1"),)
        )
        assert NegotiationCache.instance_tag("srv0") == "instance:srv0"
        assert cache.suspect_instance("srv0") == 2
        assert "a" not in cache and "b" not in cache
        assert "c" in cache
        assert cache.suspect_instance("srv0") == 0


def reliable_impl(conn):
    (node_id,) = conn.dag.find("reliable")
    return type(conn.impls[node_id]).__name__


def crash_primary_while_sending(net, client_rt, tag, count=120):
    """Connect to "flow", send ``count`` ids 200 us apart and crash srv0
    at 5 ms; returns (conn, sent ids, reliable impl at connect)."""
    env = net.env
    sent: list[bytes] = []
    connected = {}

    def driver():
        yield env.timeout(1e-3)
        conn = yield from client_rt.new(tag, dag()).connect("flow", deadline=10e-3)
        connected["impl"] = reliable_impl(conn)
        for index in range(count):
            payload = f"{tag}-{index:04d}".encode()
            sent.append(payload)
            conn.send(payload, size=64)
            yield env.timeout(200e-6)
        return conn

    ChaosController(net, seed=7).crash_host("srv0", at=5e-3)
    conn = drive(net, driver(), until=80e-3)
    return conn, sent, connected["impl"]


def assert_delivered_once_in_order(recorders, sent):
    union, duplicates = union_counts(recorders)
    assert union == set(sent)
    assert duplicates == 0
    for recorder in recorders:
        arrived = [p for p in recorder.arrived if p in set(sent)]
        assert arrived == sorted(arrived)


class TestReliabilityHandOff:
    def test_replaced_reliability_stage_adopts_the_frozen_window(
        self, monkeypatch
    ):
        # The primary runs reliability on its NIC and the standby offers
        # only the software fallback, so the migration rebuilds the
        # reliability node: the fresh stage must take over the frozen
        # window, and number its own sends above it.
        adopted = []
        numbered: dict = {}
        adopt_state = _ReliableStage.adopt_state
        on_send = _ReliableStage.on_send

        def recording_adopt(stage, predecessor):
            frozen = set(predecessor._unacked) - set(predecessor._timers)
            adopted.append((stage, sorted(frozen)))
            adopt_state(stage, predecessor)

        def recording_send(stage, msg):
            out = on_send(stage, msg)
            numbered.setdefault(id(stage), []).append(msg.headers[_SEQ])
            return out

        monkeypatch.setattr(_ReliableStage, "adopt_state", recording_adopt)
        monkeypatch.setattr(_ReliableStage, "on_send", recording_send)
        net, recorders, client_rt = build_world(servers=2, toe_primary=True)
        conn, sent, impl_before = crash_primary_while_sending(
            net, client_rt, "handoff"
        )

        assert impl_before == "ReliableToe"
        assert reliable_impl(conn) == "ReliableFallback"
        assert conn.migrations == 1 and FAILOVER not in conn.holds
        assert_delivered_once_in_order(recorders, sent)
        ((stage, window),) = adopted
        assert window  # the crash left messages unacked
        assert min(numbered[id(stage)]) > max(window)


class TestMigrationAbort:
    def test_lost_migrate_acks_roll_back_then_migrate(self, monkeypatch):
        # Every MIGRATE_ACK is lost for a while — all the first handshake
        # can draw — so that attempt's epoch must roll back completely
        # before a later one succeeds.
        net, recorders, client_rt = build_world(servers=2, toe_primary=True)
        dropped = []

        def drop(kind, _dgram):
            if kind != "bertha.migrate_ack":
                return False
            if len(dropped) == LIVENESS.migrate_retries:
                return False
            dropped.append(net.env.now)
            return True

        tap_control(net, drop=drop)
        prepared, torn_down, snapshots = [], [], []
        setup, teardown = ReliableFallback.setup, ReliableFallback.teardown
        freeze, migrate = FailoverManager._freeze, FailoverManager._migrate

        def recording_setup(impl, ctx):
            if ctx.role is Role.CLIENT:
                prepared.append(impl)
            setup(impl, ctx)

        def recording_teardown(impl, ctx):
            torn_down.append(impl)
            teardown(impl, ctx)

        def snapshot(conn, frozen):
            stages = conn.live_stages()
            snapshots.append(
                {
                    "epochs": sorted(conn._epochs),
                    "epoch": conn.epoch,
                    "peers": [str(p) for p in conn.peers],
                    "transport": conn.transport,
                    "timers": sum(len(getattr(s, "_timers", ())) for s in stages),
                    "held": FAILOVER in conn.holds,
                    "buffered": len(conn._send_buffer),
                    "unacked": frozen,
                }
            )

        def recording_freeze(manager, conn):
            frozen = freeze(manager, conn)
            snapshot(conn, frozen)
            return frozen

        def recording_migrate(manager, state, *args):
            migrated = yield from migrate(manager, state, *args)
            if not migrated:
                snapshot(state.conn, None)
            return migrated

        monkeypatch.setattr(ReliableFallback, "setup", recording_setup)
        monkeypatch.setattr(ReliableFallback, "teardown", recording_teardown)
        monkeypatch.setattr(FailoverManager, "_freeze", recording_freeze)
        monkeypatch.setattr(FailoverManager, "_migrate", recording_migrate)
        conn, sent, _impl = crash_primary_while_sending(net, client_rt, "abort")

        # The window is frozen once, at suspicion; each snapshot after it
        # is taken as a migration attempt gives up.
        at_suspicion, *after_aborts = snapshots
        assert at_suspicion["unacked"] > 0
        assert len(dropped) == LIVENESS.migrate_retries
        assert after_aborts
        for snapshot_ in after_aborts:
            assert snapshot_["epochs"] == [snapshot_["epoch"]] == [0]
            assert snapshot_["peers"] == at_suspicion["peers"]
            assert snapshot_["transport"] == at_suspicion["transport"]
            # Sends stay held behind the failover: none was flushed into
            # the old peer's window, whose timers stay frozen.
            assert snapshot_["timers"] == 0 and snapshot_["held"]
            assert snapshot_["buffered"] >= at_suspicion["buffered"]
        manager = client_rt.failover
        assert manager.migration_failures == len(after_aborts)
        # Every prepared-then-aborted fallback impl was torn down; the one
        # that committed was not.
        assert torn_down == prepared[:-1]
        assert reliable_impl(conn) == "ReliableFallback"
        assert conn.migrations + manager.resumed_total == 1
        assert FAILOVER not in conn.holds
        # Zero loss, nothing delivered twice, and in order everywhere: an
        # abort sends nothing (the buffered sends stay held), so nothing
        # reaches the standby's first-attempt server connection, and the
        # attempt that succeeds replays the window, then drains the sends.
        assert_delivered_once_in_order(recorders, sent)


class TestParking:
    def test_total_outage_parks_then_resumes_without_loss(self):
        net, recorders, client_rt = build_world(servers=1)
        env = net.env
        chaos = ChaosController(net, seed=7)
        sent: list[bytes] = []
        observed = {}

        def driver():
            yield env.timeout(1e-3)
            endpoint = client_rt.new("park", dag())
            conn = yield from endpoint.connect("flow", deadline=10e-3)
            for index in range(150):
                payload = f"park-{index:04d}".encode()
                sent.append(payload)
                conn.send(payload, size=64)
                if index == 80:
                    # Mid-outage: the connection must be parked degraded,
                    # buffering sends rather than failing them.
                    observed["parked_mid_outage"] = FAILOVER in conn.holds
                yield env.timeout(200e-6)
            return conn

        # No standby exists, so the crash parks the connection; the
        # restart resumes it in place (sockets survive: the sim models a
        # process supervisor, not a reboot).
        chaos.host_outage("srv0", at=5e-3, duration=15e-3)
        conn = drive(net, driver(), until=100e-3)

        union, duplicates = union_counts(recorders)
        assert union == set(sent)
        assert duplicates == 0
        assert observed["parked_mid_outage"]
        assert FAILOVER not in conn.holds
        assert conn.migrations == 0
        assert client_rt.failover.parked_total == 1
        assert client_rt.failover.resumed_total == 1
        assert conn.blackout > 0

    def test_parked_client_adopting_a_transition_keeps_sends_held(self):
        # The server comes back and moves the connection off its NIC
        # offload at once, so the parked client adopts that TRANSITION
        # before any heartbeat ack unparks it.  The adoption's commit must
        # not drain the sends parked behind the failover: they would reach
        # the server ahead of the frozen window, out of order.
        net, recorders, client_rt = build_world(servers=1, toe_primary=True)
        env = net.env
        server_rt = recorders[0].runtime
        sent: list[bytes] = []
        observed = {}

        def driver():
            yield env.timeout(1e-3)
            endpoint = client_rt.new("adopt", dag())
            conn = yield from endpoint.connect("flow", deadline=10e-3)
            for index in range(150):
                payload = f"adopt-{index:04d}".encode()
                sent.append(payload)
                conn.send(payload, size=64)
                yield env.timeout(200e-6)
            return conn

        def transition():
            yield env.timeout(20e-3 + 1e-6)
            (server_conn,) = recorders[0].listener.connections
            (client_conn,) = (s.conn for s in client_rt.failover._states.values())
            observed["buffered"] = len(client_conn._send_buffer)
            yield server_rt.reconfig.request_transition(
                server_conn, exclude={("toe", "rec-1")}
            )
            observed["epoch"] = client_conn.epoch
            observed["parked"] = FAILOVER in client_conn.holds
            observed["still_buffered"] = len(client_conn._send_buffer)

        ChaosController(net, seed=7).host_outage("srv0", at=5e-3, duration=15e-3)
        env.process(transition(), name="test.transition")
        conn = drive(net, driver(), until=100e-3)

        assert observed["buffered"] > 0
        assert observed["epoch"] == 1 and observed["parked"]
        assert observed["still_buffered"] >= observed["buffered"]
        assert reliable_impl(conn) == "ReliableFallback"
        assert client_rt.failover.resumed_total == 1
        assert FAILOVER not in conn.holds
        assert_delivered_once_in_order(recorders, sent)


def adopt_then_migrate():
    """The client adopts the server's transition off the primary's NIC
    offload (epoch 1), then the primary crashes and the client migrates to
    the standby.  Returns ``(client conn, prepares)``, one
    ``(conn_id, role, prepared epoch, epochs the connection had)`` per
    prepared epoch on either end."""
    net, recorders, client_rt = build_world(servers=2, toe_primary=True)
    env = net.env
    server_rt = recorders[0].runtime
    prepares: list = []
    had: dict = {}
    prepare = Connection.prepare_transition

    def recording_prepare(conn, epoch, binding):
        epochs = had.setdefault(id(conn), {0})
        epochs.update(conn._epochs)
        prepares.append((conn.conn_id, conn.role.value, epoch, sorted(epochs)))
        epochs.add(epoch)
        return prepare(conn, epoch, binding)

    def driver():
        yield env.timeout(1e-3)
        conn = yield from client_rt.new("renumber", dag()).connect(
            "flow", deadline=10e-3
        )
        for index in range(60):
            conn.send(f"renumber-{index:04d}".encode(), size=64)
            yield env.timeout(200e-6)
        return conn

    def transition():
        yield env.timeout(3e-3)
        (server_conn,) = recorders[0].listener.connections
        yield server_rt.reconfig.request_transition(
            server_conn, exclude={("toe", "rec-1")}
        )

    ChaosController(net, seed=7).crash_host("srv0", at=5e-3)
    env.process(transition(), name="test.transition")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Connection, "prepare_transition", recording_prepare)
        conn = drive(net, driver(), until=40e-3)
    return conn, prepares


class TestEpochNumbering:
    @pytest.fixture(scope="class")
    def world(self):
        return adopt_then_migrate()

    def test_the_client_adopts_then_migrates(self, world):
        conn, prepares = world
        assert conn.migrations == 1
        client = [epoch for conn_id, role, epoch, _had in prepares if role == "client"]
        # The adoption of the server's epoch 1, then the migration's.
        assert len(client) == 2 and client[0] == 1
        assert conn.epoch == client[1]

    def test_every_prepared_epoch_is_new_to_its_connection(self, world):
        _conn, prepares = world
        reused = [
            (conn_id, role, epoch, had)
            for conn_id, role, epoch, had in prepares
            if epoch <= max(had)
        ]
        assert not reused


#: ``(seed, CTL_TIMEOUT, CRASH)`` points of the benchmark's faults world,
#: at 2 % scale, where a client adopted the server's epoch 1 and then
#: prepared its migration as epoch 1 again: the adoption's retire timer
#: detached the migration's stack, and the replay raised "not attached to
#: a stack".  They are the failing 10 of a grid of seeds {7, 11} x
#: ``CTL_TIMEOUT`` {0.5, 2} ms x ``CRASH`` 5.2-9.0 ms in 0.2 ms steps.
EPOCH_REUSE_POINTS = [
    (7, 0.5e-3, 7.4e-3),
    (7, 2e-3, 5.8e-3),
    (7, 2e-3, 6.4e-3),
    (7, 2e-3, 7.4e-3),
    (11, 0.5e-3, 7.4e-3),
    (11, 2e-3, 5.8e-3),
    (11, 2e-3, 6.0e-3),
    (11, 2e-3, 6.4e-3),
    (11, 2e-3, 7.0e-3),
    (11, 2e-3, 7.4e-3),
]


@pytest.mark.parametrize("seed, ctl_timeout, crash", EPOCH_REUSE_POINTS)
def test_the_faults_world_survives_an_adoption_then_a_migration(
    monkeypatch, seed, ctl_timeout, crash
):
    from bench import faults

    monkeypatch.setattr(faults, "CTL_TIMEOUT", ctl_timeout)
    monkeypatch.setattr(faults, "CRASH", crash)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        outcome = faults.run(faults.generate(seed, scale=0.02))
    assert outcome.problems == [] and outcome.failed == 0


class TestWatcherLifetime:
    def test_closed_connections_leave_no_watch_state(self):
        net, recorders, client_rt = build_world(servers=1)
        env = net.env

        def scenario():
            yield env.timeout(1e-3)
            endpoint = client_rt.new("short", dag())
            closed = []
            for index in range(5):
                conn = yield from endpoint.connect("flow", deadline=10e-3)
                conn.send(f"short-{index}".encode(), size=64)
                yield env.timeout(500e-6)
                conn.close()
                closed.append(conn.conn_id)
            live = yield from endpoint.connect("flow", deadline=10e-3)
            # Every closed connection's watcher wakes within one heartbeat
            # interval and returns.
            yield env.timeout(4 * LIVENESS.heartbeat_interval)
            return closed, live

        closed, live = drive(net, scenario(), until=60e-3)
        states = client_rt.failover._states
        assert not set(closed) & set(states)
        assert list(states) == [live.conn_id]


class TestFalsePositives:
    def test_no_suspicion_at_twenty_percent_loss_without_crashes(self):
        # The library-default liveness tuning is the one that carries the
        # no-false-positives claim: eight *consecutive* silent probe
        # windows are vanishingly unlikely from 20% loss alone.
        net, recorders, client_rt = build_world(
            servers=1, loss=0.2, seed=7, liveness=FailoverConfig()
        )
        env = net.env

        def driver():
            yield env.timeout(1e-3)
            endpoint = client_rt.new("lossy", dag())
            conn = yield from endpoint.connect("flow")
            # Sparse traffic: long idle gaps force the heartbeat prober
            # to carry liveness, with 20% of probes and acks eaten.
            for index in range(10):
                conn.send(f"lossy-{index}".encode(), size=64)
                yield env.timeout(4e-3)
            return conn

        conn = drive(net, driver(), until=200e-3)
        manager = client_rt.failover
        assert manager.heartbeats_sent > 0
        assert manager.suspicions_total == 0
        assert manager.migrations_total == 0
        assert manager.parked_total == 0
        assert conn.migrations == 0 and FAILOVER not in conn.holds


class TestWindowAdoption:
    class _Msg:
        def __init__(self, tag):
            self.tag = tag

        def copy(self):
            return TestWindowAdoption._Msg(self.tag)

    def _bare_stage(self, seq_start=1, frozen=(), live=()):
        """A stage with unacked ``frozen`` seqs (no timer) and ``live``
        seqs (a timer each), numbering from ``seq_start``."""
        stage = object.__new__(_ReliableStage)
        stage._unacked = {seq: self._Msg(seq) for seq in (*frozen, *live)}
        stage._timers = {seq: object() for seq in live}
        stage._seq = itertools.count(seq_start)
        stage._delivered = set()
        stage.rtt = RttEstimator()
        stage.backoff = 0.0
        return stage

    def test_adopts_frozen_window_and_advances_sequence(self):
        old = self._bare_stage(seq_start=12, frozen=(5, 9), live=(11,))
        new = self._bare_stage()
        new.adopt_state(old)
        # Only the frozen entries move: the live one is still the
        # predecessor's to retransmit until it is retired.
        assert sorted(new._unacked) == [5, 9]
        assert new._unacked[5] is not old._unacked[5]
        # The next fresh sequence number must clear the inherited window:
        # reusing 1..11 would collide with replayed numbers in the
        # receiver's dedup set and silently swallow a new message.
        assert next(new._seq) == 12

    def test_empty_frozen_window_is_a_no_op(self):
        old = self._bare_stage(seq_start=4)
        new = self._bare_stage()
        new.adopt_state(old)
        assert new._unacked == {}
        assert next(new._seq) == 4

    def test_shares_the_estimate_and_the_dedup_table(self):
        old = self._bare_stage()
        old.backoff = 3e-4
        old._delivered.add(("srv0", 1))
        new = self._bare_stage()
        new.adopt_state(old)
        assert new.rtt is old.rtt and new.backoff == old.backoff
        # Shared, not copied: a straggler either stage admits later is a
        # duplicate to the other.
        new._delivered.add(("srv0", 2))
        assert new._delivered is old._delivered
        assert ("srv0", 2) in old._delivered

    def test_a_different_stage_type_hands_over_nothing(self):
        new = self._bare_stage(seq_start=7)
        new.adopt_state(object.__new__(ChunnelStage))
        assert next(new._seq) == 7 and new._delivered == set()


class TestConnectDeadline:
    def test_budgeted_connect_succeeds_on_a_healthy_plane(self):
        net, recorders, client_rt = build_world(servers=1)
        env = net.env

        def driver():
            yield env.timeout(1e-3)
            endpoint = client_rt.new("budgeted-ok", dag())
            start = env.now
            conn = yield from endpoint.connect("flow", deadline=5e-3)
            return conn, env.now - start

        conn, elapsed = drive(net, driver(), until=60e-3)
        assert not conn.degraded
        assert elapsed < 5e-3

    def test_connect_deadline_bounds_total_outage_failure(self):
        net, recorders, client_rt = build_world(servers=1)
        env = net.env

        def driver():
            yield env.timeout(1e-3)
            address = recorders[0].listener.address
            # Everything is down: discovery *and* the server.  Without a
            # deadline the connect would walk the full query retry
            # ladder and then the full negotiation ladder; with one, the
            # nested loops share a single elapsed-time budget and the
            # connect fails inside it.
            net.hosts["dsc"].down = True
            net.hosts["srv0"].down = True
            start = env.now
            endpoint = client_rt.new("budgeted", dag())
            with pytest.raises(DeadlineExceeded) as excinfo:
                yield from endpoint.connect(address, deadline=4e-3)
            return excinfo.value, env.now - start

        error, elapsed = drive(net, driver(), until=60e-3)
        # The budget bounds the whole attempt: one clamped final wait of
        # slack at most, not a second retry ladder.
        assert elapsed < 6e-3
        assert error.elapsed >= 0.0
        assert error.attempts >= 0
        assert isinstance(error, ConnectionTimeoutError)
