"""The holder side of discovery leases (``repro.core.leases``, PROTOCOL.md
§2): a runtime reserves once per ``(record_id, owner)`` lease, checks for
every further connection, releases by handle.  Each test names the safety
property it pins."""

import dataclasses
import itertools

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.apps import KvClient, KvServer
from repro.chunnels import (
    SerializeAccelerated,
    SerializeFallback,
    ShardServerFallback,
    ShardSwitch,
    ShardXdp,
)
from repro.core import PriorityScheduler, Runtime
from repro.core.chunnel import (
    ChunnelImpl,
    ChunnelSpec,
    ChunnelStage,
    ImplMeta,
    Offer,
    Role,
)
from repro.core.dag import wrap
from repro.core.establish import establish_connection
from repro.core.registry import ImplCatalog
from repro.core.resources import SWITCH_STAGES, ResourceVector
from repro.core.scope import Placement
from repro.core.wire import wire_kind
from repro.discovery import DiscoveryService
from repro.errors import ConnectionTimeoutError
from repro.sim import Address, LossProgram, Network
from repro.sim.transport import UdpSocket

from ..conftest import (
    assert_no_stage_ran_before_its_verdict,
    run,
    stack_receives,
    tap_control,
)
from .test_runtime import reserving_server, times_of

NINE_STAGES = ResourceVector({SWITCH_STAGES: 9})
#: Tight retry schedule for tests that sit through a discovery outage.
FAST_RPC = dict(timeout=2e-4, retries=2)


def switch_meta(name, priority):
    """A nine-stage switch program no runtime needs to instantiate."""
    return ImplMeta(
        chunnel_type="lease-test",
        name=name,
        priority=priority,
        placement=Placement.SWITCH,
        resources=NINE_STAGES,
    )


class LeaseWorld:
    """Hosts a/b/cl + discovery behind a 12-stage ToR with a priority
    scheduler; ``low`` and ``high`` are nine-stage records, so the switch
    fits one of them and ``high`` preempts ``low``."""

    def __init__(self, low_meta=None):
        net = self.net = Network()
        for name in ("a", "b", "cl", "dsc"):
            net.add_host(name)
        net.add_switch("tor", stages=12, sram_kb=4096)
        for name in ("a", "b", "cl", "dsc"):
            net.add_link(name, "tor", latency=5e-6)
        self.env = net.env
        self.service = DiscoveryService(
            net.hosts["dsc"], scheduler=PriorityScheduler()
        )
        self.low = self.service.register(
            low_meta or switch_meta("low", 10), location="tor"
        ).record_id
        self.high = self.service.register(
            switch_meta("high", 99), location="tor"
        ).record_id

    def runtime(self, host, **kwargs) -> Runtime:
        from repro.discovery.client import RemoteDiscoveryClient

        entity = self.net.hosts[host]
        client = RemoteDiscoveryClient(entity, self.service.address, **FAST_RPC)
        return Runtime(entity, discovery=client, **kwargs)

    def stages_in_use(self) -> float:
        return self.service.device_in_use("tor")[SWITCH_STAGES]

    def audit(self, *runtimes) -> dict:
        return self.service.audit_leases(rt.leases for rt in runtimes)


def kinds(seen, prefix="disc."):
    return [kind for _, kind, _ in seen if kind.startswith(prefix)]


def acquired(table, record_id, owner):
    """Generator: one acquisition as a connection ends up holding it once
    its verdict is in — the handle that stands, or None."""
    handle = yield from table.acquire(record_id, owner)
    if handle is None:
        return None
    return (yield handle.verdict)


class TestReserveOncePerLease:
    def test_first_acquisition_reserves_later_ones_check(self):
        """Capacity is charged once per ``(record_id, owner)`` and the
        service counts the runtime once, however many references it
        takes.  Each later reference is handed out at once, before
        discovery has answered, and still gets its own verdict from a
        check of its own."""
        world = LeaseWorld()
        rt = world.runtime("a")
        seen = tap_control(world.net)

        def scenario(env):
            first = yield from rt.leases.acquire(world.low, "a:ep")
            reserved_at = env.now
            later = []
            for _ in range(2):
                later.append((yield from rt.leases.acquire(world.low, "a:ep")))
            handed_out = (env.now, len(kinds(seen)))
            verdicts = []
            for handle in later:
                verdicts.append((yield handle.verdict))
            return first, later, verdicts, reserved_at, handed_out

        first, later, verdicts, reserved_at, handed_out = run(
            world.env, scenario(world.env)
        )
        assert first.verdict.processed and first.verdict.value is first
        # No round trip for the later two: same instant, nothing answered.
        assert handed_out == (reserved_at, 2)
        assert verdicts == later  # each stands as taken
        assert kinds(seen) == [
            "disc.reserve",
            "disc.reserve_reply",
            "disc.lease_check",
            "disc.lease_check",
            "disc.lease_check_reply",
            "disc.lease_check_reply",
        ]
        (lease,) = world.service._leases.values()
        assert lease.count == 1
        assert world.stages_in_use() == 9
        assert world.service.reservations_granted == 1
        assert world.service.lease_checks == 2
        assert (rt.leases.optimistic_acquires, rt.leases.late_denials) == (2, 0)
        assert rt.leases.held() == {(world.low, "a:ep"): 3}
        assert world.audit(rt)["ok"]

    def test_only_the_last_release_tells_discovery(self):
        """The service-side count reaches zero when the last holder's
        last reference goes — not before, and with one message."""
        world = LeaseWorld()
        rt = world.runtime("a")

        def scenario(env):
            first = yield from acquired(rt.leases, world.low, "a:ep")
            second = yield from acquired(rt.leases, world.low, "a:ep")
            seen = tap_control(world.net)
            yield from rt.leases.release(first)
            yield from rt.leases.release(first)  # twice: nothing
            after_first = (list(kinds(seen)), world.stages_in_use())
            yield from rt.leases.release(second)
            return after_first, kinds(seen)

        after_first, after_second = run(world.env, scenario(world.env))
        assert after_first == ([], 9)
        assert after_second == ["disc.release", "disc.release_reply"]
        assert world.stages_in_use() == 0
        assert rt.leases.held() == {}
        audit = world.audit(rt)
        assert audit["ok"] and audit["leases"] == 0

    def test_overlapping_first_acquisitions_share_one_reserve(self):
        """Acquisitions that overlap the 0 → 1 reserve join it: one
        ``disc.reserve``, one holder at the service, and the count is back
        at zero with the runtime's last reference."""
        world = LeaseWorld()
        rt = world.runtime("a")
        seen = tap_control(world.net)

        def scenario(env):
            procs = [
                env.process(rt.leases.acquire(world.low, "a:ep"))
                for _ in range(3)
            ]
            handles = yield env.all_of(procs)
            (lease,) = world.service._leases.values()
            held = (lease.count, dict(rt.leases.held()))
            for handle in handles.values():
                yield from rt.leases.release(handle)
            return held

        count, held = run(world.env, scenario(world.env))
        assert (count, held) == (1, {(world.low, "a:ep"): 3})
        assert kinds(seen).count("disc.reserve") == 1
        assert kinds(seen).count("disc.release") == 1
        assert world.audit(rt)["leases"] == 0

    def test_reference_given_back_mid_check_is_not_confirmed_later(self):
        """A reference released while its check is still out is gone: the
        late answer confirms nothing, and the runtime's last release still
        frees the lease."""
        world = LeaseWorld()
        rt = world.runtime("a")

        def scenario(env):
            first = yield from rt.leases.acquire(world.low, "a:ep")
            second = yield from rt.leases.acquire(world.low, "a:ep")
            yield from rt.leases.release(second)
            verdict = yield second.verdict
            yield from rt.leases.release(first)
            return verdict

        assert run(world.env, scenario(world.env)) is None
        assert rt.leases.late_denials == 0  # given back, not denied
        assert rt.leases.held() == {} and world.stages_in_use() == 0
        audit = world.audit(rt)
        assert audit["ok"] and audit["leases"] == 0


class TestReleaseByHandle:
    def test_release_never_frees_a_lease_it_was_not_taken_under(self):
        """The double-booking sequence: A holds ``low`` twice, is
        preempted by B's ``high``, B leaves, A takes ``low`` again for a
        third connection — and then A's *first* connection closes.  Its
        release belongs to the preempted lease and must not free the new
        one, or ``high`` is admitted beside a bound ``low``: 18 of 12
        stages."""
        world = LeaseWorld()
        a, b = world.runtime("a"), world.runtime("b")

        def scenario(env):
            first = yield from acquired(a.leases, world.low, "a:ep")
            second = yield from acquired(a.leases, world.low, "a:ep")
            high = yield from b.leases.acquire(world.high, "b:ep")
            assert world.service.leases_preempted == 1
            yield from b.leases.release(high)
            third = yield from acquired(a.leases, world.low, "a:ep")
            assert first and second and third
            yield from a.leases.release(first)
            yield from a.leases.release(second)
            bound = (world.stages_in_use(), world.audit(a, b))
            again = yield from b.leases.acquire(world.high, "b:ep")
            return bound, again, third

        (stages, audit), again, third = run(world.env, scenario(world.env))
        assert stages == 9  # the third connection's lease stands
        assert audit["ok"] and audit["leases"] == 1
        # B gets the switch by preempting A again, never beside it.
        assert again is not None
        assert world.service.leases_preempted == 2
        assert world.stages_in_use() == 9
        assert a.leases.held() == {(world.low, "a:ep"): 1}  # stale until checked
        assert third is not None

    def test_audit_catches_a_reference_without_a_lease(self):
        """What the by-key release left behind, as the extended audit
        reports it: a holder bound on a lease the service gave away."""
        world = LeaseWorld()
        rt = world.runtime("a")
        run(world.env, rt.leases.acquire(world.low, "a:ep"))
        assert world.audit(rt)["ok"]
        world.service.release(world.low, "a:ep")  # the stray release
        plain = world.service.audit_leases()
        assert plain["ok"]  # the service's own books still balance
        audit = world.audit(rt)
        assert not audit["ok"]
        assert audit["unbacked"] == [(world.low, "a:ep")]

    def test_audit_catches_a_lease_nobody_holds(self):
        world = LeaseWorld()
        rt = world.runtime("a")
        world.service.reserve(world.low, "ghost")
        audit = world.audit(rt)
        assert not audit["ok"]
        assert audit["miscounted"] == [
            {"lease": (world.low, "ghost"), "count": 1, "holders": 0}
        ]

    def test_push_drops_the_entry_so_a_stale_release_goes_nowhere(self):
        """Two runtimes under one group-scoped owner: the first one's lease
        is preempted, the second re-creates it; the push makes the first
        forget, so its last release cannot free the second's lease."""
        world = LeaseWorld()
        a, b = world.runtime("a"), world.runtime("b")
        other = world.runtime("cl")
        owner = "group:g"

        def scenario(env):
            stale = yield from a.leases.acquire(world.low, owner)
            a.reconfig.discovery_watcher.watch_record(
                world.low, lambda *_: None
            )
            yield env.timeout(1e-3)  # the watch lands
            high = yield from other.leases.acquire(world.high, "x:ep")
            yield env.timeout(1e-4)  # the lease_revoked push lands
            assert a.leases.held() == {}
            yield from other.leases.release(high)
            fresh = yield from b.leases.acquire(world.low, owner)
            seen = tap_control(world.net)
            yield from a.leases.release(stale)
            return fresh, kinds(seen)

        fresh, released = run(world.env, scenario(world.env))
        assert fresh is not None and released == []
        assert world.stages_in_use() == 9
        assert world.audit(a, b, other)["ok"]


class TestGroupScopedOwner:
    def test_service_counts_holders_and_frees_with_the_last(self):
        """Two runtimes under one group-scoped owner: service count 2; the
        first runtime's 1 → 0 leaves the lease, the second's frees it."""
        world = LeaseWorld()
        a, b = world.runtime("a"), world.runtime("b")
        owner = "group:g"

        def scenario(env):
            of_a = []
            for _ in range(2):
                of_a.append((yield from a.leases.acquire(world.low, owner)))
            of_b = yield from b.leases.acquire(world.low, owner)
            (lease,) = world.service._leases.values()
            counts = [lease.count]
            for handle in of_a:
                yield from a.leases.release(handle)
            counts.append(lease.count)
            in_between = (world.stages_in_use(), world.audit(a, b)["ok"])
            yield from b.leases.release(of_b)
            return counts, in_between

        counts, in_between = run(world.env, scenario(world.env))
        assert counts == [2, 1]
        assert in_between == (9, True)
        assert world.stages_in_use() == 0
        assert world.service.reservations_granted == 1  # charged once
        assert world.audit(a, b)["leases"] == 0


class TestCheckFailures:
    def test_preempted_lease_fails_the_check_and_rereserve_runs_admission(self):
        """A check that answers no is what a denied reserve is: the entry
        goes, a real ``disc.reserve`` re-runs admission — denied while the
        preemptor holds the switch, granted again once it left.  The
        reference was handed out before the check answered; its verdict
        is what says "no lease", and takes the reference back."""
        world = LeaseWorld()
        a, b = world.runtime("a"), world.runtime("b")

        def scenario(env):
            first = yield from a.leases.acquire(world.low, "a:ep")
            high = yield from b.leases.acquire(world.high, "b:ep")
            seen = tap_control(world.net)
            late = yield from a.leases.acquire(world.low, "a:ep")
            handed_out = (late is not None, list(kinds(seen)))
            denied = yield late.verdict
            while_held = (list(kinds(seen)), dict(a.leases.held()))
            yield from b.leases.release(high)
            granted = yield from acquired(a.leases, world.low, "a:ep")
            yield from a.leases.release(first)  # orphaned: releases nothing
            yield from a.leases.release(late)  # taken back by its verdict
            return handed_out, denied, while_held, granted

        handed_out, denied, (seen_kinds, held), granted = run(
            world.env, scenario(world.env)
        )
        assert handed_out == (True, [])  # before discovery said anything
        assert denied is None
        assert seen_kinds == [
            "disc.lease_check",
            "disc.lease_check_reply",
            "disc.reserve",
            "disc.reserve_reply",
        ]
        assert held == {}
        assert granted is not None
        assert a.leases.held() == {(world.low, "a:ep"): 1}
        assert (a.leases.check_denials, a.leases.late_denials) == (1, 1)
        assert world.stages_in_use() == 9
        assert world.audit(a, b)["ok"]

    def test_check_timeout_is_a_denial_not_assume_held(self):
        """No verdict, no binding: with discovery unreachable the second
        acquisition's verdict is a denial, and its reference goes back —
        while the first connection's reference, which discovery did
        confirm, stays where it is."""
        world = LeaseWorld()
        rt = world.runtime("a")

        def scenario(env):
            first = yield from rt.leases.acquire(world.low, "a:ep")
            world.service.crash()
            during = yield from acquired(rt.leases, world.low, "a:ep")
            held = dict(rt.leases.held())
            world.service.restart()
            after = yield from acquired(rt.leases, world.low, "a:ep")
            return first, during, held, after

        first, during, held, after = run(world.env, scenario(world.env))
        assert first is not None and during is None and after is not None
        assert held == {(world.low, "a:ep"): 1}
        assert (rt.leases.check_timeouts, rt.leases.check_denials) == (1, 0)
        assert rt.leases.late_denials == 1
        assert world.audit(rt)["ok"]

    def test_revoked_record_fails_the_check_with_no_push_at_all(self):
        """A revoked record is never bound by a new connection even with
        every push lost: nothing here watches, so the check is all there
        is — and its verdict takes back the reference handed out before
        it answered."""
        world = LeaseWorld()
        rt = world.runtime("a")

        def scenario(env):
            first = yield from rt.leases.acquire(world.low, "a:ep")
            world.service.revoke(world.low)
            second = yield from acquired(rt.leases, world.low, "a:ep")
            return first, second

        first, second = run(world.env, scenario(world.env))
        assert first is not None and second is None
        assert rt.leases.held() == {}
        assert rt.leases.late_denials == 1

    def test_no_then_granted_rereserve_keeps_the_binding_on_a_fresh_handle(self):
        """Preempted with the push lost, then the preemptor leaves: the
        next connection is accepted under the stale entry, its check says
        no, the re-reserve is granted — and the connection keeps its
        binding on the fresh handle, its held datagram let through only
        then."""
        machine = LeaseMachine()
        machine.acquire(index=0, shared=False)
        machine.pushes(lost=True)
        machine.preempt()
        machine.preemptor_leaves()
        machine.accept_connection(index=0, shared=False)
        (entry,) = machine.accepted
        decided_at, stands = entry["verdict"]
        (ctx,) = entry["conn"]._setup_contexts
        assert stands is not None and ctx.reservations == [stands]
        assert entry["stage"].ran_at == [decided_at]
        leases = machine.runtimes[0].leases
        assert (leases.check_denials, leases.late_denials) == (1, 0)
        # The connection's reference is the fresh entry's only one: the
        # first acquisition's went with the entry the "no" dropped.
        assert leases.held() == {(machine.world.low, "a:ep"): 1}
        machine.books_balance()


class TestOwedRelease:
    def test_release_lost_to_an_outage_is_owed_adopted_and_retried(self):
        """A release that times out is a known debt, not a leak: the entry
        is parked as owed, the next acquisition adopts it with a check (no
        second reserve), and its last release retries the one that
        failed."""
        world = LeaseWorld()
        rt = world.runtime("a")
        key = (world.low, "a:ep")
        seen = tap_control(world.net)

        def scenario(env):
            handle = yield from rt.leases.acquire(*key)
            world.service.crash()
            yield from rt.leases.release(handle)
            parked = (rt.leases.owed(), rt.release_failures, world.stages_in_use())
            world.service.restart()
            adopted = yield from rt.leases.acquire(*key)
            between = (rt.leases.owed(), dict(rt.leases.held()))
            yield from rt.leases.release(adopted)
            return parked, between

        parked, between = run(world.env, scenario(world.env))
        assert parked == ([key], 1, 9)  # still charged: the debt
        assert between == ([], {key: 1})
        assert kinds(seen).count("disc.reserve") == 1
        assert kinds(seen).count("disc.lease_check_reply") == 1
        assert rt.leases.owed() == [] and rt.leases.held() == {}
        assert world.stages_in_use() == 0
        audit = world.audit(rt)
        assert audit["ok"] and audit["leases"] == 0


class TestListenerClose:
    def test_close_mid_check_leaves_no_local_reference(self, two_hosts_smartnic):
        """The second connection is accepted before its check answers;
        ``Listener.close()`` and that connection's own close both land
        while the check is out.  The check belongs to the table, not to
        the listener: it runs to its answer, which confirms nothing for a
        reference already given back, and the table holds what the first
        connection took and nothing more."""
        world = two_hosts_smartnic
        listener, client_rt = reserving_server(world, SerializeAccelerated)
        server_rt = world.runtimes["srv"]
        seen = tap_control(world.net)
        closed = {}

        def closer(env):
            while not times_of(seen, "disc.lease_check"):
                yield env.timeout(1e-6)
            listener.close()
            listener.connections[-1].close()  # the one whose check is out
            closed["at"] = env.now

        def client(env):
            yield env.timeout(1e-4)
            yield from client_rt.new("c1").connect(Address("srv", 7000))
            yield from client_rt.new("c2").connect(Address("srv", 7000))
            yield env.timeout(1e-3)

        world.env.process(closer(world.env))
        run(world.env, client(world.env))
        assert len(listener.connections) == 2
        assert times_of(seen, "disc.lease_check_reply")[0] > closed["at"]
        assert list(server_rt.leases.held().values()) == [1]
        assert server_rt.leases.late_denials == 0
        assert world.discovery.audit_leases([server_rt.leases])["ok"]

    def test_close_mid_reserve_hands_the_lease_straight_back(
        self, two_hosts_smartnic
    ):
        """The 0 → 1 reserve belongs to the table, not to the handler
        ``close()`` kills: it completes, finds nobody wanting it, and is
        released — the service count returns to zero."""
        world = two_hosts_smartnic
        listener, client_rt = reserving_server(world, SerializeAccelerated)
        server_rt = world.runtimes["srv"]
        seen = tap_control(world.net)

        def closer(env):
            while not times_of(seen, "disc.reserve"):
                yield env.timeout(1e-6)
            listener.close()

        def client(env):
            yield env.timeout(1e-4)
            with pytest.raises(ConnectionTimeoutError):
                yield from client_rt.new("c").connect(
                    Address("srv", 7000), timeout=2e-4, retries=3
                )
            yield env.timeout(1e-3)

        world.env.process(closer(world.env))
        run(world.env, client(world.env))
        assert len(times_of(seen, "disc.release")) == 1
        assert server_rt.leases.held() == {}
        audit = world.discovery.audit_leases([server_rt.leases])
        assert audit["ok"] and audit["leases"] == 0


def shard_impl_name(conn):
    (node_id,) = conn.dag.find("shard")
    return type(conn.impls[node_id]).__name__


class TestAutoReconfigEndToEnd:
    """The double-booking sequence through real connections: a KV server
    with ``auto_reconfig`` whose ``ShardSwitch`` record takes nine of the
    ToR's twelve stages."""

    def build(self):
        low_meta = dataclasses.replace(ShardSwitch.meta, resources=NINE_STAGES)
        world = LeaseWorld(low_meta=low_meta)
        world.service.register(ShardXdp.meta, location="a")
        server_rt = world.runtime("a")
        client_rt = world.runtime("cl")
        for rt in (server_rt, client_rt):
            rt.register_chunnel(SerializeFallback)
        server_rt.register_chunnel(ShardServerFallback)
        server = KvServer(server_rt, port=7100, auto_reconfig=True)
        return world, server, server_rt, client_rt

    def test_closing_a_transitioned_connection_keeps_the_new_lease(self):
        """A release never frees a lease it was not taken under: two
        connections are preempted off the switch and transition away; a
        third takes the switch anew; then the first closes.  The third
        stays backed, and the preemptor can only get in by preempting."""
        world, server, server_rt, client_rt = self.build()
        other = world.runtime("b")

        def connect(env):
            client = KvClient(client_rt)
            conn = yield from client.connect(Address("a", 7100))
            yield from client.put("k", b"v")
            return client, conn

        def scenario(env):
            yield env.timeout(1e-4)
            (c1, conn1), (c2, conn2) = (yield from connect(env)), (
                yield from connect(env)
            )
            assert shard_impl_name(conn1) == shard_impl_name(conn2) == "ShardSwitch"
            high = yield from other.leases.acquire(world.high, "b:ep")
            yield env.timeout(5e-3)  # push, two transitions, retirement
            moved = [shard_impl_name(conn1), shard_impl_name(conn2)]
            yield from other.leases.release(high)
            c3, conn3 = yield from connect(env)
            third = shard_impl_name(conn3)
            for server_conn in list(server.listener.connections)[:2]:
                server_conn.close()
            conn1.close()
            conn2.close()
            yield env.timeout(1e-3)
            settled = (world.stages_in_use(), world.audit(server_rt, other))
            again = yield from other.leases.acquire(world.high, "b:ep")
            reply = yield from c3.put("k2", b"v")
            return moved, third, settled, again, reply

        moved, third, (stages, audit), again, reply = run(
            world.env, scenario(world.env)
        )
        assert moved == ["ShardXdp", "ShardXdp"]
        assert third == "ShardSwitch"
        assert stages == 9 and audit["ok"]
        assert again is not None
        assert world.service.leases_preempted == 2  # never admitted beside it
        assert reply["status"] == "ok"
        assert server_rt.reconfig.transitions_committed >= 2

    def test_preempted_check_steers_the_accept_to_the_next_offer(
        self, monkeypatch
    ):
        """Lease preempted, no push → the next connection is accepted on
        the switch before its check answers → the check fails → the
        re-reserve runs admission → denied → the verdict steers the
        connection to the next-ranked offer.  No server stage runs on the
        preempted binding, and the connection serves all the same."""
        world, server, server_rt, client_rt = self.build()
        other = world.runtime("b")
        # No watch, no push: the listener learns of the preemption from
        # its check alone.
        server.listener.auto_reconfig = False
        receives = stack_receives(monkeypatch)

        def scenario(env):
            yield env.timeout(1e-4)
            first = KvClient(client_rt)
            conn1 = yield from first.connect(Address("a", 7100))
            assert (yield from other.leases.acquire(world.high, "b:ep"))
            second = KvClient(client_rt)
            conn2 = yield from second.connect(Address("a", 7100))
            accepted_on = shard_impl_name(conn2)
            reply = yield from second.put("k", b"v")
            yield env.timeout(1e-3)  # the verdict's transition commits
            names = (shard_impl_name(conn1), accepted_on, shard_impl_name(conn2))
            return names, reply, conn2.conn_id

        names, reply, conn_id = run(world.env, scenario(world.env))
        assert names == ("ShardSwitch", "ShardSwitch", "ShardXdp")
        assert reply["status"] == "ok"
        assert (server_rt.leases.check_denials, server_rt.leases.late_denials) == (1, 1)
        assert world.service.reservations_denied == 1
        on_preempted = [
            seen
            for seen in receives
            if (seen.conn_id, seen.role, seen.epoch) == (conn_id, "server", 0)
        ]
        assert on_preempted == []
        assert_no_stage_ran_before_its_verdict(world.net, receives)


# --------------------------------------------------------------------------
# Stateful property: two runtimes, one service, pushes that may be lost
# --------------------------------------------------------------------------
class _LeaseTest(ChunnelSpec):
    type_name = "lease-test"


class _ProbeStage(ChunnelStage):
    """Notes when each datagram reaches it: the machine's view of which
    server stages ran, and when."""

    def __init__(self, impl, role):
        super().__init__(impl, role)
        self.ran_at: list = []

    def on_recv(self, msg):
        self.ran_at.append(self.env.now)
        return [msg]


class _Probe(ChunnelImpl):
    """What a ``lease-test`` record binds to on a machine's server side."""

    meta = switch_meta("low", 10)

    def make_stage(self, role):
        return _ProbeStage(self, role)


PROBE_CATALOG = ImplCatalog()
PROBE_CATALOG.add(_Probe)


class LeaseMachine(RuleBasedStateMachine):
    """acquire / release / preempt / revoke / push-lost on two runtimes
    sharing a group-scoped owner and holding one of their own each, plus
    server connections accepted under those leases — some of which lose
    their lease, or their check, in the instant they are accepted.  At
    every quiescent point the service's books balance, every lease it has
    is held by some runtime, ``device_in_use`` is the sum over live
    leases, and no connection's stack has run before its verdict (or at
    all, when the verdict left it without a lease).  Run twice: with
    pushes that may be lost, and (``LOSSY`` off) with every push
    delivered, where the two sides must agree exactly."""

    LOSSY = True

    def __init__(self):
        super().__init__()
        self.world = LeaseWorld()
        self.runtimes = [
            self.world.runtime(host, catalog=PROBE_CATALOG) for host in "ab"
        ]
        self.preemptor = self.world.runtime("cl")
        self.client = UdpSocket(self.world.net.hosts["cl"])
        self.handles: list = []
        #: One entry per accepted connection: its ``conn``, its probe
        #: ``stage``, and when its ``verdict`` came and what it said.
        self.accepted: list[dict] = []
        self.conn_ids = itertools.count()
        self.high = None
        self.pushes_lost = self.ever_lost = False
        self.world.net.switches["tor"].install(push_eater(self))
        self.watch_low()

    def settle(self, generator=None):
        """Drive ``generator`` to its end, then let the world go quiet."""
        env = self.world.env
        proc = env.process(generator or _nothing(env))
        env.run(until=proc)
        env.run(until=env.now + 2e-3)
        return proc.value

    def watch_low(self):
        for rt in self.runtimes:
            rt.reconfig.discovery_watcher.watch_record(
                self.world.low, lambda *_: None
            )
        self.settle()

    def owner(self, index, shared):
        return "group:g" if shared else f"{'ab'[index]}:ep"

    def accept(self, index, shared):
        """Generator: a server connection under ``low``, accepted the way
        the listener accepts one — before a check has answered — and a
        datagram from the client already on its way to it."""
        rt = self.runtimes[index]
        handle = yield from rt.leases.acquire(self.world.low, self.owner(index, shared))
        if handle is None:
            return
        dag = wrap(_LeaseTest())
        (node,) = dag.topological_order()
        offer = Offer(_Probe.meta, "network", "tor", handle.record_id)
        conn = establish_connection(
            rt,
            name="lease-test",
            conn_id=f"m/{next(self.conn_ids)}",
            role=Role.SERVER,
            dag=dag,
            choice={node: offer},
            client_entity="cl",
            server_entity=rt.entity.name,
            reservations={node: handle},
        )
        if not handle.verdict.processed:
            conn.await_verdicts({node: handle})
        entry = {"conn": conn, "stage": conn._stage_map[node], "verdict": None}
        env = self.world.env
        handle.verdict.add_callback(
            lambda event: entry.update(verdict=(env.now, event.value))
        )
        self.accepted.append(entry)
        self.client.send(b"x", conn.local_address, size=1)

    @rule(index=st.integers(0, 1), shared=st.booleans())
    def acquire(self, index, shared):
        rt = self.runtimes[index]
        handle = self.settle(
            acquired(rt.leases, self.world.low, self.owner(index, shared))
        )
        if handle is not None:
            self.handles.append((rt, handle))

    @rule(index=st.integers(0, 1), shared=st.booleans())
    def accept_connection(self, index, shared):
        self.settle(self.accept(index, shared))

    @precondition(lambda self: self.high is None)
    @rule(index=st.integers(0, 1), shared=st.booleans(), how=st.booleans())
    def verdict_no_after_accept(self, index, shared, how):
        """The lease goes in the instant the connection is accepted:
        preempted (the preemptor's reserve is already on the wire when the
        check leaves) or revoked, so the check that follows says no."""
        if how:
            env = self.world.env
            preempt = env.process(
                self.preemptor.leases.acquire(self.world.high, "x:ep")
            )
            self.settle(self.accept(index, shared))
            self.high = preempt.value
        else:
            def accept_then_revoke(env):
                yield from self.accept(index, shared)
                self.world.service.revoke(self.world.low)

            self.settle(accept_then_revoke(self.world.env))
            self.reregister_low()

    @rule(index=st.integers(0, 1), shared=st.booleans())
    def verdict_timeout_after_accept(self, index, shared):
        """Discovery goes down in the instant the connection is accepted,
        so the check goes unanswered; it comes back afterwards."""

        def accept_then_crash(env):
            yield from self.accept(index, shared)
            self.world.service.crash()

        self.settle(accept_then_crash(self.world.env))
        self.world.service.restart()
        for rt in self.runtimes:
            rt.reconfig.discovery_watcher.rearm()
        self.settle()

    @precondition(lambda self: self.handles or self.accepted)
    @rule(data=st.data())
    def release(self, data):
        position = data.draw(st.integers(0, len(self.handles) + len(self.accepted) - 1))
        if position < len(self.handles):
            rt, handle = self.handles.pop(position)
            self.settle(rt.leases.release(handle))
        else:
            self.accepted.pop(position - len(self.handles))["conn"].close()
            self.settle()

    @precondition(lambda self: self.high is None)
    @rule()
    def preempt(self):
        self.high = self.settle(
            self.preemptor.leases.acquire(self.world.high, "x:ep")
        )

    @precondition(lambda self: self.high is not None)
    @rule()
    def preemptor_leaves(self):
        self.settle(self.preemptor.leases.release(self.high))
        self.high = None

    @rule()
    def revoke_and_reregister(self):
        """The operator withdraws ``low`` and registers it again under a
        new record id."""
        self.world.service.revoke(self.world.low)
        self.settle()
        self.reregister_low()

    def reregister_low(self):
        self.world.low = self.world.service.register(
            switch_meta("low", 10), location="tor"
        ).record_id
        self.watch_low()

    @precondition(lambda self: self.LOSSY)
    @rule(lost=st.booleans())
    def pushes(self, lost):
        self.pushes_lost = lost
        self.ever_lost = self.ever_lost or lost

    @invariant()
    def books_balance(self):
        service = self.world.service
        assert service.audit_leases()["ok"]
        everyone = [rt.leases for rt in (*self.runtimes, self.preemptor)]
        audit = service.audit_leases(everyone)
        # No service lease without a holder reference (with pushes lost,
        # runtimes sharing the group-scoped owner may miscount each other:
        # PROTOCOL.md §2 says so) ...
        assert [m for m in audit["miscounted"] if not m["holders"]] == []
        if not self.ever_lost:
            # With every push delivered the two sides agree exactly: no
            # reference outlives its lease, no count is off.
            assert audit["ok"], audit
        # ... and the device charged once per live lease.
        assert self.world.stages_in_use() == 9 * len(service._leases)
        assert self.world.stages_in_use() <= 12

    @invariant()
    def no_stack_ran_before_its_verdict(self):
        for entry in self.accepted:
            ran_at = entry["stage"].ran_at
            assert entry["verdict"] is not None  # every verdict came in
            decided_at, stands = entry["verdict"]
            if stands is None:
                # No lease: the connection never ran, and is gone.
                assert ran_at == [] and entry["conn"].closed
            else:
                # Its datagram went through, and only after the verdict,
                # and the connection holds the reference that verdict
                # stood on (a re-reserved one swapped in).
                assert len(ran_at) == 1 and ran_at[0] >= decided_at
                (ctx,) = entry["conn"]._setup_contexts
                assert ctx.reservations == [stands]


def push_eater(machine):
    """A ToR program that drops revocation pushes while the machine says
    they are lost."""
    return LossProgram(
        "push-eater",
        predicate=lambda dgram: machine.pushes_lost
        and wire_kind(dgram.payload) in ("disc.revoked", "disc.lease_revoked"),
        drop_first=10**9,
    )


def _nothing(env):
    yield env.timeout(0)


class ReliablePushLeaseMachine(LeaseMachine):
    LOSSY = False


TestLeaseMachine = LeaseMachine.TestCase
TestReliablePushLeaseMachine = ReliablePushLeaseMachine.TestCase
# Derandomized: tier-1 runs the same examples every time.
TestLeaseMachine.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None, derandomize=True
)
TestReliablePushLeaseMachine.settings = settings(
    max_examples=200, stateful_step_count=30, deadline=None, derandomize=True
)

#: The soak (``pytest -m soak``, its own CI step): fresh random examples
#: on every run, 1 500 of them × 40 steps per machine.
SOAK = settings(max_examples=1500, stateful_step_count=40, deadline=None)


@pytest.mark.soak
class TestLeaseMachineSoak(LeaseMachine.TestCase):
    settings = SOAK


@pytest.mark.soak
class TestReliablePushLeaseMachineSoak(ReliablePushLeaseMachine.TestCase):
    settings = SOAK
