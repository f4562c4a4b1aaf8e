"""Discovery robustness: retransmission, dedup, crash/restart, and the
failure paths of the Null and Direct clients.

The discovery protocol's at-most-once guarantee (PROTOCOL.md §6) is the
property under test here: retransmitted ``disc.reserve``/``disc.register``
requests reaching the service must never double-allocate, and a client
whose reply was lost must converge on the cached verdict.
"""

import pytest

from repro.chunnels import ReliableToe
from repro.core.resources import NIC_SLOTS, ResourceVector
from repro.discovery import DiscoveryService
from repro.discovery import client as discovery_client
from repro.discovery.client import (
    DirectDiscoveryClient,
    NullDiscoveryClient,
    RemoteDiscoveryClient,
)
from repro.errors import ConnectionTimeoutError
from repro.sim import Address, FaultPlan, Network, UdpSocket

from ..conftest import run


def world(fault_plan=None):
    net = Network()
    net.add_host("cl")
    net.add_host("dsc")
    net.add_switch("tor")
    net.add_link("cl", "tor", latency=5e-6)
    net.add_link("dsc", "tor", latency=5e-6)
    if fault_plan is not None:
        net.attach_faults_everywhere(fault_plan)
    service = DiscoveryService(net.hosts["dsc"])
    # The test records live at "dsc", a plain host with no SmartNIC —
    # grant it schedulable slots so reservations can succeed.
    service.set_capacity("dsc", ResourceVector({NIC_SLOTS: 8}))
    return net, service


class TestBackoff:
    def test_timeouts_grow_exponentially_and_cap(self, monkeypatch):
        monkeypatch.setattr(discovery_client, "RETRY_JITTER", 0.0)
        net, service = world()
        client = RemoteDiscoveryClient(
            net.hosts["cl"], service.address,
            timeout=1e-3, backoff=2.0, max_timeout=8e-3,
        )
        timeouts = [client.policy.attempt_timeout(n, client._rng) for n in range(6)]
        assert timeouts == [1e-3, 2e-3, 4e-3, 8e-3, 8e-3, 8e-3]

    def test_jitter_stays_within_fraction(self, monkeypatch):
        monkeypatch.setattr(discovery_client, "RETRY_JITTER", 0.25)
        net, service = world()
        client = RemoteDiscoveryClient(net.hosts["cl"], service.address, timeout=1e-3)
        policy = client.policy
        for attempt in range(20):
            base = min(policy.timeout * policy.backoff**attempt, policy.max_timeout)
            assert 0.75 * base <= client.policy.attempt_timeout(attempt, client._rng) <= 1.25 * base

    def test_parameters_validated(self, monkeypatch):
        net, service = world()
        host = net.hosts["cl"]
        with pytest.raises(ValueError):
            RemoteDiscoveryClient(host, service.address, timeout=0)
        with pytest.raises(ValueError):
            RemoteDiscoveryClient(host, service.address, retries=0)
        with pytest.raises(ValueError):
            RemoteDiscoveryClient(host, service.address, backoff=0.5)
        monkeypatch.setattr(discovery_client, "RETRY_JITTER", 1.5)
        with pytest.raises(ValueError):
            RemoteDiscoveryClient(host, service.address)


class TestRetransmissionAndDedup:
    def test_reserve_under_loss_never_double_allocates(self):
        net, service = world(
            FaultPlan(drop_rate=0.15, duplicate_rate=0.3, seed=17)
        )
        record = service.register(ReliableToe.meta, location="dsc")
        client = RemoteDiscoveryClient(
            net.hosts["cl"], service.address, timeout=5e-4, retries=12
        )

        def scenario(env):
            outcomes = []
            for index in range(30):
                owner = f"owner-{index}"
                ok = yield from client.reserve(record.record_id, owner)
                outcomes.append(ok)
                yield from client.release(record.record_id, owner)
            return outcomes

        outcomes = run(net.env, scenario(net.env), until=30.0)
        assert all(outcomes)
        # Retransmits and duplicate deliveries really happened...
        assert client.stats.retransmits_total > 0
        assert service.duplicate_requests > 0
        # ...yet the lease books balance exactly.
        audit = service.audit_leases()
        assert audit["ok"]
        assert audit["leases"] == 0

    def test_duplicate_request_replays_cached_verdict(self):
        from repro.core import messages as msgs

        net, service = world()
        record = service.register(ReliableToe.meta, location="dsc")
        socket = UdpSocket(net.hosts["cl"], 4000)
        request = msgs.Reserve(
            record_id=record.record_id, owner="dup-owner"
        )

        def scenario(env):
            replies = []
            for attempt in range(2):
                socket.send(
                    msgs.encode_message_sized(request.stamped("manual-1", attempt))[0],
                    service.address,
                    size=64,
                )
                reply = yield socket.recv()
                replies.append(msgs.decode_message(reply.payload))
            return replies

        first, second = run(net.env, scenario(net.env))
        assert first.ok and second.ok
        assert service.duplicate_requests == 1
        # The replay did not run the handler again: still exactly one lease.
        assert service.audit_leases()["leases"] == 1
        # The echoed attempt tag follows the retransmission, not the cache.
        assert (first.attempt, second.attempt) == (0, 1)

    def test_late_reply_accepted_and_counted(self, monkeypatch):
        # RPC timeout shorter than the round trip: the reply to attempt 0
        # arrives while attempt 1 is in flight.  It must be accepted (same
        # req_id) and recorded as a late reply.
        monkeypatch.setattr(discovery_client, "RETRY_JITTER", 0.0)
        net, service = world()
        client = RemoteDiscoveryClient(
            net.hosts["cl"], service.address, timeout=1e-5, retries=8
        )

        def scenario(env):
            return (yield from client.query(["reliable"]))

        result = run(net.env, scenario(net.env))
        assert result.offers == {"reliable": []}
        assert client.stats.late_replies >= 1
        assert client.stats.retransmits_total >= 1


class TestCrashRestart:
    def test_crashed_service_times_out_then_recovers(self):
        net, service = world()
        client = RemoteDiscoveryClient(
            net.hosts["cl"], service.address, timeout=1e-4, retries=3
        )
        service.crash()
        assert service.down and service.crashes == 1

        def during(env):
            return (yield from client.query(["reliable"]))

        with pytest.raises(ConnectionTimeoutError):
            run(net.env, during(net.env))
        assert client.stats.failures_total == 1

        service.restart()
        assert not service.down

        def after(env):
            return (yield from client.query(["reliable"]))

        assert run(net.env, after(net.env)).offers == {"reliable": []}

    def test_crash_clears_volatile_state_keeps_records(self):
        net, service = world()
        from repro.core import messages as msgs

        record = service.register(ReliableToe.meta, location="dsc")
        service._replies.put("stale", msgs.ReserveReply(ok=True))
        service.crash()
        assert not service._replies  # dedup cache is volatile
        assert record.record_id in service._records  # records are stable
        service.crash()  # idempotent while down
        assert service.crashes == 1


class TestNullClientFailurePaths:
    def test_query_returns_empty_offers(self, two_hosts):
        client = NullDiscoveryClient(two_hosts.net.hosts["cl"])

        def scenario(env):
            return (yield from client.query(["reliable", "shard"]))

        result = run(two_hosts.env, scenario(two_hosts.env))
        assert result.offers == {"reliable": [], "shard": []}
        assert result.instances == []

    def test_names_resolve_through_the_cluster(self, two_hosts):
        client = NullDiscoveryClient(two_hosts.net.hosts["cl"])
        address = Address("srv", 7000)

        def scenario(env):
            yield from client.register_name("svc", address)
            result = yield from client.query(["reliable"], service_name="svc")
            return result.instances

        assert run(two_hosts.env, scenario(two_hosts.env)) == [address]

    def test_reservations_always_granted_releases_noop(self, two_hosts):
        client = NullDiscoveryClient(two_hosts.net.hosts["cl"])

        def scenario(env):
            ok = yield from client.reserve("rec-1", "me")
            yield from client.release("rec-1", "me")
            yield from client.watch("rec-1", Address("cl", 1))
            return ok

        assert run(two_hosts.env, scenario(two_hosts.env)) is True

    def test_lease_checks_always_stand(self, two_hosts):
        """With no service there is nothing to revoke a lease."""
        client = NullDiscoveryClient(two_hosts.net.hosts["cl"])

        def scenario(env):
            return (yield from client.lease_check("rec-1", "me"))

        assert run(two_hosts.env, scenario(two_hosts.env)) is True


class TestDirectClientFailurePaths:
    def test_query_unknown_types_gives_empty_offer_sets(self, two_hosts):
        client = DirectDiscoveryClient(two_hosts.discovery)

        def scenario(env):
            return (yield from client.query(["no-such-chunnel"]))

        result = run(two_hosts.env, scenario(two_hosts.env))
        assert result.offers == {"no-such-chunnel": []}

    def test_reservation_refused_when_capacity_exhausted(self, two_hosts):
        service = two_hosts.discovery
        record = service.register(ReliableToe.meta, location="srv")
        service.set_capacity("srv", ResourceVector({NIC_SLOTS: 1}))
        client = DirectDiscoveryClient(service)

        def scenario(env):
            first = yield from client.reserve(record.record_id, "a")
            refused = yield from client.reserve(record.record_id, "b")
            yield from client.release(record.record_id, "a")
            after = yield from client.reserve(record.record_id, "b")
            return first, refused, after

        first, refused, after = run(two_hosts.env, scenario(two_hosts.env))
        assert (first, refused, after) == (True, False, True)
        assert service.audit_leases()["ok"]

    def test_lease_check_release_name_and_watch_reach_the_service(self, two_hosts):
        service = two_hosts.discovery
        record = service.register(ReliableToe.meta, location="srv")
        service.set_capacity("srv", ResourceVector({NIC_SLOTS: 1}))
        client = DirectDiscoveryClient(service)
        watcher = Address("cl", 4100)

        def scenario(env):
            assert (yield from client.reserve(record.record_id, "a"))
            held = yield from client.lease_check(record.record_id, "a")
            yield from client.release(record.record_id, "a")
            released = yield from client.lease_check(record.record_id, "a")
            yield from client.register_name("svc", Address("srv", 7000))
            yield from client.watch(record.record_id, watcher)
            return held, released

        assert run(two_hosts.env, scenario(two_hosts.env)) == (True, False)
        assert [r.address for r in two_hosts.net.names.resolve("svc")] == [
            Address("srv", 7000)
        ]
        assert watcher in service._watchers[record.record_id]
