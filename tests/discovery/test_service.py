"""Tests for the discovery service: records, leases, inventory, protocol."""

import pytest

from repro.chunnels import (
    McastSwitchSequencer,
    SerializeAccelerated,
    ShardSwitch,
    ShardXdp,
)
from repro.core import ResourceVector
from repro.discovery import (
    DirectDiscoveryClient,
    DiscoveryService,
    NullDiscoveryClient,
    RemoteDiscoveryClient,
)
from repro.errors import DiscoveryError, RegistrationError
from repro.sim import Address, Network, SmartNic

from ..conftest import run


def world():
    net = Network()
    net.add_host("cl")
    net.add_host("srv", nic=SmartNic(net.env, name="srv.nic", offload_slots=2))
    dsc = net.add_host("dsc")
    net.add_switch("tor", stages=4, sram_kb=256)
    for name in ("cl", "srv", "dsc"):
        net.add_link(name, "tor", latency=5e-6)
    return net, DiscoveryService(dsc)


class TestRegistration:
    def test_register_and_query(self):
        _net, service = world()
        service.register(ShardXdp.meta, location="srv")
        offers = service.offers_for(["shard"])
        assert [o.meta.name for o in offers["shard"]] == ["xdp"]
        assert offers["shard"][0].origin == "network"
        assert offers["shard"][0].location == "srv"

    def test_register_at_switch(self):
        _net, service = world()
        record = service.register(McastSwitchSequencer.meta, location="tor")
        assert record.location == "tor"

    def test_register_unknown_location_rejected(self):
        _net, service = world()
        with pytest.raises(RegistrationError):
            service.register(ShardXdp.meta, location="atlantis")

    def test_unregister_removes_offers(self):
        _net, service = world()
        record = service.register(ShardXdp.meta, location="srv")
        service.unregister(record.record_id)
        assert service.offers_for(["shard"])["shard"] == []

    def test_query_multiple_types(self):
        _net, service = world()
        service.register(ShardXdp.meta, location="srv")
        service.register(SerializeAccelerated.meta, location="srv")
        offers = service.offers_for(["shard", "serialize", "reliable"])
        assert len(offers["shard"]) == 1
        assert len(offers["serialize"]) == 1
        assert offers["reliable"] == []


class TestDeviceInventory:
    def test_switch_capacity_derived_from_device(self):
        _net, service = world()
        capacity = service.device_capacity("tor")
        assert capacity["switch_stages"] == 4
        assert capacity["switch_sram_kb"] == 256

    def test_host_capacity_includes_smartnic(self):
        _net, service = world()
        capacity = service.device_capacity("srv")
        assert capacity["nic_slots"] == 2
        assert capacity["xdp_share"] == 1

    def test_plain_host_has_no_nic_slots(self):
        _net, service = world()
        capacity = service.device_capacity("cl")
        assert "nic_slots" not in capacity

    def test_capacity_override(self):
        _net, service = world()
        service.set_capacity("tor", ResourceVector(switch_stages=99))
        assert service.device_capacity("tor")["switch_stages"] == 99

    def test_unknown_device_rejected(self):
        _net, service = world()
        with pytest.raises(DiscoveryError):
            service.device_capacity("nowhere")


class TestReservations:
    def test_reserve_consumes_resources(self):
        _net, service = world()
        record = service.register(ShardSwitch.meta, location="tor")
        assert service.reserve(record.record_id, "appA")
        in_use = service.device_in_use("tor")
        assert in_use["switch_stages"] == 2

    def test_reserve_is_refcounted_per_owner(self):
        _net, service = world()
        record = service.register(ShardSwitch.meta, location="tor")
        assert service.reserve(record.record_id, "appA")
        assert service.reserve(record.record_id, "appA")  # second conn
        assert service.device_in_use("tor")["switch_stages"] == 2  # once
        service.release(record.record_id, "appA")
        assert service.device_in_use("tor")["switch_stages"] == 2  # held
        service.release(record.record_id, "appA")
        assert service.device_in_use("tor").is_zero  # now free

    def test_capacity_exhaustion_denies(self):
        _net, service = world()
        record = service.register(ShardSwitch.meta, location="tor")
        assert service.reserve(record.record_id, "appA")  # 2 of 4 stages
        assert service.reserve(record.record_id, "appB")  # 4 of 4 stages
        assert not service.reserve(record.record_id, "appC")
        assert service.reservations_denied == 1

    def test_release_unknown_is_noop(self):
        _net, service = world()
        service.release("rec-404", "ghost")  # must not raise

    def test_reserve_unknown_record_fails(self):
        _net, service = world()
        assert not service.reserve("rec-404", "appA")

    def test_leases_at_location(self):
        _net, service = world()
        record = service.register(ShardSwitch.meta, location="tor")
        service.reserve(record.record_id, "appA")
        leases = service.leases_at("tor")
        assert len(leases) == 1
        assert leases[0].owner == "appA"

    def test_scheduler_hook_vetoes(self):
        from repro.core import DrfScheduler

        class Veto(DrfScheduler):
            def admit(self, record, owner, need, capacity, in_use):
                return False

        _net, service = world()
        service.scheduler = Veto()
        record = service.register(ShardSwitch.meta, location="tor")
        assert not service.reserve(record.record_id, "appA")


class TestRemoteProtocol:
    def test_query_over_the_network(self):
        net, service = world()
        service.register(ShardXdp.meta, location="srv")
        client = RemoteDiscoveryClient(net.hosts["cl"], service.address)

        def scenario(env):
            yield env.timeout(1e-4)
            result = yield from client.query(["shard"], service_name=None)
            return result

        result = run(net.env, scenario(net.env))
        assert [o.meta.name for o in result.offers["shard"]] == ["xdp"]
        assert client.round_trips == 1

    def test_reserve_and_release_over_the_network(self):
        net, service = world()
        record = service.register(ShardSwitch.meta, location="tor")
        client = RemoteDiscoveryClient(net.hosts["cl"], service.address)

        def scenario(env):
            yield env.timeout(1e-4)
            ok = yield from client.reserve(record.record_id, "appA")
            in_use = service.device_in_use("tor")["switch_stages"]
            yield from client.release(record.record_id, "appA")
            return ok, in_use, service.device_in_use("tor").is_zero

        ok, in_use, free_after = run(net.env, scenario(net.env))
        assert ok and in_use == 2 and free_after

    def test_name_registration_over_the_network(self):
        net, service = world()
        client = RemoteDiscoveryClient(net.hosts["cl"], service.address)

        def scenario(env):
            yield env.timeout(1e-4)
            yield from client.register_name("svc", Address("srv", 7000))
            return [r.address for r in net.names.resolve("svc")]

        assert run(net.env, scenario(net.env)) == [Address("srv", 7000)]

    def test_unreachable_service_times_out(self):
        from repro.errors import ConnectionTimeoutError

        net, _service = world()
        client = RemoteDiscoveryClient(
            net.hosts["cl"], Address("dsc", 9), timeout=1e-4, retries=2
        )

        def scenario(env):
            yield env.timeout(0)
            yield from client.query(["shard"])

        with pytest.raises(ConnectionTimeoutError):
            run(net.env, scenario(net.env))

    def test_unknown_request_kind_answered_with_error(self):
        from repro.core import messages as msgs

        net, service = world()
        from repro.sim import UdpSocket

        def scenario(env):
            sock = UdpSocket(net.hosts["cl"])
            # A well-formed frame of a kind id no schema defines: the
            # service must reject it, but still answer (its first field is
            # a req_id) so the sender stops retransmitting.
            frame = msgs.encode_message_sized(msgs.Ping(req_id="r1"))[0]
            sock.send(frame[:2] + b"\xfa" + frame[3:], service.address, size=64)
            reply = yield sock.recv()
            return reply.payload

        reply = msgs.decode_message(run(net.env, scenario(net.env)))
        assert isinstance(reply, msgs.ServiceError)
        assert reply.req_id == "r1"
        assert service.malformed_total == 1


class TestClientFlavours:
    def test_direct_client_matches_remote_semantics(self):
        net, service = world()
        service.register(ShardXdp.meta, location="srv")
        client = DirectDiscoveryClient(service)

        def scenario(env):
            yield env.timeout(0)
            result = yield from client.query(["shard"])
            ok = yield from client.reserve("rec-404", "a")
            return result, ok

        result, ok = run(net.env, scenario(net.env))
        assert [o.meta.name for o in result.offers["shard"]] == ["xdp"]
        assert ok is False

    def test_null_client_returns_nothing_but_resolves_names(self):
        net, _service = world()
        net.names.register("svc", Address("srv", 7000))
        client = NullDiscoveryClient(net.hosts["cl"])

        def scenario(env):
            yield env.timeout(0)
            result = yield from client.query(["shard"], service_name="svc")
            ok = yield from client.reserve("anything", "a")
            return result, ok

        result, ok = run(net.env, scenario(net.env))
        assert result.offers["shard"] == []
        assert result.instances == [Address("srv", 7000)]
        assert ok is True


class TestLeaseExpiryAndWatch:
    """Regression: unregister must expire leases, and watchers must hear."""

    def test_unregister_expires_leases_and_frees_resources(self):
        _net, service = world()
        record = service.register(ShardSwitch.meta, location="tor")
        assert service.reserve(record.record_id, "appA")
        assert service.reserve(record.record_id, "appB")
        assert not service.device_in_use("tor").is_zero

        service.unregister(record.record_id)

        assert service.leases_at("tor") == []
        assert service.device_in_use("tor").is_zero
        assert service.leases_expired == 2
        # The record is gone for good: nothing to reserve any more.
        assert not service.reserve(record.record_id, "appC")

    def test_revoke_pushes_to_watchers(self):
        net, service = world()
        from repro.sim import UdpSocket

        record = service.register(ShardXdp.meta, location="srv")
        sock = UdpSocket(net.hosts["cl"], 4000)
        service.add_watch(record.record_id, sock.address)

        def scenario(env):
            yield env.timeout(1e-4)
            service.revoke(record.record_id, reason="test")
            push = yield sock.recv()
            return push.payload

        from repro.core import messages as msgs

        push = msgs.decode_message(run(net.env, scenario(net.env)))
        assert isinstance(push, msgs.Revoked)
        assert push.record_id == record.record_id
        assert service.revocations == 1

    def test_revoke_unknown_record_is_noop(self):
        _net, service = world()
        service.revoke("rec-404")
        assert service.revocations == 0

    def test_priority_scheduler_preempts_and_notifies(self):
        from repro.core import PriorityScheduler
        from repro.sim import UdpSocket

        net, service = world()
        service.scheduler = PriorityScheduler()
        # Three low-priority sequencer leases occupy 3 of 4 switch stages.
        low = service.register(McastSwitchSequencer.meta, location="tor")
        for owner in ("a", "b", "c"):
            assert service.reserve(low.record_id, owner)
        sock = UdpSocket(net.hosts["cl"], 4001)
        service.add_watch(low.record_id, sock.address)

        # A priority-90 shard program needs 2 stages: one victim suffices.
        high = service.register(ShardSwitch.meta, location="tor")

        def scenario(env):
            yield env.timeout(1e-4)
            granted = service.reserve(high.record_id, "shard-app")
            push = yield sock.recv()
            return granted, push.payload

        from repro.core import messages as msgs

        granted, body = run(net.env, scenario(net.env))
        push = msgs.decode_message(body)
        assert granted
        assert service.leases_preempted == 1
        assert isinstance(push, msgs.LeaseRevoked)
        assert push.record_id == low.record_id
        assert push.owner == "a"  # oldest equal-priority lease evicted
        # Survivors: two sequencers + the shard program = 4 of 4 stages.
        assert service.device_in_use("tor")["switch_stages"] == 4

    def test_watch_over_the_wire(self):
        net, service = world()
        record = service.register(ShardXdp.meta, location="srv")
        client = RemoteDiscoveryClient(net.hosts["cl"], service.address)
        from repro.sim import UdpSocket

        sock = UdpSocket(net.hosts["cl"], 4002)

        def scenario(env):
            yield env.timeout(1e-4)
            yield from client.watch(record.record_id, sock.address)
            service.revoke(record.record_id)
            push = yield sock.recv()
            return push.payload

        from repro.core import messages as msgs

        push = msgs.decode_message(run(net.env, scenario(net.env)))
        assert isinstance(push, msgs.Revoked)
        assert push.record_id == record.record_id
