"""Tests for sharding, local fast path, and anycast instance selection."""

import pytest

from repro.chunnels import (
    HashBytes,
    LocalOrRemote,
    Shard,
    ShardClientFallback,
    ShardServerFallback,
    ShardSwitch,
    ShardXdp,
)
from repro.core import Runtime, wrap
from repro.discovery import DiscoveryService
from repro.errors import ChunnelArgumentError
from repro.sim import Address, Network, UdpSocket

from ..conftest import run


class TestShardFunctions:
    def test_hash_bytes_is_deterministic(self):
        fn = HashBytes(offset=0, length=4)
        payload = b"ABCDEF"
        assert fn.bucket(payload, {}, 3) == fn.bucket(payload, {}, 3)

    def test_hash_bytes_uses_window(self):
        fn = HashBytes(offset=2, length=2)
        assert fn.bucket(b"xxAByy", {}, 100) == fn.bucket(b"zzABww", {}, 100)

    def test_hash_bytes_short_payload_falls_back_to_whole(self):
        fn = HashBytes(offset=10, length=4)
        assert 0 <= fn.bucket(b"ab", {}, 3) < 3

    def test_hash_bytes_rejects_objects(self):
        with pytest.raises(ChunnelArgumentError):
            HashBytes().bucket({"key": "x"}, {}, 3)

    def test_buckets_cover_range(self):
        fn = HashBytes(0, 4)
        buckets = {fn.bucket(b"%04d" % i, {}, 3) for i in range(200)}
        assert buckets == {0, 1, 2}

    def test_invalid_construction(self):
        with pytest.raises(ChunnelArgumentError):
            HashBytes(offset=-1)
        with pytest.raises(ChunnelArgumentError):
            HashBytes(length=0)
        with pytest.raises(ChunnelArgumentError):
            Shard(choices=[])


def shard_world(register_client_push=False, register_xdp=False,
                register_switch=False):
    """Server with 3 raw-socket workers; a shard DAG routes to them."""
    net = Network()
    net.add_host("srv")
    net.add_host("cl")
    dsc = net.add_host("dsc")
    net.add_switch("tor")
    for name in ("srv", "cl", "dsc"):
        net.add_link(name, "tor", latency=5e-6)
    discovery = DiscoveryService(dsc)
    if register_xdp:
        discovery.register(ShardXdp.meta, location="srv")
    if register_switch:
        discovery.register(ShardSwitch.meta, location="tor")

    workers = []
    served_by = []

    def worker_loop(env, sock):
        while True:
            dgram = yield sock.recv()
            served_by.append(sock.port)
            reply_to = dgram.headers.get("shard_reply_to")
            dst = Address(reply_to[0], reply_to[1]) if reply_to else dgram.src
            sock.send(b"ok:%d" % sock.port, dst, size=16)

    for port in (7101, 7102, 7103):
        sock = UdpSocket(net.hosts["srv"], port)
        workers.append(sock.address)
        net.env.process(worker_loop(net.env, sock))

    server_rt = Runtime(net.hosts["srv"], discovery=discovery.address)
    client_rt = Runtime(net.hosts["cl"], discovery=discovery.address)
    server_rt.register_chunnel(ShardServerFallback)
    if register_client_push:
        client_rt.register_chunnel(ShardClientFallback)
    # Hash the digits (bytes [4..8)); bytes [0..4) are the constant "key-".
    dag = wrap(Shard(choices=workers, shard_fn=HashBytes(4, 4)))
    listener = server_rt.new("kv", dag).listen(port=7100)
    return net, client_rt, listener, served_by


def drive_shard_requests(net, client_rt, count=12):
    def scenario(env):
        yield env.timeout(1e-4)
        conn = yield from client_rt.new("c").connect(Address("srv", 7100))
        node = conn.dag.find("shard")[0]
        impl_name = type(conn.impls[node]).__name__
        replies = []
        for index in range(count):
            conn.send(b"key-%04d" % index, size=32)
            msg = yield conn.recv()
            replies.append(bytes(msg.payload))
        return impl_name, replies

    return run(net.env, scenario(net.env))


class TestShardingPlacements:
    def test_client_push_routes_directly(self):
        net, client_rt, _listener, served_by = shard_world(
            register_client_push=True
        )
        impl, replies = drive_shard_requests(net, client_rt)
        assert impl == "ShardClientFallback"
        assert len(replies) == 12
        assert len(set(served_by)) == 3  # all shards exercised

    def test_xdp_rewrites_at_server_host(self):
        net, client_rt, _listener, served_by = shard_world(register_xdp=True)
        impl, replies = drive_shard_requests(net, client_rt)
        assert impl == "ShardXdp"
        assert len(replies) == 12
        assert net.hosts["srv"].kernel_programs  # program installed
        assert net.hosts["srv"].kernel_programs[0].redirected == 12

    def test_server_fallback_forwards_in_userspace(self):
        net, client_rt, _listener, served_by = shard_world()
        impl, replies = drive_shard_requests(net, client_rt)
        assert impl == "ShardServerFallback"
        assert len(replies) == 12
        assert len(set(served_by)) == 3

    def test_switch_p4_shard_wins_and_installs(self):
        net, client_rt, _listener, served_by = shard_world(
            register_switch=True, register_xdp=True
        )
        impl, replies = drive_shard_requests(net, client_rt)
        # priority: p4 (90) > xdp (60); both network-origin.
        assert impl == "ShardSwitch"
        assert len(replies) == 12
        switch = net.switches["tor"]
        assert switch.programs
        assert switch.stage_pool.available < switch.stage_pool.capacity

    def test_same_key_lands_on_same_shard(self):
        net, client_rt, _listener, served_by = shard_world(
            register_client_push=True
        )

        def scenario(env):
            yield env.timeout(1e-4)
            conn = yield from client_rt.new("c").connect(Address("srv", 7100))
            for _ in range(5):
                conn.send(b"same-key", size=8)
                yield conn.recv()
            return served_by

        served = run(net.env, scenario(net.env))
        assert len(set(served)) == 1

    def test_xdp_program_shared_across_connections(self):
        net, client_rt, _listener, _served = shard_world(register_xdp=True)

        def scenario(env):
            yield env.timeout(1e-4)
            conn1 = yield from client_rt.new("c1").connect(Address("srv", 7100))
            conn2 = yield from client_rt.new("c2").connect(Address("srv", 7100))
            programs = net.hosts["srv"].kernel_programs
            ports = set(programs[0].watched_ports)
            conn1.close()
            conn2.close()
            return len(programs), ports

        count, ports = run(net.env, scenario(net.env))
        assert count == 1  # one program, two watched ports
        assert len(ports) == 2


class TestInstanceSelection:
    def test_local_or_remote_prefers_local_instance(self):
        net = Network()
        host_a = net.add_host("ha")
        net.add_host("hb")
        net.add_switch("sw")
        net.add_link("ha", "sw")
        net.add_link("hb", "sw")
        ct = host_a.add_container("ct")
        instances = [Address("hb", 1), Address("ct", 1)]
        chosen = LocalOrRemote.select_instance(instances, host_a, net)
        assert chosen.host == "ct"

    def test_local_or_remote_falls_back_to_first(self):
        net = Network()
        net.add_host("ha")
        net.add_host("hb")
        net.add_switch("sw")
        net.add_link("ha", "sw")
        net.add_link("hb", "sw")
        instances = [Address("hb", 1)]
        chosen = LocalOrRemote.select_instance(
            instances, net.hosts["ha"], net
        )
        assert chosen.host == "hb"
