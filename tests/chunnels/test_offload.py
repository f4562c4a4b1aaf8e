"""Tests for the in-switch compute offloads (KV cache, RPC fan-in)."""

import pytest

from repro.apps import KvClient, KvServer, kv_request
from repro.chunnels import (
    FanIn,
    FanInHost,
    FanInSwitch,
    KvCache,
    KvCacheHostPath,
    KvCacheSwitch,
    Serialize,
    SerializeFallback,
    ShardClientFallback,
    combine_replies,
    split_combined_value,
)
from repro.apps.kvstore import ShardWorker
from repro.core import wrap
from repro.errors import ChunnelArgumentError, ResourceExhaustedError
from repro.sim import Address, PacketProgram, SwitchProgramFootprint

from ..conftest import run


class TestSpecValidation:
    def test_kvcache_needs_workers(self):
        with pytest.raises(ChunnelArgumentError):
            KvCache(choices=[])

    def test_kvcache_rejects_bad_capacity_and_cost(self):
        workers = [Address("srv", 7101)]
        with pytest.raises(ChunnelArgumentError):
            KvCache(choices=workers, capacity=0)
        with pytest.raises(ChunnelArgumentError):
            KvCache(choices=workers, write_cost=-1.0)

    def test_fanin_needs_members(self):
        with pytest.raises(ChunnelArgumentError):
            FanIn(members=[])


class TestCombineReplies:
    def _reply(self, status, value=b""):
        import struct

        codes = {"ok": 0, "not_found": 1, "error": 2}
        return struct.pack(">BBI", 0x20, codes[status], len(value)) + value

    def test_roundtrip(self):
        parts = [self._reply("ok", b"aa"), self._reply("ok", b"bbbb")]
        combined = combine_replies(parts)
        assert combined[0] == 0x20 and combined[1] == 0
        values = split_combined_value(combined[6:])
        assert values == [b"aa", b"bbbb"]

    def test_not_found_propagates(self):
        combined = combine_replies(
            [self._reply("ok", b"x"), self._reply("not_found")]
        )
        assert combined[1] == 1  # not_found

    def test_error_dominates(self):
        combined = combine_replies(
            [self._reply("not_found"), self._reply("error")]
        )
        assert combined[1] == 2  # error

    def test_empty_values_survive(self):
        combined = combine_replies([self._reply("ok"), self._reply("ok")])
        assert split_combined_value(combined[6:]) == [b"", b""]


def cache_world(world, capacity=1024, shards=3, auto_reconfig=False):
    """KvServer with a cache node; switch cache registered at the ToR."""
    server_rt = world.runtime("srv")
    client_rt = world.runtime("cl")
    for rt in (server_rt, client_rt):
        rt.register_chunnel(SerializeFallback)
    client_rt.register_chunnel(ShardClientFallback)
    server_rt.register_chunnel(KvCacheHostPath)
    workers = [Address("srv", 7101 + i) for i in range(shards)]
    world.discovery.register(KvCacheSwitch.meta, location="tor")
    server = KvServer(
        server_rt,
        port=7100,
        shards=shards,
        extra_dag=wrap(KvCache(choices=workers, capacity=capacity)),
        auto_reconfig=auto_reconfig,
    )
    return server, client_rt


def cache_programs(world):
    """(reader, writer) installed on the ToR."""
    switch = world.net.switches["tor"]
    reader = next(p for p in switch.programs if p.name.endswith("/read"))
    writer = next(p for p in switch.programs if p.name.endswith("/write"))
    return reader, writer


class TestSwitchKvCache:
    def test_negotiation_picks_switch_cache_and_installs(self, two_hosts):
        server, client_rt = cache_world(two_hosts)

        def scenario(env):
            yield env.timeout(1e-4)
            client = KvClient(client_rt)
            conn = yield from client.connect(Address("srv", 7100))
            node = conn.dag.find("kvcache")[0]
            return type(conn.impls.get(node)).__name__

        impl = run(two_hosts.env, scenario(two_hosts.env))
        # The cache is a server-side impl: the client's view has no impl
        # for the node, but the switch carries the installed programs.
        switch = two_hosts.net.switches["tor"]
        assert len(switch.programs) == 2
        assert switch.stage_pool.available < switch.stage_pool.capacity

    def test_write_through_then_hit_at_switch(self, two_hosts):
        server, client_rt = cache_world(two_hosts)

        def scenario(env):
            yield env.timeout(1e-4)
            client = KvClient(client_rt)
            yield from client.connect(Address("srv", 7100))
            yield from client.put("alpha", b"v1")
            got = yield from client.get("alpha")
            return got

        got = run(two_hosts.env, scenario(two_hosts.env))
        assert (got["status"], got["value"]) == ("ok", b"v1")
        reader, writer = cache_programs(two_hosts)
        assert reader.state.hits == 1  # served at the ToR
        assert writer.state.writes == 1
        # The GET never reached a worker: only the PUT was served there.
        assert server.requests_served == 1

    def test_no_stale_read_after_put(self, two_hosts):
        server, client_rt = cache_world(two_hosts)

        def scenario(env):
            yield env.timeout(1e-4)
            client = KvClient(client_rt)
            yield from client.connect(Address("srv", 7100))
            yield from client.put("k", b"old")
            first = yield from client.get("k")
            yield from client.put("k", b"new")
            second = yield from client.get("k")
            deleted = yield from client.delete("k")
            after = yield from client.get("k")
            return first, second, deleted, after

        first, second, deleted, after = run(
            two_hosts.env, scenario(two_hosts.env)
        )
        assert first["value"] == b"old"
        assert second["value"] == b"new"
        assert deleted["status"] == "ok"
        assert after["status"] == "not_found"

    def test_capacity_evicts_fifo(self, two_hosts):
        server, client_rt = cache_world(two_hosts, capacity=2)

        def scenario(env):
            yield env.timeout(1e-4)
            client = KvClient(client_rt)
            yield from client.connect(Address("srv", 7100))
            for key in ("a", "b", "c"):
                yield from client.put(key, key.encode())
            got = yield from client.get("a")  # evicted: falls to the store
            return got

        got = run(two_hosts.env, scenario(two_hosts.env))
        assert (got["status"], got["value"]) == ("ok", b"a")
        reader, _writer = cache_programs(two_hosts)
        assert reader.state.evictions == 1
        assert reader.state.misses == 1
        assert len(reader.state.entries) <= 2

    def test_switch_failure_clears_cache_and_store_answers(self, two_hosts):
        server, client_rt = cache_world(two_hosts)

        def scenario(env):
            yield env.timeout(1e-4)
            client = KvClient(client_rt)
            yield from client.connect(Address("srv", 7100))
            yield from client.put("k", b"v")
            reader, _writer = cache_programs(two_hosts)
            assert reader.state.entries  # cached
            two_hosts.net.switches["tor"].fail()
            during = yield from client.get("k")  # program skipped: store
            two_hosts.net.switches["tor"].recover()
            assert not reader.state.entries  # SRAM wiped
            after = yield from client.get("k")  # miss, store answers
            return during, after

        during, after = run(two_hosts.env, scenario(two_hosts.env))
        assert during["value"] == b"v"
        assert after["value"] == b"v"

    def test_reinstalls_across_failures_add_no_watchers(self, two_hosts):
        # Each failure degrades the connection to the host path (the cache
        # is uninstalled) and each recovery upgrades it again (a fresh
        # install).  The switch wipes its programs itself, so no install
        # leaves a watcher behind, and a recovered cache starts empty.
        server, client_rt = cache_world(two_hosts, auto_reconfig=True)
        tor = two_hosts.net.switches["tor"]

        def scenario(env):
            yield env.timeout(1e-4)
            client = KvClient(client_rt)
            yield from client.connect(Address("srv", 7100))
            watchers, sizes, readers = [], [], []
            for cycle in range(3):
                yield from client.put(f"k{cycle}", b"v")
                reader, _writer = cache_programs(two_hosts)
                assert reader.state.entries  # cached
                tor.fail()
                yield env.timeout(0.01)
                tor.recover()
                yield env.timeout(0.01)
                reader, _writer = cache_programs(two_hosts)
                readers.append(reader)
                sizes.append(len(reader.state.entries))
                watchers.append(len(tor._state_watchers))
            got = yield from client.get("k0")
            return watchers, sizes, readers, got

        watchers, sizes, readers, got = run(two_hosts.env, scenario(two_hosts.env))
        assert len(set(map(id, readers))) == 3  # reinstalled every cycle
        assert watchers == [watchers[0]] * 3
        assert sizes == [0, 0, 0]
        assert (got["status"], got["value"]) == ("ok", b"v")

    def test_scan_bypasses_the_cache(self, two_hosts):
        server, client_rt = cache_world(two_hosts, shards=1)

        def scenario(env):
            yield env.timeout(1e-4)
            client = KvClient(client_rt)
            yield from client.connect(Address("srv", 7100))
            yield from client.put("s1", b"x")
            scanned = yield from client.scan("s0", 5)
            return scanned

        scanned = run(two_hosts.env, scenario(two_hosts.env))
        assert scanned["status"] == "ok"
        reader, _writer = cache_programs(two_hosts)
        assert reader.state.hits == 0 and reader.state.misses == 0

    def test_failed_accept_leaves_nothing_behind(self, two_hosts):
        # Ten of the ToR's twelve stages are taken outside discovery: the
        # cache's reader fits, its writer does not, so the server's
        # after_establish fails after the binding (and its lease) was
        # made.  The half-made connection must give all of it back.
        server, client_rt = cache_world(two_hosts)
        server_rt = two_hosts.runtimes["srv"]
        srv = two_hosts.net.hosts["srv"]
        tor = two_hosts.net.switches["tor"]
        tor.install(_Squatter("<squatter>"), SwitchProgramFootprint(stages=10))
        listening = set(srv.ports)

        def scenario(env):
            yield env.timeout(1e-4)
            client = KvClient(client_rt)
            with pytest.raises(ResourceExhaustedError):
                yield from client.connect(Address("srv", 7100))
            yield env.timeout(1.0)

        run(two_hosts.env, scenario(two_hosts.env))
        assert server_rt.leases.held() == {}
        assert two_hosts.discovery.audit_leases()["leases"] == 0
        assert set(srv.ports) == listening
        assert [program.name for program in tor.programs] == ["<squatter>"]
        assert server.listener.connections == []


class _Squatter(PacketProgram):
    """A switch program installed outside discovery that matches nothing."""

    def match(self, dgram) -> bool:
        return False


def fanin_world(world, register_switch=False, shards=3, preload=None):
    """A scatter/gather service over raw shard workers.

    The listener ranks by raw priority (not origin) so the network-provided
    switch aggregator can beat the client's host gather when registered —
    the operator-policy knob the paper's §4.3 prototype exposes.
    """
    from repro.core.policy import PriorityFirstPolicy

    server_rt = world.runtime("srv", policy=PriorityFirstPolicy())
    client_rt = world.runtime("cl")
    for rt in (server_rt, client_rt):
        rt.register_chunnel(SerializeFallback)
    client_rt.register_chunnel(FanInHost)
    if register_switch:
        world.discovery.register(FanInSwitch.meta, location="tor")
    workers = []
    addresses = []
    for index in range(shards):
        store = dict(preload[index]) if preload else {}
        worker = ShardWorker(server_rt.entity, 7101 + index, store=store)
        workers.append(worker)
        addresses.append(worker.address)
    dag = wrap(Serialize(codec="kv") >> FanIn(members=addresses))
    listener = server_rt.new("gather-srv", dag).listen(port=7100)
    return workers, addresses, client_rt, listener


PRELOAD = [{"a0": b"v0"}, {"a1": b"v1"}, {"a2": b"v2"}]


def drive_fanin_get(world, client_rt, key="a0"):
    def scenario(env):
        yield env.timeout(1e-4)
        endpoint = client_rt.new("gather-cl")
        conn = yield from endpoint.connect(Address("srv", 7100))
        node = conn.dag.find("fanin")[0]
        impl = type(conn.impls[node]).__name__
        conn.send(kv_request("get", key))
        reply = yield conn.recv()
        return impl, reply.payload

    return run(world.env, scenario(world.env))


class TestFanIn:
    def test_host_gather_combines_all_parts(self, two_hosts):
        _workers, _addrs, client_rt, _l = fanin_world(
            two_hosts, preload=PRELOAD
        )
        impl, reply = drive_fanin_get(two_hosts, client_rt, key="a1")
        assert impl == "FanInHost"
        assert reply["status"] == "not_found"  # 2 of 3 shards miss
        parts = split_combined_value(reply["value"])
        assert len(parts) == 3
        assert b"v1" in parts

    def test_switch_gather_matches_host_gather_bytes(self, two_hosts):
        _workers, _addrs, client_rt, _l = fanin_world(
            two_hosts, register_switch=True, preload=PRELOAD
        )
        impl, reply = drive_fanin_get(two_hosts, client_rt, key="a1")
        assert impl == "FanInSwitch"
        parts = split_combined_value(reply["value"])
        assert len(parts) == 3
        assert b"v1" in parts
        program = two_hosts.net.switches["tor"].programs[0]
        assert program.aggregated == 1
        assert program.absorbed == 2  # N-1 replies absorbed at the ToR

    def test_shared_switch_program_released_by_the_last_close(self, two_hosts):
        """Two connections share one refcounted aggregation program: the
        first close leaves it installed, the second uninstalls it and
        gives the switch its stages and SRAM back."""
        fanin_world(two_hosts, register_switch=True, preload=PRELOAD)
        switch = two_hosts.net.switches["tor"]
        client_rt = two_hosts.runtimes["cl"]
        free_before = (switch.stage_pool.available, switch.sram_pool.available)

        def scenario(env):
            yield env.timeout(1e-4)
            conns = []
            for name in ("gather-a", "gather-b"):
                conn = yield from client_rt.new(name).connect(Address("srv", 7100))
                conns.append(conn)
            return conns

        first, second = run(two_hosts.env, scenario(two_hosts.env))
        assert [type(c.impls[c.dag.find("fanin")[0]]).__name__ for c in (first, second)] == [
            "FanInSwitch",
            "FanInSwitch",
        ]
        assert len(switch.programs) == 1
        program = switch.programs[0]
        first.close()
        assert switch.programs == [program]
        second.close()
        assert switch.programs == []
        assert (switch.stage_pool.available, switch.sram_pool.available) == free_before

    def test_switch_and_host_gather_equivalent(self):
        """Same world, same traffic: byte-identical combined payloads."""
        from repro.discovery import DiscoveryService
        from repro.sim import Network

        payloads = []
        for register_switch in (False, True):
            net = Network()
            net.add_host("cl")
            net.add_host("srv")
            net.add_host("dsc")
            net.add_switch("tor")
            for name in ("cl", "srv", "dsc"):
                net.add_link(name, "tor", latency=5e-6)
            from ..conftest import World

            world = World(net, DiscoveryService(net.hosts["dsc"]))
            _w, _a, client_rt, _l = fanin_world(
                world, register_switch=register_switch, preload=PRELOAD
            )

            def scenario(env, client_rt=client_rt):
                yield env.timeout(1e-4)
                endpoint = client_rt.new("gather-cl")
                conn = yield from endpoint.connect(Address("srv", 7100))
                conn.send(kv_request("get", "a2"))
                reply = yield conn.recv()
                return bytes_of(reply)

            def bytes_of(reply):
                import struct

                value = reply.payload["value"]
                status = {"ok": 0, "not_found": 1, "error": 2}[
                    reply.payload["status"]
                ]
                return (
                    struct.pack(">BBI", 0x20, status, len(value)) + value
                )

            payloads.append(run(net.env, scenario(net.env)))
        assert payloads[0] == payloads[1]

    def test_switch_failure_degrades_to_host_gather(self, two_hosts):
        _workers, _addrs, client_rt, _l = fanin_world(
            two_hosts, register_switch=True, preload=PRELOAD
        )

        def scenario(env):
            yield env.timeout(1e-4)
            endpoint = client_rt.new("gather-cl")
            conn = yield from endpoint.connect(Address("srv", 7100))
            two_hosts.net.switches["tor"].fail()
            conn.send(kv_request("get", "a0"))
            reply = yield conn.recv()
            return reply.payload

        reply = run(two_hosts.env, scenario(two_hosts.env))
        # The failed switch ran no programs: raw replies reached the
        # client, whose stage gathered them itself.
        parts = split_combined_value(reply["value"])
        assert len(parts) == 3
        assert b"v0" in parts
