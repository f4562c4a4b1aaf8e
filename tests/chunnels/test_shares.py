"""Each offload installs once per runtime and is removed with its last user.

Two connections bind the same offload: the second reuses the first's
install, closing the first keeps it, closing the second removes it, and the
runtime keeps no share that could still be destroyed.
"""

import pytest

from repro.apps import KvClient, KvServer
from repro.chunnels import (
    FanInSwitch,
    KvCacheSwitch,
    SerializeFallback,
    ShardServerFallback,
    ShardSwitch,
    ShardXdp,
)
from repro.sim import Address

from ..conftest import run
from .test_offload import PRELOAD, cache_world, fanin_world


def _device_programs(world) -> list:
    return world.net.hosts["srv"].kernel_programs + world.net.switches["tor"].programs


def _shard_world(world, offload, location):
    server_rt = world.runtime("srv")
    client_rt = world.runtime("cl")
    for rt in (server_rt, client_rt):
        rt.register_chunnel(SerializeFallback)
    if offload is ShardServerFallback:
        server_rt.register_chunnel(offload)
    else:
        world.discovery.register(offload.meta, location=location)
    server = KvServer(server_rt, port=7100)

    def connect_two(env):
        for _ in range(2):
            yield from KvClient(client_rt).connect(Address("srv", 7100))
        return list(server.listener.connections)

    return server_rt, connect_two


def _cache_world(world):
    server, client_rt = cache_world(world)

    def connect_two(env):
        for _ in range(2):
            yield from KvClient(client_rt).connect(Address("srv", 7100))
        return list(server.listener.connections)

    return server.runtime, connect_two


def _fanin_world(world):
    _workers, _addresses, client_rt, _listener = fanin_world(
        world, register_switch=True, preload=PRELOAD
    )

    def connect_two(env):
        conns = []
        for name in ("gather-a", "gather-b"):
            conns.append((yield from client_rt.new(name).connect(Address("srv", 7100))))
        return conns

    return client_rt, connect_two


def _sharders(conns) -> list:
    """The distinct running sharders the connections' stages feed."""
    running = {
        id(stage.sharder): stage.sharder
        for conn in conns
        for stage in conn.binding.stages.values()
        if hasattr(stage, "sharder") and not stage.sharder._stopping
    }
    return list(running.values())


OFFLOADS = {
    "server-fallback": (
        lambda world: _shard_world(world, ShardServerFallback, None),
        ShardServerFallback,
        1,
    ),
    "xdp": (lambda world: _shard_world(world, ShardXdp, "srv"), ShardXdp, 1),
    "p4": (lambda world: _shard_world(world, ShardSwitch, "tor"), ShardSwitch, 1),
    "kvcache": (_cache_world, KvCacheSwitch, 2),
    "fanin": (_fanin_world, FanInSwitch, 1),
}


@pytest.mark.parametrize("name", sorted(OFFLOADS))
def test_two_connections_share_one_install(two_hosts, name):
    build, offload, programs = OFFLOADS[name]
    runtime, connect_two = build(two_hosts)

    def scenario(env):
        yield env.timeout(1e-4)
        return (yield from connect_two(env))

    first, second = run(two_hosts.env, scenario(two_hosts.env))
    for conn in (first, second):
        assert offload in {type(impl) for impl in conn.impls.values()}

    def installed() -> list:
        if offload is ShardServerFallback:
            return _sharders([first, second])
        return _device_programs(two_hosts)

    # One install, whichever connection came first.
    before = installed()
    assert len(before) == programs
    first.close()
    assert installed() == before
    second.close()
    assert installed() == []
    assert [key for key, entry in runtime.shared.items() if entry.destroy] == []
