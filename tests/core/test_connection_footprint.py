"""What an established connection keeps resident.

A server holds every connection it accepted until the world ends (no
control message closes the server side yet), so its memory grows by the
footprint of one server-side connection per establishment: the
``Connection``, its two stores (data socket and inbox), its epoch's
binding (stack, stages, set-up contexts), its negotiation state, and its
registry sources.  The test builds a small echo world from the library with the
benchmark's ``conn_cold`` shape — ``serialize |> reliable`` to a server
whose SmartNIC offers ``ReliableToe``, discovery a 2 x 3 shard tier behind
a router — leaves the server side of every connection open, then closes
them and divides the bytes ``tracemalloc`` sees freed by their number.
"""

import gc
import tracemalloc

from repro.apps import EchoServer
from repro.chunnels import (
    Reliable,
    ReliableFallback,
    ReliableToe,
    Serialize,
    SerializeFallback,
)
from repro.core import Runtime
from repro.core.policy import PriorityFirstPolicy
from repro.discovery import DiscoveryShardTier, ShardedDiscoveryClient, ShardRouter
from repro.sim import Network, SmartNic

CLIENTS = 4
CONNECTS_PER_CLIENT = 8
#: Python-allocated bytes per open server connection.  Before connections
#: were slotted, stores held one queue and registry sources held no
#: closures, this world measured 15 289 on CPython 3.11 (14 569 on 3.10,
#: 15 060 on 3.12); after, 9 054 (10 118 on 3.10, 8 824 on 3.12).  With
#: one binding record per epoch and a negotiation state of just the
#: client's offer lists and the policy context, 7 197 on 3.11.
BUDGET = 11 * 1024


def _echo_world():
    net = Network()
    net.add_host("srv", nic=SmartNic(net.env, name="srv.nic", offload_slots=64))
    clients = [net.add_host(f"cl{index}") for index in range(CLIENTS)]
    shards = [[f"dsc-s{s}r{r}" for r in range(3)] for s in range(2)]
    for name in (name for hosts in shards for name in hosts):
        net.add_host(name)
    net.add_host("rtr")
    net.add_switch("tor")
    for name in list(net.hosts):
        net.add_link(name, "tor", latency=5e-6)
    tier = DiscoveryShardTier(net, shards)
    router = ShardRouter(net.hosts["rtr"], tier.map)
    tier.seed_record(ReliableToe.meta, "srv")

    def runtime_on(entity, **kwargs) -> Runtime:
        runtime = Runtime(
            entity, discovery=ShardedDiscoveryClient(entity, router.address), **kwargs
        )
        runtime.register_chunnel(SerializeFallback)
        runtime.register_chunnel(ReliableFallback)
        return runtime

    server = EchoServer(
        runtime_on(net.hosts["srv"], policy=PriorityFirstPolicy()),
        port=7400,
        dag=Serialize() >> Reliable(),
    )
    return net, server, [runtime_on(host) for host in clients]


def _bytes_per_open_server_connection() -> tuple[int, float]:
    net, server, client_rts = _echo_world()
    env = net.env

    def client(index, runtime):
        yield env.timeout(1e-3 + index * 50e-6)
        for op in range(CONNECTS_PER_CLIENT):
            endpoint = runtime.new(f"c{index}-{op}", Serialize() >> Reliable())
            conn = yield from endpoint.connect(server.address)
            conn.send(b"x" * 64, size=64)
            yield conn.recv()
            conn.close()
            yield env.timeout(2e-3)

    procs = [env.process(client(i, rt)) for i, rt in enumerate(client_rts)]
    env.run(until=env.all_of(procs))
    gc.collect()
    held = list(server.listener.connections)
    count = len(held)
    before = tracemalloc.get_traced_memory()[0]
    while held:
        held.pop().close()
    gc.collect()
    freed = before - tracemalloc.get_traced_memory()[0]
    return count, freed / count


def test_an_open_server_connection_costs_at_most_its_budget():
    tracemalloc.start()
    try:
        count, per_connection = _bytes_per_open_server_connection()
    finally:
        tracemalloc.stop()
    assert count == CLIENTS * CONNECTS_PER_CLIENT
    assert per_connection <= BUDGET, f"{per_connection:.0f} B per open connection"
