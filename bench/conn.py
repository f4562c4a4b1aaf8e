"""``conn_cold`` and ``conn_resumed``: what connection set-up costs (Fig. 3).

Sixteen client runtimes (four containers on each of four hosts) each loop
*think -> connect -> one echo -> close* against one echo server whose DAG is
``serialize |> reliable``.  Discovery is a :class:`DiscoveryShardTier` of
2 shards x 3 replicas behind a :class:`ShardRouter`, and the server's NIC
offers ``ReliableToe``, so every establishment also takes an RSM-logged
reservation.  The op is connect -> first reply.

The two workloads share the world and the schedule and differ in one knob:
``conn_cold`` runs with the negotiation cache off (discovery query + offer/
accept every time), ``conn_resumed`` with ``negotiation_cache_size=64`` and
one unmeasured warming connect per client, so every measured connect takes
the one-RTT resume path.

Closed loop, 16 clients.  The think time (uniform, 4-12 ms) keeps the
server's serial listener around 20 % busy: connects still queue behind one
another (p99 is ~1.6x p50) but the tail is not so heavy that it swings from
seed to seed.  Without think time the sixteen clients saturate the listener,
every connect queues behind fifteen others and cold and resumed read the
same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.apps.rpc import EchoServer
from repro.chunnels import (
    Reliable,
    ReliableFallback,
    ReliableToe,
    Serialize,
    SerializeFallback,
)
from repro.core import Runtime
from repro.core.dag import wrap
from repro.core.policy import PriorityFirstPolicy
from repro.discovery import DiscoveryShardTier, ShardedDiscoveryClient, ShardRouter
from repro.errors import BerthaError
from repro.sim import Network, SmartNic

from .outcome import Outcome

__all__ = ["generate_cold", "generate_resumed", "run", "build_world", "echo_dag"]

_US = 1e6
CLIENT_HOSTS = 4
CONTAINERS_PER_HOST = 4
DISCOVERY_SHARDS = 2
REPLICAS_PER_SHARD = 3
CACHE_SIZE = 64
LINK_LATENCY = 5e-6
SERVER_PORT = 7400
THINK_MEAN = 8e-3
PAYLOAD = 64
#: Virtual timeline.
CONNECT_AT = 1e-3
START_AT = 10e-3
#: Give-up horizon after the last scheduled think time (a lost message on
#: this clean fabric would otherwise wait forever).
HORIZON = 0.5


@dataclass(frozen=True)
class ConnInputs:
    resumed: bool
    #: clients x ops of ``(think seconds, payload bytes)``.
    streams: tuple


def _generate(seed: int, scale: float, resumed: bool) -> ConnInputs:
    count = max(int(64 * scale), 1)
    rng = random.Random(seed * 7919 + 2)
    streams = tuple(
        tuple(
            (
                rng.uniform(0.5 * THINK_MEAN, 1.5 * THINK_MEAN),
                rng.randint(PAYLOAD - PAYLOAD // 4, PAYLOAD + PAYLOAD // 4),
            )
            for _ in range(count)
        )
        for _ in range(CLIENT_HOSTS * CONTAINERS_PER_HOST)
    )
    return ConnInputs(resumed, streams)


def generate_cold(seed: int, scale: float = 1.0) -> ConnInputs:
    return _generate(seed, scale, resumed=False)


def generate_resumed(seed: int, scale: float = 1.0) -> ConnInputs:
    """Identical schedule to ``conn_cold``: same seed, same think times."""
    return _generate(seed, scale, resumed=True)


def echo_dag():
    return wrap(Serialize() >> Reliable())


def build_world(cache_size: int):
    """Echo server + 16 containerised client runtimes + sharded discovery."""
    net = Network()
    net.add_host("srv", nic=SmartNic(net.env, name="srv.nic", offload_slots=64))
    client_hosts = [net.add_host(f"cl{index}") for index in range(CLIENT_HOSTS)]
    shard_hosts = [
        [f"dsc-s{shard}r{replica}" for replica in range(REPLICAS_PER_SHARD)]
        for shard in range(DISCOVERY_SHARDS)
    ]
    for hosts in shard_hosts:
        for name in hosts:
            net.add_host(name)
    net.add_host("rtr")
    net.add_switch("tor")
    for name in list(net.hosts):
        net.add_link(name, "tor", latency=LINK_LATENCY)
    tier = DiscoveryShardTier(net, shard_hosts)
    router = ShardRouter(net.hosts["rtr"], tier.map)
    # A NIC offload with real resource accounting: every establishment (and
    # every resume revalidation) reserves through the shard's RSM log.
    tier.seed_record(ReliableToe.meta, "srv")

    def runtime_on(entity, **kwargs) -> Runtime:
        runtime = Runtime(
            entity,
            discovery=ShardedDiscoveryClient(entity, router.address),
            negotiation_cache_size=cache_size,
            **kwargs,
        )
        runtime.register_chunnel(SerializeFallback)
        runtime.register_chunnel(ReliableFallback)
        return runtime

    server = EchoServer(
        runtime_on(net.hosts["srv"], policy=PriorityFirstPolicy()),
        port=SERVER_PORT,
        dag=echo_dag(),
    )
    client_rts = [
        runtime_on(host.add_container(f"{host.name}c{slot}"))
        for host in client_hosts
        for slot in range(CONTAINERS_PER_HOST)
    ]
    return net, server, client_rts


def run(inputs: ConnInputs) -> Outcome:
    net, server, client_rts = build_world(CACHE_SIZE if inputs.resumed else 0)
    env = net.env
    latencies: list = []
    problems: list = []
    rates: list = []
    state = {"warm": 0}

    def one_op(runtime: Runtime, label: str, size: int):
        """Generator -> the op's latency in seconds, or None if it failed."""
        payload = label.encode().ljust(size, b".")
        started = env.now
        try:
            conn = yield from runtime.new(label, echo_dag()).connect(server.address)
        except BerthaError as error:
            problems.append(f"{label}: connect failed ({type(error).__name__})")
            return None
        conn.send(payload, size=size)
        reply = yield conn.recv()
        elapsed = env.now - started
        conn.close()
        if bytes(reply.payload) != payload:
            problems.append(f"{label}: echo payload did not round-trip")
            return None
        return elapsed

    def client(index: int, runtime: Runtime, stream: tuple):
        yield env.timeout(CONNECT_AT + index * 50e-6)
        if inputs.resumed:
            # Warm both negotiation caches; not a measured op.
            if (yield from one_op(runtime, f"warm-{index}", PAYLOAD)) is not None:
                state["warm"] += 1
        yield env.timeout(START_AT - env.now)
        done = 0
        for op, (think, size) in enumerate(stream):
            yield env.timeout(think)
            elapsed = yield from one_op(runtime, f"c{index}-{op}", size)
            if elapsed is not None:
                latencies.append(elapsed * _US)
                done += 1
        # This client's own rate, think time included; the sixteen add up
        # to the closed loop's throughput.
        rates.append(done / (env.now - START_AT))

    procs = [
        env.process(client(index, runtime, inputs.streams[index]))
        for index, runtime in enumerate(client_rts)
    ]
    longest = max(sum(think for think, _ in stream) for stream in inputs.streams)
    env.run(
        until=env.any_of(
            [env.all_of(procs), env.timeout(START_AT + longest + HORIZON)]
        )
    )

    attempted = sum(len(stream) for stream in inputs.streams)
    completed = len(latencies)
    if server.requests_served != completed + state["warm"]:
        problems.append(
            f"server echoed {server.requests_served} requests for "
            f"{completed + state['warm']} replies received"
        )
    failed = attempted - completed
    return Outcome(
        attempted=attempted,
        completed=completed,
        failed=failed,
        # A failed op misses any limit: entered at the give-up horizon.
        latencies_us=latencies + [HORIZON * _US] * failed,
        sustained_kops=sum(rates) / 1e3,
        reference=net,
        reference_ops=completed,
        worlds=[net],
        problems=problems,
        notes={
            "loop": f"closed, {len(client_rts)} clients, think "
            f"{0.5 * THINK_MEAN * 1e3:g}-{1.5 * THINK_MEAN * 1e3:g} ms",
            "negotiation_cache": CACHE_SIZE if inputs.resumed else 0,
        },
    )
