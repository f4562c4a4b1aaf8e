"""``kv_fastpath`` and ``kv_offload_mix``: the Fig. 5 shape, open loop.

Both drive the 3-shard :class:`~repro.apps.kvstore.KvServer` from two client
hosts with Poisson arrivals, a YCSB op stream and scrambled-Zipfian keys, up a
fixed four-rung rate ladder.  Every rung is a fresh world; the latency sample
is the second rung's.  They differ in how the same delivery layer is used:

``kv_fastpath``
    ``client_push`` sharding, 64 B values, no packet programs anywhere: every
    datagram rides the fused ``_Walk`` path.

``kv_offload_mix``
    ``KvCacheSwitch`` at the ToR, 4 KiB values, 35 % writes: read hits are
    answered by a station-less program inline in the fast path, misses go on
    to the workers, and every write also crosses the switch's control-path
    station -- the slot-structured cold path.  ``ShardXdp`` binds in the same
    DAG but starves the cache (the switch watches worker ports, XDP rewrites
    the port only after the ToR), so sharding stays ``client_push``.

Each client owns its own key namespace, so every key has one writer, writes
to a key apply in send order, and "a GET returns the last PUT" is checkable
exactly: the version a GET returns must lie between the newest version
acknowledged when the GET was sent and the newest version issued when its
reply arrived.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.apps.kvstore import KV_SHARD_FN, KvServer, kv_request
from repro.chunnels import (
    KvCache,
    KvCacheHostPath,
    KvCacheSwitch,
    SerializeFallback,
    ShardClientFallback,
)
from repro.chunnels.serialize import get_codec
from repro.core import Runtime
from repro.core.dag import wrap
from repro.discovery import DiscoveryService
from repro.sim import Address, Network, SmartNic
from repro.workloads import (
    PoissonArrivals,
    ScrambledZipfianChooser,
    WorkloadSpec,
    YcsbWorkload,
)

from .outcome import Outcome
from .stats import percentile

__all__ = ["generate_fastpath", "generate_offload", "run", "build_world"]

_US = 1e6
CLIENTS = ("cl1", "cl2")
SHARDS = 3
KEYS_PER_CLIENT = 150
WORKER_SERVICE = 4e-6
CACHE_CAPACITY = 64
CACHE_WRITE_COST = 24e-6
LINK_LATENCY = 5e-6
SERVER_PORT = 7100
#: Virtual timeline of one rung.
CONNECT_AT = 1e-3
START_AT = 3e-3
#: How long after its last send a client waits for replies.  Generous: the
#: overloaded rungs queue tens of milliseconds of work by design, and that
#: backlog must drain, not be counted as failed ops.
DRAIN = 0.2
#: The latency sample is this rung's (the second of four).
REFERENCE_RUNG = 1


@dataclass(frozen=True)
class KvInputs:
    """Everything one repeat needs, generated from the seed alone."""

    offload: bool
    #: Offered rates of the ladder, ops per virtual second (both clients).
    rungs: tuple
    #: p99 limit a rung must meet to count as sustained, virtual microseconds.
    limit_us: float
    #: rungs x clients x ops of ``(gap seconds, "get" | "put", key)``.
    streams: tuple
    #: key -> value size in bytes (drawn around the nominal size so that no
    #: latency is a constant of the model).
    sizes: dict


def _generate(
    seed: int,
    scale: float,
    *,
    offload: bool,
    rungs: tuple,
    limit_us: float,
    ops_per_client: int,
    write_fraction: float,
    theta: float,
    value_size: int,
) -> KvInputs:
    count = max(int(ops_per_client * scale), 20)
    sizes_rng = random.Random(seed * 7919 + 1)
    sizes = {
        f"{client}-user{index:012d}": sizes_rng.randint(
            value_size - value_size // 8, value_size + value_size // 8
        )
        for client in CLIENTS
        for index in range(KEYS_PER_CLIENT)
    }
    streams = []
    for rung, rate in enumerate(rungs):
        per_client = []
        for index, client in enumerate(CLIENTS):
            stream_seed = seed * 1000 + rung * 10 + index
            # YCSB-B drives both; the offload mix overrides the write share
            # and the skew on the same generator and key stream.
            ycsb = YcsbWorkload(
                WorkloadSpec(
                    workload="B",
                    record_count=KEYS_PER_CLIENT,
                    operation_count=count,
                    value_size=1,
                    seed=stream_seed,
                )
            )
            ycsb.mix = {"read": 1.0 - write_fraction, "update": write_fraction}
            ycsb.chooser = ScrambledZipfianChooser(
                KEYS_PER_CLIENT, theta=theta, seed=stream_seed
            )
            arrivals = PoissonArrivals(rate / len(CLIENTS), seed=stream_seed)
            per_client.append(
                tuple(
                    (
                        arrivals.next_gap(),
                        "get" if op["op"] == "read" else "put",
                        f"{client}-{op['key']}",
                    )
                    for op in ycsb.operations()
                )
            )
        streams.append(tuple(per_client))
    return KvInputs(offload, rungs, limit_us, tuple(streams), sizes)


def generate_fastpath(seed: int, scale: float = 1.0) -> KvInputs:
    """YCSB-B (5 % writes), Zipf 0.99, 64 B values; rungs bracket the
    ~750 kqps aggregate worker capacity (less for the hottest shard)."""
    return _generate(
        seed,
        scale,
        offload=False,
        rungs=(200e3, 400e3, 800e3, 1200e3),
        limit_us=200.0,
        ops_per_client=3000,
        write_fraction=0.05,
        theta=0.99,
        value_size=64,
    )


def generate_offload(seed: int, scale: float = 1.0) -> KvInputs:
    """35 % writes (the recorded cached ~ host crossover), Zipf 0.9, 4 KiB
    values; rungs bracket the 24 us write-through station (~119 kqps)."""
    return _generate(
        seed,
        scale,
        offload=True,
        rungs=(40e3, 80e3, 160e3, 320e3),
        limit_us=500.0,
        ops_per_client=3000,
        write_fraction=0.35,
        theta=0.9,
        value_size=4096,
    )


def _value(key: str, version: int, size: int) -> bytes:
    return f"{key}#{version}#".encode().ljust(size, b".")


def build_world(inputs: KvInputs):
    net = Network()
    net.add_host("srv")
    for name in CLIENTS:
        # On the offload mix each client sits behind a SmartNIC, so every
        # request pays one PCIe crossing sized by its 4 KiB payload.
        nic = SmartNic(net.env, name=f"{name}.nic") if inputs.offload else None
        net.add_host(name, nic=nic)
    net.add_host("dsc")
    net.add_switch("tor")
    for name in ("srv", *CLIENTS, "dsc"):
        net.add_link(name, "tor", latency=LINK_LATENCY)
    discovery = DiscoveryService(net.hosts["dsc"])

    server_rt = Runtime(net.hosts["srv"], discovery=discovery.address)
    server_rt.register_chunnel(SerializeFallback)
    extra_dag = None
    if inputs.offload:
        server_rt.register_chunnel(KvCacheHostPath)
        discovery.register(KvCacheSwitch.meta, location="tor")
        workers = [Address("srv", 7101 + index) for index in range(SHARDS)]
        extra_dag = wrap(
            KvCache(
                choices=workers,
                capacity=CACHE_CAPACITY,
                write_cost=CACHE_WRITE_COST,
            )
        )
    client_rts = []
    for name in CLIENTS:
        runtime = Runtime(net.hosts[name], discovery=discovery.address)
        runtime.register_chunnel(SerializeFallback)
        runtime.register_chunnel(ShardClientFallback)
        client_rts.append(runtime)
    server = KvServer(
        server_rt,
        port=SERVER_PORT,
        shards=SHARDS,
        worker_service_time=WORKER_SERVICE,
        extra_dag=extra_dag,
    )
    # Load phase: populate the shard stores directly at version 0 (not part
    # of the run; the switch's SRAM starts cold).
    codec = get_codec("kv")
    for key, size in inputs.sizes.items():
        shard = KV_SHARD_FN.bucket(codec.encode(kv_request("get", key)), {}, SHARDS)
        server.workers[shard].store[key] = _value(key, 0, size)
    return net, client_rts


def _run_rung(inputs: KvInputs, rung: int) -> dict:
    """One world at one offered rate; returns the rung's raw tallies."""
    net, client_rts = build_world(inputs)
    env = net.env
    sizes = inputs.sizes
    expected_impls = {"serialize": "SerializeFallback", "shard": "ShardClientFallback"}
    if inputs.offload:
        expected_impls["kvcache"] = "KvCacheSwitch"
    issued = dict.fromkeys(sizes, 0)
    acked = dict.fromkeys(sizes, 0)
    tally = {
        "latencies": [],
        "attempted": 0,
        "problems": [],
        "lateness": 0.0,
        "first_due": None,
        "last_done": 0.0,
        "impls": {},
    }
    problems = tally["problems"]
    latencies = tally["latencies"]

    def client(index: int, runtime: Runtime, stream: tuple):
        yield env.timeout(CONNECT_AT + index * 100e-6)
        conn = yield from runtime.new(f"kv-client-{index}").connect(
            Address("srv", SERVER_PORT)
        )
        impls = {
            conn.dag.nodes[node].type_name: type(conn.impls[node]).__name__
            for node in conn.dag.topological_order()
        }
        tally["impls"] = impls
        if impls != expected_impls:
            problems.append(f"negotiated {impls}, expected {expected_impls}")
        yield env.timeout(START_AT - env.now)
        #: rpc id -> (sent at, op, key, version floor or version written)
        pending: dict = {}

        def receiver():
            for _ in range(len(stream)):
                msg = yield conn.recv()
                entry = pending.pop(msg.headers.get("rpc_id"), None)
                if entry is None:
                    problems.append("reply matches no outstanding request")
                    continue
                sent_at, op, key, version = entry
                reply = msg.payload
                if op == "put":
                    if reply["status"] != "ok":
                        problems.append(f"PUT {key} -> {reply['status']}")
                        continue
                    acked[key] = max(acked[key], version)
                else:
                    value = reply["value"]
                    head = value.split(b"#", 2)
                    if (
                        reply["status"] != "ok"
                        or len(value) != sizes[key]
                        or len(head) != 3
                        or head[0] != key.encode()
                        or not version <= int(head[1]) <= issued[key]
                    ):
                        problems.append(f"GET {key}: wrong or stale value")
                        continue
                latencies.append((env.now - sent_at) * _US)
                tally["last_done"] = env.now

        rx = env.process(receiver(), name=f"kv-rx-{index}")
        due = env.now
        for rpc_id, (gap, op, key) in enumerate(stream):
            yield env.timeout(gap)
            # The same float operation the kernel used to place the wake-up,
            # so an on-time generator reads exactly zero.
            due = due + gap
            tally["lateness"] = max(tally["lateness"], env.now - due)
            if tally["first_due"] is None or due < tally["first_due"]:
                tally["first_due"] = due
            if op == "put":
                issued[key] += 1
                version = issued[key]
                request = kv_request("put", key, _value(key, version, sizes[key]))
            else:
                version = acked[key]
                request = kv_request("get", key)
            pending[rpc_id] = (env.now, op, key, version)
            tally["attempted"] += 1
            conn.send(request, headers={"rpc_id": rpc_id})
        yield env.any_of([rx, env.timeout(DRAIN)])

    procs = [
        env.process(client(index, runtime, inputs.streams[rung][index]))
        for index, runtime in enumerate(client_rts)
    ]
    env.run(until=env.all_of(procs))
    tally["net"] = net
    return tally


def run(inputs: KvInputs) -> Outcome:
    """One repeat: every rung of the ladder, each in a fresh world."""
    tallies = [_run_rung(inputs, rung) for rung in range(len(inputs.rungs))]
    rows = []
    sustained = 0.0
    for offered, tally in zip(inputs.rungs, tallies):
        done = len(tally["latencies"])
        failed = tally["attempted"] - done
        # A failed op misses any limit: it enters the sample at the drain
        # time-out, the moment the harness gave up on it.
        tally["sample"] = sorted(tally["latencies"]) + [DRAIN * _US] * failed
        p99 = percentile(tally["sample"], 99)
        span = tally["last_done"] - tally["first_due"]
        rate_kops = done / span / 1e3 if span > 0 else 0.0
        passed = failed == 0 and p99 <= inputs.limit_us
        if passed:
            sustained = rate_kops
        rows.append(
            {
                "offered_kops": offered / 1e3,
                "measured_kops": rate_kops,
                "p50_us": percentile(tally["sample"], 50),
                "p99_us": p99,
                "failed": failed,
                "sustained": passed,
            }
        )
    problems = [p for tally in tallies for p in tally["problems"][:5]]
    if not sustained:
        problems.append("no rung of the ladder met the latency limit")
    attempted = sum(tally["attempted"] for tally in tallies)
    completed = sum(len(tally["latencies"]) for tally in tallies)
    reference = tallies[REFERENCE_RUNG]
    return Outcome(
        attempted=attempted,
        completed=completed,
        failed=attempted - completed,
        latencies_us=reference["sample"],
        sustained_kops=sustained,
        reference=reference["net"],
        reference_ops=len(reference["latencies"]),
        worlds=[tally["net"] for tally in tallies],
        lateness_us=max(tally["lateness"] for tally in tallies) * _US,
        problems=problems,
        notes={
            "loop": "open, Poisson, 2 clients",
            "ladder": rows,
            "limit_us": inputs.limit_us,
            "reference_rung": REFERENCE_RUNG,
            "impls": reference["impls"],
        },
    )
