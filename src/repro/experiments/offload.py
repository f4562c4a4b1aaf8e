"""In-switch compute offloads — the Fig. 5-style crossover sweep.

Six seeded, virtual-time phases over the two offload shapes in
:mod:`repro.chunnels.offload`:

**Skew sweep.**  A sharded KV server whose DAG carries a ``kvcache`` node;
the same open-loop workload (fixed read/write mix, swept Zipf skew) runs
twice per point — once with :class:`~repro.chunnels.KvCacheSwitch`
registered at the ToR and once with only the
:class:`~repro.chunnels.KvCacheHostPath` fallback.  The cache is populated
exclusively by write-through (switch SRAM starts cold), so its hit rate —
and therefore its latency win — grows with skew: hot keys are written
often enough to stay resident in the small register array.

**Write-mix sweep.**  Same worlds, fixed (high) skew, swept write
fraction.  GET hits ride the station-less line-rate path, but every
PUT/DELETE crosses the switch's single-server control path
(``write_cost`` seconds each): as the write rate approaches the control
CPU's capacity the queue grows and the cached world *loses* to the plain
host path — the offload's saturation mode, the other arm of the
crossover.

**Coherence.**  A closed-loop PUT/GET/PUT/GET/DELETE/GET sequence through
the cached world, asserted exactly: no GET observes a stale value after a
PUT is acknowledged (write-through updates the cache as the packet
transits, before the worker applies), and a DELETE leaves ``not_found``.

**Fan-in equivalence.**  The scatter/gather RPC runs the same request
stream through a host-gather world and a switch-gather world; the
combined replies must be byte-identical (same digest), with the switch
absorbing exactly N−1 reply datagrams per request.

**Mid-run switch failure.**  The cached world under open-loop load with
``auto_reconfig``: the ToR fails mid-run (SRAM wiped, programs skipped,
the listener renegotiates to the host path) and later recovers.  Every
request must be answered exactly once — no duplicates, no loss — across
both edges.

**Scheduler contention.**  Both switch offloads want the same ToR, whose
SRAM cannot hold both.  A :class:`~repro.core.PriorityScheduler` at the
discovery service preempts the lower-priority aggregator lease when the
cache arrives (``select_victims``), and a :class:`~repro.core.DrfScheduler`
plans the same batch offline — its denied list must come back in arrival
order (the bit-identical CI discipline).

``BENCH_offload.json`` records all six; two same-seed runs export
byte-identical ``--metrics-out`` documents (CI diffs two ``all --smoke``
passes) and the command exits non-zero if any invariant is violated.
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass, field
from typing import Optional

from ..apps.kvstore import (
    KV_SHARD_FN,
    KvClient,
    KvServer,
    ShardWorker,
    kv_request,
)
from ..chunnels import (
    FanIn,
    FanInHost,
    FanInSwitch,
    KvCache,
    KvCacheHostPath,
    KvCacheSwitch,
    Serialize,
    SerializeFallback,
    ShardClientFallback,
    split_combined_value,
)
from ..chunnels.offload import _FanInClientStage
from ..chunnels.serialize import get_codec
from ..core import Runtime
from ..core.dag import wrap
from ..core.policy import PriorityFirstPolicy
from ..core.scheduler import DrfScheduler, OffloadRequest, PriorityScheduler
from ..discovery import DiscoveryService
from ..metrics import format_table
from ..sim import Address, Network
from ..workloads import PoissonArrivals, ScrambledZipfianChooser, UniformChooser
from ._result import ExperimentResult

__all__ = ["OffloadConfig", "OffloadResult", "run_offload"]

_US = 1e6

# -- the cached KV worlds ----------------------------------------------------
RECORD_COUNT = 96
KEYS = tuple(f"k{i:04d}" for i in range(RECORD_COUNT))
CACHE_CAPACITY = 16
VALUE_SIZE = 48
SHARDS = 3
WORKER_SERVICE_TIME = 6.0e-6
#: Control-path seconds per cache-maintenance op.  The station has one
#: server, so write rates near ``1 / CACHE_WRITE_COST`` queue — the
#: saturation arm of the crossover.
CACHE_WRITE_COST = 24.0e-6
#: Client and discovery sit one short hop from the ToR; the server
#: link is longer, so a ToR cache hit saves a meaningful round trip.
NEAR_LATENCY = 5e-6
SERVER_LATENCY = 10e-6
# -- sweeps ------------------------------------------------------------------
OFFERED_LOAD = 50_000.0
REQUESTS_PER_POINT = 420
#: Swept Zipf skew (YCSB theta; 0.0 means uniform) at a fixed
#: read-heavy mix.
SKEW_POINTS = (0.0, 0.5, 0.9, 0.99)
SKEW_WRITE_FRACTION = 0.1
#: Swept write fraction at a fixed high skew.
MIX_POINTS = (0.05, 0.35, 0.65, 0.9)
MIX_SKEW = 0.9
ESTABLISH_AT = 1e-3
DRAIN_TIMEOUT = 0.05
# -- fan-in ------------------------------------------------------------------
FANIN_MEMBERS = 3
FANIN_REQUESTS = 24
# -- mid-run switch failure --------------------------------------------------
FAIL_REQUESTS = 200
FAIL_LOAD = 25_000.0
FAIL_WRITE_FRACTION = 0.1
FAIL_SKEW = 0.9
FAIL_AT = 4e-3
RECOVER_AT = 7e-3
FAIL_DEADLINE = 0.08


@dataclass
class OffloadConfig:
    """The seed of all six phases; the default run is already CI-sized."""

    seed: int = 7

    @classmethod
    def smoke(cls, seed: int = 7) -> "OffloadConfig":
        """The CI tier — the default run already takes seconds."""
        return cls(seed=seed)


@dataclass
class OffloadResult(ExperimentResult):
    """Both sweeps plus the correctness phases' accounting."""

    NAME = "offload"

    #: Per skew point: cached vs host mean latency and the cache hit rate.
    skew_sweep: list
    #: Per write-fraction point: the saturation arm.
    mix_sweep: list
    coherence: dict
    fanin: dict
    failover: dict
    contention: dict
    config: OffloadConfig = field(repr=False)
    metrics: dict = field(default_factory=dict, repr=False)

    @property
    def invariants(self) -> dict[str, bool]:
        completed = all(
            row["cached_completed"] == REQUESTS_PER_POINT
            and row["host_completed"] == REQUESTS_PER_POINT
            for row in self.skew_sweep + self.mix_sweep
        )
        return {
            # The crossover, arm one: the cache wins under high skew and
            # its hit rate grows with skew (cold SRAM, write-through only).
            "cache_wins_high_skew": (
                self.skew_sweep[-1]["cached_us"] < self.skew_sweep[-1]["host_us"]
            ),
            "hit_rate_rises_with_skew": (
                self.skew_sweep[-1]["hit_rate"] > self.skew_sweep[0]["hit_rate"]
            ),
            # Arm two: the control path saturates on write-heavy mixes.
            "cache_wins_read_heavy": (
                self.mix_sweep[0]["cached_us"] < self.mix_sweep[0]["host_us"]
            ),
            "cache_saturates_on_writes": (
                self.mix_sweep[-1]["cached_us"] > self.mix_sweep[-1]["host_us"]
            ),
            "sweeps_zero_loss": completed,
            # Cache coherence: write-through means no stale read after an
            # acknowledged PUT, and DELETE invalidates.
            "no_stale_after_put": self.coherence["fresh_after_put"],
            "delete_invalidates": self.coherence["not_found_after_delete"],
            "coherence_served_from_cache": self.coherence["served_from_cache"],
            # Fan-in: both gather placements produce identical bytes and
            # the switch absorbs exactly N-1 replies per request.
            "fanin_byte_identical": self.fanin["identical"],
            "fanin_absorbs_replies": (
                self.fanin["absorbed"] == (FANIN_MEMBERS - 1) * FANIN_REQUESTS
            ),
            # Exactly-once across the failure and recovery edges.
            "failover_exactly_once": (
                self.failover["duplicates"] == 0 and self.failover["lost"] == 0
            ),
            "failover_reconfigured": self.failover["transitions"] >= 1,
            # Scheduling: priority preemption fired and DRF's denied list
            # is in arrival order.
            "priority_preempts_aggregator": (
                self.contention["cache_granted"]
                and self.contention["preempted"] == 1
            ),
            "drf_denied_in_arrival_order": self.contention["drf_denied_ok"],
        }

    def rows(self) -> list[dict]:
        out = []
        for row in self.skew_sweep:
            out.append(
                {
                    "sweep": "skew",
                    "x": row["skew"],
                    "cached_us": round(row["cached_us"], 1),
                    "host_us": round(row["host_us"], 1),
                    "hit_rate": round(row["hit_rate"], 3),
                    "winner": (
                        "cache" if row["cached_us"] < row["host_us"] else "host"
                    ),
                }
            )
        for row in self.mix_sweep:
            out.append(
                {
                    "sweep": "write-mix",
                    "x": row["write_fraction"],
                    "cached_us": round(row["cached_us"], 1),
                    "host_us": round(row["host_us"], 1),
                    "hit_rate": round(row["hit_rate"], 3),
                    "winner": (
                        "cache" if row["cached_us"] < row["host_us"] else "host"
                    ),
                }
            )
        return out

    def render_body(self) -> list[str]:
        return [
            format_table(self.rows()),
            "",
            (
                f"fan-in: host and switch gathers "
                f"{'byte-identical' if self.fanin['identical'] else 'DIVERGED'}; "
                f"switch aggregated {self.fanin['aggregated']}, "
                f"absorbed {self.fanin['absorbed']} replies"
            ),
            (
                f"failover: {self.failover['offered']} offered, "
                f"{self.failover['delivered']} delivered, "
                f"{self.failover['duplicates']} duplicates, "
                f"{self.failover['lost']} lost, "
                f"{self.failover['transitions']} transitions"
            ),
            (
                f"contention: {self.contention['preempted']} lease preempted "
                f"for the cache; DRF granted "
                f"{self.contention['drf_granted']}, denied "
                f"{self.contention['drf_denied']}"
            ),
        ]

    def baseline_body(self) -> dict:
        return {
            "skew_sweep": [
                {
                    "skew": row["skew"],
                    "cached_us": round(row["cached_us"], 3),
                    "host_us": round(row["host_us"], 3),
                    "hit_rate": round(row["hit_rate"], 4),
                }
                for row in self.skew_sweep
            ],
            "mix_sweep": [
                {
                    "write_fraction": row["write_fraction"],
                    "cached_us": round(row["cached_us"], 3),
                    "host_us": round(row["host_us"], 3),
                    "hit_rate": round(row["hit_rate"], 4),
                }
                for row in self.mix_sweep
            ],
            "coherence": self.coherence,
            "fanin": self.fanin,
            "failover": self.failover,
            "contention": self.contention,
        }

    def metrics_body(self) -> dict:
        """Both sweeps at full precision, the correctness phases, and the
        switch-failure world's registry snapshot."""
        return {
            "skew_sweep": [
                {
                    "skew": row["skew"],
                    "cached_us": round(row["cached_us"], 6),
                    "host_us": round(row["host_us"], 6),
                    "hit_rate": round(row["hit_rate"], 6),
                    "cached_completed": row["cached_completed"],
                    "host_completed": row["host_completed"],
                }
                for row in self.skew_sweep
            ],
            "mix_sweep": [
                {
                    "write_fraction": row["write_fraction"],
                    "cached_us": round(row["cached_us"], 6),
                    "host_us": round(row["host_us"], 6),
                    "hit_rate": round(row["hit_rate"], 6),
                    "cached_completed": row["cached_completed"],
                    "host_completed": row["host_completed"],
                }
                for row in self.mix_sweep
            ],
            "coherence": self.coherence,
            "fanin": self.fanin,
            "failover": self.failover,
            "contention": self.contention,
            "world": self.metrics,
        }


# --------------------------------------------------------------------------
# The cached KV world
# --------------------------------------------------------------------------
def _build_cache_world(cached: bool, auto_reconfig: bool = False):
    """Server + client + ToR; the switch cache registered when ``cached``."""
    net = Network()
    for name in ("cl", "srv", "dsc"):
        net.add_host(name)
    net.add_switch("tor")
    net.add_link("cl", "tor", latency=NEAR_LATENCY)
    net.add_link("dsc", "tor", latency=NEAR_LATENCY)
    net.add_link("srv", "tor", latency=SERVER_LATENCY)
    discovery = DiscoveryService(net.hosts["dsc"])

    server_rt = Runtime(net.entity("srv"), discovery=discovery.address)
    server_rt.register_chunnel(SerializeFallback)
    server_rt.register_chunnel(KvCacheHostPath)
    client_rt = Runtime(net.entity("cl"), discovery=discovery.address)
    client_rt.register_chunnel(SerializeFallback)
    client_rt.register_chunnel(ShardClientFallback)

    workers = [Address("srv", 7101 + i) for i in range(SHARDS)]
    if cached:
        discovery.register(KvCacheSwitch.meta, location="tor")
    server = KvServer(
        server_rt,
        port=7100,
        shards=SHARDS,
        worker_service_time=WORKER_SERVICE_TIME,
        extra_dag=wrap(
            KvCache(
                choices=workers,
                capacity=CACHE_CAPACITY,
                write_cost=CACHE_WRITE_COST,
            )
        ),
        auto_reconfig=auto_reconfig,
    )
    return net, server, server_rt, client_rt


def _value(key: str) -> bytes:
    return f"v:{key}".encode().ljust(VALUE_SIZE, b".")


def _preload(server: KvServer) -> None:
    """Populate the shard stores directly (switch SRAM stays cold)."""
    codec = get_codec("kv")
    for key in KEYS:
        encoded = codec.encode(kv_request("put", key, b""))
        index = KV_SHARD_FN.bucket(encoded, {}, len(server.workers))
        server.workers[index].store[key] = _value(key)


def _chooser(skew: float, seed: int):
    if skew <= 0.0:
        return UniformChooser(RECORD_COUNT, seed=seed)
    return ScrambledZipfianChooser(RECORD_COUNT, theta=skew, seed=seed)


def _run_point(
    cached: bool, skew: float, write_fraction: float, workload_seed: int
) -> dict:
    """One world, one open-loop workload; returns latency + cache stats."""
    net, server, _server_rt, client_rt = _build_cache_world(cached)
    _preload(server)
    env = net.env
    chooser = _chooser(skew, workload_seed)
    op_rng = random.Random(workload_seed + 1)
    arrivals = PoissonArrivals(OFFERED_LOAD, seed=workload_seed + 2)
    latencies: list[float] = []
    send_times: dict[int, float] = {}

    def driver():
        yield env.timeout(ESTABLISH_AT)
        client = KvClient(client_rt)
        conn = yield from client.connect(Address("srv", 7100))

        def receiver(env):
            received = 0
            while received < REQUESTS_PER_POINT:
                msg = yield conn.recv()
                rpc_id = msg.headers.get("rpc_id")
                if rpc_id in send_times:
                    latencies.append(env.now - send_times.pop(rpc_id))
                    received += 1

        receiver_proc = env.process(receiver(env), name="offload.rx")
        for index in range(REQUESTS_PER_POINT):
            yield env.timeout(arrivals.next_gap())
            key = KEYS[chooser.next_index()]
            if op_rng.random() < write_fraction:
                request = kv_request("put", key, _value(key))
            else:
                request = kv_request("get", key)
            send_times[index] = env.now
            conn.send(request, headers={"rpc_id": index})
        deadline = env.timeout(DRAIN_TIMEOUT)
        yield env.any_of([receiver_proc, deadline])

    proc = env.process(driver(), name="offload.driver")
    env.run(until=proc)

    hits = misses = writes = 0
    if cached:
        switch = net.switches["tor"]
        reader = next(p for p in switch.programs if p.name.endswith("/read"))
        hits, misses = reader.state.hits, reader.state.misses
        writes = reader.state.writes
    looked_up = hits + misses
    return {
        "mean_us": (sum(latencies) / len(latencies)) * _US if latencies else float("inf"),
        "completed": len(latencies),
        "hit_rate": hits / looked_up if looked_up else 0.0,
        "hits": hits,
        "misses": misses,
        "writes": writes,
        "served_by_store": server.requests_served,
    }


def _run_sweeps(seed: int) -> tuple[list, list]:
    skew_sweep = []
    for index, skew in enumerate(SKEW_POINTS):
        point_seed = seed + 17 * index
        cached = _run_point(True, skew, SKEW_WRITE_FRACTION, point_seed)
        host = _run_point(False, skew, SKEW_WRITE_FRACTION, point_seed)
        skew_sweep.append(
            {
                "skew": skew,
                "cached_us": cached["mean_us"],
                "host_us": host["mean_us"],
                "hit_rate": cached["hit_rate"],
                "cached_completed": cached["completed"],
                "host_completed": host["completed"],
            }
        )
    mix_sweep = []
    for index, write_fraction in enumerate(MIX_POINTS):
        point_seed = seed + 1000 + 17 * index
        cached = _run_point(True, MIX_SKEW, write_fraction, point_seed)
        host = _run_point(False, MIX_SKEW, write_fraction, point_seed)
        mix_sweep.append(
            {
                "write_fraction": write_fraction,
                "cached_us": cached["mean_us"],
                "host_us": host["mean_us"],
                "hit_rate": cached["hit_rate"],
                "cached_completed": cached["completed"],
                "host_completed": host["completed"],
            }
        )
    return skew_sweep, mix_sweep


# --------------------------------------------------------------------------
# Coherence: no stale read after an acknowledged PUT
# --------------------------------------------------------------------------
def _run_coherence() -> dict:
    net, _server, _server_rt, client_rt = _build_cache_world(True)
    env = net.env

    def scenario():
        yield env.timeout(ESTABLISH_AT)
        client = KvClient(client_rt)
        yield from client.connect(Address("srv", 7100))
        yield from client.put("coh", b"old")
        first = yield from client.get("coh")
        yield from client.put("coh", b"new")
        second = yield from client.get("coh")
        yield from client.delete("coh")
        after = yield from client.get("coh")
        return first, second, after

    proc = env.process(scenario(), name="offload.coherence")
    env.run(until=proc)
    first, second, after = proc.value
    switch = net.switches["tor"]
    reader = next(p for p in switch.programs if p.name.endswith("/read"))
    return {
        "fresh_after_put": (
            first["value"] == b"old" and second["value"] == b"new"
        ),
        "not_found_after_delete": after["status"] == "not_found",
        # Both GETs before the DELETE must have been ToR hits, or the
        # check would not be exercising the cache at all.
        "served_from_cache": reader.state.hits == 2,
        "hits": reader.state.hits,
        "invalidations": reader.state.invalidations,
    }


# --------------------------------------------------------------------------
# Fan-in: host gather vs switch gather, byte for byte
# --------------------------------------------------------------------------
def _encode_reply(payload: dict) -> bytes:
    status = {"ok": 0, "not_found": 1, "error": 2}[payload["status"]]
    value = payload["value"]
    return struct.pack(">BBI", 0x20, status, len(value)) + value


def _run_fanin_leg(register_switch: bool) -> dict:
    net = Network()
    for name in ("cl", "srv", "dsc"):
        net.add_host(name)
    net.add_switch("tor")
    net.add_link("cl", "tor", latency=NEAR_LATENCY)
    net.add_link("dsc", "tor", latency=NEAR_LATENCY)
    net.add_link("srv", "tor", latency=SERVER_LATENCY)
    discovery = DiscoveryService(net.hosts["dsc"])
    # The listener ranks offers by raw priority (not origin) so the
    # network-provided aggregator can beat the client's host gather —
    # the operator-policy knob of §4.3.
    server_rt = Runtime(
        net.entity("srv"),
        discovery=discovery.address,
        policy=PriorityFirstPolicy(),
    )
    client_rt = Runtime(net.entity("cl"), discovery=discovery.address)
    for rt in (server_rt, client_rt):
        rt.register_chunnel(SerializeFallback)
    client_rt.register_chunnel(FanInHost)
    if register_switch:
        discovery.register(FanInSwitch.meta, location="tor")
    members = []
    for index in range(FANIN_MEMBERS):
        store = {f"g{r:03d}": f"w{index}r{r}".encode() for r in range(FANIN_REQUESTS)}
        worker = ShardWorker(server_rt.entity, 7101 + index, store=store)
        members.append(worker.address)
    dag = wrap(Serialize(codec="kv") >> FanIn(members=members))
    server_rt.new("agg-srv", dag).listen(port=7100)
    env = net.env

    def scenario():
        yield env.timeout(ESTABLISH_AT)
        endpoint = client_rt.new("agg-cl")
        conn = yield from endpoint.connect(Address("srv", 7100))
        node = conn.dag.find("fanin")[0]
        impl = type(conn.impls[node]).__name__
        digest = hashlib.sha256()
        parts_ok = True
        for index in range(FANIN_REQUESTS):
            conn.send(kv_request("get", f"g{index:03d}"))
            reply = yield conn.recv()
            encoded = _encode_reply(reply.payload)
            digest.update(encoded)
            parts = split_combined_value(reply.payload["value"])
            parts_ok = parts_ok and len(parts) == FANIN_MEMBERS
        stage = next(
            s for s in conn.stack.stages if isinstance(s, _FanInClientStage)
        )
        return impl, digest.hexdigest(), parts_ok, stage

    proc = env.process(scenario(), name="offload.fanin")
    env.run(until=proc)
    impl, digest, parts_ok, stage = proc.value
    aggregated = absorbed = 0
    if register_switch:
        program = net.switches["tor"].programs[0]
        aggregated, absorbed = program.aggregated, program.absorbed
    return {
        "impl": impl,
        "digest": digest,
        "parts_ok": parts_ok,
        "aggregated": aggregated,
        "absorbed": absorbed,
        "gathered_at_host": stage.gathered_at_host,
        "gathered_in_network": stage.gathered_in_network,
    }


def _run_fanin() -> dict:
    host = _run_fanin_leg(register_switch=False)
    switch = _run_fanin_leg(register_switch=True)
    return {
        "host_impl": host["impl"],
        "switch_impl": switch["impl"],
        "identical": (
            host["digest"] == switch["digest"]
            and host["parts_ok"]
            and switch["parts_ok"]
        ),
        "digest": host["digest"],
        "aggregated": switch["aggregated"],
        "absorbed": switch["absorbed"],
        "host_gathered_at_host": host["gathered_at_host"],
        "switch_gathered_in_network": switch["gathered_in_network"],
    }


# --------------------------------------------------------------------------
# Mid-run switch failure: exactly-once across both edges
# --------------------------------------------------------------------------
def _run_failover(seed: int) -> dict:
    net, server, server_rt, client_rt = _build_cache_world(True, auto_reconfig=True)
    _preload(server)
    env = net.env
    chooser = _chooser(FAIL_SKEW, seed + 5000)
    op_rng = random.Random(seed + 5001)
    arrivals = PoissonArrivals(FAIL_LOAD, seed=seed + 5002)
    deliveries: dict[int, int] = {}

    def driver():
        yield env.timeout(ESTABLISH_AT)
        client = KvClient(client_rt)
        conn = yield from client.connect(Address("srv", 7100))

        def receiver(env):
            received = 0
            while received < FAIL_REQUESTS:
                msg = yield conn.recv()
                rpc_id = msg.headers.get("rpc_id")
                if rpc_id is not None:
                    deliveries[rpc_id] = deliveries.get(rpc_id, 0) + 1
                    received += 1

        receiver_proc = env.process(receiver(env), name="offload.fail-rx")
        for index in range(FAIL_REQUESTS):
            yield env.timeout(arrivals.next_gap())
            key = KEYS[chooser.next_index()]
            if op_rng.random() < FAIL_WRITE_FRACTION:
                request = kv_request("put", key, _value(key))
            else:
                request = kv_request("get", key)
            conn.send(request, headers={"rpc_id": index})
        deadline = env.timeout(FAIL_DEADLINE)
        yield env.any_of([receiver_proc, deadline])

    def chaos():
        yield env.timeout(FAIL_AT)
        net.switches["tor"].fail("mid-run maintenance")
        yield env.timeout(RECOVER_AT - FAIL_AT)
        net.switches["tor"].recover("maintenance done")

    proc = env.process(driver(), name="offload.fail-driver")
    env.process(chaos(), name="offload.chaos")
    env.run(until=proc)

    delivered = len(deliveries)
    duplicates = sum(count - 1 for count in deliveries.values())
    return {
        "offered": FAIL_REQUESTS,
        "delivered": delivered,
        "duplicates": duplicates,
        "lost": FAIL_REQUESTS - delivered,
        "transitions": server_rt.reconfig.transitions_committed,
        "metrics": net.obs.snapshot().as_dict(),
    }


# --------------------------------------------------------------------------
# Scheduler contention: preemption online, DRF offline
# --------------------------------------------------------------------------
def _run_contention() -> dict:
    net = Network()
    net.add_host("dsc")
    # A small edge switch: either offload fits alone, both together do
    # not (5 of 4 stages, 768 of 640 KB) — the paper's "the switch only
    # has capacity for one" contention.
    net.add_switch("tor", stages=4, sram_kb=640)
    net.add_link("dsc", "tor", latency=NEAR_LATENCY)
    # Online: the aggregator holds the ToR; the higher-priority cache
    # arrives and does not fit, so the PriorityScheduler evicts the
    # aggregator lease and admits it.
    service = DiscoveryService(
        net.hosts["dsc"], scheduler=PriorityScheduler()
    )
    fanin_record = service.register(FanInSwitch.meta, location="tor")
    cache_record = service.register(KvCacheSwitch.meta, location="tor")
    fanin_granted = service.reserve(fanin_record.record_id, "agg-app")
    cache_granted = service.reserve(cache_record.record_id, "kv-app")
    in_use = dict(sorted(service.device_in_use("tor").items()))

    # Offline: DRF over the same footprints, two tenants, two asks each.
    capacity = service.device_capacity("tor")
    batch = [
        OffloadRequest(
            tenant="kv",
            name="kvcache/switch",
            need=KvCacheSwitch.meta.resources,
            priority=KvCacheSwitch.meta.priority,
        ),
        OffloadRequest(
            tenant="agg",
            name="fanin/switch-agg",
            need=FanInSwitch.meta.resources,
            priority=FanInSwitch.meta.priority,
        ),
        OffloadRequest(
            tenant="kv",
            name="kvcache/second",
            need=KvCacheSwitch.meta.resources,
            priority=KvCacheSwitch.meta.priority,
        ),
        OffloadRequest(
            tenant="agg",
            name="fanin/second",
            need=FanInSwitch.meta.resources,
            priority=FanInSwitch.meta.priority,
        ),
    ]
    allocation = DrfScheduler().plan(batch, capacity)
    arrival_order = {id(request): i for i, request in enumerate(batch)}
    denied_indices = [arrival_order[id(r)] for r in allocation.denied]
    return {
        "fanin_granted_first": fanin_granted,
        "cache_granted": cache_granted,
        "preempted": service.leases_preempted,
        "in_use": in_use,
        "drf_granted": [r.name for r in allocation.granted],
        "drf_denied": [r.name for r in allocation.denied],
        "drf_denied_ok": denied_indices == sorted(denied_indices),
        "drf_share_kv": round(
            allocation.tenant_share("kv", capacity), 4
        ),
        "drf_share_agg": round(
            allocation.tenant_share("agg", capacity), 4
        ),
    }


# --------------------------------------------------------------------------
# The run
# --------------------------------------------------------------------------
def run_offload(config: Optional[OffloadConfig] = None) -> OffloadResult:
    config = config or OffloadConfig()
    skew_sweep, mix_sweep = _run_sweeps(config.seed)
    coherence = _run_coherence()
    fanin = _run_fanin()
    failover = _run_failover(config.seed)
    contention = _run_contention()
    metrics = failover.pop("metrics")
    return OffloadResult(
        skew_sweep=skew_sweep,
        mix_sweep=mix_sweep,
        coherence=coherence,
        fanin=fanin,
        failover=failover,
        contention=contention,
        config=config,
        metrics=metrics,
    )
