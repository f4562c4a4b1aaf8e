"""Figure 5 — sharding placements under load.

The paper's experiment: a sharded key-value store (3 shards as threads on
one server), two client machines, YCSB workload A (read-heavy) with a
uniform key distribution; measure p95 latency over 300000 requests.  Four
configurations, each a *different negotiation outcome of the same DAG*:

* **client_push** — both clients registered the client-push fallback; the
  default policy prefers client-provided implementations, so each client
  computes shards itself.  Sharding work scales with clients; the server
  has no steering bottleneck.
* **server_accel** — neither client has the fallback; the discovery
  service offers the XDP implementation at the server host.  Cheap per
  packet but centralized: the server's kernel fast path saturates first.
* **mixed** — one client has the fallback, the other does not; the same
  server negotiates different implementations with different clients
  ("differences in client configuration result in different
  implementations being picked").
* **server_fallback** — no XDP registered, no client fallback: the
  server's userspace sharder carries everything.  Worst performance,
  still correct.

The harness sweeps offered load (open loop, Poisson arrivals split across
the two clients) and reports p95 latency per (scenario, load).

Calibration (DESIGN.md §2): worker service 4 µs (3 workers ⇒ ~750 kqps
aggregate), XDP 2 µs/packet (~500 kqps), userspace sharder 8 µs/request
(~125 kqps incl. its stack work) — the absolute values are plausible for
the paper's hardware class; the *ordering* of the saturation points is
what Figure 5 shows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..apps.kvstore import KV_SHARD_FN, KvServer, kv_request
from ..chunnels import (
    SerializeFallback,
    ShardClientFallback,
    ShardServerFallback,
    ShardXdp,
)
from ..core import Runtime
from ..discovery import DiscoveryService
from ..metrics import percentile
from ..sim import Address, CostModel, Network
from ..workloads import PoissonArrivals, WorkloadSpec, YcsbWorkload
from ._result import TableResult

__all__ = ["Fig5Config", "Fig5Result", "SCENARIOS", "run_fig5", "run_fig5_scenario"]

SCENARIOS = ("client_push", "server_accel", "mixed", "server_fallback")

_US = 1e6

VALUE_SIZE = 100
SHARDS = 3
WORKER_SERVICE_TIME = 4.0e-6
XDP_PER_PACKET = 2.0e-6
DRAIN_TIMEOUT = 0.05


@dataclass
class Fig5Config:
    """Experiment parameters (paper: 300 k requests, workload A, uniform);
    the defaults are the recorded run."""

    offered_loads: tuple[int, ...] = (100_000, 200_000, 300_000, 500_000, 700_000)
    requests_per_point: int = 4000
    record_count: int = 300
    seed: int = 7

    @classmethod
    def smoke(cls) -> "Fig5Config":
        """The CI tier: every load an invariant names."""
        return cls(
            offered_loads=(
                100_000, 200_000, 300_000, 500_000, 550_000, 650_000, 700_000
            ),
            requests_per_point=1500,
        )


@dataclass
class Fig5Result(TableResult):
    """p95 latency (µs) and completion counts per (scenario, load)."""

    NAME = "fig5"

    p95: dict[tuple[str, int], float]
    p50: dict[tuple[str, int], float]
    completed: dict[tuple[str, int], int]
    offered: dict[tuple[str, int], int]
    chosen_impls: dict[str, list[str]]
    config: Fig5Config
    worlds: dict = field(default_factory=dict, repr=False)

    def rows(self) -> list[dict]:
        out = []
        for (scenario, load), p95 in sorted(
            self.p95.items(), key=lambda kv: (kv[0][0], kv[0][1])
        ):
            out.append(
                {
                    "scenario": scenario,
                    "offered_kqps": load // 1000,
                    "p50_us": self.p50[(scenario, load)],
                    "p95_us": p95,
                    "completed": self.completed[(scenario, load)],
                    "offered_n": self.offered[(scenario, load)],
                }
            )
        return out

    @property
    def invariants(self) -> dict[str, bool]:
        def every(loads, check) -> bool:
            """``check`` of each load's p95 by scenario, at every one of
            ``loads`` the sweep ran; it must have run one."""
            ran = [load for load in loads if load in self.config.offered_loads]
            return bool(ran) and all(
                check({s: self.p95[(s, load)] for s in SCENARIOS})
                for load in ran
            )

        return {
            # Saturation order: the fallback first, then XDP, client push
            # last.
            "fallback_saturates_first": every(
                (300_000,),
                lambda p: p["server_fallback"]
                > 5 * max(p["server_accel"], p["client_push"]),
            ),
            "xdp_saturates_before_push": every(
                (650_000, 700_000), lambda p: p["server_accel"] > 2 * p["client_push"]
            ),
            "mixed_between": every(
                (500_000, 550_000),
                lambda p: p["client_push"] <= p["mixed"] <= 1.1 * p["server_accel"],
            ),
            # Below every knee all four are within a small factor, the
            # fallback paying its extra hop.
            "low_load_ordering": every(
                (100_000,),
                lambda p: p["server_fallback"] > p["client_push"]
                and max(p["client_push"], p["server_accel"], p["mixed"])
                < 2 * min(p["client_push"], p["server_accel"], p["mixed"]),
            ),
            # Even the worst configuration answers every request at a load
            # it sustains ("poor performance, but still provides
            # correctness").
            "complete_when_sustained": all(
                point in self.offered and self.completed[point] == self.offered[point]
                for point in (("server_fallback", 100_000), ("client_push", 200_000))
            ),
            "negotiated_impls": {
                scenario: sorted(chosen) for scenario, chosen in self.chosen_impls.items()
            }
            == {
                "client_push": ["ShardClientFallback"] * 2,
                "server_accel": ["ShardXdp"] * 2,
                "mixed": ["ShardClientFallback", "ShardXdp"],
                "server_fallback": ["ShardServerFallback"] * 2,
            },
        }


def _build_world(scenario: str):
    """Server host + 2 client hosts + discovery, wired per scenario."""
    net = Network()
    server_host = net.add_host(
        "srv", cost=CostModel(xdp_per_packet=XDP_PER_PACKET)
    )
    client_hosts = [net.add_host(f"cl{i}") for i in (1, 2)]
    discovery_host = net.add_host("dsc")
    net.add_switch("tor")
    for name in ("srv", "cl1", "cl2", "dsc"):
        net.add_link(name, "tor", latency=5e-6)
    discovery = DiscoveryService(discovery_host)

    server_rt = Runtime(server_host, discovery=discovery.address)
    server_rt.register_chunnel(SerializeFallback)
    server_rt.register_chunnel(ShardServerFallback)

    client_rts = []
    for index, host in enumerate(client_hosts):
        runtime = Runtime(host, discovery=discovery.address)
        runtime.register_chunnel(SerializeFallback)
        register_push = {
            "client_push": (True, True),
            "server_accel": (False, False),
            "mixed": (True, False),
            "server_fallback": (False, False),
        }[scenario][index]
        if register_push:
            runtime.register_chunnel(ShardClientFallback)
        client_rts.append(runtime)

    if scenario in ("server_accel", "mixed"):
        discovery.register(ShardXdp.meta, location="srv")

    server = KvServer(
        server_rt,
        port=7100,
        shards=SHARDS,
        worker_service_time=WORKER_SERVICE_TIME,
    )
    return net, server, client_rts


def _preload(server: KvServer, workload: YcsbWorkload) -> None:
    """Load phase: populate shards directly (not part of the timed run)."""
    for op in workload.load_operations():
        index = KV_SHARD_FN.bucket(
            _encode_request(op), {}, len(server.workers)
        )
        server.workers[index].store[op["key"]] = op["value"]


def _encode_request(op: dict) -> bytes:
    from ..chunnels.serialize import get_codec

    kind = "get" if op["op"] in ("read", "scan") else "put"
    request = kv_request(kind, op["key"], op.get("value", b"") or b"")
    return get_codec("kv").encode(request)


def run_fig5_scenario(
    scenario: str, offered_load: int, config: Optional[Fig5Config] = None
) -> dict:
    """One (scenario, load) point; returns latencies and bookkeeping."""
    config = config or Fig5Config()
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    net, server, client_rts = _build_world(scenario)
    env = net.env

    spec = WorkloadSpec(
        workload="A",
        record_count=config.record_count,
        operation_count=config.requests_per_point,
        value_size=VALUE_SIZE,
        distribution="uniform",
        seed=config.seed,
    )
    workload = YcsbWorkload(spec)
    _preload(server, workload)
    operations = list(workload.operations())

    latencies: list[float] = []
    chosen: list[str] = []
    per_client = len(operations) // len(client_rts)

    def client_proc(index: int, runtime: Runtime, ops: list[dict]):
        yield env.timeout(1e-3)  # staggered start after server listen
        endpoint = runtime.new(f"kv-client-{index}")
        conn = yield from endpoint.connect(Address("srv", 7100))
        shard_nodes = conn.dag.find("shard")
        # Record which implementation this client's negotiation picked.
        # (The accept message carries the choice; Connection keeps impls.)
        chosen.append(type(conn.impls[shard_nodes[0]]).__name__)
        send_times: dict[int, float] = {}

        def receiver(env):
            received = 0
            while received < len(ops):
                msg = yield conn.recv()
                rpc_id = msg.headers.get("rpc_id")
                if rpc_id in send_times:
                    latencies.append((env.now - send_times.pop(rpc_id)) * _US)
                    received += 1

        receiver_proc = env.process(receiver(env), name=f"rx{index}")
        arrivals = PoissonArrivals(
            offered_load / len(client_rts), seed=config.seed + index
        )
        for op_index, op in enumerate(ops):
            yield env.timeout(arrivals.next_gap())
            rpc_id = index * 1_000_000 + op_index
            kind = "get" if op["op"] in ("read", "scan") else "put"
            request = kv_request(kind, op["key"], op.get("value", b"") or b"")
            send_times[rpc_id] = env.now
            conn.send(request, headers={"rpc_id": rpc_id})
        # Drain: give in-flight requests a bounded grace period.
        deadline = env.timeout(DRAIN_TIMEOUT)
        yield env.any_of([receiver_proc, deadline])

    procs = [
        env.process(
            client_proc(i, rt, operations[i * per_client : (i + 1) * per_client])
        )
        for i, rt in enumerate(client_rts)
    ]
    env.run(until=env.all_of(procs))

    return {
        "latencies_us": latencies,
        "offered": per_client * len(client_rts),
        "completed": len(latencies),
        "chosen_impls": chosen,
        "server_requests": server.requests_served,
        "metrics": net.obs.snapshot().as_dict(),
    }


def run_fig5(config: Optional[Fig5Config] = None) -> Fig5Result:
    """The full sweep: every scenario at every offered load."""
    config = config or Fig5Config()
    p95: dict[tuple[str, int], float] = {}
    p50: dict[tuple[str, int], float] = {}
    completed: dict[tuple[str, int], int] = {}
    offered: dict[tuple[str, int], int] = {}
    chosen_impls: dict[str, list[str]] = {}
    worlds: dict[str, dict] = {}
    for scenario in SCENARIOS:
        for load in config.offered_loads:
            point = run_fig5_scenario(scenario, load, config)
            key = (scenario, load)
            values = point["latencies_us"]
            p95[key] = percentile(values, 95) if values else float("inf")
            p50[key] = percentile(values, 50) if values else float("inf")
            completed[key] = point["completed"]
            offered[key] = point["offered"]
            chosen_impls.setdefault(scenario, point["chosen_impls"])
            worlds[f"{scenario}/{load}"] = point["metrics"]
    return Fig5Result(
        p95=p95,
        p50=p50,
        completed=completed,
        offered=offered,
        chosen_impls=chosen_impls,
        config=config,
        worlds=worlds,
    )
