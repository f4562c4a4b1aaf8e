"""Churn experiment — establishment cost under connection churn.

Bertha's negotiation runs a full discovery-query + offer/accept exchange
on every connect (two control round trips, §1 of PROTOCOL.md).  Workloads
dominated by *short-lived* connections — RPC fan-out, serverless bursts,
connection-per-request clients — pay that price per connection, which is
exactly what the negotiation cache and one-RTT resumption (PROTOCOL.md
§7) amortize away.

This experiment quantifies the claim: drive many sequential short-lived
connections from one client to one echo server and compare

* **cold** — cache disabled (the default runtime configuration): every
  connect renegotiates from scratch;
* **resumed** — cache enabled on both sides: the first connect is cold
  and populates the caches, every later one takes the ``bertha.resume``
  fast path.

Reported per mode: establishment-latency percentiles, first-byte latency
(connect + one request/response), and control round trips per connect —
all derived from one world-wide metrics-registry snapshot, the same
surface the chaos experiment reads.  The expectation pinned by
``BENCH_churn.json`` and the invariants: resumed establishment takes
fewer control round trips (≈1 vs 2) and a lower median virtual-time
latency than cold, with zero fallbacks on a fault-free fabric.

Everything is seeded and virtual-time; two same-seed runs produce
byte-identical ``--metrics-out`` documents (CI diffs two
``all --smoke`` passes).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

from ..chunnels import (
    Reliable,
    ReliableFallback,
    ReliableToe,
    Serialize,
    SerializeFallback,
)
from ..core import Runtime
from ..core.dag import wrap
from ..core.policy import PriorityFirstPolicy
from ..errors import DegradedEstablishmentWarning
from ..metrics import format_table, percentile
from ..sim import Network, SmartNic
from ._plane import DiscoveryPlane
from ._result import ExperimentResult

__all__ = ["ChurnConfig", "ChurnSide", "ChurnResult", "run_churn"]

_US = 1e6

#: Requests each connection serves before closing (1 = pure churn).
REQUESTS_PER_SESSION = 1
PAYLOAD_SIZE = 64
#: Negotiation-cache size for the *resumed* mode (the cold mode runs
#: with the cache disabled — the default runtime configuration).  A
#: runtime's cache entries never expire.
CACHE_SIZE = 64
NEGOTIATION_TIMEOUT = 2e-3
NEGOTIATION_RETRIES = 8
#: Virtual-time budget (the workload finishes far earlier).
DEADLINE = 120.0


@dataclass
class ChurnConfig:
    """A cold-vs-resumed churn comparison, fully seeded."""

    #: Sequential short-lived connections per mode.
    sessions: int = 2000
    seed: int = 7
    #: Discovery-plane shape (CLI ``--shards``/``--replicas-per-shard``).
    #: The single-service default keeps the recorded baseline
    #: byte-identical; ``shards > 1`` swaps in the RSM-replicated shard
    #: tier behind a router, so resume revalidation (and its one-RTT
    #: saving) is measured against the planet-scale control plane.
    shards: int = 1
    replicas_per_shard: int = 3

    @classmethod
    def smoke(cls, seed: int = 7) -> "ChurnConfig":
        """The CI tier: enough sessions to prove the fast path, fast."""
        return cls(sessions=50, seed=seed)


@dataclass
class ChurnSide:
    """Measurements from one mode (cold or resumed), derived from that
    world's registry snapshot."""

    mode: str
    sessions: int
    established: int
    completed: int
    offered: int
    setup_p50_us: float
    setup_p95_us: float
    setup_max_us: float
    first_byte_p50_us: float
    first_byte_p95_us: float
    #: Client control round trips (discovery + negotiation) per connect.
    ctl_rtts_per_connect: float
    negcache_hits: int
    negcache_misses: int
    negcache_fallbacks: int
    negcache_invalidations: int
    #: The full registry snapshot this side was derived from.
    metrics: dict = field(default_factory=dict, repr=False)


@dataclass
class ChurnResult(ExperimentResult):
    """Both modes plus the invariant verdicts."""

    NAME = "churn"

    cold: ChurnSide
    resumed: ChurnSide
    config: ChurnConfig = field(repr=False)

    @property
    def invariants(self) -> dict[str, bool]:
        return {
            "all_established": all(
                s.established == s.sessions for s in (self.cold, self.resumed)
            ),
            "zero_app_loss": all(
                s.completed == s.offered for s in (self.cold, self.resumed)
            ),
            # The tentpole claims: strictly fewer control round trips and a
            # lower median establishment latency on the resumed side.
            "resumed_fewer_rtts": (
                self.resumed.ctl_rtts_per_connect
                < self.cold.ctl_rtts_per_connect
            ),
            "resumed_faster_median": (
                self.resumed.setup_p50_us < self.cold.setup_p50_us
            ),
            # Only the first connect misses; nothing invalidates or falls
            # back on a healthy fabric.
            "cache_effective": (
                self.resumed.negcache_hits >= self.resumed.sessions - 1
                and self.resumed.negcache_fallbacks == 0
            ),
            # The cold side must behave exactly like a cache-free runtime.
            "cold_path_untouched": (
                self.cold.negcache_hits == 0
                and self.cold.negcache_misses == 0
                and self.cold.ctl_rtts_per_connect >= 2.0
            ),
        }

    def rows(self) -> list[dict]:
        return [
            {
                "mode": s.mode,
                "established": f"{s.established}/{s.sessions}",
                "setup_p50_us": round(s.setup_p50_us, 3),
                "setup_p95_us": round(s.setup_p95_us, 3),
                "first_byte_p50_us": round(s.first_byte_p50_us, 3),
                "ctl_rtts": round(s.ctl_rtts_per_connect, 3),
                "hits": s.negcache_hits,
                "fallbacks": s.negcache_fallbacks,
            }
            for s in (self.cold, self.resumed)
        ]

    def render_body(self) -> list[str]:
        return [
            format_table(self.rows()),
            "",
            (
                "resumption: setup p50 "
                f"{self.cold.setup_p50_us:.1f} -> "
                f"{self.resumed.setup_p50_us:.1f} us "
                f"({self.cold.setup_p50_us / self.resumed.setup_p50_us:.2f}x), "
                "ctl RTTs/connect "
                f"{self.cold.ctl_rtts_per_connect:.2f} -> "
                f"{self.resumed.ctl_rtts_per_connect:.2f}"
            ),
        ]

    def baseline_body(self) -> dict:
        def side(s: ChurnSide) -> dict:
            return {
                "setup_p50_us": round(s.setup_p50_us, 3),
                "setup_p95_us": round(s.setup_p95_us, 3),
                "first_byte_p50_us": round(s.first_byte_p50_us, 3),
                "first_byte_p95_us": round(s.first_byte_p95_us, 3),
                "ctl_rtts_per_connect": round(s.ctl_rtts_per_connect, 4),
                "negcache_hits": s.negcache_hits,
                "negcache_fallbacks": s.negcache_fallbacks,
            }

        return {
            "sessions": self.config.sessions,
            "cache": {
                "size": CACHE_SIZE,
                "ttl": None,
            },
            "cold": side(self.cold),
            "resumed": side(self.resumed),
            "speedup_p50": round(
                self.cold.setup_p50_us / self.resumed.setup_p50_us, 3
            ),
        }

    def metrics_body(self) -> dict:
        """Both modes' raw registry snapshots."""
        return {"cold": self.cold.metrics, "resumed": self.resumed.metrics}


# --------------------------------------------------------------------------
# World building
# --------------------------------------------------------------------------
def _churn_dag():
    return wrap(Serialize() >> Reliable())


def _build_world(config: ChurnConfig, cache_size: int):
    """One echo server + one client host + discovery — the chaos topology
    minus the fault plan, with the negotiation cache sized per mode on
    *both* runtimes."""
    from ..apps.rpc import EchoServer

    net = Network()
    server_host = net.add_host(
        "srv", nic=SmartNic(net.env, name="srv.nic", offload_slots=4)
    )
    client_host = net.add_host("cl")
    plane = DiscoveryPlane(config.shards, config.replicas_per_shard)
    plane.add_hosts(net)
    net.add_switch("tor")
    for name in ("srv", "cl"):
        net.add_link(name, "tor", latency=5e-6)
    plane.add_links(net, "tor", 5e-6)

    plane.build(net)
    # A NIC offload with real resource accounting, so resumed connects
    # exercise the server's reservation-revalidation path rather than a
    # trivially reservation-free stack.
    plane.register(ReliableToe.meta, "srv")

    def _runtime(host, **kwargs):
        runtime = Runtime(
            host,
            discovery=plane.client(host),
            negotiation_cache_size=cache_size,
            **kwargs,
        )
        runtime.register_chunnel(SerializeFallback)
        runtime.register_chunnel(ReliableFallback)
        return runtime

    server_rt = _runtime(server_host, policy=PriorityFirstPolicy())
    client_rt = _runtime(client_host)
    server = EchoServer(server_rt, port=7400, dag=_churn_dag())
    return net, server, client_rt


# --------------------------------------------------------------------------
# One mode
# --------------------------------------------------------------------------
def _run_side(config: ChurnConfig, mode: str) -> ChurnSide:
    cache_size = CACHE_SIZE if mode == "resumed" else 0
    net, server, client_rt = _build_world(config, cache_size)
    env = net.env
    payload = bytes(PAYLOAD_SIZE)
    obs = net.obs
    established = obs.counter("experiment.established")
    completed = obs.counter("experiment.completed")
    setup_hist = obs.histogram("experiment.setup_seconds")
    first_byte_hist = obs.histogram("experiment.first_byte_seconds")

    def driver():
        for session in range(config.sessions):
            endpoint = client_rt.new(f"churn-{session}", _churn_dag())
            start = env.now
            conn = yield from endpoint.connect(
                server.address,
                timeout=NEGOTIATION_TIMEOUT,
                retries=NEGOTIATION_RETRIES,
            )
            setup_hist.observe(env.now - start)
            established.inc()
            for request in range(REQUESTS_PER_SESSION):
                conn.send(payload, size=len(payload))
                yield conn.recv()
                if request == 0:
                    first_byte_hist.observe(env.now - start)
                completed.inc()
            conn.close()

    env.process(driver(), name="churn.driver")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedEstablishmentWarning)
        env.run(until=DEADLINE)

    snap = obs.snapshot()
    setups = setup_hist.values
    first_bytes = first_byte_hist.values
    sessions = int(snap.get("experiment.established"))
    client_rtts = int(snap.get("rpc.discovery.cl.round_trips")) + int(
        snap.get("rpc.negotiation.cl.round_trips")
    )
    return ChurnSide(
        mode=mode,
        sessions=config.sessions,
        established=sessions,
        completed=int(snap.get("experiment.completed")),
        offered=config.sessions * REQUESTS_PER_SESSION,
        setup_p50_us=percentile(setups, 50) * _US if setups else 0.0,
        setup_p95_us=percentile(setups, 95) * _US if setups else 0.0,
        setup_max_us=max(setups) * _US if setups else float("inf"),
        first_byte_p50_us=(
            percentile(first_bytes, 50) * _US if first_bytes else 0.0
        ),
        first_byte_p95_us=(
            percentile(first_bytes, 95) * _US if first_bytes else 0.0
        ),
        ctl_rtts_per_connect=(client_rtts / sessions) if sessions else 0.0,
        negcache_hits=int(snap.get("negcache.cl.hits")),
        negcache_misses=int(snap.get("negcache.cl.misses")),
        negcache_fallbacks=int(snap.get("negcache.cl.fallbacks")),
        negcache_invalidations=int(snap.get("negcache.cl.invalidations")),
        metrics=snap.as_dict(),
    )


def run_churn(config: Optional[ChurnConfig] = None) -> ChurnResult:
    config = config or ChurnConfig()
    cold = _run_side(config, "cold")
    resumed = _run_side(config, "resumed")
    return ChurnResult(cold=cold, resumed=resumed, config=config)
