"""Live reconfiguration — offload revocation and recovery mid-connection.

The scenario the reconfiguration subsystem exists for: a sharded KV server
whose negotiation picked the XDP shard offload loses it mid-stream.  At
``revoke_at`` an operator revokes the XDP record (simulating the offload
scheduler reclaiming the device for a higher-priority tenant); the
discovery push triggers a live transition and the connection degrades to
the userspace sharder — *without dropping a single in-flight request*.  At
``restore_at`` the record is re-registered; the server's upgrade poll
notices and transitions back.

The output is a p95-latency time series: flat at the offloaded level,
stepping up to the fallback level at ``revoke_at``, stepping back down
shortly after ``restore_at``.  That three-phase step — plus the
offered == completed zero-loss check — is what its invariants assert.

``run_epoch_overhead`` backs the "reconfigurability is free when unused"
claim: the same workload run with and without the reconfiguration
machinery armed produces *bit-identical* latency samples (the simulator is
deterministic, so equality is exact, not statistical): epoch stamping is
skipped entirely at epoch 0 and the watch subscription costs nothing on
the data path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..apps.kvstore import KvServer, kv_request
from ..chunnels import SerializeFallback, ShardServerFallback, ShardXdp
from ..core import Runtime
from ..discovery import DiscoveryService
from ..metrics import TimeSeries, percentile
from ..reconfig import engine
from ..sim import Address, CostModel, Network
from ..workloads import PoissonArrivals
from ._result import TableResult

__all__ = [
    "EpochOverheadConfig",
    "EpochOverheadResult",
    "ReconfigConfig",
    "ReconfigResult",
    "run_epoch_overhead",
    "run_reconfig",
]

_US = 1e6


#: How long after the revocation the downgrade may commit (s).
DEGRADE_WITHIN = 0.1
SHARDS = 3
WORKER_SERVICE_TIME = 4.0e-6
XDP_PER_PACKET = 2.0e-6
VALUE_SIZE = 100
KEY_COUNT = 300
DRAIN_TIMEOUT = 0.05
#: The epoch-overhead client's Poisson rate (requests per second).
EPOCH_OFFERED_LOAD = 2000


@dataclass
class ReconfigConfig:
    """One long-lived connection under load, with an offload outage; the
    defaults are the recorded run."""

    duration: float = 12.0
    revoke_at: float = 4.0
    restore_at: float = 8.0
    offered_load: int = 2_000
    bucket: float = 0.5
    #: Exclusion margin around each transition when computing phase p95s.
    phase_margin: float = 0.5
    seed: int = 11

    @classmethod
    def smoke(cls) -> "ReconfigConfig":
        return cls(
            duration=3.0,
            revoke_at=1.0,
            restore_at=2.0,
            offered_load=1000,
            bucket=0.25,
            phase_margin=0.3,
        )


@dataclass
class ReconfigResult(TableResult):
    """The latency time series and the transition bookkeeping."""

    NAME = "reconfig"

    series: TimeSeries
    phase_p95: dict[str, float]
    offered: int
    completed: int
    transitions: list[tuple[float, str, str]]
    impl_timeline: list[tuple[float, str]]
    pause_times: list[float]
    config: ReconfigConfig = field(repr=False)
    worlds: dict = field(default_factory=dict, repr=False)

    @property
    def zero_loss(self) -> bool:
        return self.completed == self.offered

    def rows(self) -> list[dict]:
        return [
            {"t_s": t, "p95_us": summary.p95, "p50_us": summary.p50, "n": summary.count}
            for t, summary in self.series.bins(self.config.bucket, start=0.0)
        ]

    def render_body(self) -> list[str]:
        lines = super().render_body()
        lines.append("")
        for phase in ("baseline", "degraded", "recovered"):
            lines.append(f"{phase:>10}: p95 {self.phase_p95[phase]:.2f} us")
        lines.append(
            f"completed {self.completed}/{self.offered} requests "
            f"({'zero loss' if self.zero_loss else 'LOSS'})"
        )
        if self.pause_times:
            lines.append(
                "transition pauses: "
                + ", ".join(f"{p * _US:.1f} us" for p in self.pause_times)
            )
        lines.append("implementation timeline:")
        for t, impl in self.impl_timeline:
            lines.append(f"  t={t:.3f}s  {impl}")
        return lines

    @property
    def invariants(self) -> dict[str, bool]:
        config = self.config
        p95 = self.phase_p95
        commits = [t for t, event, _ in self.transitions if event == "committed"]
        impls = [impl for _t, impl in self.impl_timeline]
        return {
            # The acceptance bar: revocation mid-stream loses nothing.
            "zero_loss": self.offered > 0 and self.zero_loss,
            # The step: a degraded plateau above baseline, full recovery
            # after.
            "p95_steps_up": p95["degraded"] > 1.2 * p95["baseline"],
            "p95_recovers": abs(p95["recovered"] - p95["baseline"])
            <= 0.05 * p95["baseline"],
            # The discovery push degrades at once; the upgrade waits for
            # the server's next poll.
            "transitions_on_time": len(commits) == 2
            and config.revoke_at <= commits[0] <= config.revoke_at + DEGRADE_WITHIN
            and config.restore_at
            <= commits[1]
            <= config.restore_at + 2 * engine.UPGRADE_POLL_INTERVAL,
            "impls_round_trip": bool(impls)
            and impls[0] == "ShardXdp"
            and any("server-fallback" in impl for impl in impls)
            and impls[-1] == "ShardXdp",
            # Bounded pause: one control round trip over 5 us links, well
            # under the engine's ack timeout (no retries needed).
            "pauses_bounded": len(self.pause_times) == 2
            and all(0 < pause < 1e-3 for pause in self.pause_times),
        }


def _build_world(auto_reconfig: bool = True):
    """The sharded KV server, its client runtime, and the XDP shard
    offload registered with discovery."""
    net = Network()
    server_host = net.add_host(
        "srv", cost=CostModel(xdp_per_packet=XDP_PER_PACKET)
    )
    client_host = net.add_host("cl1")
    discovery_host = net.add_host("dsc")
    net.add_switch("tor")
    for name in ("srv", "cl1", "dsc"):
        net.add_link(name, "tor", latency=5e-6)
    discovery = DiscoveryService(discovery_host)

    server_rt = Runtime(server_host, discovery=discovery.address)
    server_rt.register_chunnel(SerializeFallback)
    server_rt.register_chunnel(ShardServerFallback)

    client_rt = Runtime(client_host, discovery=discovery.address)
    client_rt.register_chunnel(SerializeFallback)

    server = KvServer(
        server_rt,
        port=7100,
        shards=SHARDS,
        worker_service_time=WORKER_SERVICE_TIME,
        auto_reconfig=auto_reconfig,
    )
    record = discovery.register(ShardXdp.meta, location="srv")
    return net, discovery, record, server, server_rt, client_rt


def _drive_load(env, conn, config: ReconfigConfig, series: TimeSeries):
    """Generator: open-loop Poisson PUT/GET load for ``duration`` seconds."""
    arrivals = PoissonArrivals(config.offered_load, seed=config.seed)
    send_times: dict[int, float] = {}
    value = b"x" * VALUE_SIZE
    sent = 0
    state = {"received": 0}

    def receiver(env):
        while True:
            msg = yield conn.recv()
            rpc_id = msg.headers.get("rpc_id")
            start = send_times.pop(rpc_id, None)
            if start is not None:
                series.record(env.now, (env.now - start) * _US)
                state["received"] += 1

    rx = env.process(receiver(env), name="reconfig-rx")
    start_time = env.now
    while env.now - start_time < config.duration:
        yield env.timeout(arrivals.next_gap())
        key = f"key-{sent % KEY_COUNT:04d}"
        request = (
            kv_request("put", key, value) if sent % 5 == 0 else kv_request("get", key)
        )
        send_times[sent] = env.now
        conn.send(request, headers={"rpc_id": sent})
        sent += 1
    # Bounded drain for the tail of in-flight requests.
    deadline = start_time + config.duration + DRAIN_TIMEOUT
    while send_times and env.now < deadline:
        yield env.timeout(1e-3)
    if rx.is_alive:
        rx.interrupt("load done")
    return sent, state["received"]


def run_reconfig(config: Optional[ReconfigConfig] = None) -> ReconfigResult:
    """The full outage-and-recovery run."""
    config = config or ReconfigConfig()
    net, discovery, record, server, server_rt, client_rt = _build_world()
    env = net.env
    series = TimeSeries()
    impl_timeline: list[tuple[float, str]] = []

    def shard_impl(conn) -> str:
        (node_id,) = conn.dag.find("shard")
        return type(conn.impls[node_id]).__name__

    def client_proc(env):
        yield env.timeout(1e-3)
        endpoint = client_rt.new("reconfig-client")
        conn = yield from endpoint.connect(Address("srv", 7100))
        impl_timeline.append((env.now, shard_impl(conn)))
        sent, received = yield from _drive_load(env, conn, config, series)
        impl_timeline.append((env.now, shard_impl(conn)))
        return sent, received

    def operator_proc(env):
        yield env.timeout(config.revoke_at)
        discovery.revoke(record.record_id, reason="offload reclaimed")
        yield env.timeout(config.restore_at - config.revoke_at)
        discovery.register(ShardXdp.meta, location="srv")

    def poll_proc(env):
        # Arm the upgrade poll on the server-side connection once it exists.
        while not server.listener.connections:
            yield env.timeout(1e-3)
        server_rt.reconfig.enable_upgrade_polling(server.listener.connections[0])

    client = env.process(client_proc(env), name="reconfig-client")
    env.process(operator_proc(env), name="reconfig-operator")
    env.process(poll_proc(env), name="reconfig-poll-armer")
    env.run(until=client)
    sent, received = client.value

    manager = server_rt.reconfig
    committed = [r for r in manager.log if r.event == "committed"]
    for r in committed:
        impl_timeline.append((r.time, r.detail))
    impl_timeline.sort()

    margin = config.phase_margin
    phases = {
        "baseline": (0.0, config.revoke_at),
        "degraded": (config.revoke_at + margin, config.restore_at),
        "recovered": (config.restore_at + margin, config.duration),
    }
    phase_p95 = {}
    for name, (lo, hi) in phases.items():
        values = [
            v for t, v in zip(series.times, series.values) if lo <= t < hi
        ]
        phase_p95[name] = percentile(values, 95) if values else float("inf")

    return ReconfigResult(
        series=series,
        phase_p95=phase_p95,
        offered=sent,
        completed=received,
        transitions=[(r.time, r.event, r.detail) for r in manager.log],
        impl_timeline=impl_timeline,
        pause_times=list(manager.pause_times),
        config=config,
        worlds={"reconfig": net.obs.snapshot().as_dict()},
    )


@dataclass
class EpochOverheadConfig:
    """Paired runs of one closed-loop client; the defaults are the
    recorded run."""

    requests: int = 2000
    seed: int = 3

    @classmethod
    def smoke(cls) -> "EpochOverheadConfig":
        return cls(requests=300)


@dataclass
class EpochOverheadResult(TableResult):
    """Both latency sample lists (µs): reconfiguration absent, then armed."""

    NAME = "epoch-overhead"

    baseline: list[float]
    watched: list[float]
    config: EpochOverheadConfig
    worlds: dict = field(default_factory=dict, repr=False)

    @property
    def identical(self) -> bool:
        return self.baseline == self.watched

    @property
    def max_abs_delta_us(self) -> float:
        return max(
            (abs(a - b) for a, b in zip(self.baseline, self.watched)), default=0.0
        )

    def render_body(self) -> list[str]:
        return [
            f"n={len(self.baseline)} requests, reconfig armed vs absent",
            f"latency streams identical: {self.identical}",
            f"max |delta|: {self.max_abs_delta_us:.6f} us",
        ]

    @property
    def invariants(self) -> dict[str, bool]:
        return {
            "every_request_answered": len(self.baseline) == self.config.requests,
            # Exact equality: the sim is deterministic and epoch 0 stamps
            # nothing, so the latency streams are bit-identical.
            "streams_identical": self.identical,
            "zero_delta": self.max_abs_delta_us == 0.0,
        }


def run_epoch_overhead(
    config: Optional[EpochOverheadConfig] = None,
) -> EpochOverheadResult:
    """Paired runs: reconfig machinery armed vs absent, no transition fired.

    The simulator is deterministic, so ``identical`` is an exact (not
    statistical) claim that arming live reconfiguration adds zero
    per-message latency until a transition actually runs.
    """
    config = config or EpochOverheadConfig()
    seed = config.seed
    worlds = {}

    def one_run(auto_reconfig: bool) -> list[float]:
        net, *_, client_rt = _build_world(auto_reconfig)
        env = net.env
        latencies: list[float] = []

        def client_proc(env):
            yield env.timeout(1e-3)
            endpoint = client_rt.new("overhead-client")
            conn = yield from endpoint.connect(Address("srv", 7100))
            yield env.timeout(5e-3)  # let the one-time watch RPC settle
            arrivals = PoissonArrivals(EPOCH_OFFERED_LOAD, seed=seed)
            for index in range(config.requests):
                yield env.timeout(arrivals.next_gap())
                start = env.now
                conn.send(kv_request("put", f"k{index % 100}", b"v"))
                yield conn.recv()
                latencies.append((env.now - start) * _US)

        proc = env.process(client_proc(env))
        env.run(until=proc)
        worlds["armed" if auto_reconfig else "absent"] = net.obs.snapshot().as_dict()
        return latencies

    return EpochOverheadResult(
        baseline=one_run(auto_reconfig=False),
        watched=one_run(auto_reconfig=True),
        config=config,
        worlds=worlds,
    )
