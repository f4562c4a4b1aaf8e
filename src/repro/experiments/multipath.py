"""Multipath experiment — split connections and live weight rebalancing.

Two phases, both fully seeded and virtual-time:

**Connection-splitting crossover.**  A chain ``cl — swA — px — swB — srv``
with a short, loss-prone first segment and a long, clean second segment.
For each swept loss rate the same echo workload runs twice: *direct* (one
end-to-end connection, whose Reliable timer must span the full-path RTT)
and *split* (a :class:`~repro.core.establish.SplitProxy` on ``px``
stitches two independently negotiated connections, so the lossy segment
recovers on a timer scaled to its own tiny RTT).  Splitting wins under
asymmetric loss — retransmissions stay local to the bad segment instead
of paying the long segment's timer — and loses on clean paths, where the
second stack traversal and store-and-forward hop buy nothing.

**Live rebalance.**  A two-tunnel world (``cl`` and ``srv`` joined by two
edge-disjoint paths) runs a ``Serialize >> Reliable >> WeightedMultipath``
connection at 50/50 weights.  Mid-run one tunnel's first link turns 50%
lossy; a :class:`~repro.reconfig.triggers.PathQualityMonitor` watching
that path trips and requests a same-shape transition carrying a reweighted
spec.  The engine merges the arg update (``ChunnelDag.merge_arg_updates``),
rebuilds only the multipath node — the Reliable stage and its unacked
window carry over live — and the sender's per-tunnel counters show the
traffic share shifting off the degraded link with zero application loss.

``BENCH_multipath.json`` records the crossover sweep and the rebalance
shares; two same-seed runs export byte-identical ``--metrics-out``
documents (CI diffs two ``all --smoke`` passes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..chunnels import (
    MultipathWeighted,
    Reliable,
    ReliableFallback,
    Serialize,
    SerializeFallback,
    WeightedMultipath,
)
from ..chunnels.multipath import _MultipathStage
from ..core import Runtime, SplitProxy
from ..core.dag import wrap
from ..discovery import DiscoveryService
from ..metrics import format_table
from ..reconfig import PathQualityMonitor
from ..sim import Address, FaultPlan, Network
from ..sim.eventloop import Interrupt
from ._result import ExperimentResult

__all__ = ["MultipathConfig", "MultipathResult", "run_multipath"]

_US = 1e6

# -- crossover sweep ---------------------------------------------------------
#: Loss rates injected on the short segment (``cl — swA``), in order;
#: the first point must be 0.0 (the clean-path control).
ASYMMETRY = (0.0, 0.1, 0.2, 0.3)
REQUESTS = 30
#: Segment link latencies: the lossy segment is short, the clean one
#: long — the asymmetry the split exploits.
NEAR_LATENCY = 5e-6
FAR_LATENCY = 300e-6
#: Reliable timers.  Direct connections need the end-to-end timer;
#: the split's downstream segment runs on its own ~20us RTT.
DIRECT_TIMEOUT = 2e-3
NEAR_TIMEOUT = 120e-6
REL_RETRIES = 30
ESTABLISH_AT = 1e-3
LEG_DEADLINE = 1.0
# -- live rebalance ----------------------------------------------------------
REB_REQUESTS = 160
REB_INTERVAL = 100e-6
REB_REL_TIMEOUT = 250e-6
REB_REL_RETRIES = 60
#: Starting weights and the post-alarm weights for the degraded
#: tunnel (tunnel 0, the watched path) and the healthy one.
WEIGHTS = (0.5, 0.5)
SHIFTED_WEIGHTS = (0.1, 0.9)
DEGRADE_AT = 6e-3
DEGRADE_DROP = 0.5
MONITOR_THRESHOLD = 0.2
REB_DEADLINE = 60e-3


@dataclass
class MultipathConfig:
    """The seed of both phases; the default run is already CI-sized."""

    seed: int = 7

    @classmethod
    def smoke(cls, seed: int = 7) -> "MultipathConfig":
        """The CI tier — the default run already takes seconds."""
        return cls(seed=seed)


@dataclass
class MultipathResult(ExperimentResult):
    """The crossover sweep plus the rebalance episode's accounting."""

    NAME = "multipath"

    #: Per sweep point: drop rate, per-mode mean RTTs and completions.
    sweep: list
    reb_offered: int
    reb_delivered: int
    reb_duplicates: int
    reb_alarms: int
    reb_committed: int
    #: Degraded-tunnel traffic share before/after the weight transition,
    #: measured from the sender stage's per-tunnel counters (the stage is
    #: rebuilt at the transition, so "after" starts from zero).
    pre_share: float
    post_share: float
    pre_sent: list
    post_sent: list
    config: MultipathConfig = field(repr=False)
    metrics: dict = field(default_factory=dict, repr=False)

    @property
    def reb_app_loss(self) -> int:
        return self.reb_offered - self.reb_delivered

    @property
    def invariants(self) -> dict[str, bool]:
        clean = self.sweep[0]
        worst = self.sweep[-1]
        return {
            # The crossover: splitting wins under maximal segment
            # asymmetry and loses on the clean path.
            "split_wins_asymmetric": worst["split_rtt_us"] < worst["direct_rtt_us"],
            "direct_wins_clean": clean["direct_rtt_us"] < clean["split_rtt_us"],
            # Reliability absorbed every swept loss rate in both modes.
            "sweep_zero_loss": all(
                row["direct_completed"] == REQUESTS
                and row["split_completed"] == REQUESTS
                for row in self.sweep
            ),
            # The live rebalance: the path-quality trigger committed a
            # weight transition that moved at least half the degraded
            # tunnel's traffic share off it, and the application saw
            # every request exactly once throughout.
            "rebalance_committed": self.reb_committed >= 1,
            "rebalance_alarmed": self.reb_alarms >= 1,
            "rebalance_shifted": self.post_share <= self.pre_share / 2,
            "rebalance_zero_app_loss": self.reb_app_loss == 0,
            "rebalance_zero_duplicates": self.reb_duplicates == 0,
        }

    def rows(self) -> list[dict]:
        return [
            {
                "loss": row["drop"],
                "direct_rtt_us": round(row["direct_rtt_us"], 1),
                "split_rtt_us": round(row["split_rtt_us"], 1),
                "winner": (
                    "split"
                    if row["split_rtt_us"] < row["direct_rtt_us"]
                    else "direct"
                ),
            }
            for row in self.sweep
        ]

    def render_body(self) -> list[str]:
        return [
            format_table(self.rows()),
            "",
            (
                f"rebalance: degraded-tunnel share "
                f"{self.pre_share:.2f} -> {self.post_share:.2f} "
                f"(sent {self.pre_sent} -> {self.post_sent}), "
                f"{self.reb_alarms} alarms, "
                f"{self.reb_committed} committed transitions, "
                f"app loss {self.reb_app_loss}/{self.reb_offered}"
            ),
        ]

    def baseline_body(self) -> dict:
        return {
            "sweep": [
                {
                    "loss": row["drop"],
                    "direct_rtt_us": round(row["direct_rtt_us"], 3),
                    "split_rtt_us": round(row["split_rtt_us"], 3),
                }
                for row in self.sweep
            ],
            "rebalance": {
                "offered": self.reb_offered,
                "delivered": self.reb_delivered,
                "app_loss": self.reb_app_loss,
                "duplicates": self.reb_duplicates,
                "alarms": self.reb_alarms,
                "transitions_committed": self.reb_committed,
                "pre_share": round(self.pre_share, 4),
                "post_share": round(self.post_share, 4),
                "pre_sent": list(self.pre_sent),
                "post_sent": list(self.post_sent),
            },
        }

    def metrics_body(self) -> dict:
        """The rebalance world's registry snapshot plus the sweep."""
        return {
            "sweep": [
                {
                    "loss": row["drop"],
                    "direct_rtt_us": round(row["direct_rtt_us"], 6),
                    "split_rtt_us": round(row["split_rtt_us"], 6),
                    "direct_completed": row["direct_completed"],
                    "split_completed": row["split_completed"],
                }
                for row in self.sweep
            ],
            "rebalance": {
                "app_loss": self.reb_app_loss,
                "duplicates": self.reb_duplicates,
                "transitions_committed": self.reb_committed,
                "pre_share": round(self.pre_share, 6),
                "post_share": round(self.post_share, 6),
            },
            "world": self.metrics,
        }


# --------------------------------------------------------------------------
# Phase 1: the crossover sweep
# --------------------------------------------------------------------------
def _chain_runtime(net, disc, name):
    runtime = Runtime(net.entity(name), discovery=disc.address)
    runtime.register_chunnel(SerializeFallback)
    runtime.register_chunnel(ReliableFallback)
    return runtime


def _run_leg(seed: int, drop: float, split: bool) -> dict:
    """One world: the chain topology, echo workload, one mode."""
    net = Network()
    for name in ("cl", "px", "srv", "dsc"):
        net.add_host(name)
    net.add_switch("swA")
    net.add_switch("swB")
    net.add_link("cl", "swA", latency=NEAR_LATENCY)
    net.add_link("swA", "px", latency=NEAR_LATENCY)
    net.add_link("px", "swB", latency=FAR_LATENCY)
    net.add_link("swB", "srv", latency=FAR_LATENCY)
    net.add_link("dsc", "swA", latency=NEAR_LATENCY)
    disc = DiscoveryService(net.hosts["dsc"])
    cl_rt = _chain_runtime(net, disc, "cl")
    px_rt = _chain_runtime(net, disc, "px")
    srv_rt = _chain_runtime(net, disc, "srv")

    # The server dictates args (DAG unification): direct connections get
    # the end-to-end timer from here; under a split this is the upstream
    # segment's timer (the clean long segment — it should never fire).
    server_dag = wrap(
        Serialize() >> Reliable(timeout=DIRECT_TIMEOUT, max_retries=REL_RETRIES)
    )
    listener = srv_rt.new("mp-srv", server_dag).listen(port=7500)
    if split:
        # The proxy is the downstream segment's server, so *its* listener
        # dictates the downstream timer — scaled to that segment's RTT.
        down_dag = wrap(
            Serialize() >> Reliable(timeout=NEAR_TIMEOUT, max_retries=REL_RETRIES)
        )
        SplitProxy(
            px_rt, "mp-split", Address("srv", 7500), down_dag, port=7600
        )

    env = net.env
    rtts: list = []

    def echo(conn):
        while not conn.closed:
            try:
                msg = yield conn.recv()
            except Interrupt:
                return
            conn.send(msg.payload, dst=msg.src)

    def serve():
        while True:
            conn = yield listener.accept()
            env.process(echo(conn), name=f"{conn.conn_id}.echo")

    def driver():
        yield env.timeout(ESTABLISH_AT)
        target = Address("px", 7600) if split else Address("srv", 7500)
        conn = yield from cl_rt.new("mp-cl").connect(target)
        # Loss arrives after establishment: the sweep measures the data
        # plane's crossover, not negotiation robustness (chaos covers
        # that).
        if drop:
            net.attach_faults(
                "cl", "swA", FaultPlan(drop_rate=drop, seed=seed + 31)
            )
        for index in range(REQUESTS):
            started = env.now
            conn.send({"id": index})
            yield conn.recv()
            rtts.append(env.now - started)

    env.process(serve(), name="mp.serve")
    env.process(driver(), name="mp.driver")
    env.run(until=LEG_DEADLINE)
    mean_rtt = sum(rtts) / len(rtts) if rtts else float("inf")
    return {"rtt_us": mean_rtt * _US, "completed": len(rtts)}


# --------------------------------------------------------------------------
# Phase 2: the live rebalance
# --------------------------------------------------------------------------
def _run_rebalance(seed: int) -> dict:
    net = Network()
    for name in ("cl", "srv", "dsc"):
        net.add_host(name)
    net.add_switch("s1")
    net.add_switch("s2")
    for switch in ("s1", "s2"):
        net.add_link("cl", switch, latency=5e-6)
        net.add_link(switch, "srv", latency=5e-6)
    net.add_link("dsc", "s1", latency=5e-6)
    disc = DiscoveryService(net.hosts["dsc"])

    def runtime(name):
        rt = Runtime(net.entity(name), discovery=disc.address)
        rt.register_chunnel(SerializeFallback)
        rt.register_chunnel(ReliableFallback)
        rt.register_chunnel(MultipathWeighted)
        return rt

    cl_rt, srv_rt = runtime("cl"), runtime("srv")
    dag = wrap(
        Serialize()
        >> Reliable(timeout=REB_REL_TIMEOUT, max_retries=REB_REL_RETRIES)
        >> WeightedMultipath(tunnels=2, weights=list(WEIGHTS), seed=seed)
    )
    listener = srv_rt.new("reb-srv", dag).listen(port=7700)

    env = net.env
    seen: dict = {}
    server_conns: list = []
    state: dict = {"client_conn": None, "stage_before": None}
    #: The watched (and later degraded) path — tunnel 0 by construction.
    paths = net.k_routes("cl", "srv", 2)

    def count(conn):
        while not conn.closed:
            try:
                msg = yield conn.recv()
            except Interrupt:
                return
            key = msg.payload["id"]
            seen[key] = seen.get(key, 0) + 1

    def serve():
        while True:
            conn = yield listener.accept()
            server_conns.append(conn)
            env.process(count(conn), name=f"{conn.conn_id}.count")

    def on_alarm(name, path, rate):
        if not server_conns:
            return
        conn = server_conns[0]
        target_dag = conn.dag.copy()
        (node_id,) = target_dag.find("multipath")
        target_dag.nodes[node_id] = WeightedMultipath(
            tunnels=2, weights=list(SHIFTED_WEIGHTS), seed=seed
        )
        srv_rt.reconfig.request_transition(
            conn, reason=f"path-quality:{name}", target_dag=target_dag
        )

    monitor = PathQualityMonitor(net)
    monitor.watch_path(
        "tunnel0",
        paths[0],
        threshold=MONITOR_THRESHOLD,
        callback=on_alarm,
    )

    def degrade():
        yield env.timeout(DEGRADE_AT)
        net.attach_faults(
            paths[0][0],
            paths[0][1],
            FaultPlan(drop_rate=DEGRADE_DROP, seed=seed + 101),
        )

    def multipath_stage(conn):
        return next(
            stage
            for stage in conn.stack.stages
            if isinstance(stage, _MultipathStage)
        )

    def load():
        yield env.timeout(1e-3)
        conn = yield from cl_rt.new("reb-cl").connect(Address("srv", 7700))
        state["client_conn"] = conn
        state["stage_before"] = multipath_stage(conn)
        for index in range(REB_REQUESTS):
            conn.send({"id": index})
            yield env.timeout(REB_INTERVAL)

    env.process(serve(), name="reb.serve")
    env.process(degrade(), name="reb.degrade")
    env.process(load(), name="reb.load")
    env.run(until=REB_DEADLINE)
    monitor.stop()

    stage_before = state["stage_before"]
    stage_after = multipath_stage(state["client_conn"])
    pre_sent = list(stage_before.sent_by_tunnel)
    post_sent = (
        list(stage_after.sent_by_tunnel)
        if stage_after is not stage_before
        else [0] * len(pre_sent)
    )
    pre_total = sum(pre_sent)
    post_total = sum(post_sent)
    return {
        "offered": REB_REQUESTS,
        "delivered": len(seen),
        "duplicates": sum(count - 1 for count in seen.values()),
        "alarms": monitor.alarms,
        "committed": srv_rt.reconfig.transitions_committed,
        "pre_sent": pre_sent,
        "post_sent": post_sent,
        "pre_share": pre_sent[0] / pre_total if pre_total else 0.0,
        "post_share": post_sent[0] / post_total if post_total else 1.0,
        "metrics": net.obs.snapshot().as_dict(),
    }


# --------------------------------------------------------------------------
# The run
# --------------------------------------------------------------------------
def run_multipath(config: Optional[MultipathConfig] = None) -> MultipathResult:
    config = config or MultipathConfig()
    sweep = []
    for drop in ASYMMETRY:
        direct = _run_leg(config.seed, drop, split=False)
        split = _run_leg(config.seed, drop, split=True)
        sweep.append(
            {
                "drop": drop,
                "direct_rtt_us": direct["rtt_us"],
                "split_rtt_us": split["rtt_us"],
                "direct_completed": direct["completed"],
                "split_completed": split["completed"],
            }
        )
    rebalance = _run_rebalance(config.seed)
    return MultipathResult(
        sweep=sweep,
        reb_offered=rebalance["offered"],
        reb_delivered=rebalance["delivered"],
        reb_duplicates=rebalance["duplicates"],
        reb_alarms=rebalance["alarms"],
        reb_committed=rebalance["committed"],
        pre_share=rebalance["pre_share"],
        post_share=rebalance["post_share"],
        pre_sent=rebalance["pre_sent"],
        post_sent=rebalance["post_sent"],
        config=config,
        metrics=rebalance["metrics"],
    )
