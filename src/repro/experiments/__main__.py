"""CLI for the experiment harnesses.

Usage::

    python -m repro.experiments <row> [--smoke | --full] [--seed N] \
        [--baseline DIR] [--metrics-out DIR]
    python -m repro.experiments <chaos|churn|failover|fleet> \
        [--shards N] [--replicas-per-shard R]
    python -m repro.experiments all [--smoke | --full]

Every experiment is a row of one table, :data:`EXPERIMENTS`, run by one
runner.  The figure and ablation rows (``fig3``, ``fig4``, ``fig5``,
``reconfig``, ``epoch-overhead``, ``negotiation``, ``optimizer``,
``scheduler``, ``serialization``, ``consensus``, ``caching``) print the
table the paper's figure or claim reports; the invariant-checked rows
(``chaos``, ``churn``, ``failover``, ``fleet``, ``multipath``,
``offload``) their robustness accounting.  A row's default run is the
one recorded under ``benchmarks/results`` (see EXPERIMENTS.md for the
mapping), ``--smoke`` its CI tier, and ``--full`` a figure's paper scale.
``--seed`` overrides the seed of a row that has one.  A row's config
holds only what a tier or one of these flags varies; every other
parameter is a constant of its module.  Each run prints
its named invariants, the paper-shape or robustness checks, and the
command exits 1 when any is violated.

``--baseline DIR`` and ``--metrics-out DIR`` name directories.  The first
receives each row's recorded file: a table row's rendered table (its
``benchmarks/results`` name), an invariant-checked row's
``BENCH_<name>.json``; so ``--baseline benchmarks/results`` re-records.
The second receives one ``<name>.json`` per row: canonical JSON holding
the registry snapshot (``repro.obs``) of every world the row built.  Same
seed ⇒ byte-identical files — CI runs ``all --smoke`` twice and diffs
the two directories as a determinism gate.

Every command accepts ``--profile`` (cProfile the run, print the hottest
functions) and ``--profile-out PATH`` (dump the raw pstats file for
``snakeviz``/``pstats`` digging).  How fast the simulator itself runs is
measured by the repository's benchmark, ``python -m bench``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable

from . import churn, failover, fig4, multipath, offload
from .ablations import (
    CachingConfig,
    ConsensusConfig,
    NegotiationConfig,
    OptimizerConfig,
    SchedulerConfig,
    SerializationConfig,
    run_caching_ablation,
    run_consensus_comparison,
    run_negotiation_overhead,
    run_optimizer_ablation,
    run_scheduler_ablation,
    run_serialization_comparison,
)
from .chaos import ChaosConfig, run_chaos
from .churn import ChurnConfig, run_churn
from .failover import FailoverConfig, run_failover
from .fig3 import Fig3Config, run_fig3
from .fig4 import Fig4Config, run_fig4
from .fig5 import Fig5Config, run_fig5
from .fleet import FleetConfig, run_fleet
from .multipath import MultipathConfig, run_multipath
from .offload import OffloadConfig, run_offload
from .reconfig import (
    EpochOverheadConfig,
    ReconfigConfig,
    run_epoch_overhead,
    run_reconfig,
)


@dataclass(frozen=True)
class Experiment:
    """One experiment's CLI row.

    ``config`` is the config class: its default constructor is the
    recorded run and its ``smoke()`` classmethod the CI tier; its fields
    are what those tiers and the flags vary.  ``run``
    maps a config to an :class:`~._result.ExperimentResult`, and ``title``
    renders the run's header from its config.
    """

    config: type
    run: Callable[[Any], Any]
    title: Callable[[Any], str]
    #: The file recorded under ``benchmarks/results`` when the row is a
    #: table (the rendered result); otherwise ``BENCH_<name>.json``.
    table: str = ""
    #: ``--full``: a figure's paper-scale parameters, overriding the
    #: config's defaults.
    full: dict = field(default_factory=dict)
    #: ``--shards``/``--replicas-per-shard`` set the config's discovery
    #: plane shape.
    sharded: bool = False
    #: Run the smoke tier under ``all`` even without ``--smoke`` (the
    #: full fleet is the one ten-minute experiment; ``all`` is a sweep).
    smoke_in_all: bool = False


EXPERIMENTS = {
    "fig3": Experiment(
        Fig3Config,
        run_fig3,
        lambda c: f"Figure 3: container networking, {c.connections} connections "
        "(RTT us)",
        table="fig3_container_full.txt",
        full={"connections": 10_000},  # the paper's count
    ),
    "fig4": Experiment(
        Fig4Config,
        run_fig4,
        lambda c: "Figure 4: dynamic name resolution, local instance at "
        f"t={fig4.LOCAL_START_TIME:g}s",
        table="fig4_dynamic.txt",
        full={"connect_interval": 0.1},
    ),
    "fig5": Experiment(
        Fig5Config,
        run_fig5,
        lambda c: "Figure 5: sharding placements (p95 latency vs offered load), "
        f"{len(c.offered_loads)} loads x {c.requests_per_point} requests",
        table="fig5_sharding.txt",
        full={"requests_per_point": 150_000, "record_count": 1000},
    ),
    "reconfig": Experiment(
        ReconfigConfig,
        run_reconfig,
        lambda c: "Live reconfiguration: offload revoked at "
        f"t={c.revoke_at:g}s, restored at t={c.restore_at:g}s",
        table="reconfig_transition.txt",
        full={"offered_load": 10_000, "bucket": 0.25},
    ),
    "epoch-overhead": Experiment(
        EpochOverheadConfig,
        run_epoch_overhead,
        lambda c: "Steady-state overhead of arming reconfiguration",
        table="reconfig_epoch_overhead.txt",
    ),
    "negotiation": Experiment(
        NegotiationConfig,
        run_negotiation_overhead,
        lambda c: "§5 claim: negotiation overhead",
        table="ablation_negotiation.txt",
    ),
    "optimizer": Experiment(
        OptimizerConfig,
        run_optimizer_ablation,
        lambda c: "§6 claim: DAG reorder/merge vs PCIe traffic",
        table="ablation_optimizer.txt",
    ),
    "scheduler": Experiment(
        SchedulerConfig,
        run_scheduler_ablation,
        lambda c: "§6 claim: multi-resource offload scheduling",
        table="ablation_scheduler.txt",
    ),
    "serialization": Experiment(
        SerializationConfig,
        run_serialization_comparison,
        lambda c: "§3.2: serialization implementations",
        table="ablation_serialization.txt",
    ),
    "consensus": Experiment(
        ConsensusConfig,
        run_consensus_comparison,
        lambda c: "§3.2: consensus — host vs switch sequencer",
        table="ablation_consensus.txt",
    ),
    "caching": Experiment(
        CachingConfig,
        run_caching_ablation,
        lambda c: "DESIGN §5 ablation: per-connect resolution vs client caching",
        table="ablation_caching.txt",
    ),
    "chaos": Experiment(
        ChaosConfig,
        run_chaos,
        lambda c: "Chaos: control plane under loss "
        f"{'/'.join(f'{p * 100:g}%' for p in c.loss_points)} (seed {c.seed})",
        sharded=True,
    ),
    "churn": Experiment(
        ChurnConfig,
        run_churn,
        lambda c: f"Churn: {c.sessions} short-lived connections, cold vs "
        f"resumed (cache {churn.CACHE_SIZE}, seed {c.seed})",
        sharded=True,
    ),
    "failover": Experiment(
        FailoverConfig,
        run_failover,
        lambda c: f"Failover: {failover.CONNECTIONS} connections surviving two host "
        f"crashes and a total outage (seed {c.seed})",
        sharded=True,
    ),
    "fleet": Experiment(
        FleetConfig,
        run_fleet,
        lambda c: f"Fleet: {c.establishments} establishments across "
        f"{c.racks * c.clients_per_rack + c.servers} hosts, "
        f"{c.shards} shards x {c.replicas_per_shard} replicas (seed {c.seed})",
        sharded=True,
        smoke_in_all=True,
    ),
    "multipath": Experiment(
        MultipathConfig,
        run_multipath,
        lambda c: f"Multipath: split-connection crossover over "
        f"{len(multipath.ASYMMETRY)} asymmetry points + live weight rebalance "
        f"(seed {c.seed})",
    ),
    "offload": Experiment(
        OffloadConfig,
        run_offload,
        lambda c: f"Offload: in-switch KV cache over {len(offload.SKEW_POINTS)} "
        f"skew and {len(offload.MIX_POINTS)} write-mix points + fan-in aggregation "
        f"(seed {c.seed})",
    ),
}

def _config(row: Experiment, args, smoke: bool):
    """The row's config at the tier asked for, with the seed and discovery
    shape the flags name."""
    if smoke:
        config = row.config.smoke()
    else:
        config = row.config(**(row.full if args.full else {}))
    given = {"seed": args.seed}
    if row.sharded:
        given.update(shards=args.shards, replicas_per_shard=args.replicas_per_shard)
    settable = {f.name for f in fields(config)}
    return replace(
        config,
        **{key: value for key, value in given.items() if value is not None and key in settable},
    )


def run_experiment(name: str, row: Experiment, args) -> None:
    """Time one table row's run, print it, write the requested files, and
    exit 1 if any invariant is violated."""
    smoke = args.smoke or (row.smoke_in_all and args.experiment == "all")
    config = _config(row, args, smoke)
    start = time.time()
    result = row.run(config)
    print(f"\n=== {row.title(config)} (wall {time.time() - start:.1f}s) ===")
    print(result.render())
    for directory, file, write, label in (
        (args.baseline, row.table or f"BENCH_{name}.json", result.write_baseline, "baseline"),
        (args.metrics_out, f"{name}.json", result.write_metrics, "metrics"),
    ):
        if directory:
            os.makedirs(directory, exist_ok=True)
            path = os.path.join(directory, file)
            write(path)
            print(f"{label} written to {path}")
    if not result.ok:
        raise SystemExit(1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("experiment", choices=[*EXPERIMENTS, "all"])
    tier = parser.add_mutually_exclusive_group()
    tier.add_argument(
        "--smoke",
        action="store_true",
        help="CI tier: small counts, seconds per experiment",
    )
    tier.add_argument(
        "--full",
        action="store_true",
        help="paper-scale figures (minutes to hours instead of seconds)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        help="fault/workload seed of a row that has one (default: the row's, 7 "
        "for the invariant-checked rows)",
    )
    parser.add_argument(
        "--baseline",
        metavar="DIR",
        help=(
            "write each row's recorded file into DIR (its benchmarks/results "
            "table, or BENCH_<name>.json)"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        metavar="DIR",
        help=(
            "write each row's <name>.json into DIR: the registry snapshot of "
            "every world it built, canonical JSON (same seed => byte-identical)"
        ),
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run under cProfile and print the hottest functions",
    )
    parser.add_argument(
        "--profile-out",
        metavar="PATH",
        help="with --profile: also dump the raw pstats data to PATH",
    )
    sharded = ", ".join(name for name, row in EXPERIMENTS.items() if row.sharded)
    shard_group = parser.add_argument_group(
        f"discovery tier options ({sharded})"
    )
    shard_group.add_argument(
        "--shards",
        type=int,
        metavar="N",
        help=(
            "discovery shard count (default: chaos/churn 1 = the single "
            "service, failover 2, fleet 4; >1 builds the replicated tier)"
        ),
    )
    shard_group.add_argument(
        "--replicas-per-shard",
        type=int,
        metavar="N",
        help="RSM replicas per discovery shard (default 3)",
    )
    args = parser.parse_args(argv)

    def dispatch() -> None:
        names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
        for name in names:
            run_experiment(name, EXPERIMENTS[name], args)

    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            dispatch()
        finally:
            profiler.disable()
            stats = pstats.Stats(profiler, stream=sys.stdout)
            stats.sort_stats("cumulative").print_stats(30)
            if args.profile_out:
                stats.dump_stats(args.profile_out)
                print(f"profile data written to {args.profile_out}")
    else:
        dispatch()
    return 0


if __name__ == "__main__":
    sys.exit(main())
