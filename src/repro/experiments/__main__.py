"""CLI for the experiment harnesses.

Usage::

    python -m repro.experiments fig3            # scaled-down (seconds)
    python -m repro.experiments fig3 --full     # paper-scale parameters
    python -m repro.experiments fig4
    python -m repro.experiments fig5 [--full]
    python -m repro.experiments reconfig
    python -m repro.experiments <chaos|churn|failover|fleet> [--smoke] \
        [--seed N] [--baseline PATH] [--shards N] [--replicas-per-shard R]
    python -m repro.experiments <multipath|offload> [--smoke] [--seed N] \
        [--baseline PATH]
    python -m repro.experiments ablations
    python -m repro.experiments all [--full] [--smoke]

Each command prints the rows/series the paper's corresponding figure
reports (see EXPERIMENTS.md for the mapping and the recorded outputs).

Every command accepts ``--profile`` (cProfile the run, print the hottest
functions) and ``--profile-out PATH`` (dump the raw pstats file for
``snakeviz``/``pstats`` digging).  How fast the simulator itself runs is
measured by the repository's benchmark, ``python -m bench``.

The six invariant-checked experiments are rows of one table,
:data:`EXPERIMENTS`, run by one runner: ``--smoke`` picks the CI tier,
``--seed`` the seed, ``--baseline PATH`` writes the JSON recorded as
``benchmarks/results/BENCH_<name>.json``, and the command exits 1 when
any invariant is violated.

Every command accepts ``--metrics-out PATH``: the run's metrics-registry
snapshot (``repro.obs``) exported as canonical JSON.  Same seed ⇒
byte-identical file.  Under ``all``, ``--metrics-out`` and ``--baseline``
name directories that receive one ``<command>.json`` per command — CI
runs ``all --smoke`` twice and diffs the two directories as a
determinism gate.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

from .ablations import (
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
from .reconfig import ReconfigConfig, run_epoch_overhead, run_reconfig


def _timed(label: str, fn):
    start = time.time()
    result = fn()
    print(f"\n=== {label} (wall {time.time() - start:.1f}s) ===")
    return result


def cmd_fig3(args) -> None:
    config = Fig3Config() if not args.full else Fig3Config(connections=10_000)
    result = _timed("Figure 3: container networking (RTT us)", lambda: run_fig3(config))
    print(result.render())


def cmd_fig4(args) -> None:
    config = Fig4Config() if not args.full else Fig4Config(connect_interval=0.1)
    result = _timed("Figure 4: dynamic name resolution", lambda: run_fig4(config))
    print(result.render())
    if result.before and result.after:
        print(
            f"\nbefore local instance: p50 {result.before.p50:.1f} us; "
            f"after: p50 {result.after.p50:.1f} us; "
            f"switch at t={result.switch_time:.2f}s"
        )


def cmd_fig5(args) -> None:
    config = (
        Fig5Config()
        if not args.full
        else Fig5Config(requests_per_point=150_000, record_count=1000)
    )
    result = _timed(
        "Figure 5: sharding placements (p95 latency vs offered load)",
        lambda: run_fig5(config),
    )
    print(result.render())
    print("\nnegotiated shard implementations per scenario:")
    for scenario, impls in result.chosen_impls.items():
        print(f"  {scenario}: {impls}")


def cmd_ablations(args) -> None:
    from ..metrics import format_table

    for label, run in (
        ("§5 claim: negotiation overhead", run_negotiation_overhead),
        ("§6 claim: DAG reorder/merge vs PCIe traffic", run_optimizer_ablation),
        ("§6 claim: multi-resource offload scheduling", run_scheduler_ablation),
    ):
        print(_timed(label, run).render())
    for label, run, columns in (
        (
            "§3.2: serialization implementations",
            run_serialization_comparison,
            ["implementation", "mean_rtt_us", "n"],
        ),
        (
            "§3.2: consensus — host vs switch sequencer",
            run_consensus_comparison,
            ["sequencer", "impl", "mean_us", "p95_us", "n"],
        ),
        (
            "DESIGN §5 ablation: per-connect resolution vs client caching",
            run_caching_ablation,
            ["mode", "mean_setup_us", "discovery_rtts", "stale_connections", "n"],
        ),
    ):
        print(format_table(_timed(label, run), columns=columns))


def cmd_reconfig(args) -> None:
    config = (
        ReconfigConfig()
        if not args.full
        else ReconfigConfig(offered_load=10_000, bucket=0.25)
    )
    result = _timed(
        "Live reconfiguration: offload revoked at "
        f"t={config.revoke_at:.0f}s, restored at t={config.restore_at:.0f}s",
        lambda: run_reconfig(config),
    )
    print(result.render())
    overhead = _timed(
        "Steady-state overhead of arming reconfiguration", run_epoch_overhead
    )
    print(
        f"latency samples identical: {overhead['identical']} "
        f"(n={overhead['n']}, max delta "
        f"{overhead['max_abs_delta_us']:.3f} us)"
    )


@dataclass(frozen=True)
class Experiment:
    """One invariant-checked experiment's CLI row.

    ``config`` is the config class (its ``smoke(seed=)`` classmethod is
    the CI tier, its default constructor the recorded full run), ``run``
    maps a config to an :class:`~._result.ExperimentResult`, and ``title``
    renders the run's header from its config.
    """

    config: type
    run: Callable[[Any], Any]
    title: Callable[[Any], str]
    #: ``--shards``/``--replicas-per-shard`` set the config's discovery
    #: plane shape.
    sharded: bool = False
    #: Run the smoke tier under ``all`` even without ``--smoke`` (the
    #: full fleet is the one ten-minute experiment; ``all`` is a sweep).
    smoke_in_all: bool = False


EXPERIMENTS = {
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
        f"resumed (cache {c.cache_size}, seed {c.seed})",
        sharded=True,
    ),
    "failover": Experiment(
        FailoverConfig,
        run_failover,
        lambda c: f"Failover: {c.connections} connections surviving two host "
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
        f"{len(c.asymmetry)} asymmetry points + live weight rebalance "
        f"(seed {c.seed})",
    ),
    "offload": Experiment(
        OffloadConfig,
        run_offload,
        lambda c: f"Offload: in-switch KV cache over {len(c.skew_points)} skew "
        f"and {len(c.mix_points)} write-mix points + fan-in aggregation "
        f"(seed {c.seed})",
    ),
}

COMMANDS: dict[str, Any] = {
    "fig3": cmd_fig3,
    "fig4": cmd_fig4,
    "fig5": cmd_fig5,
    "reconfig": cmd_reconfig,
    **EXPERIMENTS,
    "ablations": cmd_ablations,
}


def _output_path(path, name: str, args):
    """``PATH`` for one command; under ``all`` a directory holding one
    ``<name>.json`` per command."""
    if path and args.experiment == "all":
        os.makedirs(path, exist_ok=True)
        return os.path.join(path, f"{name}.json")
    return path


def run_experiment(name: str, row: Experiment, args) -> None:
    """Time one table row's run, print it, write the requested files, and
    exit 1 if any invariant is violated."""
    smoke = args.smoke or (row.smoke_in_all and args.experiment == "all")
    config = row.config.smoke(seed=args.seed) if smoke else row.config(
        seed=args.seed
    )
    if row.sharded and args.shards is not None:
        config.shards = args.shards
    if row.sharded and args.replicas_per_shard is not None:
        config.replicas_per_shard = args.replicas_per_shard
    result = _timed(row.title(config), lambda: row.run(config))
    print(result.render())
    baseline = _output_path(args.baseline, name, args)
    if baseline:
        result.write_baseline(baseline)
        print(f"\nbaseline written to {baseline}")
    metrics_out = _output_path(args.metrics_out, name, args)
    if metrics_out:
        result.write_metrics(metrics_out)
        print(f"metrics written to {metrics_out}")
    if not result.ok:
        raise SystemExit(1)


def run_command(name: str, args) -> None:
    command = COMMANDS[name]
    if isinstance(command, Experiment):
        run_experiment(name, command, args)
        return
    command(args)
    metrics_out = _output_path(args.metrics_out, name, args)
    if metrics_out:
        # The most recently built world's registry (every experiment
        # builds its world(s) through Network, which installs the
        # process-global handle).
        from ..obs import current_registry

        current_registry().write_json(metrics_out)
        print(f"metrics written to {metrics_out}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument("experiment", choices=[*COMMANDS, "all"])
    parser.add_argument(
        "--full",
        action="store_true",
        help="paper-scale parameters (minutes instead of seconds)",
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
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help=(
            "write the run's metrics-registry snapshot as canonical JSON "
            "(same seed => byte-identical; under all: a directory)"
        ),
    )
    checked = parser.add_argument_group(
        f"invariant-checked experiments ({', '.join(EXPERIMENTS)})"
    )
    checked.add_argument(
        "--smoke",
        action="store_true",
        help="CI tier: small counts, seconds per experiment",
    )
    checked.add_argument(
        "--seed", type=int, default=7, help="fault/workload seed (default 7)"
    )
    checked.add_argument(
        "--baseline",
        metavar="PATH",
        help=(
            "write the experiment's baseline JSON here (the shape of "
            "benchmarks/results/BENCH_<name>.json; under all: a directory)"
        ),
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
        names = list(COMMANDS) if args.experiment == "all" else [args.experiment]
        for name in names:
            run_command(name, args)

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
