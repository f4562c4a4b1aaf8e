"""CLI for the experiment harnesses.

Usage::

    python -m repro.experiments fig3            # scaled-down (seconds)
    python -m repro.experiments fig3 --full     # paper-scale parameters
    python -m repro.experiments fig4
    python -m repro.experiments fig5 [--full]
    python -m repro.experiments reconfig
    python -m repro.experiments chaos [--smoke] [--loss 0,0.05,0.1,0.2]
    python -m repro.experiments churn [--smoke] [--sessions N]
    python -m repro.experiments failover [--smoke] [--seed N]
    python -m repro.experiments fleet [--smoke] [--shards N]
    python -m repro.experiments multipath [--smoke] [--seed N]
    python -m repro.experiments offload [--smoke] [--seed N]
    python -m repro.experiments ablations
    python -m repro.experiments all [--full]

Each command prints the rows/series the paper's corresponding figure
reports (see EXPERIMENTS.md for the mapping and the recorded outputs).

Every command accepts ``--profile`` (cProfile the run, print the hottest
functions) and ``--profile-out PATH`` (dump the raw pstats file for
``snakeviz``/``pstats`` digging).  How fast the simulator itself runs is
measured by the repository's benchmark, ``python -m bench``.

The ``chaos`` command exits non-zero when any robustness invariant is
violated, so CI can run it as a smoke check
(``chaos --smoke --seed 7``); ``--baseline PATH`` writes the
establishment-latency/extra-round-trip JSON recorded at
``benchmarks/results/BENCH_chaos.json``.

Every command accepts ``--metrics-out PATH``: the run's metrics-registry
snapshot (``repro.obs``) exported as canonical JSON.  Same seed ⇒
byte-identical file — CI diffs two same-seed chaos exports as a
determinism gate.
"""

from __future__ import annotations

import argparse
import sys
import time

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
    result = _timed(
        "§5 claim: negotiation overhead", lambda: run_negotiation_overhead()
    )
    print(result.render())
    result = _timed(
        "§6 claim: DAG reorder/merge vs PCIe traffic",
        lambda: run_optimizer_ablation(),
    )
    print(result.render())
    result = _timed(
        "§6 claim: multi-resource offload scheduling",
        lambda: run_scheduler_ablation(),
    )
    print(result.render())
    rows = _timed(
        "§3.2: serialization implementations",
        lambda: run_serialization_comparison(),
    )
    from ..metrics import format_table

    print(format_table(rows, columns=["implementation", "mean_rtt_us", "n"]))
    rows = _timed(
        "§3.2: consensus — host vs switch sequencer",
        lambda: run_consensus_comparison(),
    )
    print(
        format_table(
            rows, columns=["sequencer", "impl", "mean_us", "p95_us", "n"]
        )
    )
    rows = _timed(
        "DESIGN §5 ablation: per-connect resolution vs client caching",
        lambda: run_caching_ablation(),
    )
    print(
        format_table(
            rows,
            columns=[
                "mode",
                "mean_setup_us",
                "discovery_rtts",
                "stale_connections",
                "n",
            ],
        )
    )


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


def _apply_shard_flags(config, args) -> None:
    """``--shards``/``--replicas-per-shard`` are shared by chaos, churn,
    and fleet; the single-shard default keeps the chaos/churn baselines
    byte-identical."""
    if args.shards is not None:
        config.shards = args.shards
    if args.replicas_per_shard is not None:
        config.replicas_per_shard = args.replicas_per_shard


def _chaos_config(args) -> ChaosConfig:
    config = ChaosConfig.smoke(seed=args.seed) if args.smoke else ChaosConfig(
        seed=args.seed
    )
    if args.loss is not None:
        config.loss_points = tuple(
            float(part) for part in args.loss.split(",") if part.strip()
        )
    if args.disc_timeout is not None:
        config.discovery_timeout = args.disc_timeout
    if args.disc_retries is not None:
        config.discovery_retries = args.disc_retries
    if args.disc_backoff is not None:
        config.discovery_backoff = args.disc_backoff
    _apply_shard_flags(config, args)
    return config


def cmd_chaos(args) -> None:
    config = _chaos_config(args)
    label = (
        "Chaos: control plane under loss "
        f"{'/'.join(f'{p * 100:g}%' for p in config.loss_points)} "
        f"(seed {config.seed})"
    )
    result = _timed(label, lambda: run_chaos(config))
    print(result.render())
    if args.baseline:
        result.write_baseline(args.baseline)
        print(f"\nbaseline written to {args.baseline}")
    if args.metrics_out:
        # Chaos runs several worlds (one per sweep point + the outage);
        # export every segment's snapshot, not just the last world's.
        result.write_metrics(args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
        args._metrics_written = True
    if not result.ok:
        raise SystemExit(1)


def _churn_config(args) -> ChurnConfig:
    config = ChurnConfig.smoke(seed=args.seed) if args.smoke else ChurnConfig(
        seed=args.seed
    )
    if args.sessions is not None:
        config.sessions = args.sessions
    if args.cache_size is not None:
        config.cache_size = args.cache_size
    if args.cache_ttl is not None:
        config.cache_ttl = args.cache_ttl
    _apply_shard_flags(config, args)
    return config


def cmd_churn(args) -> None:
    config = _churn_config(args)
    label = (
        f"Churn: {config.sessions} short-lived connections, cold vs "
        f"resumed (cache {config.cache_size}, seed {config.seed})"
    )
    result = _timed(label, lambda: run_churn(config))
    print(result.render())
    if args.baseline:
        result.write_baseline(args.baseline)
        print(f"\nbaseline written to {args.baseline}")
    if args.metrics_out:
        # Churn runs two worlds (cold + resumed); export both snapshots.
        result.write_metrics(args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
        args._metrics_written = True
    if not result.ok:
        raise SystemExit(1)


def _failover_config(args) -> FailoverConfig:
    config = (
        FailoverConfig.smoke(seed=args.seed)
        if args.smoke
        else FailoverConfig(seed=args.seed)
    )
    _apply_shard_flags(config, args)
    return config


def cmd_failover(args) -> None:
    config = _failover_config(args)
    label = (
        f"Failover: {config.connections} connections surviving two host "
        f"crashes and a total outage (seed {config.seed})"
    )
    result = _timed(label, lambda: run_failover(config))
    print(result.render())
    if args.baseline:
        result.write_baseline(args.baseline)
        print(f"\nbaseline written to {args.baseline}")
    if args.metrics_out:
        result.write_metrics(args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
        args._metrics_written = True
    if not result.ok:
        raise SystemExit(1)


def _fleet_config(args) -> FleetConfig:
    # Under ``all`` the fleet drops to smoke tier: the full run is the
    # one ten-minute experiment in the suite, and ``all`` is a sweep.
    smoke = args.smoke or args.experiment == "all"
    config = FleetConfig.smoke(seed=args.seed) if smoke else FleetConfig(
        seed=args.seed
    )
    if args.establishments is not None:
        config.establishments = args.establishments
    _apply_shard_flags(config, args)
    return config


def cmd_fleet(args) -> None:
    config = _fleet_config(args)
    hosts = config.racks * config.clients_per_rack + config.servers
    label = (
        f"Fleet: {config.establishments} establishments across {hosts} hosts, "
        f"{config.shards} shards x {config.replicas_per_shard} replicas "
        f"(seed {config.seed})"
    )
    result = _timed(label, lambda: run_fleet(config))
    print(result.render())
    if args.baseline:
        result.write_baseline(args.baseline)
        print(f"\nbaseline written to {args.baseline}")
    if args.metrics_out:
        result.write_metrics(args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
        args._metrics_written = True
    if not result.ok:
        raise SystemExit(1)


def cmd_multipath(args) -> None:
    config = (
        MultipathConfig.smoke(seed=args.seed)
        if args.smoke
        else MultipathConfig(seed=args.seed)
    )
    label = (
        f"Multipath: split-connection crossover over "
        f"{len(config.asymmetry)} asymmetry points + live weight "
        f"rebalance (seed {config.seed})"
    )
    result = _timed(label, lambda: run_multipath(config))
    print(result.render())
    if args.baseline:
        result.write_baseline(args.baseline)
        print(f"\nbaseline written to {args.baseline}")
    if args.metrics_out:
        result.write_metrics(args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
        args._metrics_written = True
    if not result.ok:
        raise SystemExit(1)


def cmd_offload(args) -> None:
    config = (
        OffloadConfig.smoke(seed=args.seed)
        if args.smoke
        else OffloadConfig(seed=args.seed)
    )
    label = (
        f"Offload: in-switch KV cache over {len(config.skew_points)} skew "
        f"and {len(config.mix_points)} write-mix points + fan-in "
        f"aggregation (seed {config.seed})"
    )
    result = _timed(label, lambda: run_offload(config))
    print(result.render())
    if args.baseline:
        result.write_baseline(args.baseline)
        print(f"\nbaseline written to {args.baseline}")
    if args.metrics_out:
        result.write_metrics(args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
        args._metrics_written = True
    if not result.ok:
        raise SystemExit(1)


COMMANDS = {
    "fig3": cmd_fig3,
    "fig4": cmd_fig4,
    "fig5": cmd_fig5,
    "reconfig": cmd_reconfig,
    "chaos": cmd_chaos,
    "churn": cmd_churn,
    "failover": cmd_failover,
    "fleet": cmd_fleet,
    "multipath": cmd_multipath,
    "offload": cmd_offload,
    "ablations": cmd_ablations,
}


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
            "(same seed => byte-identical; chaos exports every segment)"
        ),
    )
    chaos_group = parser.add_argument_group("chaos options")
    chaos_group.add_argument(
        "--smoke",
        action="store_true",
        help="CI tier: one 5%%-loss point with small counts",
    )
    chaos_group.add_argument(
        "--loss",
        metavar="R[,R...]",
        help="comma-separated loss rates to sweep (e.g. 0,0.05,0.1,0.2)",
    )
    chaos_group.add_argument(
        "--seed", type=int, default=7, help="fault/workload seed (default 7)"
    )
    chaos_group.add_argument(
        "--disc-timeout",
        type=float,
        metavar="SECONDS",
        help="discovery client initial RPC timeout",
    )
    chaos_group.add_argument(
        "--disc-retries",
        type=int,
        metavar="N",
        help="discovery client retransmission budget per RPC",
    )
    chaos_group.add_argument(
        "--disc-backoff",
        type=float,
        metavar="FACTOR",
        help="discovery client exponential backoff factor",
    )
    chaos_group.add_argument(
        "--baseline",
        metavar="PATH",
        help=(
            "write the experiment's baseline JSON here "
            "(chaos: BENCH_chaos.json; churn: BENCH_churn.json)"
        ),
    )
    churn_group = parser.add_argument_group("churn options")
    churn_group.add_argument(
        "--sessions",
        type=int,
        metavar="N",
        help="short-lived connections per mode (cold and resumed)",
    )
    churn_group.add_argument(
        "--cache-size",
        type=int,
        metavar="N",
        help="negotiation-cache capacity for the resumed mode",
    )
    churn_group.add_argument(
        "--cache-ttl",
        type=float,
        metavar="SECONDS",
        help="negotiation-cache entry TTL (virtual seconds; default none)",
    )
    shard_group = parser.add_argument_group(
        "discovery tier options (chaos, churn, fleet)"
    )
    shard_group.add_argument(
        "--shards",
        type=int,
        metavar="N",
        help=(
            "discovery shard count (chaos/churn default 1 = the single "
            "service; >1 builds the replicated shard tier)"
        ),
    )
    shard_group.add_argument(
        "--replicas-per-shard",
        type=int,
        metavar="N",
        help="RSM replicas per discovery shard (default 3)",
    )
    fleet_group = parser.add_argument_group("fleet options")
    fleet_group.add_argument(
        "--establishments",
        type=int,
        metavar="N",
        help="fleet establishment count (default 100000; smoke 300)",
    )
    args = parser.parse_args(argv)

    def dispatch() -> None:
        if args.experiment == "all":
            for command in COMMANDS.values():
                command(args)
        else:
            COMMANDS[args.experiment](args)

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
    if args.metrics_out and not getattr(args, "_metrics_written", False):
        # Shared exporter: the most recently built world's registry (every
        # experiment builds its world(s) through Network, which installs
        # the process-global handle).
        from ..obs import current_registry

        current_registry().write_json(args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
