"""One measuring subprocess: set up, then time repeats or trace one.

``python -m bench.child`` is started by :mod:`bench.__main__` -- a fresh
interpreter per measurement, so set-up time and peak memory are those of a
process that did nothing else.  It prints one JSON object on its last line.

Set-up is everything from process start to the first timed repeat: imports,
input generation, and one discarded warm-up repeat at a quarter of the ops
(every code path of the full repeat, so lazy imports and caches are filled).
A timed repeat is the workload's whole ``run`` -- world build, preload and
the simulation -- under ``time.process_time_ns``; the garbage of the previous
repeat is collected before the clock starts, and the registry is read and
hashed after it stops.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time

from .layers import run_drivers
from .ledger import counts
from .outcome import seal, virtual_metrics
from .profile import fold, traced
from .workloads import WORKLOADS

__all__ = ["main", "measure"]

WARM_UP_SCALE = 0.25
MIN_REPEATS = 2


def _timed(workload, inputs):
    gc.collect()
    start = time.process_time_ns()
    outcome = workload.run(inputs)
    cpu_ns = time.process_time_ns() - start
    return seal(outcome), cpu_ns


def _describe(outcome, scale: float) -> dict:
    return {
        "virtual": virtual_metrics(outcome, full_scale=scale >= 1.0),
        "digest": outcome.digest,
        "attempted": outcome.attempted,
        "completed": outcome.completed,
        "failed": outcome.failed,
        "lateness_us": outcome.lateness_us,
        "problems": outcome.problems[:10],
        "notes": outcome.notes,
    }


def measure(
    name: str,
    seed: int,
    seconds: float,
    mode: str,
    scale: float = 1.0,
    drivers: bool = True,
    started_at: float | None = None,
) -> dict:
    """Set up, then ``mode == "timed"``: repeats for ``seconds`` (at least
    two); ``mode == "traced"``: one plain repeat, one under cProfile, the
    counts and spans of the traced repeat, and the isolated layer drivers."""
    workload = WORKLOADS[name]
    inputs = workload.generate(seed, scale)
    workload.run(workload.generate(seed, scale * WARM_UP_SCALE))
    result: dict = {"workload": name, "seed": seed, "mode": mode}
    if started_at is not None:
        result["setup_s"] = time.time() - started_at

    if mode == "timed":
        repeats = []
        deadline = time.perf_counter() + seconds
        longest = 0.0
        while len(repeats) < MIN_REPEATS or time.perf_counter() + longest < deadline:
            began = time.perf_counter()
            outcome, cpu_ns = _timed(workload, inputs)
            longest = max(longest, time.perf_counter() - began)
            repeats.append(
                {
                    "cpu_ns": cpu_ns,
                    "host_cpu_us_per_op": cpu_ns / 1e3 / max(outcome.completed, 1),
                    "digest": outcome.digest,
                }
            )
        result["repeats"] = repeats
    else:
        plain, plain_ns = _timed(workload, inputs)
        gc.collect()
        start = time.process_time_ns()
        outcome, stats = traced(lambda: workload.run(inputs))
        traced_ns = time.process_time_ns() - start
        seal(outcome)
        layer = fold(stats, outcome.completed)
        layer["trace.overhead_ratio"] = traced_ns / plain_ns
        ledger, ledger_notes = counts(outcome)
        layer.update(ledger)
        result["ledger_notes"] = ledger_notes
        if drivers:
            driven, driver_notes = run_drivers(scale)
            layer.update(driven)
            result["driver_notes"] = driver_notes
        result["per_layer"] = layer
        result["plain_digest"] = plain.digest
    result.update(_describe(outcome, scale))
    # Peak resident set of this process, after the repeats (KiB on Linux).
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("timed", "traced"), required=True)
    parser.add_argument("--drivers", type=int, choices=(0, 1), required=True)
    parser.add_argument("--started-at", type=float, required=True)
    args = parser.parse_args(argv)
    result = measure(
        args.workload,
        args.seed,
        args.seconds,
        args.mode,
        drivers=bool(args.drivers),
        started_at=args.started_at,
    )
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
