"""``python -m bench``: run the benchmark, compare two runs.

``run`` measures one workload (``--workload``) or all five (``--all``) and
prints every metric by name with unit, value, median, quartiles and sample
count.
With ``--trace 0`` or ``--trace 1`` (what the benchmark driver passes) the
last line of standard output is the result object of the builder contract:
the end-to-end metrics for ``0``, the per-layer metrics for ``1``.  The
command exits non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import subprocess
import sys
import time

from . import ROOT
from .stats import spread, summarize

SPEC_PATH = ROOT / "BENCHMARK.json"
#: Per-layer metric -> the end-to-end metrics it should move, and where
#: (BENCHMARK.json's fixed shape has no room for it).
MAP_PATH = ROOT / "bench" / "ledger_map.json"
#: Fresh processes per end-to-end measurement: each contributes one set-up
#: time, one peak RSS and its share of the timed repeats.
CHILDREN = 3
HOST_METRICS = ("host_cpu_us_per_op", "peak_rss_mb", "setup_s")
#: The eighth end-to-end metric.  It reaches the driver as the contract's own
#: ``failed`` / ``attempted`` fields, not through BENCHMARK.json (which bounds
#: a metric as a share of a median that here must be 0).
FAILED_RATIO = {"name": "failed_ratio", "unit": "ratio", "better": "lower", "bound": 0.0}


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def load_map() -> dict:
    with open(MAP_PATH, encoding="utf-8") as handle:
        return json.load(handle)["per_layer"]


# --------------------------------------------------------------------------
# Measuring
# --------------------------------------------------------------------------
def _spawn(name: str, seed: int, seconds: float, mode: str, drivers: bool = False) -> dict:
    """One ``bench.child`` process; returns the object it printed."""
    command = [
        sys.executable,
        "-m",
        "bench.child",
        "--workload",
        name,
        "--seed",
        str(seed),
        "--seconds",
        repr(seconds),
        "--mode",
        mode,
        "--drivers",
        str(int(drivers)),
        "--started-at",
        repr(time.time()),
    ]
    done = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False
    )
    if done.returncode != 0:
        raise RuntimeError(f"{name}: measuring process exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _checks(children: list[dict], traced: dict | None) -> dict:
    """Every output check of one workload, by name -> passed."""
    results = children + ([traced] if traced else [])
    digests = {r["digest"] for r in results}
    for child in children:
        digests.update(repeat["digest"] for repeat in child["repeats"])
    if traced:
        digests.add(traced["plain_digest"])
    checks = {
        "per_op_output_checks": not any(r["problems"] for r in results),
        "no_failed_ops": all(r["failed"] == 0 for r in results),
        "same_seed_digests_equal": len(digests) == 1,
        "virtual_metrics_equal": all(
            r["virtual"] == results[0]["virtual"] for r in results
        ),
        "generator_lateness_zero": all(r["lateness_us"] == 0.0 for r in results),
    }
    if traced:
        checks["trace_attributed_share"] = (
            traced["per_layer"]["trace.attributed_share"] >= 0.95
        )
    return checks


def assemble(seed: int, children: list[dict], traced: dict | None) -> dict:
    """Everything measured about one workload at one seed, as a document."""
    results = children + ([traced] if traced else [])
    first = results[0]
    record = {
        "seed": seed,
        "virtual_digest": first["digest"],
        "attempted": first["attempted"],
        "failed": max(r["failed"] for r in results),
        "notes": first["notes"],
        "problems": sorted({p for r in results for p in r["problems"]}),
        "checks": _checks(children, traced),
    }
    if children:
        metrics = {
            metric: summarize([child["virtual"][metric] for child in children])
            for metric in first["virtual"]
        }
        # The fastest repeat, not the median one: interference on a shared
        # machine only ever adds CPU time, and it comes in spells longer than
        # a run, so the median repeat measures the neighbours (README).
        metrics["host_cpu_us_per_op"] = summarize(
            [
                repeat["host_cpu_us_per_op"]
                for child in children
                for repeat in child["repeats"]
            ],
            value=min,
        )
        metrics["peak_rss_mb"] = summarize([c["peak_rss_mb"] for c in children])
        metrics["setup_s"] = summarize([c["setup_s"] for c in children])
        record["end_to_end"] = metrics
    if traced:
        record["per_layer"] = traced["per_layer"]
        record["ledger_notes"] = traced["ledger_notes"]
        if "driver_notes" in traced:
            record["driver_notes"] = traced["driver_notes"]
    return record


# --------------------------------------------------------------------------
# Reporting
# --------------------------------------------------------------------------
def _units(spec: dict) -> dict:
    return {
        m["name"]: m["unit"]
        for m in spec["end_to_end"] + spec["per_layer"] + [FAILED_RATIO]
    }


def _fmt(value: float) -> str:
    if value == 0 or not math.isfinite(value):
        return f"{value:g}"
    return f"{value:.4f}" if abs(value) < 1e6 else f"{value:.6g}"


def print_workload(name: str, record: dict, spec: dict, why: str) -> None:
    units = _units(spec)
    print(f"== {name}  (seed {record['seed']})")
    print(f"   why: {why}")
    print(f"   loop: {record['notes'].get('loop', '-')}")
    for row in record["notes"].get("ladder", ()):
        mark = "sustained" if row["sustained"] else "over limit"
        print(
            f"   rung {row['offered_kops']:7.0f} kops offered: "
            f"{row['measured_kops']:8.2f} kops measured, p50 {row['p50_us']:9.2f} us, "
            f"p99 {row['p99_us']:10.2f} us, failed {row['failed']}  [{mark}]"
        )
    if "end_to_end" in record:
        print(
            f"   {'end-to-end metric':<28}{'unit':<10}{'value':>14}{'median':>14}"
            f"{'q1':>14}{'q3':>14}{'n':>4}"
        )
        for metric, summary in record["end_to_end"].items():
            clock = "host" if metric in HOST_METRICS else "virtual"
            print(
                f"   {metric:<28}{units.get(metric, ''):<10}{_fmt(summary['value']):>14}"
                f"{_fmt(summary['median']):>14}{_fmt(summary['q1']):>14}"
                f"{_fmt(summary['q3']):>14}{summary['n']:>4}  {clock}"
            )
    if "per_layer" in record:
        moves = load_map()
        print(f"   {'per-layer metric':<52}{'unit':<8}{'value':>14}  should move here")
        for metric, value in record["per_layer"].items():
            entry = moves.get(metric, {"moves": (), "on": ()})
            here = ", ".join(entry["moves"]) if name in entry["on"] else "-"
            print(f"   {metric:<52}{units.get(metric, ''):<8}{_fmt(value):>14}  {here}")
        print(f"   busiest station: {record['ledger_notes']['busiest_station']}")
    print(f"   virtual_digest {record['virtual_digest']}")
    failed = [check for check, passed in record["checks"].items() if not passed]
    print(f"   checks: {'all passed' if not failed else 'FAILED ' + ', '.join(failed)}")
    for problem in record["problems"][:5]:
        print(f"     problem: {problem}")


def contract_line(record: dict, spec: dict, trace: int) -> str:
    """The builder contract's result object for one workload."""
    if trace:
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = record["per_layer"]
    else:
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {k: v["value"] for k, v in record["end_to_end"].items()}
    missing = sorted(set(wanted) - set(values))
    if missing:
        raise RuntimeError(f"metrics named in BENCHMARK.json not emitted: {missing}")
    return json.dumps(
        {
            "correct": all(record["checks"].values()),
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                metric: {"value": values[metric], "unit": unit}
                for metric, unit in wanted.items()
            },
        }
    )


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------
def cmd_run(args: argparse.Namespace) -> int:
    spec = load_spec()
    if args.selftest:
        return selftest(spec)
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.all:
        names = list(whys)
    elif args.workload in whys:
        names = [args.workload]
    else:
        raise SystemExit(
            f"run: give --all, --selftest or --workload, one of {', '.join(whys)}"
        )
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    print(
        "bench: the network is repro.sim -- no real link or loopback interface "
        "is crossed; virtual metrics are exact for a seed, host metrics come "
        "from repeats in fresh single-threaded subprocesses"
    )
    document = {
        "schema": "bench/1",
        "seed": args.seed,
        "run_seconds": seconds,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workloads": {},
    }
    # One child of every workload per round, so that with --all each
    # workload's samples are spread over the whole run and a slow spell of
    # the machine falls on all of them alike.
    children: dict = {name: [] for name in names}
    if args.trace in (None, 0):
        for _ in range(CHILDREN):
            for name in names:
                children[name].append(
                    _spawn(name, args.seed, seconds / CHILDREN, "timed")
                )
    ok = True
    record = None
    for index, name in enumerate(names):
        traced = None
        if args.trace in (None, 1):
            # The isolated drivers do not depend on the workload: with --all
            # they run once, beside the first workload.
            traced = _spawn(name, args.seed, seconds, "traced", drivers=index == 0)
        record = assemble(args.seed, children[name], traced)
        document["workloads"][name] = record
        print_workload(name, record, spec, whys[name])
        ok = ok and all(record["checks"].values())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
    if args.trace is not None and len(names) == 1:
        print(contract_line(record, spec, args.trace))
    return 0 if ok else 1


def selftest(spec: dict) -> int:
    """Every workload and every layer driver at ~1 % scale, in process."""
    from .child import measure

    scale = 0.02
    wanted = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    failures = []
    end_to_end = {m["name"] for m in spec["end_to_end"] + [FAILED_RATIO]}
    workloads = {w["name"] for w in spec["workloads"]}
    moves = load_map()
    if set(moves) != {m["name"] for m in spec["per_layer"]}:
        failures.append("ledger_map.json and BENCHMARK.json name different per-layer metrics")
    for metric, entry in moves.items():
        if not (set(entry["moves"]) <= end_to_end and set(entry["on"]) <= workloads):
            failures.append(f"ledger_map.json: {metric} names an unknown metric or workload")
    started = time.perf_counter()
    for workload in spec["workloads"]:
        name = workload["name"]
        timed = measure(name, 7, 0.0, "timed", scale=scale, started_at=time.time())
        traced = measure(name, 7, 0.0, "traced", scale=scale)
        emitted = {
            **timed["virtual"],
            **traced["per_layer"],
            "host_cpu_us_per_op": timed["repeats"][0]["host_cpu_us_per_op"],
            "peak_rss_mb": timed["peak_rss_mb"],
            "setup_s": timed["setup_s"],
        }
        digests = {r["digest"] for r in timed["repeats"]} | {
            traced["digest"],
            traced["plain_digest"],
        }
        problems = timed["problems"] + traced["problems"]
        for label, bad in (
            (f"metrics not emitted: {sorted(wanted - set(emitted))}", wanted - set(emitted)),
            ("a metric is not finite", not all(map(math.isfinite, emitted.values()))),
            ("failed_ratio is not 0", timed["failed"] or traced["failed"]),
            (f"output checks: {problems}", problems),
            ("same-seed digests differ", len(digests) != 1),
        ):
            if bad:
                failures.append(f"{name}: {label}")
        print(f"selftest {name}: {timed['attempted']} ops, digest {timed['digest'][:12]}")
    elapsed = time.perf_counter() - started
    for failure in failures:
        print(f"selftest FAILED -- {failure}")
    print(f"selftest: {len(spec['workloads'])} workloads, all layer drivers, {elapsed:.1f} s")
    return 1 if failures else 0


def _verdict(metric: dict, a: dict, b: dict, same_seed: bool) -> tuple[float, str]:
    """Delta of B over A as a share of A, and the verdict against the bound."""
    base, new = a["value"], b["value"]
    delta = (new - base) / abs(base) if base else (0.0 if new == base else math.inf)
    worse = delta > 0 if metric["better"] == "lower" else delta < 0
    if metric["name"] not in HOST_METRICS and same_seed:
        # Exact for a seed: any difference is a change of modelled behaviour.
        if new == base:
            return delta, "same"
        return delta, "worse" if worse else "better"
    if max(spread(a), spread(b)) > metric["bound"]:
        return delta, "unresolved"
    if abs(delta) <= metric["bound"]:
        return delta, "same"
    return delta, "worse" if worse else "better"


def cmd_compare(args: argparse.Namespace) -> int:
    spec = load_spec()
    with open(args.a, encoding="utf-8") as handle:
        doc_a = json.load(handle)
    with open(args.b, encoding="utf-8") as handle:
        doc_b = json.load(handle)
    same_seed = doc_a["seed"] == doc_b["seed"]
    any_worse = False
    print(f"compare: A={args.a} (seed {doc_a['seed']})  B={args.b} (seed {doc_b['seed']})")
    print(f"{'workload':<17}{'metric':<22}{'A value':>15}{'B value':>15}{'delta':>10}  verdict")
    for name in doc_a["workloads"]:
        if name not in doc_b["workloads"]:
            continue
        rec_a, rec_b = doc_a["workloads"][name], doc_b["workloads"][name]
        for metric in spec["end_to_end"] + [FAILED_RATIO]:
            a = rec_a["end_to_end"][metric["name"]]
            b = rec_b["end_to_end"][metric["name"]]
            delta, verdict = _verdict(metric, a, b, same_seed)
            any_worse = any_worse or verdict == "worse"
            print(
                f"{name:<17}{metric['name']:<22}{_fmt(a['value']):>15}"
                f"{_fmt(b['value']):>15}{delta:>+10.2%}  {verdict}"
            )
        if same_seed and rec_a["virtual_digest"] != rec_b["virtual_digest"]:
            print(f"{name:<17}virtual_digest differs: modelled behaviour changed")
    return 1 if any_worse else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure one workload or all of them")
    run.add_argument("--workload")
    run.add_argument("--all", action="store_true")
    run.add_argument("--selftest", action="store_true")
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--seconds", type=float, default=None)
    run.add_argument("--trace", type=int, choices=(0, 1), default=None)
    run.add_argument("--out")
    run.set_defaults(handler=cmd_run)
    compare = commands.add_parser("compare", help="compare two --out documents")
    compare.add_argument("a")
    compare.add_argument("b")
    compare.set_defaults(handler=cmd_compare)
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except RuntimeError as error:
        # A measuring process died or a named metric was not emitted: no
        # result line, non-zero exit.
        print(f"bench: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
