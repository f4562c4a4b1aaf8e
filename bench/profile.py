"""Ledger source (II): one repeat under ``cProfile``, folded into layers.

Every function's *self* time is charged to the bucket its source file belongs
to.  Built-ins, the standard library and third-party code (``heapq``,
``struct``, ``random``, ``networkx``, ...) have no bucket of their own: their
self time is charged to whoever called them, through the profiler's
``callers`` table, walking further up while the caller is itself external.
What still cannot be placed (a chain of externals deeper than the walk, or
the profiler's own frame) is reported as the unattributed remainder.

``cProfile`` taxes every Python call but not the work inside native code, so
shares lean towards call-heavy layers; they say where to look, not how much a
change will save -- that is measured with the profiler off.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
from typing import Callable, Optional

__all__ = ["BUCKETS", "bucket_of", "traced", "fold"]

#: Layer buckets, in report order.
BUCKETS = (
    "sim.eventloop",
    "sim.network",
    "sim.resources",
    "sim.transport",
    "sim.faults",
    "sim.other",
    "core.wire",
    "core.rpc",
    "core.negotiate",
    "core.datapath",
    "core.failover",
    "chunnels",
    "discovery",
    "reconfig",
    "apps",
    "obs",
    "bench",
)

#: Source files with a bucket of their own; the rest of a package falls to
#: the package's catch-all below.
_FILES = {
    "sim/eventloop.py": "sim.eventloop",
    "sim/network.py": "sim.network",
    "sim/resources.py": "sim.resources",
    "sim/transport.py": "sim.transport",
    "sim/faults.py": "sim.faults",
    "core/wire.py": "core.wire",
    "core/messages.py": "core.wire",
    "core/rpc.py": "core.rpc",
    "core/connection.py": "core.datapath",
    "core/stack.py": "core.datapath",
    "core/chunnel.py": "core.datapath",
    "core/failover.py": "core.failover",
    "metrics.py": "obs",
    "errors.py": "core.negotiate",
}
_PACKAGES = {
    "sim": "sim.other",
    # negotiation, dag, policy, negcache, establish, runtime, registry, ...
    "core": "core.negotiate",
    "chunnels": "chunnels",
    "discovery": "discovery",
    "reconfig": "reconfig",
    "apps": "apps",
    "obs": "obs",
    "workloads": "bench",
}
_MAX_WALK = 6


@functools.lru_cache(maxsize=None)
def bucket_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to, or None for external code."""
    parts = filename.replace(os.sep, "/").split("/")
    if "repro" in parts[:-1]:
        inside = parts[len(parts) - parts[::-1].index("repro") :]
        return _FILES.get("/".join(inside)) or _PACKAGES.get(inside[0])
    if len(parts) >= 2 and parts[-2] == "bench":
        return "bench"
    return None


def traced(fn: Callable[[], object]) -> tuple[object, dict]:
    """Run ``fn()`` under cProfile; returns ``(result, raw stats table)``."""
    profiler = cProfile.Profile()
    result = profiler.runcall(fn)
    return result, pstats.Stats(profiler).stats


def fold(stats: dict, ops: int) -> dict:
    """``trace.<bucket>.share`` / ``.calls_per_op`` and the attributed share."""
    self_time = dict.fromkeys(BUCKETS, 0.0)
    calls = dict.fromkeys(BUCKETS, 0)
    total = sum(entry[2] for entry in stats.values())

    def charge(func, amount: float, depth: int) -> float:
        """Push ``amount`` of external self time up to bucketed callers;
        returns what could be placed."""
        bucket = bucket_of(func[0])
        if bucket is not None:
            self_time[bucket] += amount
            return amount
        callers = stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
        weight = sum(entry[3] for entry in callers.values())
        if depth >= _MAX_WALK or not callers or weight <= 0:
            return 0.0
        return sum(
            charge(caller, amount * entry[3] / weight, depth + 1)
            for caller, entry in callers.items()
        )

    placed = 0.0
    for func, (_cc, ncalls, own, _cum, callers) in stats.items():
        bucket = bucket_of(func[0])
        if bucket is not None:
            self_time[bucket] += own
            calls[bucket] += ncalls
            placed += own
            continue
        for caller, entry in callers.items():
            placed += charge(caller, entry[2], 1)

    metrics = {}
    for bucket in BUCKETS:
        metrics[f"trace.{bucket}.share"] = self_time[bucket] / total if total else 0.0
        metrics[f"trace.{bucket}.calls_per_op"] = calls[bucket] / max(ops, 1)
    metrics["trace.attributed_share"] = placed / total if total else 0.0
    return metrics
