"""Order statistics used by every report: nothing here knows a workload."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

__all__ = ["percentile", "beyond", "summarize", "spread"]


def percentile(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sample (no interpolation, so
    the value is always one that was observed)."""
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie strictly beyond the nearest-rank
    ``p``-th percentile; a percentile is only reported when this is >= 10."""
    return n - max(1, math.ceil(p / 100.0 * n))


def summarize(samples: Sequence[float], value=statistics.median) -> dict:
    """Repeated measurements of one metric: the reported ``value`` (the
    median unless the caller names another statistic), with the median,
    quartiles and count beside it."""
    values = [float(v) for v in samples]
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": value(values),
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "samples": values,
    }


def spread(summary: dict) -> float:
    """Run-to-run spread: interquartile distance as a share of the median."""
    if not summary["median"]:
        return 0.0
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])
