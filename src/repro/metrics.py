"""Measurement helpers: percentiles, boxplot summaries, time series.

The paper reports latency distributions as boxplots (median with p25/p75
boxes and p5/p95 whiskers — Figure 3), percentile-vs-load curves (p95 —
Figure 5), and latency-vs-time series (Figure 4).  This module implements
exactly those reductions so experiment harnesses stay declarative.

The reductions use the standard library only, and reproduce numpy's
default ``percentile`` ("linear" rule) and ``mean`` (pairwise summation)
bit for bit, so every recorded table kept its bytes when numpy left the
dependency list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

__all__ = [
    "mean",
    "percentile",
    "BoxplotSummary",
    "LatencyRecorder",
    "TimeSeries",
    "format_table",
]


def _sorted_sample(values: Sequence[float], what: str) -> list[float]:
    """``values`` as sorted floats; an empty sample or a NaN is an error
    (a NaN has no place in an order, so ``sorted`` would misplace it)."""
    if len(values) == 0:
        raise ValueError(what)
    ordered = sorted(map(float, values))
    if any(math.isnan(v) for v in ordered):
        raise ValueError("sample contains NaN")
    return ordered


def mean(values: Sequence[float]) -> float:
    """The mean as a left fold: bit for bit ``sum(values) / len(values)`` on
    Python 3.11, on every version (from 3.12 ``sum`` compensates rounding)."""
    total = 0
    for value in values:
        total += value
    return total / len(values)


def _percentile_sorted(ordered: list[float], p: float) -> float:
    """numpy's "linear" percentile of an already sorted sample."""
    index = (len(ordered) - 1) * (p / 100)
    lo = int(index)
    a = ordered[lo]
    b = ordered[min(lo + 1, len(ordered) - 1)]
    g = index - lo
    # numpy's lerp: from the nearer end, so g = 1 lands exactly on b.
    if g < 0.5:
        return a + (b - a) * g
    return b - (b - a) * (1 - g)


def _pairwise_sum(values: list[float], start: int, n: int) -> float:
    """numpy's pairwise summation of ``values[start:start + n]``: eight
    accumulators over blocks of at most 128, larger runs halved at a
    multiple of eight.  Plain loops, not ``sum``: from Python 3.12,
    ``sum`` compensates float rounding and would differ in the last bit."""
    if n < 8:
        total = 0.0
        for i in range(start, start + n):
            total += values[i]
        return total
    if n <= 128:
        r = values[start : start + 8]
        end = start + n - n % 8
        for i in range(start + 8, end, 8):
            for j in range(8):
                r[j] += values[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(end, start + n):
            total += values[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, start, half) + _pairwise_sum(
        values, start + half, n - half
    )


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0–100) of ``values`` (linear interpolation)."""
    if not 0 <= p <= 100:
        raise ValueError(f"percentile out of range: {p}")
    return _percentile_sorted(
        _sorted_sample(values, "percentile of an empty sequence"), p
    )


@dataclass(frozen=True)
class BoxplotSummary:
    """The five-number summary Figure 3 plots, plus mean and count."""

    p5: float
    p25: float
    p50: float
    p75: float
    p95: float
    mean: float
    count: int

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "BoxplotSummary":
        """Summarize a sample (raises on an empty one or a NaN)."""
        floats = [float(v) for v in values]
        ordered = _sorted_sample(floats, "cannot summarize an empty sample")
        p5, p25, p50, p75, p95 = (
            _percentile_sorted(ordered, p) for p in (5, 25, 50, 75, 95)
        )
        # The mean sums in sample order, as numpy does; 0.0 + keeps its
        # sign rule (an all -0.0 sample averages to 0.0).
        mean = (0.0 + _pairwise_sum(floats, 0, len(floats))) / len(floats)
        return cls(p5, p25, p50, p75, p95, mean, len(floats))

    def as_row(self, unit: str = "us") -> dict[str, float | int | str]:
        """Dict form used by the experiment harness printers."""
        return {
            "p5": self.p5,
            "p25": self.p25,
            "p50": self.p50,
            "p75": self.p75,
            "p95": self.p95,
            "mean": self.mean,
            "n": self.count,
            "unit": unit,
        }


class LatencyRecorder:
    """Collects labelled samples; one label per experiment configuration."""

    def __init__(self):
        self._samples: dict[str, list[float]] = {}

    def record(self, label: str, value: float) -> None:
        """Add one sample under ``label``."""
        self._samples.setdefault(label, []).append(value)

    def _samples_for(self, label: str) -> list[float]:
        """The sample list under ``label``; unknown labels are a
        :class:`KeyError` naming the label and what exists — not the
        misleading empty-sample :class:`ValueError` that summarizing an
        unrecorded label used to surface."""
        try:
            return self._samples[label]
        except KeyError:
            available = ", ".join(sorted(self._samples)) or "none"
            raise KeyError(
                f"no samples recorded under label {label!r} "
                f"(available labels: {available})"
            ) from None

    def summary(self, label: str) -> BoxplotSummary:
        """Boxplot summary of one label's samples."""
        return BoxplotSummary.from_values(self._samples_for(label))


class TimeSeries:
    """(time, value) samples with binning — what Figure 4 plots."""

    def __init__(self):
        self.times: list[float] = []
        self.values: list[float] = []

    def record(self, time: float, value: float) -> None:
        """Add one timestamped sample."""
        self.times.append(time)
        self.values.append(value)

    def bins(
        self, width: float, start: Optional[float] = None, end: Optional[float] = None
    ) -> list[tuple[float, BoxplotSummary]]:
        """Summarize samples into fixed-width time bins.

        Returns ``(bin_start_time, summary)`` for every non-empty bin.
        """
        if width <= 0:
            raise ValueError("bin width must be positive")
        if not self.times:
            return []
        t0 = min(self.times) if start is None else start
        t1 = max(self.times) if end is None else end
        buckets: dict[int, list[float]] = {}
        for t, v in zip(self.times, self.values):
            if t < t0 or t > t1:
                continue
            index = int((t - t0) // width)
            # A sample landing exactly on ``end`` belongs to the final bin;
            # when (end - start) is a whole number of widths, the division
            # above would otherwise open a spurious zero-width bin at
            # ``end`` (start=0, end=10, width=0.5: t=10 -> bin 20).
            if t == t1 and index > 0 and t0 + index * width >= t1:
                index -= 1
            buckets.setdefault(index, []).append(v)
        return [
            (t0 + index * width, BoxplotSummary.from_values(samples))
            for index, samples in sorted(buckets.items())
        ]

    def split_at(self, time: float) -> tuple[list[float], list[float]]:
        """Values before ``time`` and values at/after it (for step checks)."""
        before = [v for t, v in zip(self.times, self.values) if t < time]
        after = [v for t, v in zip(self.times, self.values) if t >= time]
        return before, after


def format_table(rows: list[dict], columns: Optional[list[str]] = None) -> str:
    """Render dict rows as an aligned text table (harness output).

    Without an explicit ``columns`` list, the columns are the union of
    every row's keys in first-appearance order — a key missing from the
    first row is still rendered (blank where absent), not silently
    dropped.  Numeric formatting is decided per column: a column holding
    any float renders *all* its numbers with two decimals, so a mixed
    int/float column cannot show ``0`` next to ``0.00``.
    """
    if not rows:
        return "(no rows)"
    if columns is not None:
        cols = list(columns)
    else:
        cols = []
        for row in rows:
            for key in row:
                if key not in cols:
                    cols.append(key)
    float_cols = {
        col
        for col in cols
        if any(isinstance(row.get(col), float) for row in rows)
    }
    rendered: list[list[str]] = [[str(c) for c in cols]]
    for row in rows:
        cells = []
        for col in cols:
            value = row.get(col, "")
            if isinstance(value, bool):
                cells.append(str(value))
            elif col in float_cols and isinstance(value, (int, float)):
                cells.append(f"{value:.2f}")
            else:
                cells.append(str(value))
        rendered.append(cells)
    widths = [max(len(line[i]) for line in rendered) for i in range(len(cols))]
    lines = [
        "  ".join(cell.rjust(width) for cell, width in zip(line, widths))
        for line in rendered
    ]
    lines.insert(1, "  ".join("-" * width for width in widths))
    return "\n".join(lines)
