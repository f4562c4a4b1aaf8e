"""What every workload hands back, and how it becomes the virtual metrics.

A workload is two functions: ``generate(seed, scale)`` builds the inputs from
the seed (keys, ops, gaps, sizes, fault seeds -- the library never sees the
seed itself), and ``run(inputs)`` builds fresh worlds, drives them to
completion and returns an :class:`Outcome`.  One ``run`` is one *repeat*;
repeats of the same inputs must be bit-identical, which :func:`seal` turns
into a digest the caller compares.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.sim import Network

from .stats import beyond, percentile

__all__ = ["Outcome", "seal", "virtual_metrics"]


@dataclass
class Outcome:
    """One repeat's raw results (virtual clock only; the caller times it)."""

    #: Ops started / answered correctly / given up on, over every world.
    attempted: int
    completed: int
    failed: int
    #: The workload's latency sample in virtual microseconds (reference rung
    #: for a ladder); a failed op is entered at the harness's give-up time.
    latencies_us: list
    #: Open loop: measured completion rate of the highest passing rung;
    #: closed loop: completed ops per virtual second.  Thousands per second.
    sustained_kops: float
    #: The world the ledger reads its counts and spans from, and how many
    #: ops completed in it (the reference rung's, for a ladder).
    reference: Network
    reference_ops: int
    #: Every world the repeat built, in build order.
    worlds: list
    #: Worst distance between an op's due time and its actual send time.
    lateness_us: float = 0.0
    #: Output-check failures (wrong value, duplicate delivery, ...).
    problems: list = field(default_factory=list)
    #: Free-form rows for the human report (ladder table, chosen impls).
    notes: dict = field(default_factory=dict)
    #: Filled by :func:`seal`.
    snapshots: list = field(default_factory=list)
    digest: str = ""


def seal(outcome: Outcome) -> Outcome:
    """Snapshot every world's registry and hash the canonical exports.

    Done after the timed section: the registry is pull-based, so reading it
    is the first time any of its sources run.
    """
    outcome.snapshots = [net.obs.snapshot() for net in outcome.worlds]
    sha = hashlib.sha256()
    for snap in outcome.snapshots:
        sha.update(snap.to_json().encode())
        sha.update(b"\n")
    outcome.digest = sha.hexdigest()
    return outcome


def virtual_metrics(outcome: Outcome, full_scale: bool = True) -> dict:
    """The five virtual-clock end-to-end metrics of a sealed outcome."""
    sample = sorted(outcome.latencies_us)
    if full_scale and beyond(len(sample), 99) < 10:
        outcome.problems.append(
            f"op_p99_us needs >= 10 samples beyond it, n={len(sample)}"
        )
    wire_bytes = sum(snap.sum("link.", ".bytes") for snap in outcome.snapshots)
    return {
        "op_p50_us": percentile(sample, 50),
        "op_p99_us": percentile(sample, 99),
        "sustained_kops": outcome.sustained_kops,
        "failed_ratio": outcome.failed / outcome.attempted,
        "wire_bytes_per_op": wire_bytes / max(outcome.completed, 1),
    }
