"""The result contract shared by the invariant-checked experiments.

``chaos``, ``churn``, ``failover``, ``fleet``, ``multipath`` and
``offload`` each return a dataclass result whose ``config`` carries the
seed.  Mixing in :class:`ExperimentResult` gives it the whole contract the
CLI, CI and the recorded baselines rely on; the subclass supplies only
what differs per experiment:

* ``NAME`` — the CLI command and the ``experiment`` key of both files;
* ``invariants`` — named booleans, every one of which must hold;
* :meth:`~ExperimentResult.render_body` — the text above the footer;
* :meth:`~ExperimentResult.baseline_body` and
  :meth:`~ExperimentResult.metrics_body` — the payload keys besides
  ``experiment``/``seed``/``invariants``.
"""

from __future__ import annotations

import json
from typing import ClassVar

__all__ = ["ExperimentResult"]


class ExperimentResult:
    """``ok``, the invariants footer, and the two JSON documents.

    Each experiment's result supplies ``invariants`` (name → held) and the
    three bodies the shared framing wraps: ``render_body()`` (table lines),
    ``baseline_body()`` and ``metrics_body()`` (JSON dicts).
    """

    NAME: ClassVar[str]

    @property
    def ok(self) -> bool:
        """Every invariant held — the CLI exits non-zero otherwise."""
        return all(self.invariants.values())

    # -- the shared framing ----------------------------------------------
    def render(self) -> str:
        footer = "invariants: " + ", ".join(
            f"{name}={'ok' if held else 'VIOLATED'}"
            for name, held in self.invariants.items()
        )
        return "\n".join([*self.render_body(), "", footer])

    def _framed(self, body: dict) -> dict:
        return {
            "experiment": self.NAME,
            "seed": self.config.seed,
            **body,
            "invariants": self.invariants,
        }

    def to_baseline(self) -> dict:
        """The ``benchmarks/results/BENCH_<NAME>.json`` payload."""
        return self._framed(self.baseline_body())

    def metrics_payload(self) -> dict:
        """The ``--metrics-out`` document: raw registry snapshots plus
        derived accounting.  Same seed ⇒ byte-identical canonical JSON —
        CI diffs two of these per experiment."""
        return self._framed(self.metrics_body())

    def write_baseline(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_baseline(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def write_metrics(self, path: str) -> None:
        """Write :meth:`metrics_payload` as canonical JSON (the encoding
        of :meth:`repro.obs.MetricsSnapshot.to_json`)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps(
                    self.metrics_payload(),
                    sort_keys=True,
                    separators=(",", ":"),
                )
            )
            handle.write("\n")
