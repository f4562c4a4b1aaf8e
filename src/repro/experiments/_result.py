"""The result contract every experiment of the CLI table shares.

Each experiment returns a dataclass result whose ``config`` it ran.
Mixing in :class:`ExperimentResult` gives it the whole contract the CLI,
CI and the recorded files rely on; the subclass supplies only what
differs per experiment:

* ``NAME`` — the CLI command and the ``experiment`` key of the JSON files;
* ``invariants`` — named booleans, every one of which must hold;
* :meth:`~ExperimentResult.render_body` — the text above the footer;
* :meth:`~ExperimentResult.baseline_body` and
  :meth:`~ExperimentResult.metrics_body` — the payload keys besides
  ``experiment``/``seed``/``invariants``.

A figure or ablation mixes in :class:`TableResult` instead: its recorded
file is the rendered table itself, and its metrics document holds the
registry snapshot of every world it built.
"""

from __future__ import annotations

import json
from typing import ClassVar, Optional

__all__ = ["ExperimentResult", "TableResult"]


class ExperimentResult:
    """``ok``, the invariants footer, and the two documents.

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
            "seed": getattr(self.config, "seed", None),
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

    def baseline_text(self) -> str:
        """The recorded file's contents."""
        return json.dumps(self.to_baseline(), indent=2, sort_keys=True) + "\n"

    def write_baseline(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.baseline_text())

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


class TableResult(ExperimentResult):
    """A figure or ablation: the recorded file is the rendered table.

    The subclass supplies ``rows()`` (or overrides ``render_body``) and a
    ``worlds`` mapping, one registry snapshot per world the run built,
    under a label naming it.  The table's columns are the rows' keys in
    order, unless ``COLUMNS`` picks others.
    """

    COLUMNS: ClassVar[Optional[list[str]]] = None

    def render_body(self) -> list[str]:
        from ..metrics import format_table

        return format_table(self.rows(), columns=self.COLUMNS).splitlines()

    def baseline_text(self) -> str:
        return "\n".join(self.render_body()) + "\n"

    def metrics_body(self) -> dict:
        return {"worlds": self.worlds}
