"""Unified observability: one metrics registry + lifecycle tracing.

``repro.obs`` is the layer every experiment measures itself with:

* :class:`MetricsRegistry` — a hierarchical namespace of counters,
  gauges, and histograms that every ad-hoc counter in the simulator and
  control plane registers into (without changing its attribute API);
  :meth:`~MetricsRegistry.snapshot` produces an immutable, JSON-able,
  bit-reproducible view of the whole world.
* :class:`TraceLog` — structured connection-lifecycle spans on virtual
  time (negotiate → reserve → establish → data → reconfig epoch N →
  teardown), fed by the establishment pipeline, the RPC core, the
  reconfiguration engine, and the chaos controller.

Each :class:`~repro.sim.network.Network` owns one registry and one trace
log (``net.obs`` / ``net.trace``).
"""

from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
)
from .trace import Span, TraceLog

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Span",
    "TraceLog",
]
