"""The per-world metrics registry.

Before this module existed, every layer kept its own ad-hoc counters —
``RpcStats`` on runtimes and discovery clients, four independent
``malformed_total`` attributes, per-link byte counters, per-cause fault
drops, PCIe crossing counts — and every experiment hand-collected the
subset it knew about.  The registry unifies them under one hierarchical
namespace without changing any owner's attribute API: owners keep
incrementing their plain Python attributes, and the registry holds *pull
sources* — callables evaluated lazily at :meth:`MetricsRegistry.snapshot`
time.  Observation therefore costs nothing on the hot path and cannot
perturb the simulation's determinism: two same-seed runs produce
bit-identical snapshots.

Naming scheme (dot-hierarchical, lowercase)::

    net.delivered                       delivery-engine counters
    net.dropped.<cause>                 per-cause drop counters
    link.<a>-<b>.bytes                  per-link byte/datagram counters
    faults.<a>-<b>.<cause>             per-link fault-plan decisions
    pcie.<host>.crossings               host<->device bus accounting
    discovery.<counter>                 the deployment's discovery service
    rpc.<dialect>.<entity>.<counter>   shared RpcStats per dialect
    runtime.<entity>.<counter>          per-process runtime state
    listener.<entity>.<name>.<counter>  per-listener negotiation counters
    conn.<conn_id>.<role>.<counter>     per-connection data-path counters
    reconfig.<entity>.<counter>         transition-engine outcomes
    experiment.<counter>                workload-level counters/histograms

Three instrument flavours:

* :meth:`MetricsRegistry.counter` / :meth:`~MetricsRegistry.gauge` — owned
  by the registry, for code (experiments, new subsystems) without a legacy
  attribute to wrap;
* :meth:`MetricsRegistry.bind` — wraps an existing attribute (the
  migration path for every pre-existing ad-hoc counter);
* :meth:`MetricsRegistry.histogram` — ordered observations with a
  deterministic count/sum/min/max summary in snapshots and the raw values
  available for percentile reductions.
"""

from __future__ import annotations

import json
import re
from typing import Any, Callable, Iterator, Mapping, Optional, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
]

_NAME_RE = re.compile(r"^[a-zA-Z0-9_.:/-]+$")

Number = Union[int, float]


def _check_name(name: str) -> str:
    if not name or not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


class _Attr:
    """A pull source reading ``getattr(obj, attr)``: two slots where a
    closure over them costs a function, a tuple and two cells — and a
    world binds five per connection."""

    __slots__ = ("obj", "attr")

    def __init__(self, obj: Any, attr: str):
        self.obj = obj
        self.attr = attr

    def __call__(self) -> Any:
        return getattr(self.obj, self.attr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<_Attr {type(self.obj).__name__}.{self.attr}>"


class Counter:
    """A monotonically increasing registry-owned counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: cannot add {amount}")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A registry-owned set-to-current-value instrument."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Number = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}={self.value}>"


class Histogram:
    """Ordered observations with a deterministic snapshot summary.

    Snapshots expose ``<name>.count`` / ``.sum`` / ``.min`` / ``.max``;
    percentile reductions read :attr:`values` directly (insertion order is
    observation order, which on virtual time is deterministic).
    """

    __slots__ = ("name", "values")

    def __init__(self, name: str):
        self.name = name
        self.values: list[float] = []

    def observe(self, value: float) -> None:
        self.values.append(float(value))

    def summary(self) -> dict[str, Number]:
        if not self.values:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0}
        # A left fold, not sum(): from Python 3.12 sum() compensates float
        # rounding, and a snapshot must read the same on every version.
        total = 0.0
        for value in self.values:
            total += value
        return {
            "count": len(self.values),
            "sum": total,
            "min": min(self.values),
            "max": max(self.values),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={len(self.values)}>"


class MetricsSnapshot(Mapping[str, Number]):
    """An immutable point-in-time view of a registry.

    A plain mapping of full metric name → number, plus :meth:`diff` and a
    canonical JSON form (sorted keys, so equal snapshots serialize to
    byte-identical documents — the CI determinism gate compares these).
    """

    def __init__(self, values: dict[str, Number], at: Optional[float] = None):
        self._values = dict(values)
        self.at = at

    # -- Mapping protocol ---------------------------------------------------
    def __getitem__(self, name: str) -> Number:
        return self._values[name]

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._values))

    def __len__(self) -> int:
        return len(self._values)

    def get(self, name: str, default: Number = 0) -> Number:
        """The value under ``name``, or ``default`` when absent."""
        return self._values.get(name, default)

    def sum(self, prefix: str, suffix: str = "") -> Number:
        """Sum every metric under ``prefix`` (optionally ending in
        ``suffix``) — e.g. ``sum("rpc.discovery.", ".retransmits_total")``
        totals one counter across all entities."""
        return sum(
            value
            for name, value in self._values.items()
            if name.startswith(prefix) and name.endswith(suffix)
        )

    def as_dict(self) -> dict[str, Number]:
        """A sorted plain-dict copy (what the JSON exporter writes)."""
        return {name: self._values[name] for name in sorted(self._values)}

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, no whitespace variation."""
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MetricsSnapshot {len(self._values)} metrics at={self.at}>"


class MetricsRegistry:
    """One hierarchical namespace over every counter in a simulated world.

    Sources are *pulled*: each registered name maps to a zero-argument
    callable evaluated at :meth:`snapshot` time, or, once :meth:`freeze`
    has run, to the number it read.  Registration happens at
    construction time of the owning object (links, runtimes, connections,
    the discovery service, ...), so by the time an experiment snapshots,
    the whole world is visible under one namespace.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._sources: dict[str, Union[Callable[[], Any], Number]] = {}
        self._clock = clock

    # -- registration -------------------------------------------------------
    def register(self, name: str, source: Callable[[], Any]) -> None:
        """Register a pull source under ``name`` (unique per registry)."""
        _check_name(name)
        if name in self._sources:
            raise ValueError(f"metric {name!r} already registered")
        self._sources[name] = source

    def replace(self, name: str, source: Callable[[], Any]) -> None:
        """Register ``name``, overriding any existing source — for owners
        that can legitimately be swapped out (e.g. a fault plan re-attached
        to a link)."""
        _check_name(name)
        self._sources[name] = source

    def bind(self, name: str, obj: Any, attr: str, replace: bool = False) -> None:
        """Register ``getattr(obj, attr)`` under ``name`` — the migration
        path for pre-existing ad-hoc counters, whose attribute API stays
        exactly as it was.  ``replace`` allows a fresh owner to take over
        the name (e.g. a rebuilt runtime on the same entity)."""
        getattr(obj, attr)  # fail fast on typos
        method = self.replace if replace else self.register
        method(name, _Attr(obj, attr))

    def unregister(self, name: str) -> None:
        """Drop ``name``'s source if present (idempotent).

        For ephemeral owners — e.g. per-connection counters in a
        fleet-scale world, unbound at close so the registry (and every
        snapshot) stays proportional to *live* objects, not history.
        """
        self._sources.pop(name, None)

    def freeze(self, name: str) -> None:
        """Replace ``name``'s source with the value it reads now, in place
        (the name keeps its position in snapshot order).

        For owners that stop changing but should stay visible: a closed
        connection's counters keep their final values in every later
        snapshot while the source no longer keeps the owner alive.  The
        value itself is stored, not a closure over it; idempotent.
        """
        source = self._sources[name]
        if callable(source):
            self._sources[name] = source()

    def bind_stats(self, prefix: str, stats: Any) -> None:
        """Register every ``RpcStats`` field of ``stats`` under
        ``<prefix>.<field>`` (round_trips, retransmits_total, late_replies,
        failures_total), replacing any earlier owner: stats belong to a
        runtime or manager that a rebuilt one on the same entity takes
        over."""
        for field in (
            "round_trips",
            "retransmits_total",
            "late_replies",
            "failures_total",
        ):
            self.bind(f"{prefix}.{field}", stats, field, replace=True)

    def counter(self, name: str) -> Counter:
        """Create and register a registry-owned counter."""
        instrument = Counter(name)
        self.register(name, _Attr(instrument, "value"))
        return instrument

    def gauge(
        self, name: str, fn: Optional[Callable[[], Number]] = None
    ) -> Gauge:
        """Create and register a gauge; ``fn`` makes it computed-on-pull
        (the returned Gauge is then only a handle)."""
        instrument = Gauge(name)
        self.register(name, fn if fn is not None else _Attr(instrument, "value"))
        return instrument

    def histogram(self, name: str) -> Histogram:
        """Create and register a histogram; snapshots carry its
        count/sum/min/max under ``<name>.<stat>``."""
        instrument = Histogram(name)
        for stat in ("count", "sum", "min", "max"):
            self.register(
                f"{name}.{stat}",
                lambda stat=stat, h=instrument: h.summary()[stat],
            )
        return instrument

    # -- introspection ------------------------------------------------------
    def __len__(self) -> int:
        return len(self._sources)

    # -- collection ---------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        """Evaluate every source; numbers only (bools become 0/1)."""
        values: dict[str, Number] = {}
        for name, source in self._sources.items():
            value = source() if callable(source) else source
            if isinstance(value, bool):
                value = int(value)
            if not isinstance(value, (int, float)):
                raise TypeError(
                    f"metric {name!r} produced non-numeric {value!r}"
                )
            values[name] = value
        at = self._clock() if self._clock is not None else None
        return MetricsSnapshot(values, at=at)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MetricsRegistry {len(self._sources)} sources>"
