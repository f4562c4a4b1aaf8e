"""Point-to-point links.

A link contributes two delay components to every datagram that crosses it:
propagation delay (fixed, distance-dependent) and serialization delay
(``size / bandwidth``).  Links are full duplex and, by design, not a
contention point in this repository's experiments — the paper's bottlenecks
are end-host processing, which :class:`repro.sim.resources.Station` models —
but per-link byte counters are kept so experiments can report traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .faults import FaultPlan

__all__ = ["Link", "GBPS", "MBPS", "US", "MS"]

# Convenient unit constants (base units: seconds and bytes/second).
US = 1e-6
MS = 1e-3
GBPS = 125_000_000.0  # 1 Gbit/s in bytes/second
MBPS = 125_000.0  # 1 Mbit/s in bytes/second

#: Every link's capacity, for serialization delay: 10 Gbit/s.
LINK_BANDWIDTH = 10 * GBPS


@dataclass
class Link:
    """A full-duplex link between two nodes.

    Parameters
    ----------
    a, b:
        Names of the endpoints (hosts or switches).
    latency:
        One-way propagation delay in seconds.

    Every link carries :data:`LINK_BANDWIDTH`.  ``fault_plan`` is an
    optional :class:`~repro.sim.faults.FaultPlan` evaluated on every
    crossing (``Network.attach_faults`` sets it); ``up`` is the
    administrative state: a down link drops every datagram (the chaos
    controller's link flaps).
    """

    a: str
    b: str
    latency: float = 5 * US
    fault_plan: Optional["FaultPlan"] = field(default=None, init=False)
    up: bool = field(default=True, init=False)
    bytes_carried: int = field(default=0, init=False)
    datagrams_carried: int = field(default=0, init=False)
    #: Invoked with the link after every administrative state *change*
    #: (``Network.add_link`` installs a route-cache invalidator here, so
    #: chaos link flaps cannot leave stale shortest paths behind).
    on_state_change: Optional[Callable[["Link"], None]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError("link latency must be non-negative")
        self.up = True  # through the property below; the hook does not fire

    def delay_for(self, size: int) -> float:
        """Total one-way delay for a datagram of ``size`` bytes."""
        return self.latency + size / LINK_BANDWIDTH

    def record(self, size: int) -> None:
        """Account a datagram of ``size`` bytes crossing the link."""
        self.bytes_carried += size
        self.datagrams_carried += 1


def _get_up(self: Link) -> bool:
    return self._up  # type: ignore[attr-defined]


def _set_up(self: Link, value: bool) -> None:
    previous = getattr(self, "_up", None)
    self._up = bool(value)  # type: ignore[attr-defined]
    if previous is not None and previous != self._up and self.on_state_change:
        self.on_state_change(self)


# ``up`` is a property so that *every* writer — ChaosController.set_link,
# flap_link's direct assignments, tests poking the attribute — triggers
# the state-change hook; the dataclass-generated ``__init__`` assigns
# through the setter too (initial assignment does not fire the hook).
Link.up = property(_get_up, _set_up)  # type: ignore[assignment]
