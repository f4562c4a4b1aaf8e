"""Resource vectors for offload implementations (§4.2, §6).

Chunnel implementations declare what they need from the device that hosts
them — switch match-action stages, SRAM, SmartNIC offload slots, XDP CPU
share — as a :class:`ResourceVector`.  The discovery service tracks per-device
capacity and in-use vectors, and the multi-resource scheduler
(:mod:`repro.core.scheduler`) allocates among competing applications.

Resource names are free-form strings; the conventional ones used by the
built-in devices are exposed as constants.
"""

from __future__ import annotations

from typing import Mapping

from .wire import WireError, register_wire_type

__all__ = [
    "ResourceVector",
    "SWITCH_STAGES",
    "SWITCH_SRAM_KB",
    "NIC_SLOTS",
    "XDP_SHARE",
]

SWITCH_STAGES = "switch_stages"
SWITCH_SRAM_KB = "switch_sram_kb"
NIC_SLOTS = "nic_slots"
XDP_SHARE = "xdp_share"


class ResourceVector(Mapping[str, float]):
    """An immutable named vector of resource quantities.

    Supports the arithmetic the scheduler needs (add, subtract, fits-within,
    dominant share) while remaining a plain mapping for serialization.
    """

    __slots__ = ("_amounts",)

    def __init__(self, amounts: Mapping[str, float] | None = None, **kwargs: float):
        merged: dict[str, float] = dict(amounts or {})
        merged.update(kwargs)
        for name, amount in merged.items():
            if amount < 0:
                raise ValueError(f"negative resource amount {name}={amount}")
        # Zero entries are dropped so vectors have a canonical form.
        self._amounts = {k: float(v) for k, v in merged.items() if v != 0}

    # -- Mapping protocol -----------------------------------------------------
    def __getitem__(self, key: str) -> float:
        return self._amounts.get(key, 0.0)

    def __iter__(self):
        return iter(self._amounts)

    def __len__(self) -> int:
        return len(self._amounts)

    def __contains__(self, key: object) -> bool:
        return key in self._amounts

    # -- arithmetic ------------------------------------------------------------
    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        names = set(self._amounts) | set(other._amounts)
        return ResourceVector({n: self[n] + other[n] for n in names})

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        names = set(self._amounts) | set(other._amounts)
        result = {n: self[n] - other[n] for n in names}
        if any(v < -1e-12 for v in result.values()):
            raise ValueError(f"subtraction went negative: {result}")
        return ResourceVector({n: max(v, 0.0) for n, v in result.items()})

    def fits_within(self, capacity: "ResourceVector") -> bool:
        """True if every component is ≤ the corresponding capacity."""
        return all(amount <= capacity[name] + 1e-12 for name, amount in self.items())

    def dominant_share(self, capacity: "ResourceVector") -> float:
        """Max over resources of (demand / capacity) — DRF's key quantity.

        Resources absent from ``capacity`` are treated as unsatisfiable
        (share = ∞) unless the demand for them is zero.
        """
        share = 0.0
        for name, amount in self.items():
            total = capacity[name]
            if total == 0:
                return float("inf")
            share = max(share, amount / total)
        return share

    def scaled(self, factor: float) -> "ResourceVector":
        """Component-wise multiplication by ``factor`` (≥ 0)."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return ResourceVector({n: a * factor for n, a in self.items()})

    @property
    def is_zero(self) -> bool:
        """True for the empty vector (no resource needs)."""
        return not self._amounts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResourceVector):
            return NotImplemented
        return self._amounts == other._amounts

    def __hash__(self) -> int:
        return hash(frozenset(self._amounts.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self._amounts.items()))
        return f"ResourceVector({inner})"


def _vector_from_wire(amounts: dict[str, float]) -> ResourceVector:
    vector = ResourceVector(amounts)
    if len(vector) != len(amounts):
        raise WireError("zero resource amounts are never on the wire")
    return vector


register_wire_type(
    "resources",
    ResourceVector,
    fields=[("amounts", dict[str, float])],
    get=lambda vector: (vector._amounts,),
    build=_vector_from_wire,
)
