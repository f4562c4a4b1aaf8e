"""Operator scheduling policies for implementation choice (§4.3, §6).

When several implementations of a Chunnel are feasible for a connection,
Bertha chooses using an operator-supplied **policy**: a ranking over offers.
The paper's prototype policy — reproduced here as :class:`DefaultPolicy` —
"prefers client-provided implementations over server-provided
implementations, and set[s] implementation priorities to prefer kernel
bypass and hardware accelerated implementations over standard
implementations".

Ranking rather than single choice matters because the winner may fail
resource reservation (§6's contended-switch example); negotiation walks the
ranked list until a reservation sticks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .chunnel import ChunnelSpec, Offer

__all__ = [
    "PolicyContext",
    "Policy",
    "DefaultPolicy",
    "PriorityFirstPolicy",
    "PreferServerPolicy",
    "PreferPlacementPolicy",
]


@dataclass
class PolicyContext:
    """Facts about the connection a policy may consult."""

    client_entity: str
    server_entity: str
    client_host: str
    server_host: str
    same_host: bool
    path_switches: list[str] = field(default_factory=list)
    extras: dict = field(default_factory=dict)


class Policy:
    """Ranks feasible offers: ``rank(spec, offers, ctx)`` returns ``offers``
    ordered from most to least preferred."""

    @staticmethod
    def _stable_tiebreak(offer: Offer) -> tuple:
        """Deterministic final tie-break so negotiation is reproducible."""
        return (offer.meta.name, offer.origin, offer.location or "")


_ORIGIN_RANK = {"client": 2, "network": 1, "server": 0}


class DefaultPolicy(Policy):
    """The paper's prototype policy.

    Order: client-provided first, then network-provided, then
    server-provided; within an origin class, higher priority first (built-in
    implementations assign higher priorities to kernel-fast-path and
    hardware placements).
    """

    def rank(
        self, spec: ChunnelSpec, offers: list[Offer], ctx: PolicyContext
    ) -> list[Offer]:
        return sorted(
            offers,
            key=lambda o: (
                -_ORIGIN_RANK.get(o.origin, -1),
                -o.meta.priority,
                self._stable_tiebreak(o),
            ),
        )


class PriorityFirstPolicy(Policy):
    """Pure priority order, ignoring who offered the implementation."""

    def rank(
        self, spec: ChunnelSpec, offers: list[Offer], ctx: PolicyContext
    ) -> list[Offer]:
        return sorted(
            offers,
            key=lambda o: (-o.meta.priority, self._stable_tiebreak(o)),
        )


class PreferServerPolicy(Policy):
    """Server-provided implementations first (e.g. to keep clients thin)."""

    def rank(
        self, spec: ChunnelSpec, offers: list[Offer], ctx: PolicyContext
    ) -> list[Offer]:
        return sorted(
            offers,
            key=lambda o: (
                _ORIGIN_RANK.get(o.origin, -1),
                -o.meta.priority,
                self._stable_tiebreak(o),
            ),
        )


class PreferPlacementPolicy(Policy):
    """Prefer specific placements (e.g. switch > smartnic > anything).

    ``order`` lists placement values best-first; unlisted placements rank
    after listed ones by priority.
    """

    def __init__(self, order: Optional[list[str]] = None):
        self.order = order or ["switch", "smartnic", "kernel-fastpath"]

    def rank(
        self, spec: ChunnelSpec, offers: list[Offer], ctx: PolicyContext
    ) -> list[Offer]:
        def placement_rank(offer: Offer) -> int:
            value = offer.meta.placement.value
            return self.order.index(value) if value in self.order else len(self.order)

        return sorted(
            offers,
            key=lambda o: (
                placement_rank(o),
                -o.meta.priority,
                self._stable_tiebreak(o),
            ),
        )
