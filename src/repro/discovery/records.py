"""Discovery-service records (§4.2).

Offload developers, network operators, and system administrators register
**implementation records**: one available implementation of a Chunnel type
at a concrete location (a switch, a host's kernel fast path, a SmartNIC).
The record carries the implementation's :class:`~repro.core.chunnel.ImplMeta`
(scope, endpoint constraint, priority, resource needs) so negotiation can
filter and rank without fetching code.

A :class:`Lease` tracks one consumer's reservation of a record's resources;
the service refcounts leases per owner so a shared device program (e.g. an
XDP sharder serving many connections of one application) is reserved once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.chunnel import ImplMeta, Offer

__all__ = ["ImplementationRecord", "Lease"]


@dataclass
class ImplementationRecord:
    """One registered implementation at one location."""

    meta: ImplMeta
    location: str
    record_id: str

    def to_offer(self) -> Offer:
        """The negotiation offer this record generates."""
        return Offer(
            meta=self.meta,
            origin="network",
            location=self.location,
            record_id=self.record_id,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ImplementationRecord {self.record_id} "
            f"{self.meta.chunnel_type}/{self.meta.name} @ {self.location}>"
        )


@dataclass
class Lease:
    """One owner's hold on a record's resources, charged once.

    ``count`` is the number of *holders* — runtimes with at least one
    connection bound under the lease (several only for a group-scoped
    owner) — not of connections: those are counted by each holder's
    :class:`~repro.core.leases.LeaseTable`.
    """

    record_id: str
    owner: str
    count: int = 1
    granted_at: float = 0.0

    def key(self) -> tuple[str, str]:
        return (self.record_id, self.owner)
