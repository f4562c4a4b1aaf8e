"""Multi-resource offload scheduling (§6, "Scheduling and Placement").

When several applications want the same device ("two programs can benefit
from offloading functionality to a P4 switch, but the switch only has
capacity for one"), someone must arbitrate.  Priorities alone cannot — the
paper says so explicitly — so this module provides schedulers in the
multi-resource fairness tradition the paper cites (DRF, Ghodsi et al.):

* :class:`FirstFitScheduler` — admit whoever asks first while it fits (the
  implicit behaviour of a registry with no scheduler).
* :class:`PriorityScheduler` — admit in priority order; ties by arrival.
* :class:`DrfScheduler` — dominant-resource fairness: repeatedly grant the
  pending request of the tenant with the lowest dominant share.

Schedulers serve two call sites: **online admission** from the discovery
service (:meth:`OffloadScheduler.admit`) and **offline planning** over a
batch of requests (:meth:`OffloadScheduler.plan`), which the §6 scheduling
ablation benchmark exercises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .resources import ResourceVector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..discovery.records import ImplementationRecord

__all__ = [
    "OffloadRequest",
    "Allocation",
    "OffloadScheduler",
    "FirstFitScheduler",
    "PriorityScheduler",
    "DrfScheduler",
]


@dataclass(frozen=True)
class OffloadRequest:
    """One tenant's request to place one offload program on a device."""

    tenant: str
    name: str
    need: ResourceVector
    priority: int = 0


@dataclass
class Allocation:
    """The outcome of planning a batch of requests against one device."""

    granted: list[OffloadRequest] = field(default_factory=list)
    denied: list[OffloadRequest] = field(default_factory=list)
    in_use: ResourceVector = field(default_factory=ResourceVector)

    def tenant_share(self, tenant: str, capacity: ResourceVector) -> float:
        """The tenant's dominant share under this allocation."""
        used = ResourceVector()
        for request in self.granted:
            if request.tenant == tenant:
                used = used + request.need
        return used.dominant_share(capacity)

    def tenants_served(self) -> set[str]:
        """Tenants with at least one granted request."""
        return {request.tenant for request in self.granted}


class OffloadScheduler:
    """Arbitrates offload placement on a contended device.  Subclasses
    implement ``plan(requests, capacity) -> Allocation``, deciding a whole
    batch at once (offline planning)."""

    def admit(
        self,
        record: "ImplementationRecord",
        owner: str,
        need: ResourceVector,
        capacity: ResourceVector,
        in_use: ResourceVector,
    ) -> bool:
        """Online admission for one reservation (default: fit check).

        Subclasses may veto a fitting request to preserve fairness headroom.
        """
        return (in_use + need).fits_within(capacity)

    def select_victims(
        self,
        record: "ImplementationRecord",
        owner: str,
        need: ResourceVector,
        capacity: ResourceVector,
        in_use: ResourceVector,
        leases: list,
    ) -> list:
        """Leases to preempt so a denied reservation could be admitted.

        Called by the discovery service after :meth:`admit` says no.
        ``leases`` is ``[(lease, lease_record), ...]`` for every live lease
        at the same device.  Returning a non-empty list revokes those leases
        (their holders are notified and expected to reconfigure away); the
        admission is then retried.  The default preempts nothing.
        """
        return []


class FirstFitScheduler(OffloadScheduler):
    """Grant requests in arrival order while they fit."""

    def plan(
        self, requests: list[OffloadRequest], capacity: ResourceVector
    ) -> Allocation:
        allocation = Allocation()
        for request in requests:
            if (allocation.in_use + request.need).fits_within(capacity):
                allocation.granted.append(request)
                allocation.in_use = allocation.in_use + request.need
            else:
                allocation.denied.append(request)
        return allocation


class PriorityScheduler(OffloadScheduler):
    """Grant requests highest-priority first (stable for equal priority)."""

    def plan(
        self, requests: list[OffloadRequest], capacity: ResourceVector
    ) -> Allocation:
        allocation = Allocation()
        ordered = sorted(
            enumerate(requests), key=lambda pair: (-pair[1].priority, pair[0])
        )
        for _index, request in ordered:
            if (allocation.in_use + request.need).fits_within(capacity):
                allocation.granted.append(request)
                allocation.in_use = allocation.in_use + request.need
            else:
                allocation.denied.append(request)
        return allocation

    def select_victims(self, record, owner, need, capacity, in_use, leases):
        """Preempt strictly-lower-priority leases, least important first.

        Only returns victims if evicting them actually makes the request
        fit — a higher-priority arrival never evicts peers for nothing.
        """
        victims = []
        freed = ResourceVector()
        ordered = sorted(
            leases,
            key=lambda pair: (pair[1].meta.priority, pair[0].granted_at),
        )
        for lease, lease_record in ordered:
            if lease_record.meta.priority >= record.meta.priority:
                break
            victims.append(lease)
            freed = freed + lease_record.meta.resources
            if ((in_use - freed) + need).fits_within(capacity):
                return victims
        return []


class DrfScheduler(OffloadScheduler):
    """Dominant-resource-fair planning.

    Each round, among tenants with pending requests, pick the tenant whose
    current dominant share is lowest and grant their oldest pending request
    if it fits; a tenant whose next request cannot fit is frozen out of
    further rounds.  This is the discrete DRF algorithm of Ghodsi et al.
    adapted to indivisible program placements.
    """

    def plan(
        self, requests: list[OffloadRequest], capacity: ResourceVector
    ) -> Allocation:
        allocation = Allocation()
        # Queue entries keep their arrival index so the denied list can be
        # emitted in arrival order rather than tenant-dict insertion order
        # (plan output must be a pure function of the request batch — the
        # bit-identical CI discipline).
        pending: dict[str, list[tuple[int, OffloadRequest]]] = {}
        for index, request in enumerate(requests):
            pending.setdefault(request.tenant, []).append((index, request))
        shares: dict[str, ResourceVector] = {
            tenant: ResourceVector() for tenant in pending
        }
        frozen: set[str] = set()
        while True:
            candidates = [
                tenant
                for tenant, queue in pending.items()
                if queue and tenant not in frozen
            ]
            if not candidates:
                break
            tenant = min(
                candidates,
                key=lambda t: (shares[t].dominant_share(capacity), t),
            )
            request = pending[tenant][0][1]
            if (allocation.in_use + request.need).fits_within(capacity):
                pending[tenant].pop(0)
                allocation.granted.append(request)
                allocation.in_use = allocation.in_use + request.need
                shares[tenant] = shares[tenant] + request.need
            else:
                frozen.add(tenant)
        leftovers = sorted(
            (pair for queue in pending.values() for pair in queue),
            key=lambda pair: pair[0],
        )
        allocation.denied.extend(request for _index, request in leftovers)
        return allocation

    def admit(self, record, owner, need, capacity, in_use) -> bool:
        return (in_use + need).fits_within(capacity)
