"""Tests for multi-resource offload scheduling (§6)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    DrfScheduler,
    FirstFitScheduler,
    OffloadRequest,
    PriorityScheduler,
    ResourceVector,
)


def req(tenant, name, stages, sram=64, priority=0):
    return OffloadRequest(
        tenant, name, ResourceVector(stages=stages, sram=sram), priority=priority
    )


CAPACITY = ResourceVector(stages=12, sram=4096)


class TestFirstFit:
    def test_grants_in_arrival_order(self):
        allocation = FirstFitScheduler().plan(
            [req("A", "a1", 8), req("B", "b1", 8)], CAPACITY
        )
        assert [r.name for r in allocation.granted] == ["a1"]
        assert [r.name for r in allocation.denied] == ["b1"]

    def test_later_smaller_request_can_still_fit(self):
        allocation = FirstFitScheduler().plan(
            [req("A", "a1", 8), req("B", "b1", 8), req("B", "b2", 4)],
            CAPACITY,
        )
        assert {r.name for r in allocation.granted} == {"a1", "b2"}

    def test_early_arrival_starves_late_tenant(self):
        """The §6 problem: the greedy first tenant takes the whole switch."""
        requests = [req("A", f"a{i}", 4) for i in range(3)] + [
            req("B", "b1", 3),
            req("B", "b2", 3),
        ]
        allocation = FirstFitScheduler().plan(requests, CAPACITY)
        assert allocation.tenants_served() == {"A"}


class TestPriority:
    def test_higher_priority_wins(self):
        allocation = PriorityScheduler().plan(
            [req("A", "low", 8, priority=1), req("B", "high", 8, priority=9)],
            CAPACITY,
        )
        assert [r.name for r in allocation.granted] == ["high"]

    def test_ties_break_by_arrival(self):
        allocation = PriorityScheduler().plan(
            [req("A", "first", 8, priority=5), req("B", "second", 8, priority=5)],
            CAPACITY,
        )
        assert [r.name for r in allocation.granted] == ["first"]

    def test_priorities_alone_cannot_balance(self):
        """The paper: 'Chunnel priorities alone are insufficient'."""
        requests = [req("A", f"a{i}", 4, priority=9) for i in range(3)] + [
            req("B", "b1", 3, priority=8)
        ]
        allocation = PriorityScheduler().plan(requests, CAPACITY)
        assert allocation.tenants_served() == {"A"}


class TestDrf:
    def test_both_tenants_served_under_contention(self):
        requests = [req("A", f"a{i}", 4) for i in range(3)] + [
            req("B", "b1", 3),
            req("B", "b2", 3),
        ]
        allocation = DrfScheduler().plan(requests, CAPACITY)
        assert allocation.tenants_served() == {"A", "B"}

    def test_shares_are_balanced(self):
        requests = [req("A", f"a{i}", 4) for i in range(3)] + [
            req("B", "b1", 3),
            req("B", "b2", 3),
        ]
        allocation = DrfScheduler().plan(requests, CAPACITY)
        share_a = allocation.tenant_share("A", CAPACITY)
        share_b = allocation.tenant_share("B", CAPACITY)
        assert abs(share_a - share_b) < 0.35  # far better than starvation

    def test_single_tenant_gets_everything_that_fits(self):
        requests = [req("A", f"a{i}", 4) for i in range(4)]
        allocation = DrfScheduler().plan(requests, CAPACITY)
        assert len(allocation.granted) == 3  # 12 stages / 4 each

    def test_requests_within_tenant_granted_in_order(self):
        requests = [req("A", "a1", 2), req("A", "a2", 2), req("A", "a3", 2)]
        allocation = DrfScheduler().plan(requests, CAPACITY)
        assert [r.name for r in allocation.granted] == ["a1", "a2", "a3"]

    def test_admit_respects_capacity(self):
        scheduler = DrfScheduler()
        assert scheduler.admit(
            None, "A", ResourceVector(stages=4), CAPACITY, ResourceVector()
        )
        assert not scheduler.admit(
            None,
            "A",
            ResourceVector(stages=4),
            CAPACITY,
            ResourceVector(stages=10),
        )


class TestInvariants:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["A", "B", "C"]),
                st.integers(min_value=1, max_value=6),
                st.integers(min_value=0, max_value=9),
            ),
            max_size=10,
        )
    )
    def test_no_scheduler_overcommits(self, raw_requests):
        requests = [
            req(tenant, f"r{i}", stages, priority=priority)
            for i, (tenant, stages, priority) in enumerate(raw_requests)
        ]
        for scheduler in (
            FirstFitScheduler(),
            PriorityScheduler(),
            DrfScheduler(),
        ):
            allocation = scheduler.plan(list(requests), CAPACITY)
            assert allocation.in_use.fits_within(CAPACITY)
            granted_and_denied = len(allocation.granted) + len(allocation.denied)
            assert granted_and_denied == len(requests)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["A", "B"]),
                st.integers(min_value=1, max_value=6),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_drf_serves_at_least_as_many_tenants_as_first_fit(self, raw):
        requests = [
            req(tenant, f"r{i}", stages) for i, (tenant, stages) in enumerate(raw)
        ]
        drf = DrfScheduler().plan(list(requests), CAPACITY)
        first_fit = FirstFitScheduler().plan(list(requests), CAPACITY)
        assert len(drf.tenants_served()) >= len(first_fit.tenants_served())


class _FakeMeta:
    def __init__(self, priority, stages=2):
        self.priority = priority
        self.resources = ResourceVector(stages=stages)


class _FakeRecord:
    def __init__(self, priority, stages=2):
        self.meta = _FakeMeta(priority, stages)


class _FakeLease:
    def __init__(self, granted_at):
        self.granted_at = granted_at


def lease_pair(priority, stages=2, granted_at=0.0):
    return (_FakeLease(granted_at), _FakeRecord(priority, stages))


class TestDrfDeniedOrdering:
    """Regression: denied must come back in arrival order, not in
    tenant-dict insertion order (a determinism hazard for bit-identical
    CI exports)."""

    def test_denied_in_arrival_order_across_tenants(self):
        # Interleaved arrivals from two tenants, none of which fit after
        # the first two grants; the tail must preserve arrival order.
        requests = [
            req("B", "b1", 6),
            req("A", "a1", 6),
            req("B", "b2", 6),
            req("A", "a2", 6),
            req("B", "b3", 6),
        ]
        allocation = DrfScheduler().plan(requests, CAPACITY)
        assert [r.name for r in allocation.denied] == ["b2", "a2", "b3"]

    def test_denied_order_independent_of_tenant_first_seen(self):
        # Same multiset of requests, different tenant-dict insertion
        # history: the denied list must order by arrival in both.
        base = [
            req("A", "a1", 6),
            req("B", "b1", 6),
            req("A", "a2", 6),
            req("B", "b2", 6),
        ]
        flipped = [base[1], base[0], base[3], base[2]]
        denied_base = [
            r.name for r in DrfScheduler().plan(base, CAPACITY).denied
        ]
        denied_flipped = [
            r.name for r in DrfScheduler().plan(flipped, CAPACITY).denied
        ]
        assert denied_base == ["a2", "b2"]
        assert denied_flipped == ["b2", "a2"]

    def test_same_input_same_output(self):
        requests = [
            req("C", "c1", 4),
            req("A", "a1", 4),
            req("B", "b1", 4),
            req("C", "c2", 4),
            req("A", "a2", 4),
            req("B", "b2", 4),
        ]
        first = DrfScheduler().plan(list(requests), CAPACITY)
        second = DrfScheduler().plan(list(requests), CAPACITY)
        assert [r.name for r in first.granted] == [
            r.name for r in second.granted
        ]
        assert [r.name for r in first.denied] == [
            r.name for r in second.denied
        ]


class TestSelectVictims:
    """Edge cases of priority-based preemption (§6)."""

    CAP = ResourceVector(stages=4)

    def test_preempts_lower_priority_when_it_frees_enough(self):
        scheduler = PriorityScheduler()
        requester = _FakeRecord(priority=90, stages=2)
        leases = [lease_pair(priority=10, stages=2, granted_at=1.0)]
        victims = scheduler.select_victims(
            requester,
            "tenant-b",
            ResourceVector(stages=2),
            self.CAP,
            ResourceVector(stages=4),
            leases,
        )
        assert victims == [leases[0][0]]

    def test_no_victims_when_eviction_still_insufficient(self):
        # Freeing every lower-priority lease still would not fit the
        # request: nobody should be evicted for nothing.
        scheduler = PriorityScheduler()
        requester = _FakeRecord(priority=90, stages=4)
        leases = [
            lease_pair(priority=10, stages=1, granted_at=1.0),
            lease_pair(priority=20, stages=1, granted_at=2.0),
        ]
        victims = scheduler.select_victims(
            requester,
            "tenant-b",
            ResourceVector(stages=6),
            self.CAP,
            ResourceVector(stages=4),
            leases,
        )
        assert victims == []

    def test_equal_priority_never_evicted(self):
        scheduler = PriorityScheduler()
        requester = _FakeRecord(priority=50, stages=2)
        leases = [
            lease_pair(priority=50, stages=2, granted_at=1.0),
            lease_pair(priority=50, stages=2, granted_at=2.0),
        ]
        victims = scheduler.select_victims(
            requester,
            "tenant-b",
            ResourceVector(stages=2),
            self.CAP,
            ResourceVector(stages=4),
            leases,
        )
        assert victims == []

    def test_evicts_least_important_first(self):
        scheduler = PriorityScheduler()
        requester = _FakeRecord(priority=90, stages=2)
        low = lease_pair(priority=10, stages=2, granted_at=5.0)
        mid = lease_pair(priority=40, stages=2, granted_at=1.0)
        victims = scheduler.select_victims(
            requester,
            "tenant-b",
            ResourceVector(stages=2),
            self.CAP,
            ResourceVector(stages=4),
            [mid, low],
        )
        # The priority-10 lease goes first and already frees enough.
        assert victims == [low[0]]
