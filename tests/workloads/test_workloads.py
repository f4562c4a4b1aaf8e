"""Tests for key distributions, YCSB workloads, and arrival processes."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import (
    LatestChooser,
    PoissonArrivals,
    ScrambledZipfianChooser,
    UniformChooser,
    WORKLOAD_MIXES,
    WorkloadSpec,
    YcsbWorkload,
    ZipfianChooser,
    make_chooser,
)



def zipf_pmf(item_count: int, theta: float = 0.99) -> list[float]:
    """The exact Zipfian probability mass function: the oracle the
    sampled choosers are checked against."""
    weights = [1.0 / ((i + 1) ** theta) for i in range(item_count)]
    total = math.fsum(weights)
    return [w / total for w in weights]

class TestChoosers:
    def test_uniform_covers_space(self):
        chooser = UniformChooser(10, seed=1)
        seen = {chooser.next_index() for _ in range(500)}
        assert seen == set(range(10))

    def test_indices_always_in_range(self):
        for name in ("uniform", "zipfian", "zipfian_clustered", "latest"):
            chooser = make_chooser(name, 50, seed=3)
            assert all(0 <= chooser.next_index() < 50 for _ in range(500))

    def test_seed_determinism(self):
        a = ZipfianChooser(100, seed=9)
        b = ZipfianChooser(100, seed=9)
        assert [a.next_index() for _ in range(50)] == [
            b.next_index() for _ in range(50)
        ]

    def test_zipfian_is_skewed(self):
        chooser = ZipfianChooser(1000, seed=2)
        draws = [chooser.next_index() for _ in range(5000)]
        top_fraction = sum(1 for d in draws if d < 10) / len(draws)
        assert top_fraction > 0.3  # head-heavy

    def test_zipfian_matches_analytic_head_probability(self):
        chooser = ZipfianChooser(100, seed=5)
        draws = [chooser.next_index() for _ in range(20000)]
        empirical_p0 = sum(1 for d in draws if d == 0) / len(draws)
        analytic_p0 = zipf_pmf(100)[0]
        assert abs(empirical_p0 - analytic_p0) < 0.03

    def test_scrambled_zipfian_spreads_hot_keys(self):
        chooser = ScrambledZipfianChooser(1000, seed=2)
        draws = [chooser.next_index() for _ in range(3000)]
        # The hottest key is no longer index 0; popular keys scatter.
        hottest = max(set(draws), key=draws.count)
        assert draws.count(0) < draws.count(hottest) or hottest != 0

    def test_latest_prefers_high_indices(self):
        chooser = LatestChooser(1000, seed=4)
        draws = [chooser.next_index() for _ in range(3000)]
        assert sum(1 for d in draws if d > 900) / len(draws) > 0.3

    def test_grow_extends_range(self):
        chooser = ZipfianChooser(10, seed=1)
        chooser.grow(100)
        draws = [chooser.next_index() for _ in range(2000)]
        assert max(draws) >= 10

    def test_grow_cannot_shrink(self):
        chooser = UniformChooser(10)
        with pytest.raises(ValueError):
            chooser.grow(5)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            UniformChooser(0)
        with pytest.raises(ValueError):
            ZipfianChooser(10, theta=1.5)
        with pytest.raises(ValueError):
            make_chooser("pareto", 10)

    def test_pmf_sums_to_one(self):
        assert math.isclose(sum(zipf_pmf(50)), 1.0, rel_tol=1e-12)


class TestYcsbWorkload:
    def test_all_defined_workloads_generate(self):
        for name in WORKLOAD_MIXES:
            spec = WorkloadSpec(
                workload=name, record_count=50, operation_count=200
            )
            ops = list(YcsbWorkload(spec).operations())
            assert len(ops) == 200

    def test_workload_a_mix_is_half_and_half(self):
        spec = WorkloadSpec(workload="A", record_count=100, operation_count=4000)
        workload = YcsbWorkload(spec)
        list(workload.operations())
        reads = workload.counts.get("read", 0)
        updates = workload.counts.get("update", 0)
        assert abs(reads - updates) < 400  # ~50/50

    def test_workload_c_is_read_only(self):
        spec = WorkloadSpec(workload="C", record_count=10, operation_count=300)
        workload = YcsbWorkload(spec)
        ops = list(workload.operations())
        assert all(op["op"] == "read" for op in ops)

    def test_inserts_extend_the_key_space(self):
        spec = WorkloadSpec(workload="D", record_count=10, operation_count=500)
        workload = YcsbWorkload(spec)
        inserted = [op for op in workload.operations() if op["op"] == "insert"]
        assert inserted
        keys = {op["key"] for op in inserted}
        assert len(keys) == len(inserted)  # all fresh keys

    def test_load_phase_covers_all_records(self):
        spec = WorkloadSpec(record_count=25)
        load_ops = list(YcsbWorkload(spec).load_operations())
        assert len(load_ops) == 25
        assert len({op["key"] for op in load_ops}) == 25
        assert all(len(op["value"]) == spec.value_size for op in load_ops)

    def test_values_are_deterministic(self):
        spec = WorkloadSpec(record_count=5, operation_count=50, seed=77)
        a = [op for op in YcsbWorkload(spec).operations()]
        b = [op for op in YcsbWorkload(spec).operations()]
        assert a == b

    def test_scan_lengths_bounded(self):
        spec = WorkloadSpec(
            workload="E", record_count=20, operation_count=300, max_scan_length=7
        )
        ops = list(YcsbWorkload(spec).operations())
        scans = [op for op in ops if op["op"] == "scan"]
        assert scans
        assert all(1 <= op["length"] <= 7 for op in scans)

    def test_uniform_distribution_override(self):
        spec = WorkloadSpec(
            workload="A",
            record_count=100,
            operation_count=2000,
            distribution="uniform",
        )
        workload = YcsbWorkload(spec)
        keys = [op["key"] for op in workload.operations() if "key" in op]
        hottest = max(set(keys), key=keys.count)
        assert keys.count(hottest) < 60  # no Zipf head

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            WorkloadSpec(workload="Z")
        with pytest.raises(ValueError):
            WorkloadSpec(record_count=0)


class TestArrivals:
    def test_poisson_mean_rate(self):
        arrivals = PoissonArrivals(rate=1000, seed=5)
        gaps = [arrivals.next_gap() for _ in range(5000)]
        assert abs(sum(gaps) / len(gaps) - 1e-3) < 1e-4

    def test_poisson_determinism(self):
        first, second = PoissonArrivals(100, seed=1), PoissonArrivals(100, seed=1)
        assert [first.next_gap() for _ in range(20)] == [
            second.next_gap() for _ in range(20)
        ]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PoissonArrivals(rate=0)

    @given(st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=20)
    def test_poisson_gaps_positive(self, rate):
        arrivals = PoissonArrivals(rate=rate, seed=0)
        assert all(arrivals.next_gap() > 0 for _ in range(50))
