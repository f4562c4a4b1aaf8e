"""Unit tests for the metrics registry (instruments, snapshots, export)."""

import json

import pytest

from repro.obs import MetricsRegistry, MetricsSnapshot


class TestInstruments:
    def test_counter_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("a.b")
        counter.inc()
        counter.inc(4)
        assert registry.snapshot()["a.b"] == 5

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("a")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_computed_on_pull(self):
        registry = MetricsRegistry()
        box = {"value": 1}
        registry.gauge("live", lambda: box["value"])
        box["value"] = 9
        assert registry.snapshot()["live"] == 9

    def test_histogram_summary_names(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        for value in (2.0, 1.0, 4.0):
            hist.observe(value)
        snap = registry.snapshot()
        assert snap["lat.count"] == 3
        assert snap["lat.sum"] == pytest.approx(7.0)
        assert snap["lat.min"] == 1.0
        assert snap["lat.max"] == 4.0
        assert hist.values == [2.0, 1.0, 4.0]

    def test_histogram_sum_is_a_left_fold(self):
        """``(1e16 + 1.0) - 1e16`` is 0.0 in IEEE 754; a compensated sum
        (Python 3.12's ``sum()``) would report 1.0."""
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        for value in (1e16, 1.0, -1e16):
            hist.observe(value)
        assert registry.snapshot()["lat.sum"] == 0.0

    def test_empty_histogram_summary_is_zero(self):
        registry = MetricsRegistry()
        registry.histogram("lat")
        snap = registry.snapshot()
        assert snap["lat.count"] == 0
        assert snap["lat.max"] == 0.0


class TestRegistration:
    def test_duplicate_register_rejected(self):
        registry = MetricsRegistry()
        registry.register("x", lambda: 0)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("x", lambda: 1)

    def test_replace_overrides(self):
        registry = MetricsRegistry()
        registry.register("x", lambda: 0)
        registry.replace("x", lambda: 1)
        assert registry.snapshot()["x"] == 1

    def test_invalid_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.register("bad name", lambda: 0)
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.register("", lambda: 0)

    def test_bind_wraps_attribute_live(self):
        class Owner:
            hits = 0

        owner = Owner()
        registry = MetricsRegistry()
        registry.bind("owner.hits", owner, "hits")
        owner.hits = 3
        assert registry.snapshot()["owner.hits"] == 3

    def test_bind_fails_fast_on_typo(self):
        registry = MetricsRegistry()
        with pytest.raises(AttributeError):
            registry.bind("x", object(), "no_such_attr")

    def test_bind_replace_lets_new_owner_take_over(self):
        class Owner:
            def __init__(self, hits):
                self.hits = hits

        registry = MetricsRegistry()
        registry.bind("owner.hits", Owner(1), "hits")
        with pytest.raises(ValueError):
            registry.bind("owner.hits", Owner(2), "hits")
        registry.bind("owner.hits", Owner(2), "hits", replace=True)
        assert registry.snapshot()["owner.hits"] == 2

    def test_bind_stats_registers_all_rpc_fields(self):
        from repro.core.rpc import RpcStats

        stats = RpcStats()
        stats.round_trips = 5
        registry = MetricsRegistry()
        registry.bind_stats("rpc.negotiation.cl", stats)
        assert sorted(registry.snapshot().as_dict()) == [
            "rpc.negotiation.cl.failures_total",
            "rpc.negotiation.cl.late_replies",
            "rpc.negotiation.cl.retransmits_total",
            "rpc.negotiation.cl.round_trips",
        ]
        assert registry.snapshot()["rpc.negotiation.cl.round_trips"] == 5

    def test_freeze_keeps_value_and_drops_owner(self):
        import gc
        import weakref

        class Owner:
            hits = 0

        owner = Owner()
        registry = MetricsRegistry()
        registry.bind("owner.hits", owner, "hits")
        registry.register("z", lambda: 0)
        owner.hits = 4
        registry.freeze("owner.hits")
        owner.hits = 9
        assert list(registry.snapshot().as_dict().items()) == [
            ("owner.hits", 4),
            ("z", 0),
        ]
        ref = weakref.ref(owner)
        del owner
        gc.collect()
        assert ref() is None

    def test_len_counts_sources(self):
        registry = MetricsRegistry()
        registry.register("b", lambda: 0)
        registry.register("a.x", lambda: 0)
        registry.register("a.y", lambda: 0)
        assert len(registry) == 3


class TestSnapshot:
    def test_bools_become_ints(self):
        registry = MetricsRegistry()
        registry.register("ok", lambda: True)
        snap = registry.snapshot()
        assert snap["ok"] == 1
        assert isinstance(snap["ok"], int)

    def test_non_numeric_source_rejected(self):
        registry = MetricsRegistry()
        registry.register("oops", lambda: "three")
        with pytest.raises(TypeError, match="non-numeric"):
            registry.snapshot()

    def test_clock_stamps_at(self):
        registry = MetricsRegistry(clock=lambda: 1.5)
        assert registry.snapshot().at == 1.5
        assert MetricsRegistry().snapshot().at is None

    def test_get_sum_prefix_suffix(self):
        snap = MetricsSnapshot(
            {
                "rpc.discovery.cl.retransmits_total": 2,
                "rpc.discovery.srv.retransmits_total": 3,
                "rpc.discovery.cl.round_trips": 10,
                "rpc.negotiation.cl.retransmits_total": 99,
            }
        )
        assert snap.get("rpc.discovery.cl.round_trips") == 10
        assert snap.get("missing") == 0
        assert snap.get("missing", -1) == -1
        assert snap.sum("rpc.discovery.", ".retransmits_total") == 5
        assert snap.sum("rpc.") == 114

    def test_as_dict_sorted(self):
        snap = MetricsSnapshot({"b": 1, "a": 2})
        assert list(snap.as_dict()) == ["a", "b"]
        assert list(iter(snap)) == ["a", "b"]
        assert len(snap) == 2 and dict(snap) == {"a": 2, "b": 1}

    def test_to_json_canonical(self):
        one = MetricsSnapshot({"b": 1, "a": 2}).to_json()
        two = MetricsSnapshot({"a": 2, "b": 1}).to_json()
        assert one == two
        assert json.loads(one) == {"a": 2, "b": 1}
        assert " " not in one
