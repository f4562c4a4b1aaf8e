"""The failover experiment: invariants asserted, deterministic, CI-usable."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.failover import FailoverResult

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE_PATH = REPO_ROOT / "benchmarks" / "results" / "BENCH_failover.json"


@pytest.fixture(scope="module")
def result(smoke_run) -> FailoverResult:
    """The shared seed-7 run (the CI tier *is* the default timeline)."""
    return smoke_run("failover")


class TestInvariants:
    def test_each_invariant_holds(self, result):
        invariants = result.invariants
        assert invariants["zero_app_loss"]
        assert invariants["zero_duplicates"]
        assert invariants["all_migrated"]
        assert invariants["all_parked_and_resumed"]
        assert invariants["bounded_blackout"]

    def test_failover_actually_happened(self, result):
        # Every connection migrated off the crashed primary once, and the
        # total outage parked (then resumed) every one of them.
        assert result.migrations == result.config.connections
        assert result.parked == result.config.connections
        assert result.resumed == result.parked
        assert result.suspicions >= result.migrations + result.parked
        assert result.migration_failures == 0
        assert result.heartbeats > 0

    def test_blackouts_are_real_and_bounded(self, result):
        assert 0 < result.blackout_p50_ms <= result.blackout_p99_ms
        assert result.blackout_p99_ms <= result.blackout_max_ms
        assert result.blackout_max_ms < result.config.blackout_budget * 1e3
        # The slowest round trip spans a blackout; the median does not.
        assert result.recovery_rtt_max_ms > result.rtt_p50_us / 1e3

    def test_violated_invariant_flips_ok(self, result):
        broken = replace(result, delivered=result.delivered - 1)
        assert broken.app_loss == 1
        assert not broken.invariants["zero_app_loss"]
        assert not broken.ok


class TestMetricsPayload:
    def test_snapshot_carries_failover_metrics(self, result):
        names = set(result.metrics)
        for prefix in (
            "experiment.offered",
            "failover.cl0.migrations_total",
            "failover.cl0.parked_total",
            "failover.cl0.blackout_seconds.count",
            "failover.cl1.heartbeats_sent",
            "negcache.cl0.",
        ):
            assert any(n.startswith(prefix) for n in names), prefix

    def test_result_fields_derive_from_snapshot(self, result):
        snap = result.metrics
        assert result.offered == snap["experiment.offered"]
        assert result.responses == snap["experiment.responses"]
        assert result.migrations == sum(
            snap[f"failover.cl{i}.migrations_total"] for i in range(2)
        )

    def test_write_metrics_file(self, result, tmp_path):
        path = tmp_path / "metrics.json"
        result.write_metrics(str(path))
        payload = json.loads(path.read_text())
        assert payload["app_loss"] == 0
        assert payload["duplicates"] == 0
        assert payload["migrations_total"] > 0
        assert payload["world"]


class TestBaselineShape:
    def test_baseline_payload(self, result, tmp_path):
        path = tmp_path / "BENCH_failover.json"
        result.write_baseline(str(path))
        payload = json.loads(path.read_text())
        assert payload["experiment"] == "failover"
        assert payload["seed"] == 7
        assert payload["app_loss"] == 0
        assert payload["duplicates"] == 0
        assert payload["migrations_total"] == result.config.connections
        assert payload["blackout_p99_ms"] > 0

    def test_rows_render(self, result):
        rendered = result.render()
        assert "blackout_p99_ms" in rendered
        assert "suspicions; steady-state rtt p50" in rendered


class TestRecordedBaseline:
    """The checked-in BENCH_failover.json must show the tentpole's claim:
    zero app-visible loss or duplication across two crashes and a total
    outage, with bounded blackouts."""

    @pytest.fixture(scope="class")
    def recorded(self) -> dict:
        return json.loads(BASELINE_PATH.read_text())

    def test_invariants_recorded_ok(self, recorded):
        assert all(recorded["invariants"].values())

    def test_loss_free_with_real_failovers(self, recorded):
        assert recorded["app_loss"] == 0
        assert recorded["duplicates"] == 0
        assert recorded["migrations_total"] > 0
        assert recorded["parked_total"] == recorded["resumed_total"] > 0

    def test_recorded_matches_a_fresh_run(self, result, recorded):
        assert result.to_baseline() == recorded
