"""The chaos experiment: invariants asserted, deterministic, CI-usable."""

import json
from pathlib import Path

import pytest

from repro.experiments.chaos import ChaosConfig, ChaosResult, run_chaos

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE_PATH = REPO_ROOT / "benchmarks" / "results" / "BENCH_chaos.json"

#: The recorded baseline before the control plane moved onto the unified
#: RPC core (typed messages + shared retransmit loop).  The refactor must
#: not change the protocol's round-trip economics: retransmit-driven extra
#: round trips stay within loss noise, and the loss-free setup latency
#: stays put.  Loss-y percentile latencies are heavy-tailed (one unlucky
#: retransmit schedule moves p50 by multiples), so they only get an
#: order-of-magnitude bound.
PRE_UNIFICATION_POINTS = {
    0.0: {"extra_round_trips": 18, "setup_p50_us": 158.153, "setup_p95_us": 333.742},
    0.05: {"extra_round_trips": 93, "setup_p50_us": 2235.095, "setup_p95_us": 3508.046},
    0.1: {"extra_round_trips": 141, "setup_p50_us": 5783.878, "setup_p95_us": 23035.207},
    0.2: {"extra_round_trips": 433, "setup_p50_us": 8752.658, "setup_p95_us": 108249.283},
}
#: A server↔discovery ``disc.lease_check`` round trip on the chaos fabric
#: (two 5 µs links each way plus host and NIC costs), in µs.
CHECK_RTT_US = 50.0


@pytest.fixture(scope="module")
def smoke_result(smoke_run) -> ChaosResult:
    """The shared smoke run (the CI tier: a single 5%-loss point)."""
    return smoke_run("chaos")


class TestInvariants:
    def test_each_invariant_holds(self, smoke_result):
        invariants = smoke_result.invariants
        assert invariants["all_established"]
        assert invariants["zero_app_loss"]
        assert invariants["no_double_reservation"]
        assert invariants["bounded_setup"]
        assert invariants["outage_degraded_not_failed"]
        assert invariants["outage_recovered"]

    def test_faults_actually_fired(self, smoke_result):
        (point,) = smoke_result.points
        assert point.loss == 0.05
        assert point.fault_drops > 0
        # Loss was recovered by work, not luck: the stack retransmitted.
        assert point.reliability_retransmissions > 0

    def test_outage_segment_recorded(self, smoke_result):
        outage = smoke_result.outage
        assert outage["degraded_established"]
        assert outage["degraded_served"]
        assert outage["recovered_full"]
        assert outage["audit_ok"]

    def test_violated_invariant_flips_ok(self, smoke_result):
        # A result whose books don't balance must not report ok — the CLI
        # exits non-zero off this property.
        (point,) = smoke_result.points
        broken = ChaosResult(
            points=[point.__class__(**{**point.__dict__, "audit_ok": False})],
            outage=smoke_result.outage,
            config=smoke_result.config,
        )
        assert not broken.invariants["no_double_reservation"]
        assert not broken.ok


class TestDeterminism:
    # Same seed ⇒ identical documents is the contract test's
    # (tests/experiments/test_contract.py); this is the converse.
    def test_different_seed_different_trace(self, smoke_result):
        other = run_chaos(ChaosConfig.smoke(seed=8))
        assert (
            other.to_baseline()["points"]
            != smoke_result.to_baseline()["points"]
        )


class TestMetricsPayload:
    def test_every_point_carries_a_full_snapshot(self, smoke_result):
        (point,) = smoke_result.points
        assert point.metrics, "point snapshot missing"
        # The motivation counters all reach one namespace: spot-check one
        # name per legacy subsystem.
        names = set(point.metrics)
        for prefix in (
            "net.delivered",
            "net.fault_drops",
            "discovery.requests_served",
            "experiment.established",
        ):
            assert any(n.startswith(prefix) for n in names), prefix
        for prefix in ("link.", "faults.", "rpc.discovery.", "conn.", "runtime."):
            assert any(n.startswith(prefix) for n in names), prefix

    def test_invariants_derive_from_snapshots(self, smoke_result):
        (point,) = smoke_result.points
        snap = point.metrics
        assert point.fault_drops == snap["net.fault_drops"]
        assert point.duplicate_requests == snap["discovery.duplicate_requests"]
        assert point.established == snap["experiment.established"]
        assert point.discovery_retransmits == sum(
            value
            for name, value in snap.items()
            if name.startswith("rpc.discovery.")
            and name.endswith(".retransmits_total")
        )

    def test_write_metrics_file(self, smoke_result, tmp_path):
        path = tmp_path / "metrics.json"
        smoke_result.write_metrics(str(path))
        payload = json.loads(path.read_text())
        assert [p["loss"] for p in payload["points"]] == [0.05]
        assert payload["points"][0]["metrics"]
        assert payload["outage"]["metrics"]


class TestBaselineShape:
    def test_baseline_payload(self, smoke_result, tmp_path):
        path = tmp_path / "BENCH_chaos.json"
        smoke_result.write_baseline(str(path))
        payload = json.loads(path.read_text())
        assert payload["experiment"] == "chaos"
        assert payload["seed"] == 7
        assert set(payload["discovery"]) == {"timeout_s", "retries", "backoff"}
        (point,) = payload["points"]
        assert point["loss"] == 0.05
        assert point["extra_round_trips"] == (
            point["discovery_retransmits"]
            + point["reliability_retransmissions"]
        )
        assert payload["invariants"]["zero_app_loss"] is True

    def test_rows_render(self, smoke_result):
        rendered = smoke_result.render()
        assert "loss_pct" in rendered
        assert "discovery outage @ 5% loss" in rendered


class TestRecordedBaselineWithinNoise:
    """The checked-in BENCH_chaos.json (re-recorded on the unified RPC
    core) must not have drifted from the pre-unification run in ways that
    would indicate extra protocol round trips or slower establishment."""

    @pytest.fixture(scope="class")
    def recorded(self) -> dict:
        return json.loads(BASELINE_PATH.read_text())

    def test_invariants_still_hold(self, recorded):
        assert all(recorded["invariants"].values())

    def test_same_loss_points(self, recorded):
        assert [p["loss"] for p in recorded["points"]] == sorted(
            PRE_UNIFICATION_POINTS
        )

    def test_extra_round_trips_within_noise(self, recorded):
        for point in recorded["points"]:
            reference = PRE_UNIFICATION_POINTS[point["loss"]]
            # Retransmit counts move with the loss pattern, not the code
            # path: ±50% covers the reshuffled drop schedule (sizes are
            # content-derived now), while a protocol regression that added
            # a round trip per connection would blow far past it.
            assert (
                0.5 * reference["extra_round_trips"]
                <= point["extra_round_trips"]
                <= 1.5 * reference["extra_round_trips"]
            ), f"extra round trips drifted at loss {point['loss']}"

    def test_loss_free_setup_latency_within_noise(self, recorded):
        (point,) = [p for p in recorded["points"] if p["loss"] == 0.0]
        reference = PRE_UNIFICATION_POINTS[0.0]
        for metric in ("setup_p50_us", "setup_p95_us"):
            # Since the accept stopped waiting for the lease check, every
            # establishment after the first is one check round trip
            # shorter than the reference run's; nothing may add one.
            assert (
                0.75 * (reference[metric] - CHECK_RTT_US)
                <= point[metric]
                <= 1.25 * reference[metric]
            ), f"loss-free {metric} drifted"

    def test_lossy_setup_latency_same_magnitude(self, recorded):
        for point in recorded["points"]:
            if point["loss"] == 0.0:
                continue
            reference = PRE_UNIFICATION_POINTS[point["loss"]]
            for metric in ("setup_p50_us", "setup_p95_us"):
                ratio = point[metric] / reference[metric]
                assert 0.1 <= ratio <= 10.0, (
                    f"{metric} at loss {point['loss']} off by {ratio:.1f}x"
                )
