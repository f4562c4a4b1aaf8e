"""The churn experiment: invariants asserted, deterministic, CI-usable."""

import gc
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.churn import ChurnConfig, ChurnResult, run_churn

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE_PATH = REPO_ROOT / "benchmarks" / "results" / "BENCH_churn.json"


@pytest.fixture(scope="module")
def smoke_result(smoke_run) -> ChurnResult:
    """The shared smoke run (the CI tier: 50 sessions per mode)."""
    return smoke_run("churn")


class TestInvariants:
    def test_each_invariant_holds(self, smoke_result):
        invariants = smoke_result.invariants
        assert invariants["all_established"]
        assert invariants["zero_app_loss"]
        assert invariants["resumed_fewer_rtts"]
        assert invariants["resumed_faster_median"]
        assert invariants["cache_effective"]
        assert invariants["cold_path_untouched"]

    def test_resumption_actually_happened(self, smoke_result):
        resumed = smoke_result.resumed
        # Only the very first connect misses; every later one resumes.
        assert resumed.negcache_misses == 1
        assert resumed.negcache_hits == resumed.sessions - 1
        assert resumed.negcache_fallbacks == 0
        # One control round trip per connect, amortizing toward 1.0 as the
        # single cold connect's share shrinks.
        assert resumed.ctl_rtts_per_connect < 1.5
        assert smoke_result.cold.ctl_rtts_per_connect >= 2.0

    def test_violated_invariant_flips_ok(self, smoke_result):
        broken = ChurnResult(
            cold=smoke_result.cold,
            resumed=smoke_result.resumed.__class__(
                **{
                    **smoke_result.resumed.__dict__,
                    "negcache_fallbacks": 3,
                }
            ),
            config=smoke_result.config,
        )
        assert not broken.invariants["cache_effective"]
        assert not broken.ok


class TestShardedTier:
    """The same churn on a 2 x 3 RSM-replicated discovery tier.

    A listener reserves once (one logged mutation, applied by every
    replica of the record's shard) and every later establishment asks the
    shard primary a read, so replication costs an establishment nothing:
    set-up stays within 1 us of the single, unreplicated service.
    """

    @pytest.fixture(scope="class")
    def sharded(self) -> ChurnResult:
        return run_churn(
            replace(ChurnConfig.smoke(seed=7), shards=2, replicas_per_shard=3)
        )

    def test_invariants_hold(self, sharded):
        assert sharded.ok, sharded.invariants

    @pytest.mark.parametrize("mode", ["cold", "resumed"])
    def test_setup_matches_single_service(self, smoke_result, sharded, mode):
        gap = (
            getattr(sharded, mode).setup_p50_us
            - getattr(smoke_result, mode).setup_p50_us
        )
        assert abs(gap) < 1.0, f"{mode}: sharded set-up is {gap:+.3f} us off"

    @pytest.mark.parametrize("mode, watches", [("cold", 0), ("resumed", 2)])
    def test_one_logged_reserve_per_listener(self, sharded, mode, watches):
        # Ops each RSM participant applied.  One listener per mode and
        # sequential sessions (no first acquisitions overlap): one reserve
        # — plus, with the negotiation cache on, one watch from each of
        # the two runtimes — on every replica of the record's shard, and
        # nothing per establishment.
        applied = sorted(
            value
            for name, value in getattr(sharded, mode).metrics.items()
            if name.startswith("rsm.") and name.endswith(".applied")
        )
        assert applied == [0, 0, 0] + [1 + watches] * 3


class TestMetricsPayload:
    def test_sides_carry_full_snapshots(self, smoke_result):
        for side in (smoke_result.cold, smoke_result.resumed):
            names = set(side.metrics)
            for prefix in (
                "experiment.established",
                "rpc.discovery.cl.",
                "rpc.negotiation.cl.",
                "negcache.cl.",
                "negcache.srv.",
            ):
                assert any(n.startswith(prefix) for n in names), prefix

    def test_side_fields_derive_from_snapshots(self, smoke_result):
        resumed = smoke_result.resumed
        snap = resumed.metrics
        assert resumed.established == snap["experiment.established"]
        assert resumed.negcache_hits == snap["negcache.cl.hits"]
        assert resumed.negcache_misses == snap["negcache.cl.misses"]

    def test_write_metrics_file(self, smoke_result, tmp_path):
        path = tmp_path / "metrics.json"
        smoke_result.write_metrics(str(path))
        payload = json.loads(path.read_text())
        assert payload["cold"] and payload["resumed"]
        assert payload["invariants"]["cache_effective"] is True


class TestBaselineShape:
    def test_baseline_payload(self, smoke_result, tmp_path):
        path = tmp_path / "BENCH_churn.json"
        smoke_result.write_baseline(str(path))
        payload = json.loads(path.read_text())
        assert payload["experiment"] == "churn"
        assert payload["seed"] == 7
        assert payload["sessions"] == 50
        assert payload["cache"] == {"size": 64, "ttl": None}
        assert payload["speedup_p50"] > 1.0
        assert (
            payload["resumed"]["ctl_rtts_per_connect"]
            < payload["cold"]["ctl_rtts_per_connect"]
        )

    def test_rows_render(self, smoke_result):
        rendered = smoke_result.render()
        assert "ctl_rtts" in rendered
        assert "resumption: setup p50" in rendered


class TestRecordedBaseline:
    """The checked-in BENCH_churn.json (full 2000-session run) must show
    the tentpole's claim: one-RTT resumption, faster medians, no
    fallbacks."""

    @pytest.fixture(scope="class")
    def recorded(self) -> dict:
        return json.loads(BASELINE_PATH.read_text())

    def test_invariants_recorded_ok(self, recorded):
        assert all(recorded["invariants"].values())

    def test_resumed_is_one_round_trip(self, recorded):
        assert recorded["resumed"]["ctl_rtts_per_connect"] < 1.01
        assert recorded["cold"]["ctl_rtts_per_connect"] >= 2.0

    def test_resumed_is_faster(self, recorded):
        assert recorded["speedup_p50"] > 1.0
        assert (
            recorded["resumed"]["setup_p50_us"]
            < recorded["cold"]["setup_p50_us"]
        )
        assert recorded["resumed"]["negcache_fallbacks"] == 0


class TestDebugReprs:
    def test_every_live_object_reprs(self):
        """``repr`` works on every object a churn world leaves behind whose
        class is the library's: runtimes, endpoints, listeners, connections,
        set-up contexts and the rest.  Collection stays off during the run
        so its cyclic garbage is still there to inspect."""
        gc.collect()
        before = {id(obj) for obj in gc.get_objects()}
        gc.disable()
        try:
            run_churn(ChurnConfig.smoke(seed=7))
            fresh = [
                obj
                for obj in gc.get_objects()
                if id(obj) not in before
                and type(obj).__module__.startswith("repro.")
            ]
            kinds = {type(obj).__name__ for obj in fresh}
            for obj in fresh:
                repr(obj)
        finally:
            gc.enable()
        assert {"Runtime", "SetupContext", "Connection", "Listener"} <= kinds
