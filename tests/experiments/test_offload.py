"""The offload experiment: crossover, coherence, exactly-once, CI-usable."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.offload import OffloadResult

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE_PATH = REPO_ROOT / "benchmarks" / "results" / "BENCH_offload.json"


@pytest.fixture(scope="module")
def result(smoke_run) -> OffloadResult:
    """The shared seed-7 run (the CI tier *is* the default timeline)."""
    return smoke_run("offload")


class TestInvariants:
    def test_each_invariant_holds(self, result):
        invariants = result.invariants
        assert invariants["cache_wins_high_skew"]
        assert invariants["hit_rate_rises_with_skew"]
        assert invariants["cache_wins_read_heavy"]
        assert invariants["cache_saturates_on_writes"]
        assert invariants["sweeps_zero_loss"]
        assert invariants["no_stale_after_put"]
        assert invariants["delete_invalidates"]
        assert invariants["coherence_served_from_cache"]
        assert invariants["fanin_byte_identical"]
        assert invariants["fanin_absorbs_replies"]
        assert invariants["failover_exactly_once"]
        assert invariants["failover_reconfigured"]
        assert invariants["priority_preempts_aggregator"]
        assert invariants["drf_denied_in_arrival_order"]

    def test_crossover_exists_inside_the_mix_sweep(self, result):
        # Read-heavy favours the cache, write-heavy favours the host —
        # the saturation arm of the Fig. 5-style crossover.
        winners = [
            "cache" if row["cached_us"] < row["host_us"] else "host"
            for row in result.mix_sweep
        ]
        assert winners[0] == "cache"
        assert winners[-1] == "host"

    def test_hit_rate_monotone_signal(self, result):
        rates = [row["hit_rate"] for row in result.skew_sweep]
        assert rates[-1] > rates[0]
        assert all(0.0 <= rate <= 1.0 for rate in rates)

    def test_fanin_switch_absorbed_n_minus_one(self, result):
        config = result.config
        expected = (config.fanin_members - 1) * config.fanin_requests
        assert result.fanin["absorbed"] == expected
        assert result.fanin["aggregated"] == config.fanin_requests
        assert result.fanin["host_impl"] == "FanInHost"
        assert result.fanin["switch_impl"] == "FanInSwitch"
        # The host leg gathered everything itself; the switch leg's
        # client stage only saw pre-combined replies.
        assert result.fanin["host_gathered_at_host"] == config.fanin_requests
        assert (
            result.fanin["switch_gathered_in_network"]
            == config.fanin_requests
        )

    def test_failover_is_exactly_once(self, result):
        assert result.failover["offered"] == result.failover["delivered"]
        assert result.failover["duplicates"] == 0
        assert result.failover["lost"] == 0
        # The listener degraded off the failed switch and came back.
        assert result.failover["transitions"] >= 2

    def test_contention_preempts_and_orders(self, result):
        contention = result.contention
        assert contention["fanin_granted_first"]
        assert contention["cache_granted"]
        assert contention["preempted"] == 1
        # After preemption only the cache occupies the ToR.
        assert contention["in_use"]["switch_stages"] == 3.0
        assert contention["drf_denied"] == [
            "kvcache/switch",
            "kvcache/second",
        ]
        assert contention["drf_denied_ok"]

    def test_violated_invariant_flips_ok(self, result):
        broken = replace(
            result,
            failover={**result.failover, "duplicates": 1},
        )
        assert not broken.invariants["failover_exactly_once"]
        assert not broken.ok


class TestBaseline:
    def test_checked_in_baseline_matches_seed7(self, result):
        committed = json.loads(BASELINE_PATH.read_text())
        assert committed == result.to_baseline()


class TestMetricsPayload:
    def test_payload_carries_world_snapshot(self, result):
        payload = result.metrics_payload()
        assert payload["experiment"] == "offload"
        assert payload["world"], "failover world snapshot missing"
        assert len(payload["skew_sweep"]) == len(result.config.skew_points)
        assert len(payload["mix_sweep"]) == len(result.config.mix_points)
