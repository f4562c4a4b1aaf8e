"""The multipath experiment: crossover, rebalance, determinism, CI-usable."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.multipath import (
    MultipathConfig,
    MultipathResult,
    run_multipath,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE_PATH = REPO_ROOT / "benchmarks" / "results" / "BENCH_multipath.json"


@pytest.fixture(scope="module")
def result(smoke_run) -> MultipathResult:
    """The shared seed-7 run (the CI tier *is* the default timeline)."""
    return smoke_run("multipath")


class TestInvariants:
    def test_each_invariant_holds(self, result):
        invariants = result.invariants
        assert invariants["split_wins_asymmetric"]
        assert invariants["direct_wins_clean"]
        assert invariants["sweep_zero_loss"]
        assert invariants["rebalance_committed"]
        assert invariants["rebalance_alarmed"]
        assert invariants["rebalance_shifted"]
        assert invariants["rebalance_zero_app_loss"]
        assert invariants["rebalance_zero_duplicates"]

    def test_crossover_exists_inside_the_sweep(self, result):
        # The clean point favours direct, every lossy point favours the
        # split — the paper's connection-splitting trade-off.
        winners = [row["winner"] for row in result.rows()]
        assert winners[0] == "direct"
        assert set(winners[1:]) == {"split"}

    def test_split_advantage_grows_with_loss(self, result):
        gaps = [
            row["direct_rtt_us"] - row["split_rtt_us"] for row in result.sweep
        ]
        assert gaps[-1] > gaps[1] > 0

    def test_rebalance_shifted_traffic(self, result):
        assert result.reb_alarms == 1
        assert result.reb_committed == 1
        assert result.post_share <= result.pre_share / 2
        assert sum(result.pre_sent) > 0
        assert sum(result.post_sent) > 0
        assert result.reb_app_loss == 0

    def test_violated_invariant_flips_ok(self, result):
        broken = replace(result, reb_delivered=result.reb_delivered - 1)
        assert broken.reb_app_loss == 1
        assert not broken.invariants["rebalance_zero_app_loss"]
        assert not broken.ok


class TestRebalanceEpochAgreement:
    @pytest.mark.xfail(
        strict=True,
        reason=(
            "seed 2: the server sends the weight TRANSITION 8 times, hears "
            "no ACK and rolls back, but the client already adopted the new "
            "epoch (PROTOCOL.md §5.2); the epoch contract is ROADMAP item 1"
        ),
    )
    def test_both_ends_agree_on_transitions_after_ack_loss(self):
        snap = run_multipath(MultipathConfig.smoke(seed=2)).metrics
        client, server = (
            sum(
                value
                for name, value in snap.items()
                if name.startswith("conn.")
                and name.endswith(f".{role}.transitions")
            )
            for role in ("client", "server")
        )
        assert client == server


class TestBaseline:
    def test_checked_in_baseline_matches_seed7(self, result):
        committed = json.loads(BASELINE_PATH.read_text())
        assert committed == result.to_baseline()


class TestMetricsPayload:
    def test_payload_carries_multipath_counters(self, result):
        world = result.metrics_payload()["world"]
        tunnel_counters = [
            name for name in world if name.startswith("multipath.")
        ]
        assert any(name.endswith(".sent") for name in tunnel_counters)
        assert any(name.endswith(".received") for name in tunnel_counters)
        assert any(
            name.endswith(".pins_skipped") for name in tunnel_counters
        )
