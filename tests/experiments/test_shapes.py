"""Shape checks: do the reproduced experiments show the paper's results?

These run scaled-down versions of every figure and assert the *qualitative*
claims (who wins, roughly by how much, where crossovers are) — the
reproduction contract DESIGN.md §4 sets out.  The full-scale versions live
in ``benchmarks/``.
"""

import pytest

from repro.experiments import (
    Fig3Config,
    Fig4Config,
    Fig5Config,
    run_fig3,
    run_fig4,
    run_fig5_scenario,
    run_negotiation_overhead,
    run_optimizer_ablation,
    run_scheduler_ablation,
    run_serialization_comparison,
)


@pytest.fixture(scope="module")
def fig3_result():
    return run_fig3(Fig3Config(connections=40, sizes=[64, 10240]))


class TestFig3Shapes:
    def test_bertha_matches_hardcoded_ipc(self, fig3_result):
        """The headline: negotiated ≈ specialized, within 10%."""
        for size in fig3_result.config.sizes:
            bertha = fig3_result.rtts[("bertha", size)].p50
            pipes = fig3_result.rtts[("pipes", size)].p50
            assert bertha == pytest.approx(pipes, rel=0.10)

    def test_both_beat_container_tcp(self, fig3_result):
        for size in fig3_result.config.sizes:
            bertha = fig3_result.rtts[("bertha", size)].p50
            tcp = fig3_result.rtts[("tcp", size)].p50
            assert tcp > 2 * bertha

    def test_udp_sits_between(self, fig3_result):
        for size in fig3_result.config.sizes:
            udp = fig3_result.rtts[("udp", size)].p50
            tcp = fig3_result.rtts[("tcp", size)].p50
            bertha = fig3_result.rtts[("bertha", size)].p50
            assert bertha < udp < tcp

    def test_setup_overhead_only_at_connect(self, fig3_result):
        """Bertha pays negotiation at connect, not per message."""
        size = fig3_result.config.sizes[0]
        bertha_setup = fig3_result.setups[("bertha", size)].p50
        pipes_setup = fig3_result.setups[("pipes", size)].p50
        assert bertha_setup > pipes_setup  # the 2 control RTTs exist
        # ...but steady-state RTTs match (tested above).

    def test_distribution_is_non_degenerate(self, fig3_result):
        size = fig3_result.config.sizes[0]
        summary = fig3_result.rtts[("bertha", size)]
        assert summary.p95 > summary.p5

    def test_rows_render(self, fig3_result):
        table = fig3_result.render()
        assert "bertha" in table and "tcp" in table


class TestFig4Shapes:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig4(Fig4Config(duration=8.0, connect_interval=0.5))

    def test_latency_steps_down_after_local_start(self, result):
        assert result.before is not None and result.after is not None
        assert result.after.p50 < result.before.p50 / 2

    def test_switch_happens_at_local_start_time(self, result):
        config = Fig4Config(duration=8.0, connect_interval=0.5)
        assert (
            config.local_start_time
            <= result.switch_time
            <= config.local_start_time + 2 * config.connect_interval
        )

    def test_transport_switches_to_pipe(self, result):
        transports = [t for _time, t in result.transports]
        assert transports[0] == "udp"
        assert transports[-1] == "pipe"

    def test_no_client_changes_were_needed(self, result):
        """Every connection used the same endpoint code; only resolution
        changed.  (Encoded here as: the series is continuous — a connection
        attempt exists in every interval.)"""
        assert len(result.series.times) >= 14


class TestFig5Shapes:
    @pytest.fixture(scope="class")
    def config(self):
        return Fig5Config(requests_per_point=1500)

    def point(self, scenario, load, config):
        result = run_fig5_scenario(scenario, load, config)
        import numpy as np

        latencies = result["latencies_us"]
        return float(np.percentile(latencies, 95)) if latencies else float("inf")

    def test_fallback_saturates_first(self, config):
        fallback = self.point("server_fallback", 300_000, config)
        accel = self.point("server_accel", 300_000, config)
        push = self.point("client_push", 300_000, config)
        assert fallback > 5 * accel
        assert fallback > 5 * push

    def test_xdp_saturates_before_client_push(self, config):
        accel = self.point("server_accel", 650_000, config)
        push = self.point("client_push", 650_000, config)
        assert accel > 2 * push

    def test_low_load_ordering(self, config):
        """Below every knee, all four are within a small factor, with the
        fallback paying its extra hop."""
        push = self.point("client_push", 100_000, config)
        accel = self.point("server_accel", 100_000, config)
        mixed = self.point("mixed", 100_000, config)
        fallback = self.point("server_fallback", 100_000, config)
        assert fallback > push
        assert max(push, accel, mixed) < 2 * min(push, accel, mixed)

    def test_mixed_sits_between(self, config):
        load = 550_000
        push = self.point("client_push", load, config)
        accel = self.point("server_accel", load, config)
        mixed = self.point("mixed", load, config)
        assert push <= mixed <= accel * 1.1

    def test_negotiation_picks_expected_impls(self, config):
        result = run_fig5_scenario("mixed", 100_000, config)
        assert sorted(result["chosen_impls"]) == [
            "ShardClientFallback",
            "ShardXdp",
        ]

    def test_everything_completes_below_saturation(self, config):
        result = run_fig5_scenario("client_push", 200_000, config)
        assert result["completed"] == result["offered"]


class TestAblationShapes:
    def test_negotiation_costs_two_round_trips_and_nothing_after(self):
        result = run_negotiation_overhead(connections=20, requests=10)
        assert result.control_round_trips == 2
        # Steady state: identical data path, no added per-message latency.
        assert result.bertha_rtt_us == pytest.approx(
            result.hardcoded_rtt_us, rel=0.05
        )
        assert result.bertha_setup_us > result.hardcoded_setup_us

    def test_optimizer_reorder_saves_3x_pcie(self):
        result = run_optimizer_ablation(messages=100)
        by_name = {row["pipeline"]: row for row in result.rows()}
        original = by_name["encrypt |> http2 |> tcp"]
        reordered = by_name["http2 |> encrypt |> tcp"]
        assert original["crossings"] == 3
        assert reordered["crossings"] == 1
        assert original["pcie_bytes"] == 3 * reordered["pcie_bytes"]

    def test_optimizer_merge_produces_tls(self):
        result = run_optimizer_ablation(messages=10)
        assert any("tls" in row["pipeline"] for row in result.rows())

    def test_scheduler_drf_serves_both_tenants(self):
        result = run_scheduler_ablation()
        by_name = {row["scheduler"]: row for row in result.rows()}
        assert by_name["first-fit"]["tenants_served"] == 1
        assert by_name["drf"]["tenants_served"] == 2
        assert by_name["drf"]["max_min_gap"] < by_name["first-fit"]["max_min_gap"]

    def test_accelerated_serialization_is_faster(self):
        rows = run_serialization_comparison(requests=40, value_size=4096)
        by_impl = {row["implementation"]: row["mean_rtt_us"] for row in rows}
        assert by_impl["fpga"] < by_impl["sw"]


#: The upgrade poll the short reconfiguration world runs with.
POLL_INTERVAL = 0.1


@pytest.fixture(scope="module")
def reconfig_result():
    from repro.experiments import ReconfigConfig, run_reconfig
    from repro.reconfig import engine

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "UPGRADE_POLL_INTERVAL", POLL_INTERVAL)
        return run_reconfig(
            ReconfigConfig(
                duration=3.0,
                revoke_at=1.0,
                restore_at=2.0,
                offered_load=1000,
                bucket=0.25,
                phase_margin=0.3,
            )
        )


class TestReconfigShapes:
    def test_zero_loss_through_both_transitions(self, reconfig_result):
        """The acceptance bar: revocation mid-stream loses nothing."""
        assert reconfig_result.zero_loss
        assert reconfig_result.offered > 0

    def test_p95_steps_up_then_recovers(self, reconfig_result):
        p95 = reconfig_result.phase_p95
        assert p95["degraded"] > 1.2 * p95["baseline"]
        assert p95["recovered"] == pytest.approx(p95["baseline"], rel=0.05)

    def test_transitions_happen_at_the_right_times(self, reconfig_result):
        config = reconfig_result.config
        commits = [
            t for t, event, _ in reconfig_result.transitions if event == "committed"
        ]
        assert len(commits) == 2
        degrade, upgrade = commits
        assert config.revoke_at <= degrade <= config.revoke_at + 0.1
        assert (
            config.restore_at
            <= upgrade
            <= config.restore_at + 2 * POLL_INTERVAL
        )

    def test_impl_timeline_round_trips_to_xdp(self, reconfig_result):
        impls = [impl for _t, impl in reconfig_result.impl_timeline]
        assert impls[0] == "ShardXdp"
        assert any("server-fallback" in i for i in impls)
        assert impls[-1] == "ShardXdp"

    def test_pauses_are_bounded(self, reconfig_result):
        assert len(reconfig_result.pause_times) == 2
        assert all(0 < p < 1e-3 for p in reconfig_result.pause_times)

    def test_rows_render(self, reconfig_result):
        rows = reconfig_result.rows()
        assert len(rows) >= 10
        assert "p95_us" in reconfig_result.render()


class TestEpochOverheadShape:
    def test_arming_reconfiguration_is_free(self):
        from repro.experiments import run_epoch_overhead

        overhead = run_epoch_overhead(requests=300)
        assert overhead["n"] == 300
        # Exact equality: the sim is deterministic and epoch 0 stamps
        # nothing, so the latency streams are bit-identical.
        assert overhead["identical"]
        assert overhead["max_abs_delta_us"] == 0.0
