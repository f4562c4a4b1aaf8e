"""Shape checks: do the reproduced experiments show the paper's results?

Each qualitative claim (who wins, roughly by how much, where crossovers
are) is a named invariant of its experiment's CLI row — the reproduction
contract DESIGN.md §4 sets out — so every run of the row checks it and
exits 1 when it fails.  These tests read the invariants off the shared
smoke run, one test a claim, so a failure names the claim.
"""

from repro.experiments import ReconfigConfig, run_reconfig
from repro.reconfig import engine


def check(row: str, *names: str):
    """A test that the smoke run of ``row`` holds invariants ``names``."""

    def test(self, smoke_run):
        invariants = smoke_run(row).invariants
        assert all(invariants[name] for name in names), invariants

    return test


class TestFig3Shapes:
    # The headline: negotiated ≈ specialized, within 10 %.
    test_bertha_matches_hardcoded_ipc = check("fig3", "bertha_matches_pipes")
    test_both_beat_container_tcp = check("fig3", "tcp_over_twice_bertha")
    test_udp_sits_between = check("fig3", "udp_between")
    # Bertha pays negotiation at connect, not per message.
    test_setup_overhead_only_at_connect = check("fig3", "setup_pays_negotiation")
    test_distribution_is_non_degenerate = check("fig3", "non_degenerate")

    def test_rows_render(self, smoke_run):
        table = smoke_run("fig3").render()
        assert "bertha" in table and "tcp" in table


class TestFig4Shapes:
    test_latency_steps_down_after_local_start = check("fig4", "latency_steps_down")
    test_switch_happens_at_local_start_time = check(
        "fig4", "switch_within_two_intervals"
    )
    test_transport_switches_to_pipe = check("fig4", "udp_then_pipe")
    # Every connection used the same endpoint code; only resolution
    # changed.
    test_no_client_changes_were_needed = check("fig4", "connects_every_interval")


class TestFig5Shapes:
    test_fallback_saturates_first = check("fig5", "fallback_saturates_first")
    test_xdp_saturates_before_client_push = check("fig5", "xdp_saturates_before_push")
    test_low_load_ordering = check("fig5", "low_load_ordering")
    test_mixed_sits_between = check("fig5", "mixed_between")
    test_negotiation_picks_expected_impls = check("fig5", "negotiated_impls")
    test_everything_completes_below_saturation = check(
        "fig5", "complete_when_sustained"
    )


class TestAblationShapes:
    test_negotiation_costs_two_round_trips_and_nothing_after = check(
        "negotiation",
        "two_control_round_trips",
        "steady_state_matches",
        "setup_pays_negotiation",
    )
    test_optimizer_reorder_saves_3x_pcie = check(
        "optimizer", "original_crosses_3", "reordered_crosses_1", "reorder_saves_3x_pcie"
    )
    test_optimizer_merge_produces_tls = check("optimizer", "merge_produces_tls")
    test_scheduler_drf_serves_both_tenants = check(
        "scheduler", "first_fit_starves_b", "drf_serves_both", "drf_fairer"
    )
    test_accelerated_serialization_is_faster = check(
        "serialization", "accelerated_faster"
    )


class TestReconfigShapes:
    # The acceptance bar: revocation mid-stream loses nothing.
    test_zero_loss_through_both_transitions = check("reconfig", "zero_loss")
    test_p95_steps_up_then_recovers = check("reconfig", "p95_steps_up", "p95_recovers")
    test_impl_timeline_round_trips_to_xdp = check("reconfig", "impls_round_trip")
    test_pauses_are_bounded = check("reconfig", "pauses_bounded")

    def test_transitions_happen_at_the_right_times(self, monkeypatch):
        """The smoke run checks the upgrade against the library's poll;
        at a 0.1 s poll it must land within 0.2 s of the restore."""
        monkeypatch.setattr(engine, "UPGRADE_POLL_INTERVAL", 0.1)
        result = run_reconfig(ReconfigConfig.smoke())
        assert result.invariants["transitions_on_time"]

    def test_rows_render(self, smoke_run):
        result = smoke_run("reconfig")
        assert len(result.rows()) >= 10
        assert "p95_us" in result.render()


class TestEpochOverheadShape:
    # Exact equality: the sim is deterministic and epoch 0 stamps nothing,
    # so the latency streams are bit-identical.
    test_arming_reconfiguration_is_free = check(
        "epoch-overhead", "every_request_answered", "streams_identical", "zero_delta"
    )
