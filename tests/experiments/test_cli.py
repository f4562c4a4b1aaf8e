"""Smoke tests for the experiment CLI (python -m repro.experiments)."""

import subprocess
import sys

import pytest


def run_cli(*args, timeout=300):
    result = subprocess.run(
        [sys.executable, "-m", "repro.experiments", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestCli:
    def test_fig4_command(self):
        out = run_cli("fig4")
        assert "Figure 4" in out
        assert "pipe" in out and "udp" in out
        assert "switch at t=4" in out

    def test_fig3_command_prints_all_systems(self):
        out = run_cli("fig3")
        for system in ("bertha", "pipes", "tcp", "udp"):
            assert system in out
        assert "setup_p50" in out

    def test_unknown_experiment_rejected(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "fig99"],
            capture_output=True,
            text=True,
        )
        assert result.returncode != 0
        assert "invalid choice" in result.stderr

    def test_help(self):
        out = run_cli("--help")
        assert "--full" in out
        for name in ("fig3", "fig4", "fig5", "ablations", "all"):
            assert name in out

    def test_profile_flag_prints_hotspots(self, tmp_path):
        stats_path = tmp_path / "chaos.pstats"
        out = run_cli(
            "chaos", "--smoke", "--profile", "--profile-out", str(stats_path)
        )
        assert "cumulative" in out  # cProfile table made it out
        assert stats_path.exists()


class TestReconfigCli:
    def test_reconfig_command(self):
        out = run_cli("reconfig")
        assert "Live reconfiguration" in out
        assert "zero loss" in out
        assert "server-fallback" in out
        assert "latency samples identical: True" in out


class TestMultipathCli:
    def test_multipath_command(self):
        out = run_cli("multipath", "--smoke")
        assert "Multipath" in out
        assert "winner" in out
        assert "rebalance" in out
        assert "VIOLATED" not in out


class TestOffloadCli:
    def test_offload_command(self):
        out = run_cli("offload", "--smoke")
        assert "Offload" in out
        assert "winner" in out
        assert "fan-in" in out
        assert "contention" in out
        assert "VIOLATED" not in out
