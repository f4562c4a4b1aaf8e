"""The result contract every row of the CLI table honours, and its runner.

One parametrized test per clause instead of a copy per experiment: the
verdict, the rendered footer, same-run determinism, and the framing and
encoding of the recorded file and the metrics document.  The runner
tests drive ``main`` in process on cheap rows.
"""

import argparse
import json
from dataclasses import fields, replace

import pytest

from repro.experiments import __main__ as cli
from repro.experiments import SCENARIOS
from repro.experiments.__main__ import EXPERIMENTS, main


def canonical(document) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


@pytest.fixture(params=list(EXPERIMENTS))
def name(request) -> str:
    return request.param


class TestContract:
    def test_ok_is_all_invariants(self, name, smoke_run):
        result = smoke_run(name)
        assert result.invariants
        assert all(isinstance(v, bool) for v in result.invariants.values())
        assert result.ok == all(result.invariants.values())
        # The smoke tier at the default seed holds every invariant.
        assert result.ok, result.invariants

    def test_render_ends_with_invariants_line(self, name, smoke_run):
        result = smoke_run(name)
        footer = "invariants: " + ", ".join(
            f"{key}={'ok' if held else 'VIOLATED'}"
            for key, held in result.invariants.items()
        )
        assert result.render().splitlines()[-2:] == ["", footer]

    def test_same_seed_same_documents(self, name, smoke_run):
        # Any nondeterminism (iteration-order leak, id() in a sort key,
        # wall-clock in a metric) fails here, before CI's diff sees it.
        row = EXPERIMENTS[name]
        first, again = smoke_run(name), row.run(row.config.smoke())
        assert canonical(again.metrics_payload()) == canonical(
            first.metrics_payload()
        )
        assert again.baseline_text() == first.baseline_text()

    def test_files_round_trip(self, name, smoke_run, tmp_path):
        result = smoke_run(name)
        metrics, baseline = tmp_path / "metrics.json", tmp_path / "baseline"
        result.write_metrics(str(metrics))
        result.write_baseline(str(baseline))
        assert metrics.read_text() == canonical(result.metrics_payload()) + "\n"
        documents = [json.loads(metrics.read_text())]
        if EXPERIMENTS[name].table:
            # The recorded table carries no footer: the invariants go to
            # stdout and the exit code.
            assert baseline.read_text() == "\n".join(result.render_body()) + "\n"
        else:
            assert baseline.read_text() == (
                json.dumps(result.to_baseline(), indent=2, sort_keys=True) + "\n"
            )
            documents.append(json.loads(baseline.read_text()))
        for document in documents:
            assert document["experiment"] == name
            assert document["seed"] == getattr(result.config, "seed", None)
            assert document["invariants"] == result.invariants


class TestRunner:
    def test_writes_the_requested_files(self, smoke_run, tmp_path, capsys):
        result = smoke_run("multipath")
        main(
            [
                "multipath", "--smoke",
                "--metrics-out", str(tmp_path / "m"),
                "--baseline", str(tmp_path / "b"),
            ]
        )
        metrics = tmp_path / "m" / "multipath.json"
        assert metrics.read_text() == canonical(result.metrics_payload()) + "\n"
        assert json.loads((tmp_path / "b" / "BENCH_multipath.json").read_text()) == (
            json.loads(json.dumps(result.to_baseline()))
        )
        out = capsys.readouterr().out
        assert out.splitlines()[1].startswith("=== Multipath:")
        assert f"metrics written to {metrics}" in out

    def test_violated_invariant_exits_one(self, smoke_run, monkeypatch):
        result = smoke_run("multipath")
        broken = replace(result, reb_delivered=result.reb_delivered - 1)
        row = replace(EXPERIMENTS["multipath"], run=lambda config: broken)
        monkeypatch.setitem(cli.EXPERIMENTS, "multipath", row)
        with pytest.raises(SystemExit) as exit_info:
            main(["multipath", "--smoke"])
        assert exit_info.value.code == 1

    def test_all_writes_one_file_per_command(
        self, smoke_run, monkeypatch, tmp_path
    ):
        # ``all`` over a two-row table: one table row and one
        # invariant-checked row, each writing its own two files.
        result = smoke_run("multipath")
        row = replace(EXPERIMENTS["multipath"], run=lambda config: result)
        monkeypatch.setattr(
            cli, "EXPERIMENTS", {"fig4": EXPERIMENTS["fig4"], "multipath": row}
        )
        main(
            [
                "all", "--smoke",
                "--metrics-out", str(tmp_path / "out"),
                "--baseline", str(tmp_path / "rec"),
            ]
        )
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "fig4.json",
            "multipath.json",
        ]
        assert sorted(p.name for p in (tmp_path / "rec").iterdir()) == [
            "BENCH_multipath.json",
            "fig4_dynamic.txt",
        ]
        assert (tmp_path / "out" / "multipath.json").read_text() == (
            canonical(result.metrics_payload()) + "\n"
        )
        assert (tmp_path / "rec" / "fig4_dynamic.txt").read_text() == (
            smoke_run("fig4").baseline_text()
        )

    def test_metrics_cover_every_world_built(self, smoke_run, tmp_path):
        main(["consensus", "--smoke", "--metrics-out", str(tmp_path)])
        worlds = json.loads((tmp_path / "consensus.json").read_text())["worlds"]
        assert sorted(worlds) == ["host-sequencer", "switch-sequencer"]
        assert all(worlds.values())
        fig5 = smoke_run("fig5")
        assert sorted(fig5.metrics_payload()["worlds"]) == sorted(
            f"{scenario}/{load}"
            for scenario in SCENARIOS
            for load in fig5.config.offered_loads
        )

    def test_seed_overrides_only_rows_that_have_one(self):
        args = argparse.Namespace(
            seed=3, full=False, shards=None, replicas_per_shard=None
        )
        assert cli._config(EXPERIMENTS["fig5"], args, smoke=True).seed == 3
        assert cli._config(EXPERIMENTS["fig3"], args, smoke=True) == (
            EXPERIMENTS["fig3"].config.smoke()
        )

    def test_shard_flags_name_the_discovery_tier_rows(self):
        sharded = [n for n, row in EXPERIMENTS.items() if row.sharded]
        assert sharded == ["chaos", "churn", "failover", "fleet"]


class TestConfigCensus:
    def test_every_field_is_varied_by_a_tier_or_a_flag(self):
        """A config holds only what a row's runs vary: each field differs
        between the default, ``smoke()`` and the default with ``--full``
        applied, or is one a CLI flag of the row sets.  A field that every
        way of running the row leaves at one value is a module constant."""
        flagged = argparse.Namespace(
            seed=-1, full=False, shards=-1, replicas_per_shard=-1
        )
        single_valued = []
        for name, row in EXPERIMENTS.items():
            smoke = row.config.smoke()
            tiers = (row.config(), smoke, row.config(**row.full))
            set_by_flags = cli._config(row, flagged, smoke=True)
            for f in fields(row.config):
                values = [getattr(config, f.name) for config in tiers]
                varied = any(value != values[0] for value in values)
                flag = getattr(set_by_flags, f.name) != getattr(smoke, f.name)
                if not (varied or flag):
                    single_valued.append(f"{name}: {f.name}")
        assert single_valued == []
