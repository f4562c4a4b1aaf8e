"""The result contract every row of the CLI table honours, and its runner.

One parametrized test per clause instead of a copy per experiment: the
verdict, the rendered footer, same-seed determinism, and the framing and
encoding of the two JSON files.  The runner tests drive ``main`` in
process on the cheapest row.
"""

import json
from dataclasses import replace

import pytest

from repro.experiments import __main__ as cli
from repro.experiments.__main__ import EXPERIMENTS, cmd_fig4, main


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
        first, again = smoke_run(name), row.run(row.config.smoke(seed=7))
        assert canonical(again.metrics_payload()) == canonical(
            first.metrics_payload()
        )
        assert canonical(again.to_baseline()) == canonical(first.to_baseline())

    def test_files_round_trip(self, name, smoke_run, tmp_path):
        result = smoke_run(name)
        metrics, baseline = tmp_path / "metrics.json", tmp_path / "base.json"
        result.write_metrics(str(metrics))
        result.write_baseline(str(baseline))
        assert metrics.read_text() == canonical(result.metrics_payload()) + "\n"
        assert baseline.read_text() == (
            json.dumps(result.to_baseline(), indent=2, sort_keys=True) + "\n"
        )
        for path in (metrics, baseline):
            document = json.loads(path.read_text())
            assert document["experiment"] == name
            assert document["seed"] == 7
            assert document["invariants"] == result.invariants


class TestRunner:
    def test_writes_the_requested_files(self, smoke_run, tmp_path, capsys):
        result = smoke_run("multipath")
        metrics, baseline = tmp_path / "m.json", tmp_path / "b.json"
        main(
            [
                "multipath", "--smoke",
                "--metrics-out", str(metrics), "--baseline", str(baseline),
            ]
        )
        assert metrics.read_text() == canonical(result.metrics_payload()) + "\n"
        assert json.loads(baseline.read_text()) == json.loads(
            json.dumps(result.to_baseline())
        )
        out = capsys.readouterr().out
        assert out.splitlines()[1].startswith("=== Multipath:")
        assert f"metrics written to {metrics}" in out

    def test_violated_invariant_exits_one(self, smoke_run, monkeypatch):
        result = smoke_run("multipath")
        broken = replace(result, reb_delivered=result.reb_delivered - 1)
        row = replace(EXPERIMENTS["multipath"], run=lambda config: broken)
        monkeypatch.setitem(cli.COMMANDS, "multipath", row)
        with pytest.raises(SystemExit) as exit_info:
            main(["multipath", "--smoke"])
        assert exit_info.value.code == 1

    def test_all_writes_one_file_per_command(
        self, smoke_run, monkeypatch, tmp_path
    ):
        # ``all`` over a two-row table: one figure command (registry
        # export) and one invariant-checked row (its own document).
        result = smoke_run("multipath")
        row = replace(EXPERIMENTS["multipath"], run=lambda config: result)
        monkeypatch.setattr(
            cli, "COMMANDS", {"fig4": cmd_fig4, "multipath": row}
        )
        main(["all", "--smoke", "--metrics-out", str(tmp_path / "out")])
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "fig4.json",
            "multipath.json",
        ]
        assert (tmp_path / "out" / "multipath.json").read_text() == (
            canonical(result.metrics_payload()) + "\n"
        )

    def test_shard_flags_name_the_discovery_tier_rows(self):
        # ``offload`` has a ``shards`` field too, but it counts KV shards.
        sharded = [n for n, row in EXPERIMENTS.items() if row.sharded]
        assert sharded == ["chaos", "churn", "failover", "fleet"]
