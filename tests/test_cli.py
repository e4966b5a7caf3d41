"""Tests for the CLI and the report generator."""

from __future__ import annotations

import re

import pytest

from repro.cli import main
from repro.experiments.registry import ExperimentResult
from repro.experiments.report import render_report, run_all, write_report


class TestCliList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for eid in ("E-T1", "E-L9", "E-T14", "E-AB", "E-X1", "E-X2"):
            assert eid in out


class TestCliParams:
    def test_prints_derived_values(self, capsys):
        assert main(["params", "128"]) == 0
        out = capsys.readouterr().out
        assert "lam: 8" in out
        assert "dilation: 18" in out

    def test_overrides(self, capsys):
        assert main(["params", "128", "--c", "2.5", "--alpha", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "c: 2.5" in out
        assert "alpha: 0.25" in out

    @pytest.mark.parametrize(
        "argv, message",
        [(["2"], "n must be at least 8"), (["64", "--c", "-1"], "c must be positive")],
        ids=["n-too-small", "negative-c"],
    )
    def test_out_of_range_input_is_a_one_line_usage_error(self, capsys, argv, message):
        assert main(["params", *argv]) == 2
        out = capsys.readouterr().out
        assert out.startswith(f"params: {message}") and out.count("\n") == 1


class TestCliScenario:
    def test_list_shows_registry(self, capsys):
        assert main(["scenario", "--list"]) == 0
        out = capsys.readouterr().out
        names = [line.split()[0] for line in out.strip().splitlines()]
        assert len(names) >= 10
        assert "calm" in names
        assert "loss30-delay50" in names

    def test_no_names_runs_the_whole_registry(self, capsys, monkeypatch):
        import repro.scenarios
        from repro.scenarios import SCENARIOS

        grids = []

        def fake_run_matrix(scenarios, seeds, *, workers):
            grids.append(([s.name for s in scenarios], seeds, workers))
            return []  # no cell runs

        monkeypatch.setattr(repro.scenarios, "run_matrix", fake_run_matrix)
        assert main(["scenario", "--seeds", "3,1", "--workers", "2"]) == 0
        assert grids == [(sorted(SCENARIOS), (3, 1), 2)]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "calm"], "unknown scenarios ['run']"),
            (["matrix"], "unknown scenarios ['matrix']"),
            (["matrix", "calm"], "unknown scenarios ['matrix']"),
            (["--seeds", ","], "--seeds must name at least one seed"),
            (["calm", "--seeds", "-1"], "--seeds must not be negative"),
            (["calm", "--seeds", "0,0"], "--seeds must be distinct, got '0,0'"),
            (["--list", "run"], "--list takes no scenario names"),
        ],
        ids=[
            "run-action",
            "matrix-action",
            "matrix-with-names",
            "empty-seeds",
            "negative-seed",
            "duplicate-seeds",
            "list-with-action",
        ],
    )
    def test_bad_input_is_a_one_line_usage_error(self, capsys, argv, message):
        assert main(["scenario", *argv]) == 2
        out = capsys.readouterr().out
        assert out.startswith(f"scenario: {message}") and out.count("\n") == 1

    def test_unknown_scenario(self, capsys):
        assert main(["scenario", "bogus"]) == 2
        assert capsys.readouterr().out == (
            "scenario: unknown scenarios ['bogus']; "
            "try `python -m repro scenario --list`\n"
        )

    def test_run_writes_validated_report(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        assert main(["scenario", "calm", "--seeds", "2", "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "calm" in out
        import json

        from repro.scenarios import validate_scenario_report

        doc = json.loads(out_path.read_text())
        validate_scenario_report(doc)
        assert doc["cells"][0]["seed"] == 2
        assert out.splitlines()[2].endswith("| yes")

    def test_failing_cell_exits_nonzero(self, capsys, monkeypatch):
        from repro.scenarios import report

        monkeypatch.setattr(report, "cell_ok", lambda scenario, cell: False)
        assert main(["scenario", "calm", "--seeds", "0"]) == 1
        out = capsys.readouterr().out
        assert out.splitlines()[2].endswith("| no")
        assert "1 of 1 cells failed" in out


class TestCliRun:
    def test_runs_fast_experiment(self, capsys):
        assert main(["run", "E-F1"]) == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out

    def test_unknown_id(self, capsys):
        assert main(["run", "E-NOPE"]) == 2
        assert capsys.readouterr().out == (
            "run: unknown experiment 'E-NOPE'; try `python -m repro list`\n"
        )

    def test_unknown_id_is_rejected_before_any_run(self, capsys):
        assert main(["run", "E-F1", "E-NOPE"]) == 2
        assert capsys.readouterr().out == (
            "run: unknown experiment 'E-NOPE'; try `python -m repro list`\n"
        )

    def test_seed_forwarded(self, capsys):
        assert main(["run", "E-F1", "--seed", "5"]) == 0

    def test_negative_seed_is_a_one_line_usage_error(self, capsys):
        assert main(["run", "E-L9", "--seed", "-1"]) == 2
        assert capsys.readouterr().out == "run: --seed must not be negative, got -1\n"


def test_help_lists_the_verbs(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    verbs = re.search(r"\{([a-z,]+)\}", capsys.readouterr().out).group(1).split(",")
    assert sorted(verbs) == sorted(
        ["list", "run", "report", "scenario", "profile", "scale", "params"]
    )


@pytest.mark.parametrize(
    "gone",
    [
        ["check"],
        ["lint"],
        ["flow"],
        ["shard-check"],
        ["proto-check"],
        ["check", "--rules", "D"],
        ["check", "--format=sarif"],
        ["check", "--fix"],
        ["sweep"],
        ["chaos", "--drop", "0.3"],
    ],
)
def test_removed_subcommands_and_flags_leave_no_alias(gone, capsys):
    with pytest.raises(SystemExit) as exc:
        main(gone)
    assert exc.value.code == 2
    assert f"invalid choice: '{gone[0]}'" in capsys.readouterr().err


class TestCliProfile:
    def test_profiles_the_calibrated_round(self, capsys, monkeypatch):
        from repro.config import ProtocolParams
        from repro.core.runner import MaintenanceSimulation

        built = []
        monkeypatch.setattr(MaintenanceSimulation, "__enter__", lambda sim: built.append(sim.params) or sim)
        assert main(["profile", "--n", "24", "--rounds", "4"]) == 0
        assert built == [ProtocolParams.calibrated(24, seed=7)]
        rows = {line.split()[0] for line in capsys.readouterr().out.splitlines() if line.strip()}
        assert {"adversary", "receive", "compute", "close", "prepare", "plan", "act"} <= rows

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--n", "2"], "n must be at least 8"),
            (["--churn", "1.5"], "intensity must be in (0, 1]"),
            (["--churn", "-0.5"], "--churn must not be negative"),
            (["--workers", "0"], "workers must be >= 1"),
            (["--rounds", "0"], "--rounds must be at least 1"),
            (["--rounds", "-3"], "--rounds must be at least 1"),
        ],
        ids=[
            "n-too-small",
            "churn-above-one",
            "negative-churn",
            "zero-workers",
            "zero-rounds",
            "negative-rounds",
        ],
    )
    def test_out_of_range_input_is_a_one_line_usage_error(self, capsys, flags, message):
        assert main(["profile", "--n", "24", *flags]) == 2
        out = capsys.readouterr().out
        assert out.startswith(f"profile: {message}") and out.count("\n") == 1


class TestCliScale:
    def test_history_rows_are_tagged_and_never_compared(self, capsys, tmp_path):
        import json

        from repro.util.benchrec import validate_bench_file

        def row(n, workers, spr, label):
            return {
                "created": "2026-10-01T00:00:00Z",
                "n": n,
                "rounds": 2,
                "seconds_per_round": spr,
                "peak_rss_kb": 1024,
                "label": label,
                "workers": workers,
            }

        path = tmp_path / "BENCH_scaling.json"
        entries = [
            row(48, 1, 0.1, "history, restored from abc1234: full"),
            row(48, 2, 0.4, "PR 99 after"),
            row(128, 1, 0.2, "PR 99 after"),
            row(128, 2, 0.8, "history, restored from abc1234: full"),
            row(256, 1, 0.8, "PR 99 after"),
            row(256, 2, 1.6, "PR 99 after"),
        ]
        path.write_text(json.dumps({"schema": 1, "id": "scaling", "entries": entries}))
        validate_bench_file(path)
        assert main(["scale", "--file", str(path)]) == 0
        rows = {
            (int(cols[0]), int(cols[1])): cols
            for cols in (line.split() for line in capsys.readouterr().out.splitlines()[1:])
        }
        # n, W, s/round, RSS, speedup, exchange, recorded[, tag]
        assert rows[(48, 1)][4:] == ["—", "—", "2026-10-01T00:00:00Z", "history"]
        assert rows[(48, 2)][4:] == ["—", "—", "2026-10-01T00:00:00Z"]
        assert rows[(128, 1)][4:] == ["1.00x", "—", "2026-10-01T00:00:00Z"]
        assert rows[(128, 2)][4:] == ["—", "—", "2026-10-01T00:00:00Z", "history"]
        assert rows[(256, 2)][4:] == ["0.50x", "—", "2026-10-01T00:00:00Z"]


class TestReport:
    def make_result(self, eid="E-X", passed=True):
        return ExperimentResult(
            experiment_id=eid,
            title="demo",
            claim="c",
            header=["a"],
            rows=[[1]],
            passed=passed,
        )

    def test_render_report(self):
        text = render_report([self.make_result(), self.make_result("E-Y", False)])
        assert "| E-X | demo | PASS |" in text
        assert "| E-Y | demo | FAIL |" in text
        assert "### E-X" in text

    def test_write_report(self, tmp_path):
        path = write_report(tmp_path / "r.md", [self.make_result()])
        assert path.read_text().startswith("# Experiment report")

    def test_run_all_subset(self):
        results = run_all(quick=True, only=["E-F1"])
        assert len(results) == 1
        assert results[0].experiment_id == "E-F1"

    def test_run_all_rejects_unknown(self):
        with pytest.raises(KeyError):
            run_all(only=["E-NOPE"])
