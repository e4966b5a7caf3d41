"""Tests for the parallel sweep runner (E-SW)."""

from __future__ import annotations

import pytest

from repro.experiments import all_experiments, get_experiment
from repro.experiments.registry import ExperimentResult
from repro.experiments.report import DEFAULT_ORDER
from repro.experiments.sweep import DEFAULT_GRID, run_cell, run_sweep

FAST_GRID = ("E-F1", "E-L12")  # sub-second experiments, seed-robust


class TestRunSweep:
    def test_serial_grid(self):
        result = run_sweep(FAST_GRID, (0, 1), workers=1)
        assert result.experiment_id == "E-SW"
        assert result.passed
        assert [row[:2] for row in result.rows] == [
            ["E-F1", 0],
            ["E-F1", 1],
            ["E-L12", 0],
            ["E-L12", 1],
        ]
        assert all(row[3] == "PASS" for row in result.rows)

    def test_parallel_is_bit_identical_to_serial(self):
        serial = run_sweep(FAST_GRID, (0, 1), workers=1)
        parallel = run_sweep(FAST_GRID, (0, 1), workers=2)
        assert parallel.rows == serial.rows
        assert parallel.notes == serial.notes
        assert parallel.to_table() == serial.to_table()

    def test_grid_order_is_sorted_not_given(self):
        shuffled = run_sweep(("E-L12", "E-F1"), (1, 0), workers=1)
        ordered = run_sweep(("E-F1", "E-L12"), (0, 1), workers=1)
        assert shuffled.rows == ordered.rows

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            run_sweep((), (0,), workers=1)
        with pytest.raises(ValueError):
            run_sweep(FAST_GRID, (), workers=1)

    def test_failing_cell_fails_sweep(self, monkeypatch):
        from repro.experiments import registry

        def always_fail(quick=True, seed=0):
            return ExperimentResult(
                experiment_id="E-ZZ",
                title="fail",
                claim="",
                header=["x"],
                rows=[[1]],
                passed=False,
            )

        monkeypatch.setitem(registry._REGISTRY, "E-ZZ", always_fail)
        result = run_sweep(("E-F1", "E-ZZ"), (0,), workers=1)
        assert not result.passed
        assert any("E-ZZ/seed=0" in note for note in result.notes)

    def test_run_cell_summary(self):
        eid, seed, passed, rows, note = run_cell(("E-F1", 3, True))
        assert (eid, seed, passed) == ("E-F1", 3, True)
        assert rows > 0
        assert isinstance(note, str)


class TestRegistration:
    def test_registered_and_ordered(self):
        assert "E-SW" in all_experiments()
        assert "E-SW" in DEFAULT_ORDER

    def test_registered_entrypoint_runs_default_grid(self):
        result = get_experiment("E-SW")(quick=True, seed=0)
        assert result.passed
        assert len(result.rows) == 2 * len(DEFAULT_GRID)


class TestCli:
    def test_sweep_command(self, capsys):
        from repro.cli import main

        assert main(["sweep", "E-F1", "--seeds", "0,1", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out
        assert "E-F1" in out

    def test_sweep_unknown_experiment(self, capsys):
        from repro.cli import main

        assert main(["sweep", "E-NOPE"]) == 2
        assert capsys.readouterr().out == (
            "sweep: unknown experiments ['E-NOPE']; try `python -m repro list`\n"
        )

    def test_sweep_bad_seeds(self, capsys):
        from repro.cli import main

        for seeds, message in (
            ("a,b", "--seeds expects comma-separated ints"),
            ("x", "--seeds expects comma-separated ints"),
            (",", "--seeds must name at least one seed"),
            ("-1", "--seeds must not be negative"),
        ):
            assert main(["sweep", "E-F1", "--seeds", seeds]) == 2
            out = capsys.readouterr().out
            assert out.startswith(f"sweep: {message}") and out.count("\n") == 1
