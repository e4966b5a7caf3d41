"""Tests for the scenario runner: worker invariance, recovery metrics, schema."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.experiments.e_chaos import chaos_scenario
from repro.scenarios.registry import get_scenario
from repro.scenarios.report import scenario_report, validate_scenario_report
from repro.scenarios.runner import _percentile, run_matrix, run_scenario_cell


def cell(name, seed=0):
    return run_scenario_cell((get_scenario(name), seed, True))


@pytest.fixture(scope="module")
def calm_cell():
    return cell("calm")


class TestPercentile:
    def test_nearest_rank(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert _percentile(xs, 50) == 2.0
        assert _percentile(xs, 95) == 4.0
        assert _percentile([5.0], 99) == 5.0


class TestCalmCell:
    def test_paper_guarantees(self, calm_cell):
        assert calm_cell["probes"]["delivery_rate"] == 1.0
        assert calm_cell["established_fraction"] >= 0.95
        assert calm_cell["recovery"]["events"] == 0
        assert calm_cell["faults_injected"] == 0
        assert calm_cell["churn_events"] == 0

    def test_stretch_within_dilation_slack(self, calm_cell):
        # Probes launch at the origin's next even round, so stretch may
        # exceed 1.0 by up to 2/dilation — but never by a full dilation.
        assert 0.0 < calm_cell["stretch"]["p99"] < 2.0

    def test_trivial_window_is_null(self, calm_cell):
        assert calm_cell["fault_window"] == [None, None]

    def test_embeds_plan_json(self, calm_cell):
        assert "seed" in calm_cell["plan"]
        json.dumps(calm_cell)  # the whole record is plain data

    def test_deterministic(self, calm_cell):
        assert cell("calm") == calm_cell


class TestFaultyCell:
    def test_fault_window_and_metrics(self):
        storm = cell("stall-storm")
        open_, close = storm["fault_window"]
        assert open_ is not None and close is not None and close > open_
        assert storm["faults_injected"] > 0

    def test_seed_changes_schedule(self):
        assert cell("stall-storm", 0)["fingerprint"] != cell("stall-storm", 1)["fingerprint"]


class TestWorkerInvariance:
    def test_matrix_identical_across_worker_counts(self):
        registry = (get_scenario("calm"), get_scenario("stall-storm"))
        generated = (  # E-CH's zero cell, one fault cell, and a registry entry
            chaos_scenario((0.0, 0.0, 0.0), n=24),
            chaos_scenario((0.3, 0.0, 0.0), n=24),
            get_scenario("calm"),
        )
        for grid, workers in ((registry, 4), (generated, 2)):
            serial = run_matrix(grid, (0,), workers=1, quick=True)
            parallel = run_matrix(grid, (0,), workers=workers, quick=True)
            assert serial == parallel

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            run_matrix((), (0,))

    def test_duplicate_names_rejected(self):
        calm = get_scenario("calm")
        with pytest.raises(ValueError, match="duplicate"):
            run_matrix((calm, replace(calm, n=24)), (0,))


class TestReportSchema:
    def test_valid_report_passes(self, calm_cell):
        report = scenario_report([calm_cell])
        validate_scenario_report(report)
        json.dumps(report)

    def test_wrong_schema_tag(self, calm_cell):
        report = scenario_report([calm_cell])
        report["schema"] = "nope"
        with pytest.raises(ValueError, match="schema"):
            validate_scenario_report(report)

    def test_empty_cells_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            validate_scenario_report({"schema": "repro/scenario-report/v1", "cells": []})

    def test_missing_field_rejected(self, calm_cell):
        cell = dict(calm_cell)
        del cell["fingerprint"]
        with pytest.raises(ValueError, match="missing"):
            validate_scenario_report(scenario_report([cell]))

    def test_bad_fraction_rejected(self, calm_cell):
        cell = json.loads(json.dumps(calm_cell))
        cell["recovery"]["degraded_round_fraction"] = 1.5
        with pytest.raises(ValueError, match="degraded_round_fraction"):
            validate_scenario_report(scenario_report([cell]))
