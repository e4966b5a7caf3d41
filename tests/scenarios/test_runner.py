"""Tests for the scenario runner: worker invariance, recovery metrics, schema."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.e_chaos import chaos_scenario
from repro.scenarios.registry import get_scenario, shortened
from repro.scenarios.report import SCHEMA, scenario_report, validate_scenario_report
from repro.scenarios.runner import _percentile, _probe_waves, run_matrix, run_scenario_cell
from repro.scenarios.spec import AdversarySpec, Scenario, build_params


def cell(name, seed=0):
    """The quick cell of registry entry ``name``."""
    return run_scenario_cell((shortened(get_scenario(name)), seed))


@pytest.fixture(scope="module")
def calm_cell():
    return cell("calm")


@pytest.fixture(scope="module")
def storm_cell():
    return cell("stall-storm")


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
        assert calm_cell["violations"] == 0
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

    def test_structure_and_connects(self, calm_cell):
        assert calm_cell["edge_coverage"] == 1.0
        assert calm_cell["demotions"] == 0
        assert calm_cell["peak_congestion"] > 0
        connects = calm_cell["connects"]
        assert connects["bound"] == 6
        assert connects["dropped"] == 0
        assert connects["max_in_round"] <= connects["bound"]
        assert calm_cell["probes"]["origin_left"] == 0


class TestPinnedFingerprints:
    """Quick seed-0 fingerprints; a change here changes what a cell runs."""

    def test_calm(self, calm_cell):
        assert calm_cell["fingerprint"] == "b913aaf48222f74b9ea55892561a5b23"

    def test_flash_crowd(self):
        assert cell("flash-crowd")["fingerprint"] == "c788c416eec1dfb5c8397879d6226b7d"

    def test_ring_cut_adversary(self):
        assert cell("ring-cut-adversary")["fingerprint"] == "12ed0adfb238c176b0858bb247e7edd5"


class TestProbeWaves:
    """At n=40: bootstrap 19 rounds, dilation 14."""

    params = build_params(40, 0)

    def test_second_wave_follows_the_window_close(self):
        calm = Scenario(name="q", description="d")
        assert _probe_waves(calm, self.params, 60, close=30) == [21, 31]
        assert _probe_waves(calm, self.params, 46, close=30) == [21, 31]
        assert _probe_waves(calm, self.params, 45, close=30) == [21]  # no room to land

    def test_quiet_scenario_gets_one_wave(self):
        calm = Scenario(name="q", description="d")
        assert _probe_waves(calm, self.params, 100, close=None) == [21]

    def test_adversity_without_a_close_waits_a_dilation(self):
        churned = Scenario(
            name="c", description="d", adversaries=(AdversarySpec("random"),)
        )
        assert _probe_waves(churned, self.params, 60, close=None) == [21, 37]
        assert _probe_waves(churned, self.params, 52, close=None) == [21, 37]
        assert _probe_waves(churned, self.params, 51, close=None) == [21]

    def test_small_churned_cell_launches_both_waves(self):
        params = build_params(24, 0)
        churned = Scenario(
            name="churned",
            description="d",
            adversaries=(AdversarySpec("random"),),
            rounds=2 * params.dilation + 6,
            n=24,
        )
        record = run_scenario_cell((churned, 0))
        assert record["probes"]["launched"] == 12
        assert record["churn_events"] > 0
        short = run_scenario_cell((replace(churned, name="short", rounds=params.dilation + 6), 0))
        assert short["probes"]["launched"] == 6


class TestFaultyCell:
    def test_fault_window_and_metrics(self, storm_cell):
        open_, close = storm_cell["fault_window"]
        assert open_ is not None and close is not None and close > open_
        assert storm_cell["faults_injected"] > 0

    def test_seed_changes_schedule(self, storm_cell):
        assert storm_cell["fingerprint"] != cell("stall-storm", 1)["fingerprint"]


class TestWorkerInvariance:
    def test_matrix_identical_across_worker_counts(self):
        registry = (get_scenario("calm"), get_scenario("stall-storm"))
        generated = (  # E-CH's zero cell, one fault cell, and a registry entry
            chaos_scenario((0.0, 0.0, 0.0), n=24),
            chaos_scenario((0.3, 0.0, 0.0), n=24),
            get_scenario("calm"),
        )
        for grid, workers in ((registry, 4), (generated, 2)):
            grid = tuple(map(shortened, grid))
            serial = run_matrix(grid, (0,), workers=1)
            parallel = run_matrix(grid, (0,), workers=workers)
            assert serial == parallel

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            run_matrix((), (0,))

    def test_duplicate_names_rejected(self):
        calm = get_scenario("calm")
        with pytest.raises(ValueError, match="duplicate"):
            run_matrix((calm, replace(calm, n=24)), (0,))

    def test_duplicate_seeds_rejected(self):
        # A repeated seed would run one cell twice and count it twice in k/S.
        with pytest.raises(ValueError, match="duplicate seeds"):
            run_matrix((shortened(get_scenario("calm")),), (0, 0))


class TestReportSchema:
    def test_valid_report_passes(self, calm_cell):
        report = scenario_report([calm_cell])
        validate_scenario_report(report)
        json.dumps(report)

    def test_experiments_md_sample_is_a_real_cell(self, storm_cell):
        """EXPERIMENTS.md's sample cell validates and is the stall-storm
        quick seed-0 cell it claims to be."""
        text = (Path(__file__).resolve().parents[2] / "EXPERIMENTS.md").read_text()
        block = text.split("```json\n", 1)[1].split("```", 1)[0]
        sample = json.loads(block)
        validate_scenario_report(scenario_report([sample]))
        assert SCHEMA in text
        assert sample == json.loads(json.dumps(storm_cell))

    def test_wrong_schema_tag(self, calm_cell):
        report = scenario_report([calm_cell])
        report["schema"] = "nope"
        with pytest.raises(ValueError, match="schema"):
            validate_scenario_report(report)

    def test_empty_cells_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            validate_scenario_report({"schema": SCHEMA, "cells": []})

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

    @pytest.mark.parametrize(
        "path, value, match",
        [
            (("edge_coverage",), 1.01, "edge_coverage"),
            (("demotions",), -1, "demotions"),
            (("peak_congestion",), 2.5, "peak_congestion"),
            (("connects", "bound"), None, "connects.bound"),
            (("connects", "dropped"), 10**6, "dropped exceeds"),
            (("probes", "origin_left"), -1, "origin_left"),
            (("violations",), 0.0, "violations"),
        ],
    )
    def test_v2_fields_range_checked(self, calm_cell, path, value, match):
        cell = json.loads(json.dumps(calm_cell))
        *parents, leaf = path
        target = cell
        for key in parents:
            target = target[key]
        target[leaf] = value
        with pytest.raises(ValueError, match=match):
            validate_scenario_report(scenario_report([cell]))

    def test_missing_connect_field_rejected(self, calm_cell):
        cell = json.loads(json.dumps(calm_cell))
        del cell["connects"]["received"]
        with pytest.raises(ValueError, match="missing"):
            validate_scenario_report(scenario_report([cell]))
