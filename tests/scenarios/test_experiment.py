"""Tests for the E-SC scenario-matrix experiment."""

from __future__ import annotations

from repro.experiments import get_experiment
from repro.experiments.e_scenarios import QUICK_NAMES, run_scenarios_experiment
from repro.faults.plan import FaultPlan
from repro.scenarios.runner import cell_ok, run_scenario_cell
from repro.scenarios.spec import ChurnSpec, Scenario


class TestESC:
    def test_registered(self):
        assert get_experiment("E-SC") is run_scenarios_experiment

    def test_quick_subset_passes(self):
        result = run_scenarios_experiment(quick=True, seed=0)
        assert result.passed
        assert [row[0] for row in result.rows] == sorted(QUICK_NAMES)

    def test_explicit_names(self):
        result = run_scenarios_experiment(quick=True, seed=0, names=("calm",))
        assert result.passed
        assert len(result.rows) == 1


class TestCellCriterion:
    """One criterion: adversity configured or not, never the scenario's name."""

    def test_quiet_cell_is_judged_by_the_paper_thresholds(self):
        quiet = Scenario(name="quiet", description="no adversity, not named calm", n=24)
        cell = run_scenario_cell((quiet, 0, True))
        assert cell_ok(quiet, cell)
        degraded = {**cell, "probes": {**cell["probes"], "delivery_rate": 0.5}}
        assert not cell_ok(quiet, degraded)
        assert not cell_ok(quiet, {**cell, "established_fraction": 0.5})

    def test_adverse_cell_gates_on_its_adversity_firing(self):
        lossy = Scenario(
            name="lossy", description="d", plan=FaultPlan.simple(drop_p=0.2), n=24
        )
        churned = Scenario(name="churned", description="d", churn=ChurnSpec("random"), n=24)
        record = {"faults_injected": 0, "churn_events": 0}
        for scenario in (lossy, churned):
            assert not cell_ok(scenario, record)
        assert cell_ok(lossy, {**record, "faults_injected": 3})
        assert cell_ok(churned, {**record, "churn_events": 2})
