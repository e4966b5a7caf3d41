"""Tests for the E-SC scenario-matrix experiment."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments import get_experiment
from repro.experiments.e_scenarios import QUICK_NAMES, run_scenarios_experiment
from repro.faults.plan import FaultPlan
from repro.scenarios.runner import cell_ok, run_scenario_cell
from repro.scenarios.spec import AdversarySpec, Scenario


class TestESC:
    def test_registered(self):
        assert get_experiment("E-SC") is run_scenarios_experiment

    def test_quick_subset_passes(self):
        result = run_scenarios_experiment(quick=True, seed=0)
        assert result.passed
        assert [row[0] for row in result.rows] == sorted(QUICK_NAMES)


def _record(**overrides):
    """A hand-built cell record that meets every threshold of every branch."""
    record = {
        "probes": {"launched": 12, "origin_left": 0, "delivered": 12, "delivery_rate": 1.0},
        "edge_coverage": 1.0,
        "demotions": 0,
        "connects": {"max_in_round": 2, "received": 100, "dropped": 0, "bound": 6},
        "established_fraction": 1.0,
        "recovery": {"events": 0},
        "violations": 0,
        "faults_injected": 0,
        "churn_events": 0,
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            record[key] = {**record[key], **value}
        else:
            record[key] = value
    return record


QUIET = Scenario(name="quiet", description="no adversity, not named calm", n=24)
CHURNED = Scenario(name="churned", description="d", adversaries=(AdversarySpec("random"),), n=24)
LOSSY = Scenario(name="lossy", description="d", plan=FaultPlan.simple(drop_p=0.2), n=24)

#: One threshold breached at a time: (breach, quiet verdict, churned verdict).
#: Lossy cells gate only on their faults firing, so none of these matter there.
BREACHES = [
    ({}, True, True),
    ({"probes": {"delivery_rate": 0.94}}, False, False),
    ({"probes": {"delivery_rate": None}}, False, False),
    ({"edge_coverage": 0.98}, False, False),
    ({"demotions": 1}, True, True),
    ({"demotions": 2}, False, False),
    ({"connects": {"max_in_round": 7}}, False, False),
    ({"connects": {"dropped": 2}}, True, True),
    ({"connects": {"dropped": 3}}, False, False),
    ({"established_fraction": 0.94}, False, True),
    ({"recovery": {"events": 1}}, False, True),
    ({"churn_events": 2}, False, True),
    ({"faults_injected": 1}, False, True),
    ({"violations": 1}, False, False),
]


class TestCellCriterion:
    """One criterion: adversity configured or not, never the scenario's name."""

    @pytest.mark.parametrize("breach, quiet_ok, churned_ok", BREACHES)
    def test_each_threshold_flips_its_branch(self, breach, quiet_ok, churned_ok):
        record = _record(**breach)
        assert cell_ok(QUIET, record) is quiet_ok
        assert cell_ok(CHURNED, record) is churned_ok
        fired = record["faults_injected"] or record["churn_events"]
        assert cell_ok(LOSSY, record) is bool(fired and not record["violations"])

    def test_quiet_cell_is_judged_by_the_paper_thresholds(self):
        quiet = replace(QUIET, rounds=24)
        cell = run_scenario_cell((quiet, 0))
        assert cell_ok(quiet, cell)
        degraded = {**cell, "probes": {**cell["probes"], "delivery_rate": 0.5}}
        assert not cell_ok(quiet, degraded)
        assert not cell_ok(quiet, {**cell, "established_fraction": 0.5})

    def test_adverse_cell_gates_on_its_adversity_firing(self):
        """Faults put a cell outside the model: it gates on them firing.  Churn
        over a reliable network stays inside Theorem 14's envelope and is
        judged by the paper's thresholds, firing or not."""
        quiet = _record()
        assert not cell_ok(LOSSY, quiet)
        assert cell_ok(LOSSY, {**quiet, "faults_injected": 3})
        assert cell_ok(CHURNED, {**quiet, "churn_events": 2})
        assert not cell_ok(CHURNED, _record(churn_events=2, edge_coverage=0.5))
