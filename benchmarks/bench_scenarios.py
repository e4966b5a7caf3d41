"""Bench E-SC — the scenario matrix experiment at the chosen size.

Worker-count invariance of the scenario runner is pinned by
``tests/scenarios/test_runner.py::TestWorkerInvariance``.
"""

from __future__ import annotations


def test_scenario_experiment(run_experiment):
    result = run_experiment("E-SC")
    assert any(row[0] == "calm" for row in result.rows)
    assert any(row[0] != "calm" for row in result.rows)
