"""Bench E-SC — the scenario matrix runner.

Times the quick scenario subset through the pool, pins worker-count
invariance of the recovery reports, and embeds each cell's exact
materialized fault plan in the recorded BENCH entry so any measurement can
be replayed bit-for-bit.
"""

from __future__ import annotations

from repro.experiments.e_scenarios import QUICK_NAMES
from repro.scenarios import (
    SCENARIOS,
    get_scenario,
    run_matrix,
    scenario_report,
    shortened,
    validate_scenario_report,
)


def test_scenario_experiment(run_experiment):
    result = run_experiment("E-SC")
    assert any(row[0] == "calm" for row in result.rows)
    assert any(row[0] != "calm" for row in result.rows)


def test_parallel_matrix_matches_serial(benchmark, quick, record_bench):
    """Pool fan-out returns the exact serial cells (and gets timed)."""
    names = QUICK_NAMES if quick else tuple(sorted(SCENARIOS))
    scenarios = tuple(
        shortened(get_scenario(name)) if quick else get_scenario(name) for name in names
    )
    seeds = (0,)
    serial = run_matrix(scenarios, seeds, workers=1)

    parallel = benchmark.pedantic(
        lambda: run_matrix(scenarios, seeds, workers=2),
        rounds=1,
        iterations=1,
    )
    record_bench(
        benchmark,
        "scenario_matrix",
        n=max(c["n"] for c in serial),
        rounds=sum(c["rounds"] for c in serial),
    )
    assert parallel == serial
    report = scenario_report(parallel)
    validate_scenario_report(report)
    # Every cell record embeds the exact plan it ran under.
    assert all("seed" in cell["plan"] for cell in report["cells"])
