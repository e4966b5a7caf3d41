"""E-SC — scenario matrix: recovery under named composed adversity.

Where E-CH sweeps generated fault probabilities, this experiment runs the
*named scenarios* of :mod:`repro.scenarios` — compositions of network
conditions (loss, delay regions, rate caps, one-way cuts), churn schedules
and targeted attacks — and reports the recovery profile of each: probe
delivery, routing-stretch percentiles, time to first degradation,
degraded-round fraction and time to recover after the fault windows close.
Both experiments share the runner's pass criterion,
:func:`~repro.scenarios.runner.cell_ok`, and the row of a cell,
:func:`~repro.scenarios.report.cell_row`.
"""

from __future__ import annotations

from repro.experiments.registry import ExperimentResult, register
from repro.scenarios.registry import SCENARIOS, get_scenario, shortened
from repro.scenarios.report import ROW_HEADER, cell_row
from repro.scenarios.runner import run_matrix

__all__ = ["run_scenarios_experiment", "QUICK_NAMES"]

#: The quick subset: the baseline plus one environment-only and one
#: compute-fault scenario (kept cheap for CI).
QUICK_NAMES = ("calm", "loss30-delay50", "stall-storm")


@register("E-SC")
def run_scenarios_experiment(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Scenario matrix — named conditions x adversary x churn, with recovery metrics."""
    subset = " (quick subset)" if quick else ""
    names = QUICK_NAMES if quick else sorted(SCENARIOS)
    scenarios = {
        name: shortened(get_scenario(name)) if quick else get_scenario(name)
        for name in names
    }
    cells = run_matrix(tuple(scenarios.values()), (seed,))
    rows = [cell_row(scenarios[cell["scenario"]], cell) for cell in cells]
    return ExperimentResult(
        experiment_id="E-SC",
        title="Scenario matrix — recovery under named composed adversity",
        claim="The calm scenario reproduces the paper's guarantees exactly; "
        "every named adversity scenario executes its composed faults, churn "
        "and attacks deterministically and reports how the overlay degrades "
        "and recovers rather than crashing.",
        header=ROW_HEADER,
        rows=rows,
        passed=all(row[-1] for row in rows),
        notes=[
            f"{len(cells)} scenario cells at seed {seed}{subset}",
            "ok = cell_ok: the paper's thresholds on a reliable network, "
            "the faults firing otherwise",
        ],
    )
