"""Named adversity scenarios: network conditions x adversaries, reproducibly.

The scenario subsystem turns "how does the overlay degrade and recover
under loss-30%+delay-50 while the adversary cuts the ring?" into one named,
frozen, JSON-serializable experiment:

* :mod:`repro.scenarios.spec` — the :class:`Scenario` dataclass (a fault
  plan, a list of registered adversaries, a duration) and its builders
  (params, materialized plan, composed adversary);
* :mod:`repro.scenarios.registry` — the named matrix (``calm`` through
  ``churn-loss``) and its quick-run cut;
* :mod:`repro.scenarios.runner` — pool-parallel, worker-count-invariant
  execution of registry and generated scenarios (E-CH, E-T14) alike, with
  probe waves, recovery metrics and the one pass criterion;
* :mod:`repro.scenarios.report` — the versioned recovery-report schema CI
  validates.
"""

from repro.scenarios.registry import SCENARIOS, all_scenarios, get_scenario, shortened
from repro.scenarios.report import (
    ROW_HEADER,
    SCHEMA,
    cell_row,
    scenario_report,
    validate_scenario_report,
)
from repro.scenarios.runner import PROBES_PER_WAVE, cell_ok, run_matrix, run_scenario_cell
from repro.scenarios.spec import (
    ADVERSARY_KINDS,
    AdversarySpec,
    Scenario,
    build_adversary,
    build_params,
    materialize_plan,
)

__all__ = [
    "PROBES_PER_WAVE",
    "ROW_HEADER",
    "SCENARIOS",
    "SCHEMA",
    "ADVERSARY_KINDS",
    "AdversarySpec",
    "Scenario",
    "all_scenarios",
    "build_adversary",
    "build_params",
    "cell_ok",
    "cell_row",
    "get_scenario",
    "materialize_plan",
    "run_matrix",
    "run_scenario_cell",
    "scenario_report",
    "shortened",
    "validate_scenario_report",
]
