"""Experiment harness: one experiment per paper artefact (see DESIGN.md).

Importing this package registers every experiment; run them via::

    from repro.experiments import get_experiment
    result = get_experiment("E-L9")(quick=True)
    print(result.to_table())
"""

from repro.experiments import (  # noqa: F401  (imports register experiments)
    e_ablation,
    e_chaos,
    e_collapse,
    e_comparison,
    e_congestion,
    e_content_lateness,
    e_dht,
    e_estimation,
    e_figure1,
    e_impossibility,
    e_maintenance,
    e_routing,
    e_scenarios,
    e_table1,
    e_topology,
    e_transfer,
)
from repro.experiments.models import TABLE1_MODELS, AdversaryModel
from repro.experiments.registry import (
    ExperimentResult,
    all_experiments,
    get_experiment,
    register,
)

__all__ = [
    "AdversaryModel",
    "ExperimentResult",
    "TABLE1_MODELS",
    "all_experiments",
    "get_experiment",
    "register",
]
