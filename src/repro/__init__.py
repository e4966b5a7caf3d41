"""Reproduction of *"Always be Two Steps Ahead of Your Enemy"* (Götte,
Ravindran Vijayalakshmi, Scheideler — arXiv:1810.07077 / IPDPS).

The library implements, from scratch:

* the paper's synchronous-round network model with an ``(a, b)``-late
  omniscient adversary and an enforced ``(C, T)`` churn budget
  (:mod:`repro.sim`, :mod:`repro.adversary`);
* the **Linearized De Bruijn Swarm** topology (:mod:`repro.overlay`);
* swarm-to-swarm routing **A_ROUTING** and uniform peer sampling
  **A_SAMPLING** (:mod:`repro.routing`);
* the main contribution — the maintenance protocol **A_LDS ∥ A_RANDOM**
  that rebuilds the whole overlay every two rounds (:mod:`repro.core`);
* the Section-2 impossibility attacks and baselines they defeat
  (:mod:`repro.adversary`, :mod:`repro.baselines`);
* an experiment harness regenerating every paper artefact
  (:mod:`repro.experiments`).

Quickstart::

    from repro import ProtocolParams, MaintenanceSimulation
    from repro.adversary import RandomChurnAdversary
    import numpy as np

    params = ProtocolParams(n=64, alpha=0.25, kappa=1.25, delta=3, tau=8)
    sim = MaintenanceSimulation(params, RandomChurnAdversary(params))
    sim.run(params.bootstrap_rounds + 20)
    sim.send_probes(8, np.random.default_rng(0))
    sim.run(2 * params.dilation)
    assert sim.probe_report().delivery_rate == 1.0
"""

from repro.config import ProtocolParams, env_flag
from repro.core import MaintenanceNode, MaintenanceSimulation, Phase
from repro.overlay import LDGGraph, LDSGraph, PositionIndex, build_lds
from repro.routing import GreedyRouter, SeriesRouter
from repro.sim import Engine, NodeContext, NodeProtocol

__version__ = "1.0.0"

__all__ = [
    "Engine",
    "GreedyRouter",
    "LDGGraph",
    "LDSGraph",
    "MaintenanceNode",
    "MaintenanceSimulation",
    "NodeContext",
    "NodeProtocol",
    "Phase",
    "PositionIndex",
    "ProtocolParams",
    "SeriesRouter",
    "build_lds",
    "env_flag",
    "__version__",
]
