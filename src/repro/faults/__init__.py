"""Deterministic fault injection.

The paper assumes a perfectly reliable synchronous network; this package
removes that assumption in a controlled, reproducible way:

* :mod:`repro.faults.plan` — declarative :class:`FaultPlan` (message drops /
  delays / duplicates, node stalls, ring partitions) with activity windows;
* :mod:`repro.faults.injector` — :class:`FaultInjector`, the keyed-PRF
  oracle the network and engine consult (same seed + plan = same schedule).

Wire a plan into a run with ``Engine(..., faults=plan)`` or
``MaintenanceSimulation(..., faults=plan)``; what the faults do to the
overlay is recorded by :class:`repro.sim.audit.Auditor` as degradation
verdicts, attached with ``engine.attach(Auditor())``.
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    AsymmetricPartition,
    FaultPlan,
    LatencyMatrix,
    MessageFaults,
    NodeStall,
    RateCap,
    RingPartition,
)

__all__ = [
    "AsymmetricPartition",
    "FaultInjector",
    "FaultPlan",
    "LatencyMatrix",
    "MessageFaults",
    "NodeStall",
    "RateCap",
    "RingPartition",
]
