"""Deterministic fault injection and health monitoring.

The paper assumes a perfectly reliable synchronous network; this package
removes that assumption in a controlled, reproducible way:

* :mod:`repro.faults.plan` — declarative :class:`FaultPlan` (message drops /
  delays / duplicates, node stalls, ring partitions) with activity windows;
* :mod:`repro.faults.injector` — :class:`FaultInjector`, the keyed-PRF
  oracle the network and engine consult (same seed + plan = same schedule);
* :mod:`repro.faults.health` — :class:`HealthMonitor`, per-round overlay
  invariant audits emitting structured :class:`DegradationEvent`s.

Wire a plan and a monitor into a run with
``Engine(..., faults=plan, observers=[monitor])`` or
``MaintenanceSimulation(..., faults=plan, health=monitor)``.
"""

from repro.faults.health import DegradationEvent, HealthMonitor
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
    "DegradationEvent",
    "FaultInjector",
    "FaultPlan",
    "HealthMonitor",
    "LatencyMatrix",
    "MessageFaults",
    "NodeStall",
    "RateCap",
    "RingPartition",
]
