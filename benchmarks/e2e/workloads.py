"""The four benchmark workloads and how a seed becomes their inputs.

Every workload drives :class:`MaintenanceSimulation` through its public
constructor only.  ``--seed S`` gives ``ProtocolParams.seed = S``, adversary
seed ``S + 4``, fault-plan seed ``S + 10`` and probe RNG ``S + 17``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.adversary import RandomChurnAdversary
from repro.config import ProtocolParams
from repro.core.runner import MaintenanceSimulation
from repro.faults import FaultPlan, MessageFaults, NodeStall
from repro.sim.profile import PhaseProfiler

__all__ = [
    "DEFAULT_SEED",
    "PROBE_ROUNDS",
    "PROBES_PER_WAVE",
    "Workload",
    "WORKLOADS",
    "params_for",
    "quick_variant",
    "build",
]

DEFAULT_SEED = 1

#: Timed rounds (0-based) at which a wave of probes is queued, and its size.
PROBE_ROUNDS = (0, 2, 4, 6)
PROBES_PER_WAVE = 6


@dataclass(frozen=True)
class Workload:
    """One benchmark input shape.

    ``rounds`` is the *verified window*: the run always executes at least
    this many timed rounds, and the digest, the exact counts and the probe
    report are taken over exactly these, so they do not depend on how many
    further rounds ``--seconds`` leaves room for.
    """

    name: str
    n: int
    rounds: int
    workers: int = 1
    churn: bool = False
    faults: bool = False


#: Why each exists is recorded in ``BENCHMARK.json`` and README.md.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("steady-n128", n=128, rounds=50),
        Workload("churn-n96", n=96, rounds=80, churn=True),
        Workload("faults-n24", n=24, rounds=50, faults=True),
        Workload("sharded-n48-w2", n=48, rounds=50, workers=2, churn=True),
    )
}


def params_for(workload: Workload, seed: int) -> ProtocolParams:
    """The protocol parameters of ``workload`` at ``seed``."""
    extra = {}
    if workload.churn:
        # n/48 join+leave events per round once paced (2 at n=96), ~20x the
        # pace the default Section-5 budget allows: past the model on purpose,
        # so the join pipeline carries weight (strict_budget is off).
        extra = {"churn_budget_override": workload.n // 4, "churn_window_override": 8}
    return ProtocolParams(n=workload.n, c=1.2, r=2, delta=3, tau=8, seed=seed, **extra)


def quick_variant(workload: Workload) -> Workload:
    """Plumbing-check size: n=24, just enough rounds for the probes to land."""
    small = replace(workload, n=24)
    return replace(small, rounds=2 * params_for(small, DEFAULT_SEED).lam + 10)


def build(
    workload: Workload,
    seed: int,
    *,
    workers: int | None = None,
    profiler: PhaseProfiler | None = None,
) -> MaintenanceSimulation:
    """Construct the simulation (``workers`` overrides W for the serial twin)."""
    params = params_for(workload, seed)
    adversary = None
    if workload.churn:
        adversary = RandomChurnAdversary(params, seed=seed + 4, intensity=1.0)
    faults = None
    if workload.faults:
        faults = FaultPlan(
            seed=seed + 10,
            messages=(
                MessageFaults(drop_p=0.04, delay_p=0.05, delay_rounds=2, duplicate_p=0.03),
            ),
            stalls=(NodeStall(stall_p=0.02),),
        )
    return MaintenanceSimulation(
        params,
        adversary,
        strict_budget=not workload.churn,
        faults=faults,
        profiler=profiler,
        workers=workload.workers if workers is None else workers,
    )
