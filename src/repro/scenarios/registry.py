"""The named scenario matrix.

Each entry composes network conditions and a list of adversaries (background
churn, a targeted attack) into a :class:`~repro.scenarios.spec.Scenario`.
Windows are relative to round 0 = end of bootstrap; durations leave a
recovery tail after the fault windows close so time-to-recover is
measurable.  The registry is data, not code —
``repro scenario --list`` prints it, the E-SC experiment samples it, and
scenario records embed the exact fault-plan JSON of the run.
"""

from __future__ import annotations

from dataclasses import replace

from repro.faults.plan import (
    AsymmetricPartition,
    FaultPlan,
    LatencyMatrix,
    MessageFaults,
    NodeStall,
    RateCap,
    RingPartition,
)
from repro.scenarios.spec import AdversarySpec, Scenario

__all__ = ["SCENARIOS", "get_scenario", "all_scenarios", "shortened"]

#: Regional delay classes used by the geography scenarios: three bands,
#: adjacent bands 2 rounds apart, opposite bands 4.
_REGIONS = ((0, 2, 4), (2, 0, 2), (4, 2, 0))

_ENTRIES = (
    Scenario(
        name="calm",
        description="Reliable network, no churn, no attack — the paper's baseline.",
    ),
    Scenario(
        name="loss30-delay50",
        description="30% message loss with 50% of survivors delayed 2 rounds.",
        plan=FaultPlan(
            messages=(
                MessageFaults(drop_p=0.30, delay_p=0.50, delay_rounds=2, start=4, end=20),
            ),
        ),
    ),
    Scenario(
        name="jitter-dup",
        description="Heavy jitter (60% delayed) plus 20% duplication.",
        plan=FaultPlan(
            messages=(
                MessageFaults(delay_p=0.60, delay_rounds=1, duplicate_p=0.20, start=4, end=20),
            ),
        ),
    ),
    Scenario(
        name="stall-storm",
        description="A third of compute phases stall for a 10-round window.",
        plan=FaultPlan(stalls=(NodeStall(stall_p=0.35, start=6, end=16),)),
    ),
    Scenario(
        name="flash-crowd",
        description="Full-budget churn while every uplink is rate-capped.",
        plan=FaultPlan(ratecaps=(RateCap(limit=12, defer_rounds=1, start=4, end=24),)),
        adversaries=(AdversarySpec("random", intensity=1.0),),
    ),
    Scenario(
        name="ring-cut-adversary",
        description="A quarter-ring partition while the adversary kills hubs.",
        plan=FaultPlan(partitions=(RingPartition(lo=0.25, hi=0.5, start=6, end=14),)),
        adversaries=(AdversarySpec("degree-target", top=4),),
    ),
    Scenario(
        name="rolling-partition",
        description="A quarter-arc cut sweeping around the ring in 3 stages.",
        plan=FaultPlan(
            partitions=(
                RingPartition(lo=0.0, hi=0.25, start=4, end=10),
                RingPartition(lo=0.25, hi=0.5, start=10, end=16),
                RingPartition(lo=0.5, hi=0.75, start=16, end=22),
            ),
        ),
        rounds=40,
    ),
    Scenario(
        name="asym-uplink",
        description="A 30% arc can receive but not send (one-way partition).",
        plan=FaultPlan(asymmetric=(AsymmetricPartition(lo=0.0, hi=0.3, start=6, end=18),)),
    ),
    Scenario(
        name="rate-capped",
        description="Tight per-node send budget; overflow defers, never drops.",
        plan=FaultPlan(ratecaps=(RateCap(limit=6, defer_rounds=1, start=4, end=24),)),
    ),
    Scenario(
        name="lossy-regions",
        description="Three latency regions plus 10% loss (geography + noise).",
        plan=FaultPlan(
            messages=(MessageFaults(drop_p=0.10, start=4, end=24),),
            latencies=(LatencyMatrix(delays=_REGIONS, start=4, end=24),),
        ),
    ),
    Scenario(
        name="churn-loss",
        description="Sustained random churn at 80% budget under 20% loss.",
        plan=FaultPlan(messages=(MessageFaults(drop_p=0.20, start=2, end=26),)),
        adversaries=(AdversarySpec("random", intensity=0.8),),
    ),
)

SCENARIOS: dict[str, Scenario] = {s.name: s for s in _ENTRIES}


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r} (known: {known})") from None


def all_scenarios() -> tuple[Scenario, ...]:
    """Every registry entry, in stable name order."""
    return tuple(SCENARIOS[name] for name in sorted(SCENARIOS))


def shortened(scenario: Scenario) -> Scenario:
    """The quick run of ``scenario``: at most 24 rounds past bootstrap."""
    return replace(scenario, rounds=min(scenario.rounds, 24))
