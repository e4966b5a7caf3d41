"""Bit-for-bit equivalence of the cached hot paths against the reference.

The epoch cache (shared per-epoch position tables + interned copy-on-write
``PositionIndex`` slabs) and the columnar hop plane are pure optimisations:
every observable of a run — per-round metrics, the exact edge multiset, the
churn decisions, every node's final state, audits and probe deliveries —
must be identical with them on (the default) and off.  The golden digests
below were captured from the pre-optimisation code, so these tests pin the
optimised paths against the original implementation, not just against each
other.
"""

from __future__ import annotations

import pytest

from .simfp import SCENARIOS, run_scenario

#: Captured from the seed implementation (before the epoch cache and hop
#: plane existed).  Any behavioural drift — one extra RNG draw, one
#: reordered send — flips the digest.
GOLDEN = {
    "steady": "ad475a0578dc63811b3c04d39543dffd",
    "churn": "69c056247a56a212e963e9654c2d178c",
    "faults": "3554adec0140df71d3cb549914686b51",
    "churn_faults": "0026d6b6492f3df1e0bcef1af8eb9da4",
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_optimized_matches_golden(scenario):
    """Default (cached) configuration reproduces the reference digests."""
    assert run_scenario(scenario) == GOLDEN[scenario]


@pytest.mark.parametrize("scenario", ["steady", "churn"])
def test_reference_matches_golden(scenario):
    """With caches disabled the original code paths still run — and agree."""
    fp = run_scenario(scenario, epoch_cache=False, hop_plane=False)
    assert fp == GOLDEN[scenario]


@pytest.mark.parametrize(
    ("scenario", "workers"), [("faults", 1), ("churn_faults", 1), ("faults", 2)]
)
def test_fault_scenarios_ride_the_hop_plane(scenario, workers):
    """Pin the path, not just the digest: a fault plan must not unmount the
    plane, or the golden and shard-identity fault cells above would pass on
    the per-copy object path without ever touching the columnar one."""
    sim = SCENARIOS[scenario][0](workers=workers)
    try:
        network = sim.engine.network
        assert sim.engine.faults is not None and network.plane is not None
        plane_copies = 0
        for _ in range(8):
            sim.engine.run_round()
            if network.hop_delivery is not None:
                plane_copies += network.hop_delivery.total
            assert not any(network._pending_multi.values())  # no hop is an object
        assert plane_copies > 0
    finally:
        sim.close()


def test_cache_without_plane_matches_golden():
    """The epoch cache alone (legacy transport) is also equivalence-safe."""
    assert run_scenario("steady", hop_plane=False) == GOLDEN["steady"]


def test_trivial_new_rules_match_golden():
    """A plan carrying the scenario rule types, all trivial, is a no-op.

    RateCap with no limit, an all-zero LatencyMatrix and an asymmetric cut
    whose window never opens must consume no entropy and reorder nothing:
    the run still reproduces the pre-fault-layer golden digest bit for bit.
    """
    from repro.faults.plan import (
        AsymmetricPartition,
        FaultPlan,
        LatencyMatrix,
        RateCap,
    )

    plan = FaultPlan(
        seed=123,
        ratecaps=(RateCap(),),
        latencies=(LatencyMatrix(delays=((0, 0), (0, 0))),),
        asymmetric=(AsymmetricPartition(lo=0.0, hi=0.5, start=10**9),),
    )
    assert run_scenario("steady", faults=plan) == GOLDEN["steady"]
