"""Bit-for-bit equivalence of the round path against the seed digests.

There is one round path: hops ride the columnar hop plane and nodes share
the epoch cache (per-epoch position tables + interned copy-on-write
``PositionIndex`` slabs).  Both are pure optimisations over the seed
implementation, which sent one object per hop copy and had every node
compute its own state.  The golden digests below were captured from that
seed code and cover every observable of a run — per-round metrics, the
exact edge multiset, the churn decisions, every node's final state, audits
and probe deliveries — so these tests pin today's path against the
original behaviour, with and without churn and fault plans.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.routing.messages import RoutedMessage
from repro.sim.hopplane import FrozenHopRound

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
    """The hop plane + epoch cache path reproduces the seed digests."""
    assert run_scenario(scenario) == GOLDEN[scenario]


@pytest.mark.parametrize(
    ("scenario", "workers"), [("faults", 1), ("churn_faults", 1), ("faults", 2)]
)
def test_fault_scenarios_ride_the_hop_plane(scenario, workers):
    """Pin the path, not just the digest: under a fault plan every hop copy
    still travels (and is fated) as plane columns, never as a message
    object in the network's pending buckets."""
    sim = SCENARIOS[scenario][0](workers=workers)
    try:
        network = sim.engine.network
        assert sim.engine.faults is not None
        plane_copies = 0
        for _ in range(8):
            sim.engine.run_round()
            if network.hop_delivery is not None:
                plane_copies += network.hop_delivery.total
            assert not any(  # no hop is an object
                isinstance(msg, RoutedMessage)
                for segments in network._pending.values()
                for _srcs, _dsts, msgs in segments
                for msg in msgs
            )
        assert plane_copies > 0
    finally:
        sim.close()


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


def _merged_by_identity(segments):
    """``FrozenHopRound.merged`` as it interned before the launch key: rows
    keyed on ``(id(message), step)``, numbered by first use."""
    reg: dict[tuple[int, int], int] = {}
    msgs, steps, rows = [], [], []
    for seg in segments:
        seg_rows = seg.copy_rows()
        used = np.zeros(len(seg.msgs), dtype=bool)
        used[seg_rows] = True
        remap = np.zeros(len(seg.msgs), dtype=np.int32)
        for i in np.flatnonzero(used).tolist():
            key = (id(seg.msgs[i]), int(seg.steps[i]))
            if key not in reg:
                reg[key] = len(msgs)
                msgs.append(seg.msgs[i])
                steps.append(key[1])
            remap[i] = reg[key]
        rows.append(remap[seg_rows])
    return msgs, steps, np.concatenate(rows)


@pytest.mark.parametrize("scenario", ["faults", "churn_faults"])
def test_merged_key_interning_equals_identity_interning(scenario, monkeypatch):
    """Delayed and fresh segments meet in ``FrozenHopRound.merged``: interning
    their rows on the launch key gives exactly the rows, messages and steps
    identity interning gave, under the golden fault mix."""
    merged = FrozenHopRound.merged.__func__
    seen = []

    def checked(cls, segments):
        out = merged(cls, segments)
        msgs, steps, rows = _merged_by_identity(segments)
        assert [id(m) for m in out.msgs] == [id(m) for m in msgs]
        assert out.steps.tolist() == steps
        assert out.send_rows.tolist() == rows.tolist()
        seen.append(len(segments))
        return out

    monkeypatch.setattr(FrozenHopRound, "merged", classmethod(checked))
    assert run_scenario(scenario) == GOLDEN[scenario]
    assert seen and max(seen) >= 2  # delayed segments did meet fresh ones
