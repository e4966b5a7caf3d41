"""Unit tests for adversary strategies (decision shape, budget respect)."""

from __future__ import annotations

import pytest

from repro.adversary.base import NullAdversary
from repro.adversary.oblivious import RandomChurnAdversary, paced_schedule
from repro.adversary.view import AdversaryView
from repro.config import ProtocolParams
from repro.sim.identity import Lifecycle
from repro.sim.trace import GraphTrace


@pytest.fixture
def params() -> ProtocolParams:
    return ProtocolParams(n=32, alpha=0.25, kappa=1.25, seed=0)


def make_view(params, t=50, budget=None):
    tr = GraphTrace()
    lc = Lifecycle()
    for i in range(params.n):
        lc.add(i, joined_round=-100)
    for s in range(t):
        tr.record(s, [])
    return AdversaryView(
        t,
        tr,
        lc,
        topology_lateness=2,
        state_lateness=100,
        budget_remaining=params.churn_budget if budget is None else budget,
    )


class TestPacedSchedule:
    def test_within_budget(self, params):
        pairs, interval = paced_schedule(params)
        window = params.churn_window
        firings = window // interval + 1
        assert firings * pairs * 2 <= params.churn_budget + 2 * pairs

    def test_intensity_scales_down(self, params):
        full = paced_schedule(params, 1.0)
        half = paced_schedule(params, 0.5)
        assert half[0] <= full[0] or half[1] >= full[1]

    def test_invalid_intensity(self, params):
        with pytest.raises(ValueError):
            paced_schedule(params, 0.0)


class TestRandomChurn:
    def test_decision_shape(self, params):
        adv = RandomChurnAdversary(params, seed=1, active_from=0)
        d = adv.decide(make_view(params))
        assert len(d.leaves) == len(d.joins) == adv.pairs
        assert all(j.new_id >= params.n for j in d.joins)

    def test_respects_interval(self, params):
        adv = RandomChurnAdversary(params, seed=1, active_from=0)
        d1 = adv.decide(make_view(params, t=50))
        d2 = adv.decide(make_view(params, t=51))
        assert d1.churn_count > 0
        if adv.interval > 1:
            assert d2.churn_count == 0

    def test_distinct_bootstraps(self, params):
        adv = RandomChurnAdversary(params, seed=1, active_from=0)
        d = adv.decide(make_view(params))
        boots = [j.bootstrap_id for j in d.joins]
        assert len(set(boots)) == len(boots)

    def test_null_adversary(self, params):
        d = NullAdversary().decide(make_view(params))
        assert d.churn_count == 0
