"""Unit tests for the content-lateness adversary (E-X5 machinery)."""

from __future__ import annotations

import pytest

from repro.adversary.content_late import ContentLateAdversary
from repro.adversary.view import AdversaryView
from repro.config import ProtocolParams
from repro.sim.identity import Lifecycle
from repro.sim.trace import GraphTrace
from repro.util.rngs import RngService


@pytest.fixture
def params() -> ProtocolParams:
    return ProtocolParams(
        n=32,
        alpha=0.5,
        kappa=1.5,
        seed=0,
        churn_budget_override=80,
        churn_window_override=10,
    )


def make_view(params, t, budget=80):
    tr = GraphTrace()
    lc = Lifecycle()
    for i in range(params.n):
        lc.add(i, joined_round=-100)
    for s in range(t):
        tr.record(s, [])
    return AdversaryView(
        t, tr, lc, topology_lateness=2, state_lateness=100, budget_remaining=budget
    )


def make_adv(params, b):
    h = RngService(params.seed).position_hash()
    return ContentLateAdversary(
        params, h, seed=1, state_lateness=b, active_from=0
    )


def swarm_members(adv, params, e):
    """The nodes of the target point's swarm in ``D_e``."""
    gaps = {v: abs(adv._hash.position(v, e) - adv.target_point) for v in range(params.n)}
    return {v for v, gap in gaps.items() if min(gap, 1 - gap) <= params.swarm_radius}


class TestReadableEpochs:
    def test_newest_readable_epoch_formula(self, params):
        lam = params.lam
        adv = make_adv(params, b=10)
        t = 50
        e_max = adv.readable_epochs(t)[-1]
        # Join for e_max launched at 2*(e_max - lam - 2) <= t - b.
        assert 2 * (e_max - lam - 2) + 10 <= t
        assert 2 * (e_max + 1 - lam - 2) + 10 > t

    def test_small_b_reveals_future(self, params):
        lam = params.lam
        adv = make_adv(params, b=2 * lam)
        t = 60
        assert 2 * adv.readable_epochs(t)[-1] > t  # future epoch visible

    def test_safe_b_reveals_only_expired(self, params):
        lam = params.lam
        adv = make_adv(params, b=2 * lam + 6)
        for t in range(40, 60):
            e = adv.readable_epochs(t)[-1]
            assert 2 * e + 1 < t  # D_e expired before round t


class TestDecisions:
    def test_fires_with_small_b(self, params):
        lam = params.lam
        adv = make_adv(params, b=2 * lam)
        d = adv.decide(make_view(params, t=60))
        assert d.churn_count > 0
        assert adv.wipes

    def test_silent_with_safe_b(self, params):
        lam = params.lam
        adv = make_adv(params, b=2 * lam + 6)
        for t in range(40, 52):
            assert adv.decide(make_view(params, t)).churn_count == 0
        assert adv.wipes == []

    def test_kills_are_the_future_swarm(self, params):
        lam = params.lam
        adv = make_adv(params, b=2 * lam)
        t = 60
        d = adv.decide(make_view(params, t))
        assert d.leaves <= swarm_members(adv, params, adv.wipes[-1][1])

    def test_respects_budget(self, params):
        lam = params.lam
        adv = make_adv(params, b=2 * lam)
        d = adv.decide(make_view(params, t=60, budget=6))
        assert d.churn_count <= 6

    def test_paired_joins_keep_population(self, params):
        lam = params.lam
        adv = make_adv(params, b=2 * lam)
        d = adv.decide(make_view(params, t=60))
        assert len(d.joins) == len(d.leaves)

    def test_replacements_join_outside_the_swarm(self, params):
        """A short supply of bootstraps spares part of the swarm; no
        replacement joins through a swarm member, spared ones included."""
        lam = params.lam
        adv = make_adv(params, b=2 * lam)
        d = adv.decide(make_view(params, t=60))
        members = swarm_members(adv, params, adv.wipes[-1][1])
        assert d.leaves < members
        assert not {j.bootstrap_id for j in d.joins} & members
