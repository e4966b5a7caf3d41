"""Unit tests for the scripted attack adversaries (decision mechanics)."""

from __future__ import annotations

import pytest

from repro.adversary.isolate_join import IsolateJoinAdversary
from repro.adversary.join_chain import JoinChainAdversary
from repro.adversary.swarm_wipe import ContactTraceAdversary, DegreeTargetAdversary
from repro.adversary.view import AdversaryView
from repro.config import ProtocolParams
from repro.sim.identity import Lifecycle
from repro.sim.trace import GraphTrace


@pytest.fixture
def params() -> ProtocolParams:
    return ProtocolParams(
        n=16,
        alpha=0.5,
        kappa=1.5,
        seed=0,
        churn_budget_override=40,
        churn_window_override=10,
    )


def make_world(params, t=20, edges_by_round=None):
    tr = GraphTrace()
    lc = Lifecycle()
    for i in range(params.n):
        lc.add(i, joined_round=-100)
    edges_by_round = edges_by_round or {}
    for s in range(t):
        tr.record(s, edges_by_round.get(s, []))
    return tr, lc


def view_for(adv, params, tr, lc, t, budget=40):
    return AdversaryView(
        t,
        tr,
        lc,
        topology_lateness=adv.topology_lateness,
        state_lateness=10**9,
        budget_remaining=budget,
    )


class TestIsolateJoin:
    def test_phase1_joins_helper(self, params):
        adv = IsolateJoinAdversary(params, seed=1)
        tr, lc = make_world(params)
        d = adv.decide(view_for(adv, params, tr, lc, 20))
        assert len(d.joins) == 1
        assert adv.helper_id == d.joins[0].new_id
        assert adv.victim_id is None

    def test_phase2_waits_two_rounds(self, params):
        adv = IsolateJoinAdversary(params, seed=1)
        tr, lc = make_world(params)
        d1 = adv.decide(view_for(adv, params, tr, lc, 20))
        lc.add(adv.helper_id, 20)
        tr.record(20, [])
        d2 = adv.decide(view_for(adv, params, tr, lc, 21))
        assert d2.churn_count == 0  # helper only 1 round old
        tr.record(21, [])
        d3 = adv.decide(view_for(adv, params, tr, lc, 22))
        assert len(d3.joins) == 1
        assert d3.joins[0].bootstrap_id == adv.helper_id
        assert adv.victim_id == d3.joins[0].new_id

    def test_hunt_kills_contacts(self, params):
        adv = IsolateJoinAdversary(params, seed=1)
        tr, lc = make_world(params)
        adv.decide(view_for(adv, params, tr, lc, 20))
        lc.add(adv.helper_id, 20)
        tr.record(20, [])
        tr.record(21, [])
        adv.decide(view_for(adv, params, tr, lc, 22))
        lc.add(adv.victim_id, 22)
        # Node 3 talks to the victim in round 22.
        tr.record(22, [(3, adv.victim_id)])
        d = adv.decide(view_for(adv, params, tr, lc, 23))
        assert 3 in d.leaves
        assert adv.victim_id not in d.leaves
        assert len(d.joins) == len(d.leaves)


class TestJoinChain:
    def test_first_step_starts_chain(self, params):
        adv = JoinChainAdversary(params, seed=2)
        tr, lc = make_world(params)
        d = adv.decide(view_for(adv, params, tr, lc, 20))
        assert adv.chain_head is not None
        assert any(j.new_id == adv.chain_head for j in d.joins)

    def test_chain_extends_via_previous_head(self, params):
        adv = JoinChainAdversary(params, seed=2)
        tr, lc = make_world(params)
        d1 = adv.decide(view_for(adv, params, tr, lc, 20))
        for j in d1.joins:
            lc.add(j.new_id, 20)
        old_head = adv.chain_head
        tr.record(20, [])
        d2 = adv.decide(view_for(adv, params, tr, lc, 21))
        chain_joins = [j for j in d2.joins if j.new_id == adv.chain_head]
        assert chain_joins and chain_joins[0].bootstrap_id == old_head

    def test_predecessors_killed(self, params):
        adv = JoinChainAdversary(params, seed=2)
        tr, lc = make_world(params)
        for t in range(20, 24):
            d = adv.decide(view_for(adv, params, tr, lc, t))
            for j in d.joins:
                lc.add(j.new_id, t)
            for v in d.leaves:
                lc.remove(v, t)
            tr.record(t, [])
        # All chain members except the last two are dead.
        for v in adv.chain[:-2]:
            assert v not in lc.alive
        assert adv.chain[-1] in lc.alive

    def test_eroded_all(self, params):
        adv = JoinChainAdversary(params, seed=2)
        tr, lc = make_world(params)
        adv.decide(view_for(adv, params, tr, lc, 20))
        assert not adv.eroded_all(lc.alive)
        assert adv.eroded_all(frozenset())


class TestPairedKillAdversaries:
    def test_contact_trace_kills_contacts(self, params):
        adv = ContactTraceAdversary(params, victim=0, seed=3, topology_lateness=2, active_from=0)
        edges = {18: [(1, 0), (0, 2)]}
        tr, lc = make_world(params, t=20, edges_by_round=edges)
        d = adv.decide(view_for(adv, params, tr, lc, 20))
        assert d.leaves == frozenset({1, 2})
        assert len(d.joins) == 2

    def test_contact_trace_idle_without_contacts(self, params):
        adv = ContactTraceAdversary(params, victim=0, seed=3, topology_lateness=2, active_from=0)
        tr, lc = make_world(params)
        assert adv.decide(view_for(adv, params, tr, lc, 20)).churn_count == 0

    def test_degree_target_kills_hubs(self, params):
        adv = DegreeTargetAdversary(params, seed=3, top=2, topology_lateness=2, active_from=0)
        edges = {18: [(5, 1), (5, 2), (5, 3), (6, 1), (6, 2), (9, 5)]}
        tr, lc = make_world(params, t=20, edges_by_round=edges)
        d = adv.decide(view_for(adv, params, tr, lc, 20))
        assert 5 in d.leaves  # highest degree

    def test_budget_zero_means_no_kills(self, params):
        adv = DegreeTargetAdversary(params, seed=3, top=2, topology_lateness=2, active_from=0)
        edges = {18: [(5, 1), (5, 2)]}
        tr, lc = make_world(params, t=20, edges_by_round=edges)
        d = adv.decide(view_for(adv, params, tr, lc, 20, budget=0))
        assert d.churn_count == 0
