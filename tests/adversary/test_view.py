"""Tests for lateness enforcement in the adversary view."""

from __future__ import annotations

import pytest

from repro.adversary.view import AdversaryView, LatenessViolation
from repro.sim.identity import Lifecycle
from repro.sim.trace import GraphTrace


@pytest.fixture
def world():
    tr = GraphTrace()
    lc = Lifecycle()
    for i in range(4):
        lc.add(i, joined_round=-10)
    tr.record(0, [(0, 1)], frozenset({0, 1, 2, 3}))
    tr.record(1, [(1, 2)], frozenset({0, 1, 2, 3}))
    tr.record(2, [(2, 3)], frozenset({0, 1, 2, 3}))
    return tr, lc


class TestLateness:
    def test_two_late_sees_old_topology(self, world):
        tr, lc = world
        view = AdversaryView(3, tr, lc, topology_lateness=2, state_lateness=100)
        assert view.edges_at(1) == [(1, 2)]
        assert view.edges_at(0) == [(0, 1)]

    def test_two_late_blocked_from_recent(self, world):
        tr, lc = world
        view = AdversaryView(3, tr, lc, topology_lateness=2, state_lateness=100)
        with pytest.raises(LatenessViolation):
            view.edges_at(2)

    def test_zero_late_sees_everything(self, world):
        tr, lc = world
        view = AdversaryView(3, tr, lc, topology_lateness=0, state_lateness=100)
        assert view.edges_at(2) == [(2, 3)]
        assert view.newest_visible_topology_round() == 3

    def test_negative_lateness_rejected(self, world):
        tr, lc = world
        with pytest.raises(ValueError):
            AdversaryView(3, tr, lc, topology_lateness=-1, state_lateness=0)

    def test_contacts_and_degrees_respect_lateness(self, world):
        tr, lc = world
        view = AdversaryView(3, tr, lc, topology_lateness=2, state_lateness=100)
        assert view.contacts_of(1, 1) == {2}
        with pytest.raises(LatenessViolation):
            view.contacts_of(2, 2)
        assert view.degree_table(1) == {1: 1, 2: 1}
        with pytest.raises(LatenessViolation):
            view.degree_table(2)


    def test_degree_table_on_a_live_round_keeps_the_per_copy_key_order(self):
        """``DegreeTargetAdversary`` ranks with a stable sort, so the table's
        key order — first appearance in the copy stream — is behaviour."""
        from repro.config import ProtocolParams
        from repro.core.runner import MaintenanceSimulation

        params = ProtocolParams(
            n=24, c=1.2, r=2, delta=3, tau=8, seed=5, alpha=0.25, kappa=1.25
        )
        with MaintenanceSimulation(params) as sim:
            sim.run(2 * (params.lam + 3))
            eng = sim.engine
            view = AdversaryView(
                eng.round, eng.trace, eng.lifecycle, topology_lateness=2, state_lateness=100
            )
            for s in (eng.round - 2, eng.round - 3):  # one round of each parity
                expected: dict[int, int] = {}
                for src, dst in view.edges_at(s):
                    expected[src] = expected.get(src, 0) + 1
                    expected[dst] = expected.get(dst, 0) + 1
                assert len(expected) == params.n and sum(expected.values()) > 10_000
                assert list(view.degree_table(s).items()) == list(expected.items())
        assert view.degree_table(-1) == {}  # never recorded


class TestPopulationKnowledge:
    def test_alive_and_ages(self, world):
        tr, lc = world
        view = AdversaryView(3, tr, lc, topology_lateness=2, state_lateness=100)
        assert view.alive == frozenset({0, 1, 2, 3})
        assert view.age_of(0) == 13

    def test_eligible_bootstraps_excludes_young(self, world):
        tr, lc = world
        lc.add(9, joined_round=2)
        view = AdversaryView(3, tr, lc, topology_lateness=2, state_lateness=100)
        assert 9 not in view.eligible_bootstraps()
        assert 0 in view.eligible_bootstraps()

    def test_fresh_id(self, world):
        tr, lc = world
        view = AdversaryView(3, tr, lc, topology_lateness=2, state_lateness=100)
        assert view.fresh_id() == 4
