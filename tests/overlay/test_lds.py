"""Tests for the Linearized De Bruijn Swarm topology (Definition 5, Lemma 6)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ProtocolParams
from repro.overlay.lds import LDSGraph, build_lds, current_epoch, required_neighbor_arcs
from repro.util.intervals import ring_distance, wrap


@pytest.fixture
def lds(small_params, rng) -> LDSGraph:
    return LDSGraph.random(small_params, rng)


class TestConstruction:
    def test_random_has_n_nodes(self, small_params, rng):
        g = LDSGraph.random(small_params, rng)
        assert len(g) == small_params.n

    def test_random_with_explicit_n(self, small_params, rng):
        g = LDSGraph.random(small_params, rng, n=40)
        assert len(g) == 40

    def test_build_from_mapping(self, small_params):
        g = build_lds({0: 0.1, 1: 0.2, 2: 0.9}, small_params)
        assert set(int(v) for v in g.node_ids) == {0, 1, 2}


def list_edges(lds: LDSGraph, v: int) -> set[int]:
    """E_L out of v by Definition 5: every w != v with d(v, w) <= 2*c*lam/n."""
    pv = lds.index.position(v)
    return {
        w
        for w in lds.index.ids_list
        if w != v and ring_distance(lds.index.position(w), pv) <= lds.params.list_radius
    }


def db_edges(lds: LDSGraph, v: int) -> set[int]:
    """E_DB out of v: every w != v with d((v+i)/2, w) <= 3*c*lam/(2n), i in {0, 1}."""
    pv = lds.index.position(v)
    return {
        w
        for w in lds.index.ids_list
        for i in (0, 1)
        if w != v
        and ring_distance(wrap((pv + i) / 2.0), lds.index.position(w))
        <= lds.params.debruijn_radius
    }


class TestListEdges:
    def test_definition(self, lds):
        """(v, w) in E_L iff d(v, w) <= 2*c*lam/n: every such w is a neighbour."""
        for v in lds.index.ids_list[:10]:
            expected = list_edges(lds, v)
            assert expected
            assert expected <= set(lds.neighbors(v).tolist())

    def test_excludes_self(self, lds):
        for v in lds.node_ids[:10]:
            assert int(v) not in set(int(w) for w in lds.neighbors(int(v)))

    def test_symmetric(self, lds):
        """List edges are symmetric (same distance both ways)."""
        for v in lds.index.ids_list[:10]:
            for w in list_edges(lds, v):
                assert v in set(lds.neighbors(w).tolist())


class TestDeBruijnEdges:
    def test_definition(self, lds):
        """(v, w) in E_DB iff d((v+i)/2, w) <= 3*c*lam/(2n) for i in {0,1}:
        every such w is a neighbour."""
        for v in lds.index.ids_list[:10]:
            expected = db_edges(lds, v)
            assert expected
            assert expected <= set(lds.neighbors(v).tolist())

    def test_neighbors_is_union(self, lds):
        """The neighbours are exactly E_L plus E_DB (sorted, no repeats)."""
        for v in lds.index.ids_list[:10]:
            got = lds.neighbors(v).tolist()
            assert got == sorted(list_edges(lds, v) | db_edges(lds, v))


class TestDegrees:
    def test_degree_logarithmic(self, lds):
        """Expected degree is O(lam); check it is within a generous envelope."""
        params = lds.params
        _, mean, dmax = lds.degree_stats()
        # E[deg] ~ (4c + 2*3c) * lam = 10 c lam (list + two DB windows).
        envelope = 10.0 * params.c * params.lam
        assert mean < 2.0 * envelope
        assert dmax < 4.0 * envelope

    def test_edge_count_matches_degrees(self, lds):
        assert lds.edge_count() == sum(
            lds.degree(int(v)) for v in lds.node_ids
        )


class TestSwarmProperty:
    def test_lemma6_random_points(self, small_params, rng):
        """Every node of S(p) connects to all of S(p/2) and S((p+1)/2)."""
        g = LDSGraph.random(small_params, rng)
        points = rng.random(20)
        assert g.swarm_violations(points) == 0

    def test_lemma6_near_wrap(self, small_params, rng):
        """The tricky cases from the Lemma 6 proof: p close to 0 or 1."""
        g = LDSGraph.random(small_params, rng)
        eps = small_params.swarm_radius / 3.0
        points = [0.0, eps, 1.0 - eps, 0.5, 0.5 - eps, 0.5 + eps]
        assert g.swarm_violations(points) == 0

    def test_violated_when_db_radius_too_small(self, small_params, rng):
        """Shrinking the DB radius far below 3/2 swarm radius breaks Lemma 6.

        With the DB radius below half the swarm radius, a node at the edge of
        S(p) cannot cover the far edge of S(p/2); with enough random points
        some violation appears.
        """
        g = LDSGraph.random(small_params, rng)
        # Edges from a much smaller c; swarms evaluated at the original radius.
        sparse = LDSGraph(g.index, small_params.with_updates(c=small_params.c / 8.0))
        violations = 0
        points = rng.random(40)
        for p in points:
            members = g.swarm(p)
            target = set(int(t) for t in g.swarm(wrap(p / 2.0)))
            for v in members:
                nbrs = set(int(w) for w in sparse.neighbors(int(v)))
                nbrs.add(int(v))
                if not target <= nbrs:
                    violations += 1
                    break
        assert violations > 0
        # The checker counts both branches, so it sees at least these.
        assert sparse.swarm_violations(points, small_params.swarm_radius) >= violations


class TestRequiredNeighborArcs:
    def test_arcs(self, small_params):
        list_arc, db0, db1 = required_neighbor_arcs(0.6, small_params)
        assert list_arc.center == pytest.approx(0.6)
        assert list_arc.radius == pytest.approx(small_params.list_radius)
        assert db0.center == pytest.approx(0.3)
        assert db1.center == pytest.approx(0.8)
        assert db0.radius == pytest.approx(small_params.debruijn_radius)


class TestAuditClaimedAdjacency:
    def test_complete_claim_passes(self, lds):
        claimed = {int(v): set(int(w) for w in lds.neighbors(int(v))) for v in lds.node_ids}
        assert lds.audit_claimed_adjacency(claimed) == {}

    def test_superset_claim_passes(self, lds):
        claimed = {
            int(v): set(int(w) for w in lds.neighbors(int(v))) | {99999}
            for v in lds.node_ids
        }
        assert lds.audit_claimed_adjacency(claimed) == {}

    def test_missing_edges_reported(self, lds):
        v0 = int(lds.node_ids[0])
        claimed = {int(v): set(int(w) for w in lds.neighbors(int(v))) for v in lds.node_ids}
        removed = claimed[v0].pop()
        report = lds.audit_claimed_adjacency(claimed)
        assert report == {v0: {removed}}


class TestCurrentEpoch:
    def test_most_common_epoch_wins(self):
        assert current_epoch([3, 3, 4]) == 3
        assert current_epoch(iter([7, 6, 6, 6, 7])) == 6

    def test_a_tie_goes_to_the_newer_epoch(self):
        assert current_epoch([3, 4]) == 4
        assert current_epoch([5, 4, 4, 5]) == 5

    def test_no_epochs(self):
        assert current_epoch([]) is None
