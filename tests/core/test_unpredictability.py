"""Lemma 16 — the adversary is oblivious of the nodes' positions.

The proof rests on two mechanisms, both tested here:

1. the position hash is a keyed PRF: positions across epochs carry no
   mutual information, so yesterday's overlay says nothing about today's;
2. the adversary's view is structurally incapable of revealing positions or
   payloads — it exposes topology only, and only at its lateness.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.adversary.view import AdversaryView, LatenessViolation
from repro.config import ProtocolParams
from repro.core.runner import MaintenanceSimulation
from repro.sim.identity import Lifecycle
from repro.sim.trace import GraphTrace
from repro.util.intervals import ring_distance
from repro.util.rngs import RngService


class TestPositionIndependence:
    def test_epoch_positions_uncorrelated(self):
        """h(v, e) and h(v, e+1) are statistically independent."""
        h = RngService(3).position_hash()
        a = np.array([h.position(v, 4) for v in range(4000)])
        b = np.array([h.position(v, 5) for v in range(4000)])
        rho = np.corrcoef(a, b)[0, 1]
        assert abs(rho) < 0.05

    def test_colocated_nodes_scatter_next_epoch(self):
        """Nodes sharing a swarm in epoch e are uniformly spread in e+1.

        This is what makes the 2-late swarm-wipe useless: the cluster the
        adversary observed has dissolved by the time it can strike.
        """
        params = ProtocolParams(n=512, seed=6)
        h = RngService(6).position_hash()
        pos_e = {v: h.position(v, 7) for v in range(params.n)}
        # Pick the nodes co-located around point 0.5 in epoch 7.
        cluster = [
            v for v, p in pos_e.items() if ring_distance(p, 0.5) <= 0.02
        ]
        assert len(cluster) >= 8
        next_positions = np.array([h.position(v, 8) for v in cluster])
        # Kolmogorov-Smirnov against uniform: must not reject.
        _, pvalue = stats.kstest(next_positions, "uniform")
        assert pvalue > 0.01

    def test_pairwise_distances_not_preserved(self):
        """Epoch-e neighbours are epoch-(e+1) strangers on average."""
        h = RngService(9).position_hash()
        rng = np.random.default_rng(0)
        pairs = rng.integers(0, 10_000, size=(500, 2))
        close_now = []
        for u, v in pairs:
            if u == v:
                continue
            d_now = ring_distance(h.position(int(u), 3), h.position(int(v), 3))
            if d_now < 0.01:
                close_now.append((int(u), int(v)))
        # Not enough natural pairs: manufacture them by scanning.
        if len(close_now) < 20:
            pos = {v: h.position(v, 3) for v in range(5000)}
            ordered = sorted(pos, key=pos.__getitem__)
            close_now = list(zip(ordered, ordered[1:]))[:200]
        d_next = [
            ring_distance(h.position(u, 4), h.position(v, 4)) for u, v in close_now
        ]
        # Mean ring distance of independent uniforms is 1/4.
        assert np.mean(d_next) == pytest.approx(0.25, abs=0.05)


class TestViewIsStructurallyBlind:
    def test_view_exposes_no_state_accessors(self):
        """The AdversaryView API carries topology and population only —
        no positions, no payloads, no node internals."""
        banned = ("position", "payload", "content", "hash", "message_body")
        for name in dir(AdversaryView):
            if name.startswith("__"):
                continue  # dunders (e.g. __hash__) are object plumbing
            lname = name.lower()
            assert not any(b in lname for b in banned), name

    def test_edges_carry_ids_only(self):
        tr = GraphTrace()
        lc = Lifecycle()
        lc.add(0, -1)
        lc.add(1, -1)
        tr.record(0, [(0, 1)])
        tr.record(1, [])
        tr.record(2, [])
        view = AdversaryView(3, tr, lc, topology_lateness=2, state_lateness=100)
        edges = view.edges_at(0)
        assert edges == [(0, 1)]
        assert all(isinstance(x, int) for e in edges for x in e)

    def test_two_late_cannot_see_current_overlay_edges(self):
        """During a protocol run the newest two rounds stay invisible."""
        params = ProtocolParams.calibrated(40, seed=10)
        sim = MaintenanceSimulation(params)
        sim.run(10)
        view = AdversaryView(
            sim.round,
            sim.engine.trace,
            sim.engine.lifecycle,
            topology_lateness=2,
            state_lateness=100,
        )
        with pytest.raises(LatenessViolation):
            view.edges_at(sim.round - 1)
        assert view.edges_at(sim.round - 2) is not None
