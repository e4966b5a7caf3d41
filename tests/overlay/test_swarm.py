"""Tests for swarm membership and goodness audits."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.config import ProtocolParams
from repro.overlay.positions import PositionIndex
from repro.overlay.swarm import audit_goodness, swarm_arc, swarm_members, swarm_sizes
from repro.util.intervals import ring_distance


@pytest.fixture
def index(rng, small_params) -> PositionIndex:
    return PositionIndex({i: float(p) for i, p in enumerate(rng.random(small_params.n))})


class TestSwarmMembers:
    def test_matches_definition(self, index, small_params):
        """v in S(p) iff d(v, p) <= c*lam/n."""
        for p in (0.0, 0.25, 0.5, 0.77, 0.999):
            got = set(int(v) for v in swarm_members(index, p, small_params))
            expected = {
                int(v)
                for v in index.ids
                if ring_distance(index.position(int(v)), p)
                <= small_params.swarm_radius
            }
            assert got == expected

    def test_arc_radius(self, small_params):
        arc = swarm_arc(0.3, small_params)
        assert arc.center == pytest.approx(0.3)
        assert arc.radius == pytest.approx(small_params.swarm_radius)


class TestSwarmSizes:
    def test_is_the_ring_distance_count(self, index, small_params):
        """|S(p)| counts exactly the nodes with min(d, 1 - d) <= c*lam/n,
        the test the health monitor's occupancy audit was written with."""
        points = np.concatenate([np.arange(16) / 16, index.sorted_positions])
        expected = [
            sum(
                min(abs(q - p), 1.0 - abs(q - p)) <= small_params.swarm_radius
                for q in index.sorted_positions.tolist()
            )
            for p in points.tolist()
        ]
        assert swarm_sizes(index, small_params, points).tolist() == expected

    def test_empty_index_and_no_centers(self, index, small_params):
        empty = swarm_sizes(PositionIndex({}), small_params, np.array([0.0, 0.5]))
        assert empty.tolist() == [0, 0]
        assert swarm_sizes(index, small_params, np.array([])).size == 0


class TestAuditGoodness:
    def test_all_survive(self, index, small_params):
        stats = audit_goodness(index, small_params)
        assert stats.min_good_fraction == 1.0
        assert stats.min_size >= 1
        assert stats.all_nonempty

    def test_mean_size_near_expectation(self, rng):
        """E[|S|] = 2*c*lam with n nodes at density n (law of large numbers)."""
        params = ProtocolParams(n=1024, c=2.0)
        index = PositionIndex({i: float(p) for i, p in enumerate(rng.random(params.n))})
        stats = audit_goodness(
            index, params, centers=rng.random(200)
        )
        assert stats.mean_size == pytest.approx(params.expected_swarm_size, rel=0.25)

    def test_survivor_set(self, index, small_params):
        all_ids = [int(v) for v in index.ids]
        dead = set(all_ids[:: 2])  # kill half
        stats = audit_goodness(index, small_params, survives=set(all_ids) - dead)
        assert stats.min_good_fraction < 0.75

    def test_survivor_predicate(self, index, small_params):
        stats = audit_goodness(index, small_params, survives=lambda v: True)
        assert stats.min_good_fraction == 1.0

    def test_empty_index(self, small_params):
        stats = audit_goodness(PositionIndex({}), small_params)
        assert stats.count == 0
        assert stats.all_nonempty

    def test_explicit_centers(self, index, small_params):
        stats = audit_goodness(index, small_params, centers=np.array([0.5]))
        assert stats.count == 1

    def test_centers_witness_extremes(self, small_params):
        """Default centers find a swarm at least as small as any probed point."""
        index = PositionIndex({0: 0.0, 1: 0.4, 2: 0.5, 3: 0.6})
        stats = audit_goodness(index, small_params)
        probe_sizes = [
            swarm_members(index, p, small_params).size for p in np.linspace(0, 1, 500)
        ]
        assert stats.min_size <= min(probe_sizes)
        assert stats.max_size >= max(probe_sizes)

    @settings(max_examples=60, deadline=None)
    @given(
        positions=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=64),
        n=st.sampled_from([40, 128]),
    )
    @example(positions=[0.0, 0.15], n=128)  # 0 + r == 0.15 - r: a closed cell of one point
    def test_default_centers_attain_the_exact_extremes(self, positions, n):
        """Against an independent oracle: a fine grid, every breakpoint and
        the points just either side of it, counted by brute force."""
        params = ProtocolParams.calibrated(n)
        pos, radius, eps = np.array(positions), params.swarm_radius, 1e-10
        breaks = np.unique(np.concatenate([pos - radius, pos + radius]) % 1.0)
        assume(np.diff(breaks, append=breaks[0] + 1.0).min() > 1e-8)
        grid = np.arange(2048) / 2048
        points = np.concatenate([grid, breaks, (breaks - eps) % 1, (breaks + eps) % 1])
        gap = np.abs(points[:, None] - pos[None, :])
        sizes = (np.minimum(gap, 1.0 - gap) <= radius).sum(axis=1)
        stats = audit_goodness(PositionIndex(dict(enumerate(positions))), params)
        assert (stats.min_size, stats.max_size) == (sizes.min(), sizes.max())
