"""Tests for Definition 7 trajectories and the Lemma 12 crossing census."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.overlay.trajectory import (
    crossing_counts,
    max_step_error,
    trajectories,
    trajectory,
    trajectory_bits,
)
from repro.util.bits import address_of
from repro.util.intervals import Arc

unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=False, allow_nan=False).map(
    lambda x: x % 1.0
)


class TestTrajectory:
    def test_length(self):
        assert len(trajectory(0.3, 0.7, 8)) == 10

    def test_endpoints(self):
        traj = trajectory(0.3, 0.7, 8)
        assert traj[0] == pytest.approx(0.3)
        assert traj[-1] == pytest.approx(0.7)

    def test_step_lam_is_target_address(self):
        lam = 8
        traj = trajectory(0.3, 0.7, lam)
        assert address_of(traj[lam], lam) == address_of(0.7, lam)

    @given(unit, unit, st.integers(min_value=2, max_value=12))
    @settings(max_examples=60)
    def test_each_step_is_debruijn_map(self, v, p, lam):
        """Every hop is (x + bit)/2 within 2**-lam (Definition 7 geometry)."""
        traj = trajectory(v, p, lam)
        assert max_step_error(traj) <= 2.0**-lam + 1e-12

    @given(unit, st.integers(min_value=2, max_value=12))
    @settings(max_examples=30)
    def test_self_trajectory_constant_address(self, v, lam):
        """Routing to yourself keeps the address fixed after lam steps."""
        traj = trajectory(v, v, lam)
        assert address_of(traj[lam], lam) == address_of(v, lam)


class TestTrajectoryBits:
    def test_msb_first(self):
        assert trajectory_bits(0.5, 3) == (1, 0, 0)

    def test_matches_address(self):
        lam = 6
        p = 0.337
        bits = trajectory_bits(p, lam)
        addr = 0
        for b in bits:
            addr = (addr << 1) | b
        assert addr == address_of(p, lam)


#: Endpoints where float rounding bites: ``-1e-18`` wraps to ``0.0`` but its
#: address cell is the last one; ``1 - 2**-53`` is the largest point below 1.
EDGES = [-1e-18, 1.0 - 2.0**-53, 0.0, 0.5, 1.0, -0.25, 1.75]
endpoint = st.one_of(
    st.sampled_from(EDGES),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)


class TestBatchedTrajectories:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(endpoint, endpoint, st.booleans()), min_size=1, max_size=20),
        st.sampled_from([1, 2, 8, 14]),
    )
    def test_rows_equal_the_scalar_trajectory_bit_for_bit(self, pairs, lam):
        v = [a for a, _, _ in pairs]
        p = [a if same else b for a, b, same in pairs]  # some v == p
        got = trajectories(np.array(v), np.array(p), lam)
        assert got.shape == (len(pairs), lam + 2)
        for row, a, b in zip(got.tolist(), v, p):
            assert row == list(trajectory(a, b, lam))

    @pytest.mark.parametrize("lam", [1, 14])
    def test_edge_points(self, lam):
        for a in EDGES:
            for b in EDGES:
                row = trajectories(np.array([a]), np.array([b]), lam)[0]
                assert row.tolist() == list(trajectory(a, b, lam)), (a, b)

    def test_crossing_counts_see_the_same_points(self):
        """The census counts the points of :func:`trajectory`, endpoints
        included (``x_0`` of ``v = -1e-18`` is ``wrap``'s ``0.0``)."""
        lam = 4
        v = np.array([a for a in EDGES for _ in EDGES])
        p = np.array([b for _ in EDGES for b in EDGES])
        for step in range(lam + 2):
            for center in (0.0, 0.5, 1.0 - 2.0**-53):
                arc = Arc(center, 1e-12)
                expected = sum(
                    arc.contains(trajectory(a, b, lam)[step]) for a, b in zip(v, p)
                )
                assert crossing_counts(v, p, lam, arc, step) == expected


class TestCrossingCounts:
    def test_step_zero_counts_sources(self, rng):
        sources = rng.random(500)
        targets = rng.random(500)
        arc = Arc(0.25, 0.1)
        got = crossing_counts(sources, targets, 8, arc, 0)
        expected = int(np.count_nonzero(arc.contains_array(sources)))
        assert got == expected

    def test_last_step_counts_targets(self, rng):
        sources = rng.random(500)
        targets = rng.random(500)
        arc = Arc(0.7, 0.05)
        got = crossing_counts(sources, targets, 8, arc, 9)
        expected = int(np.count_nonzero(arc.contains_array(targets)))
        assert got == expected

    def test_matches_scalar_trajectories(self, rng):
        lam = 6
        sources = rng.random(200)
        targets = rng.random(200)
        arc = Arc(0.4, 0.08)
        for step in (1, 3, lam):
            got = crossing_counts(sources, targets, lam, arc, step)
            expected = sum(
                1
                for s, t in zip(sources, targets)
                if arc.contains(trajectory(s, t, lam)[step])
            )
            assert got == expected

    def test_rejects_bad_step(self, rng):
        with pytest.raises(ValueError):
            crossing_counts(rng.random(5), rng.random(5), 4, Arc(0.5, 0.1), 6)

    def test_rejects_mismatched_shapes(self, rng):
        with pytest.raises(ValueError):
            crossing_counts(rng.random(5), rng.random(6), 4, Arc(0.5, 0.1), 1)

    def test_lemma12_expectation(self, rng):
        """E[X_I^j] = k*n*|I| for uniform sources/targets, any middle step."""
        n, k, lam = 4000, 1, 10
        sources = rng.random(n * k)
        targets = rng.random(n * k)
        arc = Arc(0.3, 0.05)  # |I| = 0.1
        expected = k * n * arc.length
        for step in (2, 5, 8):
            got = crossing_counts(sources, targets, lam, arc, step)
            assert got == pytest.approx(expected, rel=0.2)
