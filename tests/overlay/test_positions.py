"""Tests for the sorted position index."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.overlay.positions import PositionIndex
from repro.overlay.swarm import _window_counts
from repro.util.intervals import Arc, ring_distance

unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)


def make_index(points):
    return PositionIndex({i: p for i, p in enumerate(points)})


class TestBasics:
    def test_len_and_contains(self):
        idx = make_index([0.1, 0.5, 0.9])
        assert len(idx) == 3
        assert 0 in idx and 3 not in idx

    def test_position_lookup(self):
        idx = PositionIndex({7: 0.25})
        assert idx.position(7) == 0.25
        with pytest.raises(KeyError):
            idx.position(8)

    def test_sorted(self):
        idx = make_index([0.9, 0.1, 0.5])
        np.testing.assert_array_equal(idx.sorted_positions, [0.1, 0.5, 0.9])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            PositionIndex({0: 1.0})
        with pytest.raises(ValueError):
            PositionIndex({0: -0.1})

    def test_as_dict(self):
        d = {3: 0.1, 5: 0.7}
        assert PositionIndex(d).as_dict() == d

    def test_empty(self):
        idx = PositionIndex({})
        assert len(idx) == 0
        assert idx.ids_within(0.5, 0.1).size == 0


class TestRangeQueries:
    def test_simple_window(self):
        idx = make_index([0.1, 0.2, 0.3, 0.8])
        got = set(idx.ids_within(0.2, 0.11))
        assert got == {0, 1, 2}

    def test_wrap_window(self):
        idx = make_index([0.02, 0.5, 0.97])
        got = set(idx.ids_within(0.0, 0.05))
        assert got == {0, 2}

    def test_endpoint_inclusive(self):
        idx = make_index([0.3])
        assert set(idx.ids_within(0.2, 0.1)) == {0}

    def test_full_ring(self):
        idx = make_index([0.1, 0.4, 0.9])
        assert set(idx.ids_within(0.0, 0.5)) == {0, 1, 2}

    def test_count_matches_ids(self):
        idx = make_index([0.1, 0.2, 0.3, 0.8, 0.95])
        centers = np.array([0.0, 0.2, 0.5, 0.9])
        for radius in (0.01, 0.1, 0.3):
            want = [idx.ids_within(c, radius).size for c in centers.tolist()]
            assert _window_counts(idx, radius, centers).tolist() == want

    @given(
        st.lists(unit, min_size=1, max_size=30),
        unit,
        st.floats(min_value=0.0, max_value=0.49),
    )
    def test_matches_bruteforce(self, points, center, radius):
        """Fast range query agrees with ring_distance away from the boundary.

        Points within one ulp of the arc boundary may disagree (the query
        computes ``center ± radius`` while the oracle computes a distance;
        the two roundings can differ by one ulp) — immaterial at protocol
        radii, so exact-boundary points are excluded from the comparison.
        """
        idx = make_index(points)
        got = set(int(i) for i in idx.ids_within(center, radius))
        eps = 1e-12
        for i, p in enumerate(points):
            d = ring_distance(p, center)
            if d <= radius - eps:
                assert i in got
            elif d >= radius + eps:
                assert i not in got


class TestIdsInArc:
    @pytest.mark.parametrize(
        "points, arc, expected",
        [
            # CCW endpoint is 0.9; going clockwise: 0.95 (id 0), 0.02 (1), 0.05 (2).
            pytest.param([0.95, 0.02, 0.05], Arc(0.0, 0.1), [0, 1, 2], id="wrapping"),
            pytest.param([0.3, 0.1, 0.2], Arc(0.2, 0.15), [1, 2, 0], id="non-wrapping"),
        ],
    )
    def test_order_starts_at_ccw_endpoint(self, points, arc, expected):
        assert list(make_index(points).ids_in_arc(arc)) == expected


class TestClosest:
    def test_exact_hit(self):
        idx = make_index([0.1, 0.5, 0.9])
        assert idx.closest(0.5) == 1

    def test_wraps(self):
        idx = make_index([0.1, 0.5, 0.9])
        assert idx.closest(0.99) == 2
        assert idx.closest(0.01) == 0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            PositionIndex({}).closest(0.5)

    @given(st.lists(unit, min_size=1, max_size=25, unique=True), unit)
    def test_matches_bruteforce(self, points, p):
        idx = make_index(points)
        got = idx.closest(p)
        best = min(range(len(points)), key=lambda i: (ring_distance(points[i], p)))
        assert ring_distance(points[got], p) == pytest.approx(
            ring_distance(points[best], p)
        )


class TestRestricted:
    def test_keeps_subset(self):
        idx = make_index([0.1, 0.5, 0.9])
        sub = idx.restricted({0, 2})
        assert len(sub) == 2
        assert 1 not in sub
        assert sub.position(2) == 0.9
