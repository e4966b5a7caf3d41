"""Incremental PositionIndex views: restricted / without / with_added.

These are the copy-on-write primitives the epoch cache leans on, so every
path must agree exactly with a from-scratch ``PositionIndex`` build — the
set-input and ndarray-input branches of ``restricted`` included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.overlay.positions import PositionIndex


def make_index(n: int = 12, seed: int = 0) -> PositionIndex:
    rng = np.random.default_rng(seed)
    return PositionIndex({v: float(p) for v, p in enumerate(rng.random(n))})


class TestRestrictedInputPaths:
    """All ``keep`` input kinds normalise to the same view."""

    def test_set_list_tuple_ndarray_agree(self):
        index = make_index()
        keep_set = {1, 3, 5, 7}
        variants = [
            keep_set,
            list(keep_set),
            tuple(keep_set),
            np.array(sorted(keep_set), dtype=np.int64),
            np.array(sorted(keep_set), dtype=np.float64),  # integral floats ok
        ]
        views = [index.restricted(k) for k in variants]
        for view in views[1:]:
            assert np.array_equal(view.ids, views[0].ids)
            assert np.array_equal(view.sorted_positions, views[0].sorted_positions)

    def test_empty_keep(self):
        index = make_index()
        for empty in (set(), [], np.array([], dtype=np.int64)):
            view = index.restricted(empty)
            assert len(view) == 0
            assert view.ids_within(0.5, 0.4).size == 0

    def test_unknown_ids_are_ignored(self):
        index = make_index(n=6)
        view = index.restricted({2, 4, 999, -5})
        assert set(view.ids.tolist()) == {2, 4}

    def test_duplicates_collapse(self):
        index = make_index(n=6)
        view = index.restricted([2, 2, 4, 4])
        assert set(view.ids.tolist()) == {2, 4}

    def test_non_integral_floats_rejected(self):
        index = make_index(n=6)
        with pytest.raises((TypeError, ValueError)):
            index.restricted(np.array([1.5, 2.0]))


class TestWithout:
    def test_matches_rebuild(self):
        index = make_index(n=10, seed=3)
        view = index.without({2, 5})
        fresh = PositionIndex(
            {v: index.position(v) for v in index.ids.tolist() if v not in (2, 5)}
        )
        assert np.array_equal(view.ids, fresh.ids)
        assert np.array_equal(view.sorted_positions, fresh.sorted_positions)

    def test_noop_returns_self(self):
        index = make_index(n=8)
        assert index.without(set()) is index
        assert index.without({999}) is index


class TestWithAdded:
    def test_matches_rebuild(self):
        rng = np.random.default_rng(7)
        base = {v: float(p) for v, p in enumerate(rng.random(9))}
        index = PositionIndex(base)
        new = {100: 0.123, 101: 0.456, 102: 0.789}
        grown = index.with_added(list(new), list(new.values()))
        fresh = PositionIndex({**base, **new})
        assert np.array_equal(grown.ids, fresh.ids)
        assert np.array_equal(grown.sorted_positions, fresh.sorted_positions)
        # Original untouched (copy-on-write, not mutation).
        assert len(index) == 9

    def test_rejects_existing_id(self):
        index = make_index(n=5)
        with pytest.raises(ValueError):
            index.with_added([2], [0.5])

    def test_rejects_out_of_range_position(self):
        index = make_index(n=5)
        with pytest.raises(ValueError):
            index.with_added([99], [1.5])

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=0.999999),
            min_size=1,
            max_size=24,
            unique=True,
        ),
        st.integers(min_value=1, max_value=10),
    )
    def test_fuzz_incremental_equals_fresh(self, points, n_add):
        base = {v: p for v, p in enumerate(points)}
        index = PositionIndex(base)
        rng = np.random.default_rng(n_add)
        add_ids = [1000 + i for i in range(n_add)]
        add_pos = [float(p) for p in rng.random(n_add)]
        grown = index.with_added(add_ids, add_pos)
        fresh = PositionIndex({**base, **dict(zip(add_ids, add_pos))})
        assert np.array_equal(grown.ids, fresh.ids)
        assert np.array_equal(grown.sorted_positions, fresh.sorted_positions)


class TestRankWithin:
    """A member's rank in a window is its sorted slot (``slot_map``) minus
    the window's start, wrap-adjusted — the forwarding plan's form of the
    documented ``ids_within(...).tolist().index(v)`` rank rule."""

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=0.999999),
            min_size=1,
            max_size=20,
            unique=True,
        ),
        st.floats(min_value=0.0, max_value=0.999999),
        st.floats(min_value=0.01, max_value=0.6),
    )
    def test_matches_list_index(self, points, center, radius):
        index = PositionIndex({v: p for v, p in enumerate(points)})
        window = index.ids_within(center, radius).tolist()
        n = len(points)
        if radius >= 0.5:  # the whole ring, from slot 0
            a, size = 0, n
        else:
            lo, hi, wrapped = (int(x[0]) for x in index.bounds_many(np.array([center]), radius))
            a, size = lo, (n - lo + hi if wrapped else hi - lo)
        assert size == len(window)
        for v in range(n):
            rank = (index.slot_map[v] - a) % n
            if v in window:
                assert rank == window.index(v)
            else:
                assert rank >= size
