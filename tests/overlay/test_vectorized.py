"""Equivalence tests for the vectorised hot paths.

The batched query paths (``bounds_many``, ``ids_within_list``, ``prime``,
``restricted`` via masked arrays) must return byte-identical results to the
scalar reference paths they replaced — routing correctness and the
bit-for-bit reproducibility guarantee both depend on it.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import ProtocolParams
from repro.overlay.lds import LDSGraph, build_lds
from repro.overlay.positions import PositionIndex
from repro.util.intervals import Arc, ring_distance

unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)
radii = st.floats(min_value=0.0, max_value=0.7, allow_nan=False)


def make_index(points):
    return PositionIndex({i: p for i, p in enumerate(points)})


def brute_within(points, center, radius):
    return [i for i, p in enumerate(points) if ring_distance(p, center) <= radius]


class TestFloatWrapGuard:
    """Regression: a tiny negative ``center - radius`` wraps to exactly 1.0
    under ``%``, which must be clamped to 0.0 in every bounds path."""

    def test_scalar_guard_engages(self):
        # center - radius == -1e-18; (-1e-18) % 1.0 rounds to exactly 1.0.
        center, radius = 1e-18, 2e-18
        assert (center - radius) % 1.0 == 1.0  # precondition for the edge
        idx = make_index([0.0, 0.3, 0.7])
        ids = idx.ids_within(center, radius)
        assert ids.tolist() == [0]
        assert idx.count_within(center, radius) == 1
        assert idx.ids_within_list(center, radius) == [0]

    def test_batched_guard_matches_scalar(self):
        idx = make_index([0.0, 0.2, 0.5, 0.8])
        radius = 2e-18
        centers = np.array([1e-18, 0.2, 0.999999])
        a, b, wrapped = idx.bounds_many(centers, radius)
        for i, c in enumerate(centers.tolist()):
            assert (int(a[i]), int(b[i]), bool(wrapped[i])) == idx._bounds(c, radius)

    def test_point_one_ulp_outside_a_wrapped_arc_is_excluded(self):
        # center + radius rounds onto 0.25 (at magnitude 1), but the point
        # there is 0.25 + 2**-53 away; the floats just below it are inside
        # or not exactly as ring_distance says.
        center, radius = 1.0 - 2.0**-53, 0.25
        assert (center + radius) % 1.0 == 0.25  # precondition for the edge
        below = [np.nextafter(0.25, 0.0)]
        for _ in range(3):
            below.append(np.nextafter(below[-1], 0.0))
        points = [0.25, *map(float, below), 0.5]
        idx = make_index(points)
        want = brute_within(points, center, radius)
        assert 0 not in want and want  # 0.25 is outside, some below it inside
        assert sorted(idx.ids_within(center, radius).tolist()) == want
        assert sorted(idx.ids_within_list(center, radius)) == want
        assert idx.count_within(center, radius) == len(want)
        a, b, wrapped = idx.bounds_many(np.array([center]), radius)
        assert (int(a[0]), int(b[0]), bool(wrapped[0])) == idx._bounds(center, radius)
        mirrored = [1.0 - p for p in points[1:]]  # the same case counter-clockwise
        idx = make_index(mirrored)
        assert sorted(idx.ids_within(2.0**-53, radius).tolist()) == brute_within(
            mirrored, 2.0**-53, radius
        )

    @given(st.lists(unit, min_size=1, max_size=30), unit)
    def test_count_never_disagrees_with_ids(self, points, center):
        idx = make_index(points)
        for radius in (0.0, 1e-18, 2e-18, 1e-9, 0.1, 0.5, 0.6):
            assert idx.count_within(center, radius) == idx.ids_within(
                center, radius
            ).size


class TestArcVariantEquivalence:
    """``ids_within``, ``ids_within_list`` and ``ids_in_arc`` must agree
    element-for-element, in order."""

    def assert_all_agree(self, idx, center, radius):
        ids = idx.ids_within(center, radius)
        assert idx.ids_within_list(center, radius) == ids.tolist()
        np.testing.assert_array_equal(idx.ids_in_arc(Arc(center, radius)), ids)
        assert idx.count_within(center, radius) == ids.size

    def test_wrapped_arc(self):
        idx = make_index([0.05, 0.3, 0.6, 0.95])
        self.assert_all_agree(idx, 0.0, 0.1)
        assert idx.ids_within_list(0.0, 0.1) == [3, 0]  # position order

    def test_full_ring_radius(self):
        idx = make_index([0.4, 0.1, 0.8])
        for radius in (0.5, 0.6, 1.0):
            self.assert_all_agree(idx, 0.25, radius)
            assert idx.count_within(0.25, radius) == 3

    def test_empty_index(self):
        idx = PositionIndex({})
        self.assert_all_agree(idx, 0.3, 0.2)
        self.assert_all_agree(idx, 0.3, 0.5)
        assert idx.ids_within_list(0.3, 0.2) == []
        assert idx.ids_within_list(0.3, 0.5) == []

    @given(st.lists(unit, min_size=0, max_size=40), unit, radii)
    def test_variants_agree_and_match_bruteforce(self, points, center, radius):
        idx = make_index(points)
        self.assert_all_agree(idx, center, radius)
        got = sorted(idx.ids_within(center, radius).tolist())
        assert got == brute_within(points, center, radius)


class TestBoundsMany:
    @given(
        st.lists(unit, min_size=1, max_size=40),
        st.lists(unit, min_size=1, max_size=12),
        st.floats(min_value=0.0, max_value=0.49, allow_nan=False),
    )
    def test_matches_scalar_bounds(self, points, centers, radius):
        idx = make_index(points)
        arr = np.array(centers, dtype=np.float64)
        a, b, wrapped = idx.bounds_many(arr, radius)
        for i, c in enumerate(centers):
            sa, sb, sw = idx._bounds(c, radius)
            assert (int(a[i]), int(b[i]), bool(wrapped[i])) == (sa, sb, sw)

    @given(
        st.lists(unit, min_size=1, max_size=40),
        st.lists(unit, min_size=1, max_size=12),
        st.floats(min_value=0.0, max_value=0.49, allow_nan=False),
    )
    def test_slices_reproduce_ids_within(self, points, centers, radius):
        idx = make_index(points)
        ids = idx.ids_list
        n = len(ids)
        arr = np.array(centers, dtype=np.float64)
        a, b, wrapped = idx.bounds_many(arr, radius)
        for i, c in enumerate(centers):
            window = (
                ids[a[i]:] + ids[: b[i]] if wrapped[i] else ids[a[i]:b[i]]
            )
            assert window == idx.ids_within(c, radius).tolist()
            size = n - a[i] + b[i] if wrapped[i] else b[i] - a[i]
            assert size == len(window)


class TestRestricted:
    def reference(self, idx, keep):
        keep = set(keep)
        return PositionIndex(
            {v: p for v, p in idx.as_dict().items() if v in keep}
        )

    @given(
        st.lists(unit, min_size=0, max_size=30),
        st.sets(st.integers(min_value=0, max_value=35)),
    )
    def test_matches_rebuilt_index(self, points, keep):
        idx = make_index(points)
        got = idx.restricted(keep)
        want = self.reference(idx, keep)
        np.testing.assert_array_equal(got.ids, want.ids)
        np.testing.assert_array_equal(got.sorted_positions, want.sorted_positions)
        assert got.as_dict() == want.as_dict()

    def test_accepts_ndarray_and_preserves_queries(self):
        idx = make_index([0.1, 0.4, 0.6, 0.9])
        got = idx.restricted(np.array([0, 2, 3]))
        want = self.reference(idx, {0, 2, 3})
        np.testing.assert_array_equal(got.ids, want.ids)
        np.testing.assert_array_equal(
            got.ids_within(0.95, 0.2), want.ids_within(0.95, 0.2)
        )
        assert got.ids_within_list(0.95, 0.2) == want.ids_within_list(0.95, 0.2)


class TestPrimedLDS:
    """``prime()`` must fill the caches with exactly what the lazy per-node
    queries compute, and the one-pass statistics must match naive sums."""

    def build_pair(self, seed, n=48):
        params = ProtocolParams(n=n, seed=seed)
        rng = np.random.default_rng(seed)
        positions = {i: float(p) for i, p in enumerate(rng.random(n))}
        return build_lds(positions, params), build_lds(positions, params)

    def test_prime_matches_lazy(self):
        for seed in (1, 2, 3):
            primed, lazy = self.build_pair(seed)
            primed.prime()
            for v in lazy.node_ids.tolist():
                np.testing.assert_array_equal(
                    primed.list_neighbors(v), lazy.list_neighbors(v)
                )
                np.testing.assert_array_equal(
                    primed.db_neighbors(v), lazy.db_neighbors(v)
                )
                np.testing.assert_array_equal(
                    primed.neighbors(v), lazy.neighbors(v)
                )

    def test_prime_is_idempotent(self):
        primed, _ = self.build_pair(5)
        primed.prime()
        before = {v: primed.neighbors(v).tolist() for v in primed.node_ids.tolist()}
        primed.prime()
        after = {v: primed.neighbors(v).tolist() for v in primed.node_ids.tolist()}
        assert before == after

    def test_degree_stats_and_edge_count_consistent(self):
        graph, lazy = self.build_pair(9)
        lo, mean, hi = graph.degree_stats()
        degrees = [lazy.degree(v) for v in lazy.node_ids.tolist()]
        assert (lo, hi) == (min(degrees), max(degrees))
        assert mean == float(np.mean(degrees))
        assert graph.edge_count() == sum(degrees)

    def test_empty_graph(self):
        params = ProtocolParams(n=16, seed=1)
        graph = LDSGraph(PositionIndex({}), params)
        graph.prime()
        assert graph.degree_stats() == (0, 0.0, 0)
        assert graph.edge_count() == 0

    def test_prime_wraps_the_top_position(self):
        """At ``p = 1 − 2⁻⁵³`` the De Bruijn centre ``(p + 1) / 2`` is
        ``1.0``, which ``wrap`` maps to ``0.0``; unwrapped, the arc's upper
        end lands past the radius and takes in a node at that boundary."""
        params = ProtocolParams(n=48, c=1.2, seed=1)
        rho = params.debruijn_radius
        boundary = (1.0 + rho) % 1.0  # the unwrapped arc's upper end
        assert boundary > rho
        positions = {0: 1.0 - 2.0**-53, 1: boundary, 2: rho, 3: 0.5, 4: 0.9}
        primed = build_lds(positions, params)
        lazy = build_lds(positions, params)
        primed.prime()
        assert 1 not in lazy.db_neighbors(0).tolist()
        for v in positions:
            np.testing.assert_array_equal(primed.db_neighbors(v), lazy.db_neighbors(v))
            np.testing.assert_array_equal(primed.neighbors(v), lazy.neighbors(v))

    @settings(deadline=None, max_examples=20)
    @given(st.lists(unit, min_size=1, max_size=24, unique=True), st.integers(1, 10**6))
    def test_prime_matches_lazy_fuzzed(self, points, seed):
        params = ProtocolParams(n=max(16, len(points)), seed=seed)
        positions = {i: p for i, p in enumerate(points)}
        primed = build_lds(positions, params)
        lazy = build_lds(positions, params)
        primed.prime()
        for v in positions:
            np.testing.assert_array_equal(primed.neighbors(v), lazy.neighbors(v))
            np.testing.assert_array_equal(
                primed.list_neighbors(v), lazy.list_neighbors(v)
            )
            np.testing.assert_array_equal(
                primed.db_neighbors(v), lazy.db_neighbors(v)
            )
