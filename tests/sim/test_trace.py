"""Tests for the graph-series recorder."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.network import EdgeLog
from repro.sim.trace import GraphTrace


class TestRecording:
    def test_basic(self):
        tr = GraphTrace()
        tr.record(0, [(1, 2)], frozenset({1, 2}))
        assert tr.edges_at(0) == [(1, 2)]
        assert tr.alive_at(0) == frozenset({1, 2})
        assert tr.last_round == 0

    def test_consecutive_rounds_enforced(self):
        tr = GraphTrace()
        tr.record(0, [], frozenset())
        with pytest.raises(ValueError):
            tr.record(2, [], frozenset())

    def test_ring_buffer_eviction(self):
        tr = GraphTrace(edge_depth=2)
        for t in range(4):
            tr.record(t, [(t, t + 1)], frozenset({t}))
        assert tr.edges_at(0) is None
        assert tr.edges_at(1) is None
        assert tr.edges_at(2) == [(2, 3)]
        assert tr.edges_at(3) == [(3, 4)]
        # Alive sets share the window.
        assert tr.alive_at(1) is None
        assert tr.alive_at(2) == frozenset({2})

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            GraphTrace(edge_depth=0)

    def test_default_depth_and_normalised_edges(self):
        """One default depth; a hand-written pair list is stored as an EdgeLog."""
        tr = GraphTrace()
        assert tr.edge_depth == 8
        tr.record(0, [(1, 2), (1, 2)], frozenset({1, 2}))
        log = tr.edges_at(0)
        assert isinstance(log, EdgeLog) and log == [(1, 2), (1, 2)]
        own = EdgeLog.from_pairs([(3, 4)])
        tr.record(1, own, frozenset({3, 4}))
        assert tr.edges_at(1) == own  # a per-copy log is reduced on record
        kept = own.reduced()
        tr.record(2, kept, frozenset({3, 4}))
        assert tr.edges_at(2) is kept  # an already-reduced one is stored as is

    def test_retained_rounds_are_reduced(self):
        """What the ring buffer holds: distinct pairs with multiplicities,
        whether the round came as a pair list or as a per-copy log."""
        tr = GraphTrace()
        pairs = [(1, 2), (3, 1), (1, 2), (1, 2), (3, 1), (2, 2)]
        tr.record(0, pairs, frozenset({1, 2, 3}))
        tr.record(1, EdgeLog.from_pairs(pairs), frozenset({1, 2, 3}))
        for t in (0, 1):
            log = tr.edges_at(t)
            srcs, dsts = log.columns()
            assert list(zip(srcs.tolist(), dsts.tolist())) == [(1, 2), (3, 1), (2, 2)]
            assert log.counts.tolist() == [3, 2, 1]
            assert len(log) == 6 and sorted(log) == sorted(pairs)

    def test_joins_leaves(self):
        tr = GraphTrace()
        tr.record(0, [], frozenset({1}), joins=(1,), leaves=(9,))
        assert tr.joins_at(0) == (1,)
        assert tr.leaves_at(0) == (9,)
        assert tr.joins_at(5) == ()


class TestQueries:
    def test_survivors(self):
        tr = GraphTrace()
        tr.record(0, [], frozenset({1, 2, 3}))
        tr.record(1, [], frozenset({2, 3, 4}))
        assert tr.survivors(0, 1) == frozenset({2, 3})

    def test_survivors_missing_round(self):
        tr = GraphTrace()
        tr.record(0, [], frozenset())
        with pytest.raises(KeyError):
            tr.survivors(0, 5)

    def test_contacts_and_out_neighbors(self):
        tr = GraphTrace()
        tr.record(0, [(1, 2), (3, 1), (2, 3)], frozenset({1, 2, 3}))
        assert tr.out_neighbors_at(0, 1) == {2}
        assert tr.contacts_of(0, 1) == {2, 3}
        assert tr.contacts_of(0, 9) == set()

    def test_queries_on_evicted_round_empty(self):
        tr = GraphTrace(edge_depth=1)
        tr.record(0, [(1, 2)], frozenset({1, 2}))
        tr.record(1, [], frozenset({1, 2}))
        assert tr.out_neighbors_at(0, 1) == set()
        assert tr.contacts_of(0, 1) == set()


# ----------------------------------------------------------------------
# EdgeLog: every query equals the per-copy loop it replaced
# ----------------------------------------------------------------------

# Small ids so repeats and self-edges are common, plus a few past the 16-bit
# boundary; query ids reach beyond anything in the stream.
_id = st.one_of(st.integers(0, 9), st.integers(65_530, 65_540))
_pairs = st.lists(st.tuples(_id, _id), max_size=60)
_query = st.one_of(_id, st.integers(10, 40), st.just(70_000))


def _degrees_oracle(pairs):
    degrees: dict[int, int] = {}
    for src, dst in pairs:
        degrees[src] = degrees.get(src, 0) + 1
        degrees[dst] = degrees.get(dst, 0) + 1
    return degrees


def _contacts_oracle(pairs, v):
    out: set[int] = set()
    for src, dst in pairs:
        if src == v:
            out.add(dst)
        elif dst == v:
            out.add(src)
    return out


class TestEdgeLogOracles:
    @given(_pairs)
    def test_degrees_match_the_per_copy_loop_including_key_order(self, pairs):
        got = EdgeLog.from_pairs(pairs).degrees()
        assert list(got.items()) == list(_degrees_oracle(pairs).items())
        assert all(type(k) is int and type(n) is int for k, n in got.items())

    @given(_pairs, _query)
    def test_contacts_and_out_neighbors_match_the_set_loops(self, pairs, v):
        log = EdgeLog.from_pairs(pairs)
        assert log.out_neighbors(v) == {dst for src, dst in pairs if src == v}
        assert log.contacts_of(v) == _contacts_oracle(pairs, v)
        assert all(type(w) is int for w in log.contacts_of(v))

    @given(_pairs, st.sets(_query, max_size=12))
    def test_pairs_among_is_the_set_of_filtered_pairs(self, pairs, ids):
        got = EdgeLog.from_pairs(pairs).pairs_among(ids)
        assert set(got) == {(s, d) for s, d in pairs if s in ids and d in ids}
        assert got == sorted(set(got))  # distinct, in a fixed order
        assert all(type(s) is int and type(d) is int for s, d in got)

    @given(_pairs)
    def test_sequence_protocol_round_trips_from_pairs(self, pairs):
        log = EdgeLog.from_pairs(pairs)
        assert len(log) == len(pairs) and bool(log) == bool(pairs)
        assert list(log) == pairs and log == pairs and log == EdgeLog.from_pairs(pairs)
        assert all(type(s) is int and type(d) is int for s, d in log)
        assert [log[i] for i in range(len(pairs))] == pairs
        assert log[1:3] == pairs[1:3]
        assert all(pair in log for pair in pairs)
        assert (70_000, 0) not in log and (0, 70_000) not in log
        srcs, dsts = log.columns()
        assert srcs.dtype == dsts.dtype == "int32"
        assert (srcs.tolist(), dsts.tolist()) == (
            [s for s, _ in pairs],
            [d for _, d in pairs],
        )
        assert log != pairs + [(0, 0)]

    def test_self_edge_is_its_own_contact_and_counts_twice(self):
        log = EdgeLog.from_pairs([(3, 3), (4, 3)])
        assert log.contacts_of(3) == {3, 4} and log.out_neighbors(3) == {3}
        assert log.degrees() == {3: 3, 4: 1}


# ----------------------------------------------------------------------
# EdgeLog.reduced: distinct pairs + multiplicities read like the copies
# ----------------------------------------------------------------------

# One id family per stream, so every arm of the reduction is driven: ids
# below 256 stay in the dense table; ids in the hundreds or just below 2**16
# exceed it and are ranked first; ids from 2**16 up (to the top of int32) are
# too sparse for the rank table at these stream lengths and take the
# ``np.unique`` arm.
_small = st.integers(0, 9)
_families = (
    _small,
    st.one_of(_small, st.integers(300, 305)),
    st.one_of(_small, st.integers(65_500, 65_535)),
    st.one_of(_small, st.integers(65_536, 65_540)),
    st.one_of(_small, st.integers(2**31 - 4, 2**31 - 1)),
)


def _streams_over(families):
    return st.sampled_from(families).flatmap(
        lambda ids: st.lists(st.tuples(ids, ids), max_size=60)
    )


_streams = _streams_over(_families)
# ``degrees()`` counts in a table as long as the largest id (either shape of
# log, as before), so its streams stop short of the top of int32.
_countable_streams = _streams_over(_families[:-1])
_any_query = st.one_of(_small, *(_families[1:]), st.just(77))


def _reduction_oracle(pairs):
    """Distinct pairs in first-occurrence order -> copy count."""
    seen: dict[tuple[int, int], int] = {}
    for pair in pairs:
        seen[pair] = seen.get(pair, 0) + 1
    return seen


def _rows(log):
    srcs, dsts = log.columns()
    return list(zip(srcs.tolist(), dsts.tolist()))


class TestReducedEdgeLog:
    @given(_streams)
    def test_rows_are_the_distinct_pairs_in_first_occurrence_order(self, pairs):
        red = EdgeLog.from_pairs(pairs).reduced()
        want = _reduction_oracle(pairs)
        assert _rows(red) == list(want)
        assert red.counts.tolist() == list(want.values())
        srcs, dsts = red.columns()
        assert srcs.dtype == dsts.dtype == red.counts.dtype == "int32"
        assert red.reduced() is red
        assert EdgeLog.from_pairs(pairs).counts is None

    @given(_streams)
    def test_sequence_protocol_still_speaks_in_copies(self, pairs):
        red = EdgeLog.from_pairs(pairs).reduced()
        assert len(red) == len(pairs) and bool(red) == bool(pairs)
        assert sorted(red) == sorted(pairs)  # the same multiset of copies
        assert all(type(s) is int and type(d) is int for s, d in red)
        # Copies of a pair come grouped, pairs in first-occurrence order.
        grouped = [p for p, k in _reduction_oracle(pairs).items() for _ in range(k)]
        assert list(red) == grouped and red == grouped
        assert [red[i] for i in range(len(grouped))] == grouped
        assert all(pair in red for pair in pairs)
        assert (77, 0) not in red and (0, 77) not in red
        assert red == EdgeLog.from_pairs(pairs).reduced()
        assert red != EdgeLog.from_pairs(pairs + [(0, 0)]).reduced()

    @given(_countable_streams)
    def test_degrees_weigh_multiplicity_and_keep_the_key_order(self, pairs):
        got = EdgeLog.from_pairs(pairs).reduced().degrees()
        assert list(got.items()) == list(_degrees_oracle(pairs).items())
        assert all(type(k) is int and type(n) is int for k, n in got.items())

    @given(_streams, _any_query)
    def test_neighbour_queries_ignore_multiplicity(self, pairs, v):
        red = EdgeLog.from_pairs(pairs).reduced()
        assert red.out_neighbors(v) == {dst for src, dst in pairs if src == v}
        assert red.contacts_of(v) == _contacts_oracle(pairs, v)

    @given(_streams, st.sets(_any_query, max_size=12))
    def test_pairs_among_ignores_multiplicity(self, pairs, ids):
        got = EdgeLog.from_pairs(pairs).reduced().pairs_among(ids)
        assert got == sorted({(s, d) for s, d in pairs if s in ids and d in ids})

    @pytest.mark.parametrize(
        "spread, arm",
        [(1, "dense table"), (450, "ranked ids"), (2**31 // 160, "np.unique")],
    )
    @pytest.mark.parametrize("copies", [20_000, 300_000])  # one chunk, several
    def test_long_streams_where_the_budget_follows_the_copy_count(
        self, spread, arm, copies
    ):
        """Many copies over 150 ids: the table budget is 4 x copies, so the
        same stream is dense, ranked or sorted by how far apart its ids lie."""
        import numpy as np

        rng = np.random.default_rng(7)
        srcs = (rng.integers(0, 150, copies) * spread).astype(np.int32)
        dsts = (rng.integers(0, 150, copies) * spread).astype(np.int32)
        pairs = list(zip(srcs.tolist(), dsts.tolist()))
        log = EdgeLog(srcs, dsts)
        red = log.reduced()
        want = _reduction_oracle(pairs)
        assert _rows(red) == list(want), arm
        assert red.counts.tolist() == list(want.values())
        if spread <= 450:
            assert list(red.degrees().items()) == list(log.degrees().items())
        assert len(red) == copies and len(red.columns()[0]) <= 150 * 150

    def test_many_distinct_sparse_ids_are_ranked_and_then_sorted(self):
        """2 000 copies over ~2 000 distinct ids below 60 000: the ids fit the
        rank table but their square does not fit the budget either, so the
        ranked columns take the ``np.unique`` arm and map back."""
        import numpy as np

        rng = np.random.default_rng(11)
        srcs = rng.integers(0, 60_000, 2_000).astype(np.int32)
        dsts = rng.integers(0, 60_000, 2_000).astype(np.int32)
        srcs[1_000:1_100], dsts[1_000:1_100] = srcs[:100], dsts[:100]  # repeats
        pairs = list(zip(srcs.tolist(), dsts.tolist()))
        red = EdgeLog(srcs, dsts).reduced()
        want = _reduction_oracle(pairs)
        assert _rows(red) == list(want)
        assert red.counts.tolist() == list(want.values()) and max(want.values()) > 1

    def test_self_edges_single_copy_and_empty_round(self):
        red = EdgeLog.from_pairs([(3, 3), (4, 3), (3, 3)]).reduced()
        assert _rows(red) == [(3, 3), (4, 3)] and red.counts.tolist() == [2, 1]
        assert red.contacts_of(3) == {3, 4} and red.degrees() == {3: 5, 4: 1}
        one = EdgeLog.from_pairs([(70_000, 2)]).reduced()
        assert list(one) == [(70_000, 2)] and one.counts.tolist() == [1]
        empty = EdgeLog.from_pairs([]).reduced()
        assert len(empty) == 0 and list(empty) == [] and empty.degrees() == {}
        assert empty.counts.size == 0 and empty.reduced() is empty
        assert empty == [] and empty == EdgeLog.from_pairs([])
