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
        # Alive sets are kept for the whole run.
        assert tr.alive_at(0) == frozenset({0})

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
        assert tr.edges_at(1) is own

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
