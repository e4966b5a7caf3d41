"""Columnar hop plane: interning, batched sends, delivery grouping."""

from __future__ import annotations

from itertools import count

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.messages import RoutedMessage
from repro.sim.hopplane import FrozenHopRound, HopPlane, HopRows, _stable_argsort

_launches = count()


def Msg() -> RoutedMessage:
    """A stand-in routed message with a launch key of its own (the key is
    what the plane interns on)."""
    i = next(_launches)
    return RoutedMessage(("m", i), i >> 13, 0.0, (0.0, 0.0), 0, ordinal=i & 0x1FFF)


def _edges(frozen: FrozenHopRound) -> list[tuple[int, int]]:
    """``edge_columns()`` — per-copy ``int32`` ``(srcs, dsts)`` — as pairs."""
    srcs, dsts = frozen.edge_columns()
    assert srcs.dtype == dsts.dtype == np.int32
    return list(zip(srcs.tolist(), dsts.tolist()))


def test_interns_one_row_per_logical_hop():
    plane = HopPlane()
    m = Msg()
    assert plane.send(1, m, 0, [2, 3]) == 2
    assert plane.send(4, m, 0, [3, 5]) == 2  # same (msg, step): same row
    assert plane.send(4, m, 1, [2]) == 1  # next step: a new logical hop
    frozen = plane.close_round()
    assert len(frozen.msgs) == 2
    assert frozen.copies() == 5
    assert _edges(frozen) == [(1, 2), (1, 3), (4, 3), (4, 5), (4, 2)]


def test_intern_rows_is_intern_per_listed_row():
    m1, m2, m3 = Msg(), Msg(), Msg()
    table = HopRows.of([m1, m2, m3, m2], [0, 3, 1, 5])
    plane = HopPlane()
    out = plane.intern_rows(table, np.array([3, 0, 2]), np.array([6, 1, 2]))
    assert out.dtype == np.int32
    # The listed rows become rows 0 … F-1 in the order listed, at the given
    # steps, with every other column gathered along; unlisted ones stay -1.
    assert out.tolist() == [1, -1, 2, 0]
    assert plane.append(HopRows.of([m1], [0])) == 3  # launches come after
    plane.send(4, m3, 0, [9])  # a hand-filed hop: after both blocks
    frozen = plane.close_round()
    assert list(zip(frozen.msgs, frozen.steps.tolist())) == [
        (m2, 6), (m1, 1), (m3, 2), (m1, 0), (m3, 0)
    ]
    assert frozen.table.keys.tolist() == [m.key for m in (m2, m1, m3, m1, m3)]
    assert frozen.table.fsteps.tolist() == [1] * 5
    assert frozen.send_rows.tolist() == [4]
    none = np.array([], dtype=np.intp)
    assert HopPlane().intern_rows(table, none, none).tolist() == [-1] * 4


def test_intern_rows_raises_once_the_plane_holds_a_row():
    """A round's forwards are its first rows: filing a hop before the round's
    forwarding plan interned them is an error, not a silent renumbering."""
    table = HopRows.of([Msg()], [1])
    plane = HopPlane()
    plane.send(1, Msg(), 0, [2])
    with pytest.raises(RuntimeError, match="first plane rows"):
        plane.intern_rows(table, np.array([0]), np.array([2]))
    launched = HopPlane()
    launched.append(table)
    with pytest.raises(RuntimeError, match="first plane rows"):
        launched.intern_rows(table, np.array([0]), np.array([2]))


def test_send_batch_equals_individual_sends():
    m1, m2 = Msg(), Msg()
    one = HopPlane()
    one.send(7, m1, 0, [1, 2])
    one.send(7, m2, 3, [2])
    one.send(7, m1, 0, [3])
    a = one.close_round()

    two = HopPlane()
    assert two.send_batch(7, [(m1, 0, [1, 2]), (m2, 3, [2]), (m1, 0, [3])]) == 4
    b = two.close_round()

    assert a.steps.tolist() == b.steps.tolist()
    assert a.srcs.tolist() == b.srcs.tolist()
    assert a.send_rows.tolist() == b.send_rows.tolist()
    assert a.lens.tolist() == b.lens.tolist()
    assert a.flat.tolist() == b.flat.tolist()


def test_empty_receiver_lists_are_skipped():
    plane = HopPlane()
    assert plane.send(1, Msg(), 0, []) == 0
    assert plane.send_batch(1, [(Msg(), 0, [])]) == 0
    assert plane.close_round() is None


def test_deliver_groups_by_receiver_in_send_order():
    plane = HopPlane()
    m1, m2 = Msg(), Msg()
    plane.send(1, m1, 0, [10, 11])
    plane.send(2, m2, 0, [11, 10])
    plane.send(3, m1, 0, [11])  # duplicate row for 11: counted, then deduped
    frozen = plane.close_round()
    delivery = frozen.deliver(alive={10, 11})
    assert delivery.total == 5
    assert delivery.counts == {10: 2, 11: 3}  # pre-dedup copy counts
    row_m1 = frozen.msgs.index(m1)
    row_m2 = frozen.msgs.index(m2)
    # Rows arrive deduplicated to first occurrences, in send order.
    assert delivery.rows[10].tolist() == [row_m1, row_m2]
    assert delivery.rows[11].tolist() == [row_m1, row_m2]


def test_deliver_drops_dead_receivers_but_counts_all_copies():
    plane = HopPlane()
    plane.send(1, Msg(), 0, [10, 99])
    frozen = plane.close_round()
    delivery = frozen.deliver(alive={10})
    assert delivery.total == 2  # in-flight copies, for budget accounting
    assert set(delivery.rows) == {10}


def test_close_round_resets_interning():
    plane = HopPlane()
    m = Msg()
    plane.send(1, m, 0, [2])
    first = plane.close_round()
    plane.send(1, m, 0, [3])
    second = plane.close_round()
    assert first.msgs is not second.msgs
    assert second.copies() == 1


def test_cut_keeps_the_named_copies_in_order():
    plane = HopPlane()
    m1, m2 = Msg(), Msg()
    plane.send(1, m1, 0, [10, 11, 12])
    plane.send(2, m2, 0, [11])
    frozen = plane.close_round()
    # Copy 1 dropped, copy 2 duplicated, copy 3 kept.
    segment = frozen.cut(np.array([0, 2, 2, 3]))
    assert segment.copies() == 4
    assert segment.flat.tolist() == [10, 12, 12, 11]
    assert [frozen.msgs[r] for r in segment.copy_rows().tolist()] == [m1, m1, m1, m2]
    assert segment.msgs is frozen.msgs  # row columns are shared, not copied
    delivery = segment.deliver(alive={10, 11, 12})
    assert delivery.counts == {10: 1, 11: 1, 12: 2}  # the duplicate is counted...
    assert delivery.rows[12].tolist() == [frozen.msgs.index(m1)]  # ...and deduped


def test_merged_reinterns_rows_across_rounds():
    plane = HopPlane()
    m1, m2, m3 = Msg(), Msg(), Msg()
    plane.send(1, m2, 0, [10])
    plane.send(1, m1, 4, [10, 11])
    older = plane.close_round()
    plane.send(2, m1, 4, [10])  # the same logical hop, sent a round later
    plane.send(2, m1, 5, [10])  # same message, next step: a different hop
    plane.send(2, m3, 0, [11])
    newer = plane.close_round()
    assert older.msgs.index(m1) != newer.msgs.index(m1)  # numbered per round

    late = older.cut(np.array([1, 2]))  # only the (m1, 4) copies were delayed
    merged = FrozenHopRound.merged([late, newer])
    hops = list(zip(merged.msgs, merged.steps.tolist()))
    assert hops == [(m1, 4), (m1, 5), (m3, 0)]  # m2 is not in any due copy
    assert merged.flat.tolist() == [10, 11, 10, 10, 11]  # oldest segment first
    delivery = merged.deliver(alive={10, 11})
    assert delivery.total == 5
    assert delivery.counts == {10: 3, 11: 2}
    arrived = {
        dst: [hops[r] for r in rows.tolist()] for dst, rows in delivery.rows.items()
    }
    assert arrived == {10: [(m1, 4), (m1, 5)], 11: [(m1, 4), (m3, 0)]}


# ----------------------------------------------------------------------
# Filing order
# ----------------------------------------------------------------------


def _i32(*values):
    return np.array(values, dtype=np.int32)


def test_interleaved_send_batch_and_file_keep_global_send_order():
    plane = HopPlane()
    m1, m2, m3 = Msg(), Msg(), Msg()
    plane.send(1, m1, 0, [5, 6])
    r2, r1 = plane.intern(m2, 1), plane.intern(m1, 0)
    assert plane.file(2, _i32(r2, r1), _i32(1, 2), _i32(7, 8, 9)) == 3
    assert plane.sends == 3
    plane.send_batch(3, [(m3, 0, [4]), (m2, 2, []), (m2, 1, [5, 4])])
    assert plane.file(4, _i32(), _i32(), _i32()) == 0  # an empty chunk is no send
    plane.send(5, m3, 0, (6,))
    assert plane.sends == 6

    table, rows, lens, flat = plane.pack()
    frozen = plane.close_round()
    hops = list(zip(frozen.msgs, frozen.steps.tolist()))
    assert hops[r1] == (m1, 0) and hops[r2] == (m2, 1) and (m2, 2) not in hops
    r3 = hops.index((m3, 0))
    assert frozen.srcs.tolist() == [1, 2, 2, 3, 3, 5]
    assert frozen.send_rows.tolist() == [r1, r2, r1, r3, r2, r3]
    assert frozen.lens.tolist() == [2, 1, 2, 1, 2, 1]
    assert frozen.flat.tolist() == [5, 6, 7, 8, 9, 4, 5, 4, 6]
    assert _edges(frozen) == [
        (1, 5), (1, 6), (2, 7), (2, 8), (2, 9), (3, 4), (3, 5), (3, 4), (5, 6)
    ]
    # pack() is the same round without the source column, as int32 arrays.
    assert table is frozen.table
    for packed, col in zip((table.steps, rows, lens, flat), (
        frozen.steps, frozen.send_rows, frozen.lens, frozen.flat
    )):
        assert packed.dtype == col.dtype == np.int32
        assert packed.tolist() == col.tolist()
    assert plane.sends == 0 and plane.close_round() is None


# ----------------------------------------------------------------------
# Delivery: radix sort and dedup vs oracles
# ----------------------------------------------------------------------


@st.composite
def key_columns(draw):
    """Key columns on each side of the 16-bit and 32-bit radix limits."""
    base, dtype = draw(
        st.sampled_from(
            [
                (0, np.int32),  # < 2**16: one narrowed pass
                (0, np.int64),
                (1 << 16, np.int32),  # >= 2**16: two 16-bit passes
                ((1 << 31) - 300, np.int64),
                (1 << 32, np.int64),  # >= 2**32: plain stable argsort
                (-7, np.int64),  # negative keys: plain stable argsort
            ]
        )
    )
    # A small spread forces ties; the occasional wide one crosses a limit.
    spread = draw(st.sampled_from([1, 4, 300, 70_000]))
    offsets = draw(st.lists(st.integers(0, spread - 1), max_size=200))
    return np.array([base + o for o in offsets], dtype=dtype)


@settings(deadline=None, max_examples=200)
@given(key_columns())
def test_stable_argsort_equals_numpy_stable_argsort(keys):
    assert _stable_argsort(keys).tolist() == np.argsort(keys, kind="stable").tolist()


def test_stable_argsort_crosses_both_limits_in_one_column():
    rng = np.random.default_rng(5)
    for top in (1 << 16, 1 << 32):
        keys = rng.integers(0, 50, size=5000) * (top // 40)
        assert keys.max() >= top
        assert np.array_equal(_stable_argsort(keys), np.argsort(keys, kind="stable"))


#: Rows filed ahead of a generated round, so its row ids pass 65,535.
FILLER = HopRows.of([Msg() for _ in range(66_000)], [0] * 66_000)
POOL = [Msg() for _ in range(5)]


@st.composite
def sends(draw, dst_base):
    """One round's ``(src, message index, step, receivers)`` multicasts over
    a small pool, so logical hops and receivers repeat."""
    return draw(
        st.lists(
            st.tuples(
                st.integers(1, 4),
                st.integers(0, len(POOL) - 1),
                st.integers(0, 2),
                st.lists(st.integers(dst_base, dst_base + 6), min_size=1, max_size=5),
            ),
            min_size=1,
            max_size=25,
        )
    )


def _file(round_sends, big):
    """``(frozen, copies)``: the round through a plane, and its per-copy
    ``(logical hop, receiver)`` list in send order."""
    plane = HopPlane()
    if big:
        plane.append(FILLER)
    copies = []
    for src, mi, step, dsts in round_sends:
        plane.send(src, POOL[mi], step, dsts)
        copies.extend(((mi, step), dst) for dst in dsts)
    return plane.close_round(), copies


def _check_delivery(frozen, copies, alive):
    """``deliver`` against a per-receiver ``dict.fromkeys`` oracle."""
    arrivals: dict[int, list] = {}
    for hop, dst in copies:
        arrivals.setdefault(dst, []).append(hop)
    delivery = frozen.deliver(alive)
    steps = frozen.steps.tolist()
    got = {
        dst: [(POOL.index(frozen.msgs[r]), steps[r]) for r in rows.tolist()]
        for dst, rows in delivery.rows.items()
    }
    assert got == {
        dst: list(dict.fromkeys(hops)) for dst, hops in arrivals.items() if dst in alive
    }
    assert delivery.counts == {
        dst: len(hops) for dst, hops in arrivals.items() if dst in alive
    }
    assert delivery.total == len(copies)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_deliver_equals_per_receiver_oracle(data):
    big = data.draw(st.booleans(), label="rows above 65,535")
    dst_base = data.draw(st.sampled_from([0, 65_533, 1 << 20]), label="receiver base")
    alive = data.draw(st.sets(st.integers(dst_base, dst_base + 6)), label="alive")

    # A plain round.
    frozen, copies = _file(data.draw(sends(dst_base)), big)
    if big:
        assert frozen.send_rows.min() > 65_535
    _check_delivery(frozen, copies, alive)

    # A cut segment: some copies dropped, some duplicated, order kept.
    picked = sorted(
        data.draw(st.lists(st.integers(0, len(copies) - 1), min_size=1, max_size=40))
    )
    segment = frozen.cut(np.array(picked))
    _check_delivery(segment, [copies[i] for i in picked], alive)

    # That segment, delayed, merged with a fresh round: rows are re-interned,
    # so a late copy still deduplicates against a fresh one.
    newer, newer_copies = _file(data.draw(sends(dst_base)), big)
    merged = FrozenHopRound.merged([segment, newer])
    _check_delivery(merged, [copies[i] for i in picked] + newer_copies, alive)
