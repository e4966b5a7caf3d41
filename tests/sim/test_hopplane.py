"""Columnar hop plane: interning, batched sends, delivery grouping."""

from __future__ import annotations

import numpy as np

from repro.sim.hopplane import FrozenHopRound, HopPlane


class Msg:
    """Stand-in routed message (identity is what the plane interns on)."""


def test_interns_one_row_per_logical_hop():
    plane = HopPlane()
    m = Msg()
    assert plane.send(1, m, 0, [2, 3]) == 2
    assert plane.send(4, m, 0, [3, 5]) == 2  # same (msg, step): same row
    assert plane.send(4, m, 1, [2]) == 1  # next step: a new logical hop
    frozen = plane.close_round()
    assert len(frozen.msgs) == 2
    assert frozen.copies() == 5
    assert list(frozen.iter_edges()) == [(1, 2), (1, 3), (4, 3), (4, 5), (4, 2)]


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
