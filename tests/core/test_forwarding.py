"""The forwarding kernel against scalar oracles.

Three properties.  :func:`hop_columns` equals the per-row classification
loop it replaced, on any mix of payloads and steps.  ``prefix_counts`` turns a ``searchsorted`` bound against an
epoch slab into the bound against any position-sorted subset of it — the
identity the kernel's shared per-row ring arithmetic rests on; the oracle is
``PositionIndex.bounds_many`` on the subset.  And a whole :class:`HopPlan`
equals the protocol text one row at a time: windows from
``ids_within_list``, the holder's rank from scalar ``rank_within``, delivery
events from the in-swarm / rank-match tests, picks as
``window[floor(u * size)]`` — for indexes carved from a live slab and for
private ones alike.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.forwarding import FINAL, JOIN, MID, SKIP, HopPlan, hop_columns, prefix_counts
from repro.core.messages import JoinRecord
from repro.overlay.positions import PositionIndex
from repro.routing.messages import RoutedMessage, make_routed_message
from repro.sim.epochs import EpochCache
from repro.sim.hopplane import HopDelivery, HopPlane, HopRows
from repro.util.rngs import RngService

TOP = 1.0 - 2.0**-53  # the largest position below 1
position = st.one_of(
    st.sampled_from([0.0, TOP, 0.5, 0.25]),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False),
)


@st.composite
def slab_and_subsets(draw):
    positions = draw(st.lists(position, min_size=1, max_size=40))
    slab = PositionIndex({100 + i: p for i, p in enumerate(positions)})
    masks = draw(
        st.lists(
            st.lists(st.booleans(), min_size=len(positions), max_size=len(positions)),
            min_size=1,
            max_size=5,
        )
    )
    subsets = [
        slab.restricted([100 + i for i, keep in enumerate(mask) if keep]) for mask in masks
    ]
    return slab, subsets


@given(
    slab_and_subsets(),
    st.lists(position, min_size=1, max_size=30),
    st.floats(min_value=0.0, max_value=0.49),
)
@settings(max_examples=200, deadline=None)
def test_prefix_counts_map_slab_bounds_to_subset_bounds(case, centers, radius):
    slab, subsets = case
    centers = np.array(centers)
    lo = (centers - radius) % 1.0
    lo[lo >= 1.0] = 0.0
    hi = (centers + radius) % 1.0
    cnt = prefix_counts(slab, subsets)
    at_lo = slab.sorted_positions.searchsorted(lo, "left")
    at_hi = slab.sorted_positions.searchsorted(hi, "right")
    for g, subset in enumerate(subsets):
        a, b, _ = subset.bounds_many(centers.copy(), radius)
        assert cnt[g, at_lo].tolist() == a.tolist()
        assert cnt[g, at_hi].tolist() == b.tolist()


# ----------------------------------------------------------------------
# Row classification vs the per-row loop
# ----------------------------------------------------------------------


def classify_row_by_row(msgs, steps, even):
    """The per-row classification loop :func:`hop_columns` replaced: reads
    each message object.  Returns ``(kind, point, fincls, srank, recs)``
    and the forwarded ``(row, step)`` pairs in row order."""
    steps = list(steps)
    count = len(msgs)
    kind, point = [SKIP] * count, [0.0] * count
    fincls, srank, recs = [0] * count, [-1] * count, [None] * count
    for i, m in enumerate(msgs):
        k = steps[i]
        fs = m.final_step
        if even:
            if k >= fs:
                continue
            k = steps[i] = k + 1
            if k == fs:
                payload = m.payload
                if isinstance(payload, tuple) and payload[0] == "join":
                    kind[i] = JOIN
                    recs[i] = payload[1]
                    continue
        if k >= fs:
            kind[i] = FINAL
            point[i] = m.target
            payload = m.payload
            if isinstance(payload, tuple) and payload[0] == "token":
                fincls[i], srank[i] = (2, -1) if m.sample_rank is None else (1, m.sample_rank)
        else:
            kind[i] = MID
            point[i] = m.trajectory[k]
    forwarded = [
        (i, steps[i]) for i in range(count) if (kind[i] >= FINAL if even else kind[i] == MID)
    ]
    return (kind, point, fincls, srank, recs), forwarded


@st.composite
def hop_rows(draw):
    lam = draw(st.integers(1, 8))
    payloads = st.one_of(
        st.builds(lambda i: ("join", JoinRecord(i, 0.25, 9)), st.integers(0, 99)),
        st.just(("token", 7)),
        st.just(("probe", 1)),
        st.just(("put", "k", 1)),
        st.just("mystery"),
    )
    msgs = []
    for i in range(draw(st.integers(1, 6))):
        payload = draw(payloads)
        rank = draw(st.one_of(st.none(), st.integers(0, 9)))  # tokens without one too
        msgs.append(
            make_routed_message(
                ("m", i), 3, draw(position), draw(position), lam, 4,
                sample_rank=rank, payload=payload, ordinal=i,
            )
        )
    step = st.one_of(st.sampled_from([0, lam, lam + 1]), st.integers(0, lam + 1))
    rows = draw(
        st.lists(
            st.tuples(st.integers(0, len(msgs) - 1), step), min_size=1, max_size=16,
            unique=True,
        )
    )
    return [msgs[i] for i, _ in rows], [k for _, k in rows], draw(st.booleans())


@given(hop_rows())
@settings(max_examples=300, deadline=None)
def test_hop_columns_equal_the_row_by_row_loop(case):
    msgs, steps, even = case
    delivery = HopDelivery(HopRows.of(msgs, steps), {}, {}, total=0)
    out_plane = HopPlane()
    kind, point, fincls, srank, out_row, recs = hop_columns(
        delivery, even, out_plane.intern_rows
    )
    want, forwarded = classify_row_by_row(msgs, steps, even)
    assert kind.tolist() == want[0]
    assert point.tolist() == want[1]
    assert fincls.tolist() == want[2]
    assert srank.tolist() == want[3]
    assert recs == want[4]
    # The forwarded hops are the next plane's rows 0 … F-1, in row order.
    assert out_row.tolist() == [
        next((n for n, (row, _) in enumerate(forwarded) if row == i), -1)
        for i in range(len(msgs))
    ]
    table = out_plane.pack()[0]
    assert [(id(m), k) for m, k in zip(table.msgs, table.steps.tolist())] == [
        (id(msgs[i]), k) for i, k in forwarded
    ]
    assert table.keys.tolist() == [msgs[i].key for i, _ in forwarded]


# ----------------------------------------------------------------------
# A whole plan vs the protocol text
# ----------------------------------------------------------------------


def routed(i, target, steps, rank=None, payload=None):
    return RoutedMessage(
        msg_id=("t", i),
        origin=99,
        target=target,
        trajectory=(0.0,) * (steps - 1) + (target,),
        start_round=0,
        sample_rank=rank,
        payload=payload if payload is not None else ("probe", i),
        ordinal=i,
    )


@st.composite
def plans(draw):
    even = draw(st.booleans())
    rho = draw(st.sampled_from([0.05, 0.15, 0.3, 0.49, 0.5]))
    ring = draw(st.lists(position, min_size=1, max_size=30))
    holders = []
    for h in range(draw(st.integers(1, 4))):
        holders.append(
            (
                draw(position),
                draw(st.lists(st.booleans(), min_size=len(ring), max_size=len(ring))),
                draw(st.lists(st.booleans(), min_size=len(ring), max_size=len(ring))),
                draw(st.booleans()),  # private index?
            )
        )
    rows = []
    for i in range(draw(st.integers(1, 12))):
        final = draw(st.booleans())
        rank = draw(st.one_of(st.none(), st.integers(0, 6))) if final else None
        receivers = draw(st.lists(st.booleans(), min_size=len(holders), max_size=len(holders)))
        rows.append((final, draw(position), rank, receivers))
    return even, rho, ring, holders, rows


@given(plans())
@settings(max_examples=150, deadline=None)
def test_plan_equals_the_protocol_text_row_by_row(case):
    even, rho, ring, holders, rows = case
    r = 2
    cache = EpochCache(RngService(0).position_hash())
    ring_pos = {100 + i: p for i, p in enumerate(ring)}

    def index_of(mask, epoch, private, extra):
        table = {v: ring_pos[v] for v, keep in zip(ring_pos, mask) if keep}
        table.update(extra)
        if private:
            return PositionIndex(table)
        return cache.index_for(epoch, frozenset(table), table)

    entries_of = {}
    for h, (pos, fin_mask, mid_mask, private) in enumerate(holders):
        me = h + 1
        fin_index = index_of(fin_mask, 5, private, {me: pos})
        # Odd rounds hand over in another epoch's index (no self in it).
        mid_index = fin_index if even else index_of(mid_mask, 6, private, {})
        entries_of[me] = (mid_index, fin_index, pos)

    # One shared delivery: a mid row is a step short of a 3-point route's
    # middle; a final is due (even: after this round's step).
    plane = HopPlane()
    k = 0 if even else 1
    sent = []
    for i, (final, point, rank, receivers) in enumerate(rows):
        dsts = [h + 1 for h, yes in enumerate(receivers) if yes]
        if not dsts:
            continue
        if final:
            payload = ("token", 7) if rank is not None else None
            msg = routed(i, point, 2, rank=rank, payload=payload)
        else:
            msg = RoutedMessage(("t", i), 99, 0.0, (0.0, point, 0.0, 0.0), 0, ordinal=i)
        plane.send(99, msg, k, dsts)
        sent.append((msg, final, dsts))
    frozen = plane.close_round()
    if frozen is None:
        return
    delivery = frozen.deliver(set(entries_of))
    out_plane = HopPlane()
    order = sorted(delivery.rows)
    plan = HopPlan(
        delivery,
        [
            (delivery.rows[v], entries_of[v][0], entries_of[v][1], v, entries_of[v][2])
            for v in order
        ],
        even=even,
        rho=rho,
        r=r,
        intern=out_plane.intern_rows,
        reference=cache.reference,
    )
    draws = np.random.default_rng(1)
    for i in range(len(order)):
        u = plan.nodes[i][2]
        u[:] = draws.random(u.size)
    plan.close()

    out_msgs = out_plane.pack()[0].msgs
    for i, v in enumerate(order):
        mid_index, fin_index, pos = entries_of[v]
        join_recs, events, u, out_rows, lens, flat = plan.nodes[i]
        assert join_recs == []
        want_events, want_sends, used = [], [], 0
        for msg, final, dsts in sent:
            if v not in dsts:
                continue
            row = delivery.msgs.index(msg)
            if final:
                window = fin_index.ids_within_list(msg.target, rho)
                rank = fin_index.rank_within(msg.target, rho, v)
                assert rank == (window.index(v) if v in window else None)
                gap = abs(pos - msg.target)
                inside = min(gap, 1.0 - gap) <= rho
                ranked = msg.sample_rank is not None
                if (inside or not even) and (not ranked or rank == msg.sample_rank):
                    want_events.append((row, used))
                if even and [w for w in window if w != v]:
                    want_sends.append((msg, [w for w in window if w != v]))
            else:
                window = mid_index.ids_within_list(msg.trajectory[1], rho)
                if window:
                    picks = [window[int(x * len(window))] for x in u[used:used + r]]
                    want_sends.append((msg, picks))
                    used += r
        assert events == want_events
        assert u.size == used
        got, lo = [], 0
        for row, n in zip(out_rows.tolist(), lens.tolist()):
            got.append((out_msgs[row], flat[lo:lo + n].tolist()))
            lo += n
        assert lo == flat.size
        assert [(id(m), d) for m, d in got] == [(id(m), d) for m, d in want_sends]
