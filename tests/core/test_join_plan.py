"""The rebroadcast kernel against the protocol text, holder by holder.

The oracle is the per-node rule of Listing 3 line 10 as docs/PROTOCOL.md
states it: drop repeated ``(node, epoch)`` keys keeping the first arrival;
for each record take scalar ``ids_within_list`` over its three
``required_neighbor_arcs`` in the holder's ``D``, ``dict.fromkeys`` over
them, the holder left out; receivers in first-touch order, each with its
records in arrival order.  :class:`JoinPlan` is held to it for indexes
carved from a live epoch slab, private ones and pruned-epoch ones, as a
batch of N and as N batches of one; ``TestNode`` holds a whole staged round
to it through the object lane, and checks that equal sequences share one
``JoinBatch`` without changing what a receiver stores.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ProtocolParams
from repro.core.joinplan import JoinPlan
from repro.core.messages import JoinBatch, JoinRecord
from repro.core.node import MaintenanceNode
from repro.overlay.lds import required_neighbor_arcs
from repro.overlay.positions import PositionIndex
from repro.routing.messages import RoutedMessage
from repro.sim.engine import NodeContext
from repro.sim.epochs import EpochCache
from repro.sim.hopplane import HopPlane
from repro.sim.network import Network
from repro.util.rngs import RngService

from ..sim.hops import file_hops
from .nodectx import make_services

TOP = 1.0 - 2.0**-53  # the largest position below 1


def oracle(index, me, join_recs, radii):
    """``[(receiver, records)]`` in send order, by the protocol text."""
    kept = {}
    for rec in join_recs:
        kept.setdefault((rec.node, rec.epoch), rec)
    sends: dict[int, list[JoinRecord]] = {}
    for rec in kept.values():
        arcs = required_neighbor_arcs(rec.pos, radii)
        window = [w for arc in arcs for w in index.ids_within_list(arc.center, arc.radius)]
        for w in dict.fromkeys(window):
            if w != me:
                sends.setdefault(w, []).append(rec)
    return [(w, tuple(recs)) for w, recs in sends.items()]


def sends_of(share, join_recs):
    """A :data:`JoinShare` expanded to ``[(receiver, records)]``."""
    receivers, seq_of, seq_off, seq_rec = share
    assert all(col.dtype == np.int32 for col in share)
    seqs = [
        tuple(join_recs[j] for j in seq_rec[lo:hi].tolist())
        for lo, hi in zip(seq_off.tolist(), seq_off[1:].tolist())
    ]
    assert len(set(seqs)) == len(seqs)  # one entry per distinct sequence
    return [(w, seqs[s]) for w, s in zip(receivers.tolist(), seq_of.tolist())]


def check(entries, radii, cache):
    """Batch of N == N batches of one == the oracle, holder by holder."""
    kw = dict(
        list_radius=radii.list_radius,
        db_radius=radii.debruijn_radius,
        reference=cache.reference,
    )
    batch = JoinPlan(entries, **kw)
    for (recs, index, me), share in zip(entries, batch.nodes):
        want = oracle(index, me, recs, radii)
        assert sends_of(share, recs) == want
        assert sends_of(JoinPlan([(recs, index, me)], **kw).nodes[0], recs) == want


def radii(list_radius, db_radius):
    return SimpleNamespace(list_radius=list_radius, debruijn_radius=db_radius)


#: 60 members evenly round the ring plus one at the top position.
RING = {i: (i - 2) / 60 for i in range(2, 62)} | {62: TOP}
E = 6  # the records' epoch


def carved(cache, members, epoch=5):
    table = {v: RING[v] for v in members}
    return cache.index_for(epoch, frozenset(table), table)


class TestHandCases:
    @pytest.fixture
    def cache(self):
        return EpochCache(RngService(0).position_hash())

    def test_the_protocol_cases_in_one_band(self, cache):
        everyone = list(RING)
        recs = [
            JoinRecord(10, 0.15, E),
            JoinRecord(11, 0.0001, E),  # arcs wrap below 0
            JoinRecord(10, 0.15, E),  # same key from a second sponsor
            JoinRecord(12, TOP, E),  # (p + 1) / 2 rounds to 1.0: wraps to 0.0
            JoinRecord(13, 0.7, E + 1),  # a delayed hop: next epoch's record
            JoinRecord(13, 0.31, E),
        ]
        private = PositionIndex({v: RING[v] for v in everyone[::3]})
        entries = [
            (recs, carved(cache, everyone), 30),  # holder inside its D
            (recs[::-1], carved(cache, [v for v in everyone if v != 40]), 40),  # absent
            (recs[1:4], private, 8),  # no slab: its own
            (recs[:2], carved(cache, [20]), 20),  # nobody but itself
            (recs, carved(cache, everyone[1::2]), 5),
        ]
        check(entries, radii(0.3, 0.225), cache)
        batch = JoinPlan(
            entries, list_radius=0.3, db_radius=0.225, reference=cache.reference
        )
        assert batch.nodes[3][0].size == 0
        assert 40 not in batch.nodes[1][0].tolist() and 30 not in batch.nodes[0][0].tolist()

    def test_a_pruned_epoch_index_is_its_own_slab(self, cache):
        old = carved(cache, list(RING)[::2], epoch=3)
        live = carved(cache, list(RING), epoch=5)
        cache.begin_round(10)  # epochs below 5 are pruned
        assert cache.reference(old) is None and cache.reference(live) is not None
        recs = [JoinRecord(v, (RING[v] + 0.004) % 1.0, E) for v in (3, 30, 61, 62)]
        check([(recs, old, 4), (recs, live, 30), (recs[:1], old, 10)], radii(0.2, 0.15), cache)

    @pytest.mark.parametrize("list_r, db_r", [(0.9, 0.675), (0.6, 0.45), (0.05, 0.5)])
    def test_full_ring_radii(self, cache, list_r, db_r):
        members = [2, 17, 33, 50, 62]
        recs = [JoinRecord(9, 0.42, E), JoinRecord(10, 0.0, E), JoinRecord(11, TOP, E)]
        check([(recs, carved(cache, members), 33), (recs, carved(cache, members[:3]), 2)],
              radii(list_r, db_r), cache)

    def test_more_records_than_a_bit_word(self, cache):
        """130 distinct records at one holder: three 64-bit words per set."""
        recs = [JoinRecord(100 + i, (i * 0.377) % 1.0, E) for i in range(130)]
        recs += recs[:5]  # repeats: dropped
        index = carved(cache, list(RING))
        check([(recs, index, 30), (recs[60:], index, 31)], radii(0.05, 0.03), cache)
        # Receiver 1 gets record 0 only, receiver 2 record 64 only: equal
        # low words, different sets.
        far = [JoinRecord(200 + i, 0.6, E) for i in range(63)]
        recs = [JoinRecord(1, 0.1, E), *far, JoinRecord(2, 0.9, E)]
        index = PositionIndex({30: 0.45, 1: 0.1, 2: 0.9})
        check([(recs, index, 30)], radii(0.01, 0.005), cache)


position = st.one_of(
    st.sampled_from([0.0, TOP, 0.5, 0.25, 0.75]),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False),
)


@st.composite
def bands(draw):
    ring = draw(st.lists(position, min_size=1, max_size=30))
    ids = [100 + i for i in range(len(ring))]
    recs = [
        JoinRecord(draw(st.integers(0, 6)), draw(position), draw(st.sampled_from([E, E + 1])))
        for _ in range(draw(st.integers(1, 12)))
    ]
    holders = []
    for _ in range(draw(st.integers(1, 5))):
        mask = draw(st.lists(st.booleans(), min_size=len(ring), max_size=len(ring)))
        me = draw(st.sampled_from(ids + [99]))
        mine = draw(st.lists(st.sampled_from(recs), min_size=1, max_size=10))
        holders.append((mask, me, mine, draw(st.booleans())))
    rad = draw(st.sampled_from([0.03, 0.1, 0.2, 0.3, 0.49, 0.5, 0.8]))
    db = draw(st.sampled_from([0.02, 0.1, 0.25, 0.49, 0.5]))
    return ring, ids, holders, radii(rad, db)


@given(bands())
@settings(max_examples=200, deadline=None)
def test_plan_equals_the_protocol_text(case):
    ring, ids, holders, rad = case
    cache = EpochCache(RngService(0).position_hash())
    table = dict(zip(ids, ring))
    cache.index_for(5, frozenset(table), table)  # one slab over the whole ring
    entries = []
    for mask, me, mine, private in holders:
        sub = {v: p for (v, p), keep in zip(table.items(), mask) if keep}
        index = PositionIndex(sub) if private else cache.index_for(5, frozenset(sub), sub)
        entries.append((mine, index, me))
    check(entries, rad, cache)


# ----------------------------------------------------------------------
# A whole staged round
# ----------------------------------------------------------------------

H1, H2, H3, H4, H5 = range(71, 76)
#: holder -> (position, neighbour ids out of ``RING``)
HOLDERS = {
    H1: (0.5, list(RING)),
    H2: (0.0, [v for v in RING if v % 2 == 0]),
    H3: (TOP, [v for v in RING if RING[v] >= 0.8 or RING[v] <= 0.2]),
    H4: (0.3, []),  # nobody to send to
    H5: (0.45, list(RING)),  # private index
}


def join_hop(rec, sponsor):
    """A JOIN whose last forwarding step is due: at an even round, arriving
    with step 0, it is rebroadcast."""
    return RoutedMessage(
        msg_id=("join", rec.node, rec.epoch, sponsor),
        origin=sponsor,
        target=rec.pos,
        trajectory=(0.0, rec.pos),
        start_round=0,
        payload=("join", rec),
        ordinal=rec.node,
    )


def arrivals():
    """``[(message, receivers)]`` — one shared delivery, arrival order."""
    a = JoinRecord(10, 0.15, E)
    return [
        (join_hop(a, 1), [H1, H2, H4, H5]),
        (join_hop(JoinRecord(11, 0.0001, E), 1), [H1, H2, H3, H5]),
        (join_hop(a, 2), [H1, H3, H5]),  # same record, second sponsor
        (join_hop(JoinRecord(12, TOP, E), 2), [H2, H3, H4]),
        (join_hop(JoinRecord(13, 0.7, E + 1), 3), [H1, H3, H5]),
        (join_hop(JoinRecord(14, 0.52, E), 3), [H1, H5]),
    ]


def drive(params, t, batched):
    services = make_services(params)
    nodes = {}
    for v, (pos, nbrs) in HOLDERS.items():
        node = MaintenanceNode(v, services)
        node.prime(epoch=t // 2, pos=pos, neighbors={w: RING[w] for w in nbrs})
        if v == H5:
            node._d_index = PositionIndex({**node.d_nbrs, v: pos})
        nodes[v] = node
    plane = HopPlane()
    file_hops(plane, [(99, msg, 0, receivers) for msg, receivers in arrivals()])
    delivery = plane.close_round().deliver(set(nodes))
    net = Network()
    batch = [
        (
            nodes[v],
            NodeContext(v, t, [], services.rng.node_stream(v), params, 0, net,
                        hops=delivery.rows.get(v), hop_delivery=delivery),
        )
        for v in sorted(nodes)
    ]
    if batched:
        MaintenanceNode.on_rounds(batch)
    else:
        for node, ctx in batch:
            node.on_round(ctx)
    return nodes, list(zip(net._srcs, net._dsts, net._msgs))


class TestNode:
    @pytest.fixture
    def params(self):
        return ProtocolParams(n=48, c=1.2, r=2, delta=3, tau=6, seed=31)

    def test_batch_equals_batches_of_one_equals_the_text(self, params):
        t = 10
        nodes, sent = drive(params, t, batched=True)
        _, sent1 = drive(params, t, batched=False)
        assert [(s, d, m.records) for s, d, m in sent] == [
            (s, d, m.records) for s, d, m in sent1
        ]
        assert all(isinstance(m, JoinBatch) for _, _, m in sent)
        arrived = {v: [] for v in nodes}
        for msg, receivers in arrivals():
            for v in receivers:
                arrived[v].append(msg.payload[1])
        for v, node in nodes.items():
            got = [(d, m.records) for s, d, m in sent if s == v]
            assert got == oracle(node._d_members(), v, arrived[v], params)
        assert not [d for s, d, _ in sent if s == H4]
        assert {s for s, _, _ in sent} == {H1, H2, H3, H5}

    def test_equal_sequences_share_one_batch(self, params):
        t = 10
        _, sent = drive(params, t, batched=True)
        for v in HOLDERS:
            objects: dict[tuple, set[int]] = {}
            for s, _, m in sent:
                if s == v:
                    objects.setdefault(m.records, set()).add(id(m))
            assert all(len(ids) == 1 for ids in objects.values())
        assert len({id(m) for _, _, m in sent}) < len(sent)  # sharing happened

        # What a receiver stores is what unshared batches give it.
        services = make_services(params)
        receivers = dict.fromkeys(d for _, d, _ in sent)
        for w in receivers:
            inbox = [(s, m) for s, d, m in sent if d == w]
            stored = []
            for batches in (inbox, [(s, JoinBatch(tuple(m.records))) for s, m in inbox]):
                node = MaintenanceNode(w, services)
                ctx = NodeContext(w, t + 1, batches, services.rng.node_stream(w),
                                  params, 0, Network())
                node._prepare(ctx)
                stored.append(list(node.h_records.items()))
            assert stored[0] == stored[1] and stored[0]
