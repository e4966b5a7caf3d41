"""Array filing of forwarded hops vs a scalar reference.

The forwarding kernel (``repro.core.forwarding.HopPlan``) computes every
node's windows, ranks and final multicasts in one array pass and each node
files its share as one chunk of int32 arrays (``NodeContext.file_hops``).
The reference here is the protocol text, one row at a time: a mid-route row
goes to ``r`` uniform picks from the next swarm's member window, a final row
to the whole target window minus self, rng drawn in row order.  Both sides
start from the same per-node stream, so a draw out of order shows up as
different picks.  ``TestBatch`` holds the staged round to it for many nodes
at once: a batch of N equals N batches of one equals the reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ProtocolParams
from repro.core.dht import DhtResponse, DHTNode
from repro.core.messages import CreateBatch, JoinBatch, JoinRecord
from repro.core.node import MaintenanceNode
from repro.overlay.positions import PositionIndex
from repro.routing.messages import RoutedMessage
from repro.sim.engine import NodeContext
from repro.sim.hopplane import HopPlane
from repro.sim.network import Network

from .nodectx import make_ctx, make_services

ME = 1
#: 60 neighbours evenly round the ring: every window has members, windows
#: near 0.0 wrap.
RING = {i: (i - 2) / 60 for i in range(2, 62)}


def routed(i, trajectory, rank=None, payload=None) -> RoutedMessage:
    return RoutedMessage(
        msg_id=("t", i),
        origin=99,
        target=trajectory[-1],
        trajectory=tuple(trajectory),
        start_round=0,
        sample_rank=rank,
        payload=payload if payload is not None else ("probe", i),
        ordinal=i,
    )


def mid(i, point):
    """Mid-route at either parity: arriving with step 0 at an even round it
    is forwarded to ``S(point)``; arriving with step 1 at an odd round it is
    handed over within ``S(point)``."""
    return routed(i, (0.0, point, 0.0, 0.0))


def final(i, target, **kw):
    """At an even round (arriving with step 0) the next step is the last."""
    return routed(i, (0.0, target), **kw)


def reference(node, rng, hops, even, hop_index=None):
    """``[((message, step), receivers)]`` in send order, one row at a time.

    Finals are ranked (and, at even rounds, multicast) in the node's current
    neighbourhood; mid rows pick from ``hop_index`` (default: the same).
    """
    index = node._d_members()
    if hop_index is None:
        hop_index = index
    rho = node._swarm_radius
    r = node._r
    sends = []
    for msg, step in hops:
        out_step = step + 1 if even else step
        is_final = out_step == msg.final_step if even else step >= msg.final_step
        if is_final:
            # Delivery first: a rank-matching token draws once (no slot is
            # filled, so the token is kept whatever the coin says).
            window = index.ids_within_list(msg.target, rho)
            if msg.sample_rank is not None and node.id in window:
                if window.index(node.id) == msg.sample_rank:
                    rng.random()
            receivers = [w for w in window if w != node.id] if even else []
        else:
            window = hop_index.ids_within_list(msg.trajectory[out_step], rho)
            receivers = [
                window[int(rng.random() * len(window))] for _ in range(r) if window
            ]
        if receivers:
            sends.append(((msg, out_step), receivers))
    return sends


def run(params, pos, neighbors, hops, t):
    """Drive one round; returns ``(filed, expected)`` in reference shape."""
    services = make_services(params)
    node = MaintenanceNode(ME, services)
    node.prime(epoch=t // 2, pos=pos, neighbors=neighbors)
    ctx, net = make_ctx(node, services, t, [], hops=[(2, m, k) for m, k in hops])
    node.on_round(ctx)
    frozen = net.plane.close_round()
    expected = reference(node, services.rng.node_stream(ME), hops, even=t % 2 == 0)
    if frozen is None:
        return [], expected
    assert set(frozen.srcs.tolist()) <= {ME}
    assert frozen.srcs.size == frozen.send_rows.size == frozen.lens.size
    assert frozen.lens.sum() == frozen.flat.size
    assert all(col.dtype == "int32" for col in (frozen.send_rows, frozen.lens, frozen.flat))
    steps = frozen.steps.tolist()
    flat = frozen.flat.tolist()
    filed, lo = [], 0
    for row, n in zip(frozen.send_rows.tolist(), frozen.lens.tolist()):
        filed.append(((frozen.msgs[row], steps[row]), flat[lo:lo + n]))
        lo += n
    return filed, expected


def same(filed, expected):
    assert [(id(m), k) for (m, k), _ in filed] == [(id(m), k) for (m, k), _ in expected]
    assert [dsts for _, dsts in filed] == [dsts for _, dsts in expected]


@pytest.fixture
def params() -> ProtocolParams:
    return ProtocolParams(n=48, c=1.2, r=2, delta=3, tau=6, seed=31)


class TestEvenFiling:
    def test_wrapped_and_plain_windows_self_inside_and_outside(self, params):
        hops = [
            (mid(0, 0.99), 0),  # wrapped mid window
            (final(1, 0.5), 0),  # self inside a plain window
            (mid(2, 0.3), 0),
            (final(3, 0.01), 0),  # wrapped, self outside
            (final(4, 0.25), 0),  # plain, self outside
            (mid(5, 0.02), 0),
        ]
        filed, expected = run(params, 0.5, RING, hops, t=10)
        same(filed, expected)
        assert len(filed) == 6
        assert ME not in filed[1][1] and len(filed[1][1]) == len(filed[4][1])

    @pytest.mark.parametrize("pos", [0.0, 0.995, 0.14])
    def test_self_inside_a_wrapped_window(self, params, pos):
        # Self sits after the wrap (pos 0.0), before it (0.995), or at the
        # window's far end: its rank is dropped from the right place.
        hops = [(final(0, 0.99), 0), (mid(1, 0.6), 0), (final(2, 0.005), 0)]
        filed, expected = run(params, pos, RING, hops, t=10)
        same(filed, expected)
        assert all(ME not in dsts for _, dsts in filed)

    def test_full_ring(self):
        params = ProtocolParams(n=8, c=1.2, r=2, delta=3, tau=6, seed=7)
        assert params.swarm_radius >= 0.5
        neighbors = {v: v / 10 for v in range(2, 9)}
        hops = [(mid(0, 0.9), 0), (final(1, 0.3), 0), (mid(2, 0.1), 0), (final(3, 0.95), 0)]
        filed, expected = run(params, 0.55, neighbors, hops, t=10)
        same(filed, expected)
        # every final goes to every other member, in ring order from slot 0
        assert sorted(filed[1][1]) == sorted(neighbors)

    def test_empty_windows_and_self_alone_file_nothing(self, params):
        neighbors = {2: 0.66, 3: 0.9}
        hops = [
            (mid(0, 0.2), 0),  # nobody near 0.2: no picks, no rng
            (final(1, 0.2), 0),  # empty target window
            (final(2, 0.4), 0),  # only self inside
            (mid(3, 0.5), 0),  # only self inside: both picks are self
            (final(4, 0.6), 0),  # self and node 2
        ]
        filed, expected = run(params, 0.5, neighbors, hops, t=10)
        same(filed, expected)
        assert [dsts for _, dsts in filed] == [[ME, ME], [2]]

    def test_all_windows_empty(self, params):
        hops = [(mid(0, 0.2), 0), (final(1, 0.2), 0)]
        filed, expected = run(params, 0.5, {2: 0.52}, hops, t=10)
        assert filed == expected == []

    def test_rank_matching_token_draws_between_two_mid_runs(self, params):
        services = make_services(params)
        probe = MaintenanceNode(ME, services)
        probe.prime(epoch=5, pos=0.5, neighbors=RING)
        rank = probe._d_members().ids_within_list(0.5, params.swarm_radius).index(ME)
        token = final(9, 0.5, rank=rank, payload=("token", 77))
        miss = final(8, 0.5, rank=rank + 1, payload=("token", 78))
        hops = [
            (mid(0, 0.3), 0),
            (mid(1, 0.99), 0),
            (miss, 0),  # wrong rank: no draw
            (token, 0),  # draws once, after the two mids before it
            (mid(2, 0.7), 0),
            (mid(3, 0.01), 0),
        ]
        filed, expected = run(params, 0.5, RING, hops, t=10)
        same(filed, expected)
        # The draw happened: skipping it would shift the later picks.
        _, without = run(params, 0.5, RING, [h for h in hops if h[0] is not token], t=10)
        assert [d for _, d in filed][-2:] != [d for _, d in without][-2:]


class TestOddFiling:
    def test_handover_picks_in_row_order(self, params):
        hops = [
            (mid(0, 0.99), 1),  # wrapped handover window
            (final(1, 0.5), 1),  # odd final: delivered, files nothing
            (mid(2, 0.3), 1),
            (mid(3, 0.02), 1),
        ]
        filed, expected = run(params, 0.5, RING, hops, t=11)
        same(filed, expected)
        assert [len(dsts) for _, dsts in filed] == [params.r] * 3

    def test_rank_matching_token_draws_between_two_mid_runs(self, params):
        services = make_services(params)
        probe = MaintenanceNode(ME, services)
        probe.prime(epoch=5, pos=0.5, neighbors=RING)
        rank = probe._d_members().ids_within_list(0.5, params.swarm_radius).index(ME)
        token = final(9, 0.5, rank=rank, payload=("token", 77))
        hops = [(mid(0, 0.3), 1), (token, 1), (mid(1, 0.7), 1), (mid(2, 0.1), 1)]
        filed, expected = run(params, 0.5, RING, hops, t=11)
        same(filed, expected)

    def test_empty_handover_windows_file_nothing(self, params):
        hops = [(mid(0, 0.2), 1), (mid(1, 0.5), 1)]
        filed, expected = run(params, 0.5, {2: 0.52}, hops, t=11)
        same(filed, expected)
        assert len(filed) == 1

    def test_full_ring(self):
        params = ProtocolParams(n=8, c=1.2, r=2, delta=3, tau=6, seed=7)
        neighbors = {v: v / 10 for v in range(2, 9)}
        hops = [(mid(0, 0.9), 1), (mid(1, 0.1), 1)]
        filed, expected = run(params, 0.55, neighbors, hops, t=11)
        same(filed, expected)


# ----------------------------------------------------------------------
# The staged round over many nodes
# ----------------------------------------------------------------------

#: Holder id -> (ring position, neighbour ids out of ``RING``).  Six
#: different neighbourhoods: the whole ring, every other id from a position
#: on the wrap, an arc across the wrap, two far-away ids (most windows
#: empty), the whole ring again but on a private index, the odd ids.
H1, H2, H3, H4, H5, H6, H7 = range(71, 78)  # clear of the RING ids
HOLDERS = {
    H1: (0.5, list(RING)),
    H2: (0.0, [i for i in RING if i % 2 == 0]),
    H3: (0.995, [i for i in RING if RING[i] >= 0.85 or RING[i] <= 0.15]),
    H4: (0.25, [56, 59]),
    H5: (0.45, list(RING)),
    H6: (0.75, [i for i in RING if i % 2 == 1]),
    H7: (0.4, list(RING)),
}
PRIVATE = H5  # neighbourhood index built outside the epoch cache
STALLED = H7  # receives hops, takes no part in the round
NODE_ORDER = [v for v in sorted(HOLDERS) if v != STALLED]


def build_nodes(params, epoch):
    services = make_services(params)
    nodes = {}
    for v, (pos, nbrs) in HOLDERS.items():
        node = DHTNode(v, services)
        node.prime(epoch=epoch, pos=pos, neighbors={w: RING[w] for w in nbrs})
        if v == PRIVATE:
            node._d_index = PositionIndex({**node.d_nbrs, v: pos})
        nodes[v] = node
    return services, nodes


def rank_of(params, v, point, epoch):
    _, nodes = build_nodes(params, epoch)
    window = nodes[v]._d_members().ids_within_list(point, params.swarm_radius)
    return window.index(v)


def batch_hops(params, t):
    """``[(message, step, receivers)]`` — one shared delivery, arrival order."""
    even = t % 2 == 0
    k = 0 if even else 1
    rank1 = rank_of(params, H1, 0.5, t // 2)
    token = final(13, 0.5, rank=rank1, payload=("token", 77))
    miss = final(12, 0.5, rank=rank1 + 1, payload=("token", 78))
    put = final(20, 0.5, payload=("put", "k", "v"))
    get = final(21, 0.5, payload=("get", "k", ("rid", 0), H2))
    return [
        (mid(0, 0.99), k, [H1, H2, H3, H5, H6, H7]),  # wrapped window
        (final(1, 0.5), k, [H1, H2, H5, H6, H7]),  # probe: H1, H5 are inside
        (mid(2, 0.3), k, [H1, H2, H3, H4, H5, H6, H7]),  # H4: self alone
        (miss, k, [H1, H5]),  # wrong rank at H1: no draw
        (token, k, [H1, H5]),  # draws once at H1, between mid rows
        (mid(5, 0.7), k, [H1, H2, H5, H6]),
        (final(6, 0.01), k, [H2, H3]),  # wrapped final window
        (put, k, [H1, H5, H6]),  # stored where the holder is inside (H1, H5)
        (get, k, [H1, H5, H6]),  # answered from that store, to H2
        (mid(9, 0.02), k, [H2, H3, H4]),
        (final(10, 0.2), k, [H4]),  # only self inside: files nothing
        (mid(11, 0.6), k, [H4]),  # empty window
    ]


def handover_batches(t):
    """Odd rounds: H1 and H2 learn next-overlay records (so they hand
    over in ``H``, an index of the *other* epoch, and matchmake)."""
    if t % 2 == 0:
        return {}
    e_next = t // 2 + 1
    recs = tuple(JoinRecord(i, (RING[i] + 0.003) % 1.0, e_next) for i in range(10, 50))
    return {H1: [(0, JoinBatch(recs))], H2: [(0, JoinBatch(recs[::2]))]}


def drive(params, t, hops, batched):
    """One staged round; returns what it left behind, per holder."""
    services, nodes = build_nodes(params, t // 2)
    plane = HopPlane()
    for msg, step, receivers in hops:
        plane.send(99, msg, step, receivers)
    delivery = plane.close_round().deliver(set(nodes))
    net = Network()
    inboxes = handover_batches(t)
    batch = [
        (
            nodes[v],
            NodeContext(
                node_id=v,
                t=t,
                inbox=list(inboxes.get(v, [])),
                rng=services.rng.node_stream(v),
                params=params,
                joined_round=0,
                network=net,
                hops=delivery.rows.get(v),
                hop_delivery=delivery,
            ),
        )
        for v in NODE_ORDER
    ]
    if batched:
        assert DHTNode.on_rounds(batch) == ()
    else:
        for node, ctx in batch:
            node.on_round(ctx)
    objects = list(zip(net._srcs, net._dsts, net._msgs))
    frozen = net.plane.close_round()
    steps = frozen.steps.tolist()
    filed = {v: [] for v in nodes}
    lo = 0
    for src, row, n in zip(
        frozen.srcs.tolist(), frozen.send_rows.tolist(), frozen.lens.tolist()
    ):
        filed[src].append(((frozen.msgs[row], steps[row]), frozen.flat[lo:lo + n].tolist()))
        lo += n
    state = {
        v: (
            ctx.rng.bit_generator.state,
            node.tokens,
            node.delivered,
            node.store,
            node.sampled_tokens_seen,
        )
        for node, ctx in batch
        for v in [node.id]
    }
    return nodes, filed, objects, state


def same_object_lane(a, b):
    assert [(s, d, type(m)) for s, d, m in a] == [(s, d, type(m)) for s, d, m in b]
    for (_, _, x), (_, _, y) in zip(a, b):
        if isinstance(x, CreateBatch):
            assert x.epoch == y.epoch
            assert np.array_equal(x.nodes, y.nodes) and np.array_equal(x.poses, y.poses)
        else:
            assert x == y


class TestBatch:
    @pytest.mark.parametrize("band_pairs", [None, 4])  # one band / a few
    @pytest.mark.parametrize("t", [10, 11])
    def test_batch_equals_batches_of_one_equals_reference(
        self, params, t, band_pairs, monkeypatch
    ):
        if band_pairs is not None:
            monkeypatch.setattr("repro.core.node._BAND_PAIRS", band_pairs)
        even = t % 2 == 0
        hops = batch_hops(params, t)
        nodes, filed, objects, state = drive(params, t, hops, batched=True)
        _, filed1, objects1, state1 = drive(params, t, hops, batched=False)
        for v in HOLDERS:
            same(filed[v], filed1[v])
        same_object_lane(objects, objects1)
        assert state == state1

        # ... and the scalar reference, holder by holder.  Launches (odd
        # rounds) follow a sender's forwarded chunk; the reference covers
        # the forwarded part.
        services, fresh = build_nodes(params, t // 2)
        inboxes = handover_batches(t)
        for v in NODE_ORDER:
            mine = [(m, k) for m, k, receivers in hops if v in receivers]
            hop_index = None
            if v in inboxes:
                hop_index = PositionIndex(
                    {r.node: r.pos for r in inboxes[v][0][1].records}
                )
            expected = reference(
                fresh[v], services.rng.node_stream(v), mine, even, hop_index
            )
            same(filed[v][:len(expected)], expected)
            assert all(k == 0 for (_, k), _ in filed[v][len(expected):])
        assert filed[STALLED] == [] and STALLED not in state

        # What the scenario is there to exercise did happen.
        assert nodes[H1].sampled_tokens_seen == 1 and nodes[H5].sampled_tokens_seen == 0
        assert [p for p, _ in nodes[H1].delivered] == [("probe", 1)]
        assert "k" in nodes[H1].store and "k" in nodes[H5].store
        answers = [(s, d) for s, d, m in objects if isinstance(m, DhtResponse)]
        assert all(m.found for _, _, m in objects if isinstance(m, DhtResponse))
        if even:
            assert answers == [(H1, H2), (H5, H2)] and "k" not in nodes[H6].store
            # H4: self alone, then the wrapped window; the empty one is unfiled
            assert len(filed[H4]) == 2 and filed[H4][0][1] == [H4, H4]
        else:
            assert answers == [(H1, H2), (H5, H2), (H6, H2)]
            assert any(isinstance(m, CreateBatch) for _, _, m in objects)

    def test_stage_timings_are_reported_with_a_clock(self, params):
        ticks = iter(range(1000))
        services, nodes = build_nodes(params, 5)
        ctx, _ = make_ctx(nodes[H1], services, 10, [], hops=[(2, mid(0, 0.3), 0)])
        parts = DHTNode.on_rounds([(nodes[H1], ctx)], clock=lambda: float(next(ticks)))
        assert len(parts) == 3 and all(p > 0 for p in parts)
