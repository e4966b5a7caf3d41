"""Array filing of forwarded hops vs a scalar reference.

``_even_hops_plane`` / ``_odd_hops_plane`` file a node's forwarded hops as
one chunk of int32 arrays (``NodeContext.file_hops``).  The reference here is
the protocol text, one row at a time: a mid-route row goes to ``r`` uniform
picks from the next swarm's member window, a final row to the whole target
window minus self, rng drawn in row order.  Both sides start from the same
per-node stream, so a draw out of order shows up as different picks.
"""

from __future__ import annotations

import pytest

from repro.config import ProtocolParams
from repro.core.node import MaintenanceNode
from repro.routing.messages import RoutedMessage

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
    )


def mid(i, point):
    """Mid-route at either parity: arriving with step 0 at an even round it
    is forwarded to ``S(point)``; arriving with step 1 at an odd round it is
    handed over within ``S(point)``."""
    return routed(i, (0.0, point, 0.0, 0.0))


def final(i, target, **kw):
    """At an even round (arriving with step 0) the next step is the last."""
    return routed(i, (0.0, target), **kw)


def reference(node, rng, hops, even):
    """``[((message, step), receivers)]`` in send order, one row at a time."""
    index = node._d_members()
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
            window = index.ids_within_list(msg.trajectory[out_step], rho)
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
