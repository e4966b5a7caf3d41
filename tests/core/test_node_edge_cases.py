"""Edge-case tests for the maintenance node (defensive behaviour)."""

from __future__ import annotations

import pytest

from repro.config import ProtocolParams
from repro.core.messages import JoinBatch, JoinRecord, TokenGrant
from repro.core.node import MaintenanceNode, Phase
from repro.routing.messages import make_routed_message
from repro.sim.engine import EngineServices

from .nodectx import create_batch, make_ctx, make_services


@pytest.fixture
def params() -> ProtocolParams:
    return ProtocolParams(n=48, c=1.2, r=2, delta=3, tau=6, seed=31)


@pytest.fixture
def services(params) -> EngineServices:
    return make_services(params)


def make_hop(services, params, step, payload=None, target=0.5, rank=None):
    """One arriving copy ``(sender, message, step)`` (see ``make_ctx``)."""
    msg = make_routed_message(
        msg_id=("probe", "x", 99),
        origin=99,
        origin_position=0.4,
        target=target,
        lam=params.lam,
        start_round=0,
        sample_rank=rank,
        payload=payload if payload is not None else ("probe", "x"),
    )
    return (2, msg, step)


class TestHopEdgeCases:
    def test_fresh_node_ignores_hops(self, services, params):
        node = MaintenanceNode(1, services)
        node.phase = Phase.FRESH
        hop = make_hop(services, params, step=2)
        ctx, net = make_ctx(node, services, 11, [], hops=[hop])
        node.on_round(ctx)
        edges, _ = net.close_send_phase()
        assert edges == []

    def test_duplicate_hops_forwarded_once(self, services, params):
        # A ring-spanning neighbourhood guarantees the next trajectory point
        # has known swarm members, so the forwarding must happen — exactly
        # once (r copies) despite three identical arrivals.
        node = MaintenanceNode(1, services)
        dense = {i: (i - 2) / 60 for i in range(2, 62)}
        node.prime(epoch=5, pos=0.5, neighbors=dense)
        hop = make_hop(services, params, step=2)
        _, msg, step = hop
        ctx, net = make_ctx(
            node, services, 10, [], hops=[(2, msg, step), (3, msg, step), (4, msg, step)]
        )
        node.on_round(ctx)
        _, sent = net.close_send_phase()
        # Launches go out next odd round, so all sends here are hop copies.
        assert sent.get(1, 0) == params.r

    def test_final_hop_at_even_round_is_defensively_dropped(self, services, params):
        node = MaintenanceNode(1, services)
        node.prime(epoch=5, pos=0.5, neighbors={2: 0.51})
        hop = make_hop(services, params, step=params.lam + 1)
        ctx, net = make_ctx(node, services, 10, [], hops=[hop])
        node.on_round(ctx)  # must not raise
        assert node.delivered == []

    def test_probe_delivery_recorded_at_odd_round(self, services, params):
        node = MaintenanceNode(1, services)
        node.prime(epoch=5, pos=0.5, neighbors={2: 0.51})
        hop = make_hop(services, params, step=params.lam + 1)
        ctx, _ = make_ctx(node, services, 11, [], hops=[hop])
        node.on_round(ctx)
        assert node.delivered and node.delivered[0][0] == ("probe", "x")

    def test_token_with_wrong_rank_ignored(self, services, params):
        node = MaintenanceNode(1, services)
        node.prime(epoch=5, pos=0.5, neighbors={2: 0.51})
        hop = make_hop(
            services, params, step=params.lam + 1, payload=("token", 7),
            target=0.5, rank=10_000,
        )
        ctx, _ = make_ctx(node, services, 11, [], hops=[hop])
        node.on_round(ctx)
        assert all(owner != 7 for _, owner in node.tokens)

    def test_unknown_payload_recorded_not_crashed(self, services, params):
        node = MaintenanceNode(1, services)
        node.prime(epoch=5, pos=0.5, neighbors={2: 0.51})
        hop = make_hop(services, params, step=params.lam + 1, payload="mystery")
        ctx, _ = make_ctx(node, services, 11, [], hops=[hop])
        node.on_round(ctx)
        assert ("mystery", 11) in node.delivered


class TestRecordEdgeCases:
    def test_empty_create_batch_still_cuts_over(self, services, params):
        """One introduced neighbour is enough to cut over.  (A batch with no
        entries introduces nobody: see ``TestAllEmptyCreateInbox``.)"""
        node = MaintenanceNode(1, services)
        node.phase = Phase.FRESH
        e = params.lam + 6
        batch = create_batch([(2, 0.3)], e)
        ctx, _ = make_ctx(node, services, 2 * e, [(9, batch)])
        node.on_round(ctx)
        assert node.phase is Phase.ESTABLISHED
        assert node.epoch == e

    def test_own_record_excluded_from_neighbors(self, services, params):
        node = MaintenanceNode(1, services)
        e = params.lam + 6
        batch = create_batch([(1, 0.4), (2, 0.3)], e)
        ctx, _ = make_ctx(node, services, 2 * e, [(9, batch)])
        node.on_round(ctx)
        assert 1 not in node.d_nbrs and 2 in node.d_nbrs

    def test_join_batches_ignored_when_not_established(self, services, params):
        node = MaintenanceNode(1, services)
        node.phase = Phase.FRESH
        batch = JoinBatch((JoinRecord(7, 0.2, 6),))
        ctx, net = make_ctx(node, services, 11, [(2, batch)])
        node.on_round(ctx)
        edges, _ = net.close_send_phase()
        assert edges == []  # no matchmaking from outside the overlay

    def test_grant_on_established_node_adds_tokens_only(self, services, params):
        node = MaintenanceNode(1, services)
        node.prime(epoch=5, pos=0.5, neighbors={2: 0.51})
        ctx, _ = make_ctx(node, services, 11, [(2, TokenGrant((8, 9)))])
        node.on_round(ctx)
        assert node.phase is Phase.ESTABLISHED
        assert {o for _, o in node.tokens} >= {8, 9}


class TestAllEmptyCreateInbox:
    """CREATE batches without entries introduce nobody, so an inbox of only
    such batches is handled like one without any batch."""

    def empty_inbox(self, e):
        return [(9, create_batch([], e)), (10, create_batch([], e))]

    def test_demotes_once_cutovers_are_due(self, services, params):
        node = MaintenanceNode(1, services)
        node.prime(epoch=0, pos=0.5, neighbors={2: 0.51})
        e = params.lam + 2
        ctx, _ = make_ctx(node, services, 2 * e, self.empty_inbox(e))
        node.on_round(ctx)
        assert node.phase is Phase.FRESH
        assert node.demotions == 1
        assert node.epoch is None and node.d_nbrs == {}

    def test_changes_nothing_during_bootstrap(self, services, params):
        node = MaintenanceNode(1, services)
        node.prime(epoch=0, pos=0.5, neighbors={2: 0.51})
        e = params.lam + 1
        ctx, _ = make_ctx(node, services, 2 * e, self.empty_inbox(e))
        node.on_round(ctx)
        assert node.phase is Phase.ESTABLISHED
        assert node.epoch == 0 and node.d_nbrs == {2: 0.51}
        assert node.demotions == 0

    def test_fresh_node_stays_fresh(self, services, params):
        node = MaintenanceNode(1, services)
        node.phase = Phase.FRESH
        e = params.lam + 6
        ctx, _ = make_ctx(node, services, 2 * e, self.empty_inbox(e))
        node.on_round(ctx)
        assert node.phase is Phase.FRESH and node.epoch is None


class TestPipelineBookkeeping:
    def test_primed_node_never_reconnects(self, services, params):
        """Bootstrap-primed nodes have no pipeline gap to bridge."""
        node = MaintenanceNode(1, services)
        node.prime(epoch=0, pos=0.5, neighbors={2: 0.51})
        node.tokens = [(100, 5), (100, 6), (100, 7)]
        ctx, net = make_ctx(node, services, 2, [])
        node.on_round(ctx)
        from repro.core.messages import ConnectMsg

        _, sent = net.close_send_phase()
        inboxes, _ = net.deliver(frozenset(range(100)))
        connects = [
            m for msgs in inboxes.values() for _, m in msgs if isinstance(m, ConnectMsg)
        ]
        assert connects == []

    def test_newly_established_keeps_connecting(self, services, params):
        """A freshly promoted node bridges its pipeline with CONNECTs."""
        node = MaintenanceNode(1, services)
        node.phase = Phase.FRESH
        node.tokens = [(1000, 5), (1000, 6), (1000, 7)]
        e = params.lam + 6
        ctx, _ = make_ctx(node, services, 2 * e, [(9, create_batch([(2, 0.3)], e))])
        node.on_round(ctx)
        assert node.phase is Phase.ESTABLISHED
        ctx, net = make_ctx(node, services, 2 * e + 2, [])
        node.on_round(ctx)
        from repro.core.messages import ConnectMsg

        net.close_send_phase()
        inboxes, _ = net.deliver(frozenset(range(100)))
        connects = [
            m for msgs in inboxes.values() for _, m in msgs if isinstance(m, ConnectMsg)
        ]
        assert connects  # still bridging the pipeline
