"""Unit tests for MaintenanceNode state machinery (no full engine runs)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ProtocolParams
from repro.core.messages import (
    ConnectMsg,
    JoinBatch,
    JoinRecord,
    TokenGrant,
    TokenMsg,
)
from repro.core.node import TOKEN_TTL, MaintenanceNode, Phase
from repro.sim.engine import EngineServices, JoinNotice
from repro.sim.network import Network

from .nodectx import create_batch, make_ctx, make_services


@pytest.fixture
def params() -> ProtocolParams:
    return ProtocolParams(n=48, c=1.2, r=2, delta=3, tau=6, seed=9)


@pytest.fixture
def services(params) -> EngineServices:
    return make_services(params)


def sent_messages(net: Network):
    """All (src, dst, msg) triples sent this round."""
    edges, _ = net.close_send_phase()
    inboxes, _ = net.deliver(frozenset(range(-10, 10_000)))
    out = []
    for dst, msgs in inboxes.items():
        for src, m in msgs:
            out.append((src, int(dst), m))
    return out


class TestPhases:
    def test_starts_new(self, services):
        node = MaintenanceNode(1, services)
        assert node.phase is Phase.NEW

    def test_grant_promotes_to_fresh(self, services):
        node = MaintenanceNode(1, services)
        ctx, _ = make_ctx(node, services, 3, [(2, TokenGrant((5, 6, 7)))])
        node.on_round(ctx)
        assert node.phase is Phase.FRESH
        assert {o for _, o in node.tokens} == {5, 6, 7}

    def test_prime_establishes(self, services):
        node = MaintenanceNode(1, services)
        node.prime(epoch=0, pos=0.5, neighbors={2: 0.51})
        assert node.phase is Phase.ESTABLISHED
        assert node.epoch == 0

    def test_cutover_establishes_fresh_node(self, services, params):
        node = MaintenanceNode(1, services)
        node.phase = Phase.FRESH
        e = params.lam + 5
        batch = create_batch([(10 + i, 0.1 * i) for i in range(3)], e)
        ctx, _ = make_ctx(node, services, 2 * e, [(2, batch)])
        node.on_round(ctx)
        assert node.phase is Phase.ESTABLISHED
        assert node.epoch == e
        assert set(node.d_nbrs) == {10, 11, 12}
        assert node.pos == services.position_hash.position(1, e)

    def test_missed_cutover_demotes(self, services, params):
        node = MaintenanceNode(1, services)
        node.prime(epoch=0, pos=0.5, neighbors={2: 0.51})
        e = params.lam + 5
        ctx, _ = make_ctx(node, services, 2 * e, [])
        node.on_round(ctx)
        assert node.phase is Phase.FRESH
        assert node.demotions == 1

    def test_no_demotion_during_bootstrap(self, services, params):
        """Before epoch lam+2 no cutover records exist; nodes keep D_0."""
        node = MaintenanceNode(1, services)
        node.prime(epoch=0, pos=0.5, neighbors={2: 0.51})
        ctx, _ = make_ctx(node, services, 2 * (params.lam + 1), [])
        node.on_round(ctx)
        assert node.phase is Phase.ESTABLISHED
        assert node.epoch == 0

    def test_stale_epoch_records_ignored(self, services, params):
        node = MaintenanceNode(1, services)
        e = params.lam + 5
        batch = create_batch([(10, 0.4)], e - 1)  # wrong epoch
        ctx, _ = make_ctx(node, services, 2 * e, [(2, batch)])
        node.on_round(ctx)
        assert node.phase is Phase.NEW


class TestTokenPlumbing:
    def test_direct_token_absorbed(self, services):
        node = MaintenanceNode(1, services)
        ctx, _ = make_ctx(node, services, 4, [(2, TokenMsg(owner=9))])
        node.on_round(ctx)
        assert (4 + TOKEN_TTL, 9) in node.tokens

    def test_tokens_expire(self, services):
        node = MaintenanceNode(1, services)
        ctx, _ = make_ctx(node, services, 4, [(2, TokenMsg(owner=9))])
        node.on_round(ctx)
        for t in range(5, 5 + TOKEN_TTL):
            ctx, _ = make_ctx(node, services, t, [])
            node.on_round(ctx)
        assert node.tokens == []

    def test_fresh_node_connects_on_even_round(self, services, params):
        node = MaintenanceNode(1, services)
        node.phase = Phase.FRESH
        node.tokens = [(100, 5), (100, 6), (100, 7), (100, 8)]
        ctx, net = make_ctx(node, services, 10, [])
        node.on_round(ctx)
        connects = [(d, m) for _, d, m in sent_messages(net) if isinstance(m, ConnectMsg)]
        assert len(connects) == params.delta_eff
        assert all(m.node == 1 for _, m in connects)
        # Tokens are sampled, not consumed (they expire via TTL instead).
        assert len(node.tokens) == 4

    def test_connect_fills_slot(self, services):
        node = MaintenanceNode(1, services)
        ctx, _ = make_ctx(node, services, 5, [(7, ConnectMsg(7))])
        node.on_round(ctx)
        assert 7 in node.slots

    def test_slots_reset_each_even_round(self, services):
        node = MaintenanceNode(1, services)
        ctx, _ = make_ctx(node, services, 5, [(7, ConnectMsg(7))])
        node.on_round(ctx)
        assert 7 in node.slots
        ctx, _ = make_ctx(node, services, 6, [])
        node.on_round(ctx)
        assert node.slots == [None] * len(node.slots)

    def test_slot_overflow_dropped(self, services, params):
        node = MaintenanceNode(1, services)
        inbox = [(i, ConnectMsg(i)) for i in range(100, 100 + 3 * params.delta_eff)]
        ctx, _ = make_ctx(node, services, 5, inbox)
        node.on_round(ctx)
        assert node.connects_dropped == len(inbox) - 2 * params.delta_eff
        assert sum(1 for s in node.slots if s is not None) == 2 * params.delta_eff

    def test_duplicate_connect_not_double_registered(self, services):
        node = MaintenanceNode(1, services)
        ctx, _ = make_ctx(node, services, 5, [(7, ConnectMsg(7)), (7, ConnectMsg(7))])
        node.on_round(ctx)
        assert node.slots.count(7) == 1


class TestJoinNotice:
    def test_bootstrap_duties(self, services, params):
        node = MaintenanceNode(1, services)
        node.prime(epoch=0, pos=0.5, neighbors={2: 0.51, 3: 0.52})
        node.tokens = [(100, 10 + i) for i in range(4 * params.delta_eff)]
        ctx, net = make_ctx(node, services, 6, [(-1, JoinNotice(new_id=99))])
        node.on_round(ctx)
        msgs = sent_messages(net)
        connects = [(d, m) for _, d, m in msgs if isinstance(m, ConnectMsg)]
        grants = [(d, m) for _, d, m in msgs if isinstance(m, TokenGrant)]
        assert len(connects) == params.delta_eff
        assert all(m.node == 99 for _, m in connects)
        assert len(grants) == 1
        assert grants[0][0] == 99
        assert len(grants[0][1].tokens) == params.delta_eff

    def test_token_starved_bootstrap_falls_back_to_neighbors(self, services, params):
        node = MaintenanceNode(1, services)
        nbrs = {i: i / 100 for i in range(2, 2 + 4 * params.delta_eff)}
        node.prime(epoch=0, pos=0.5, neighbors=nbrs)
        ctx, net = make_ctx(node, services, 6, [(-1, JoinNotice(new_id=99))])
        node.on_round(ctx)
        msgs = sent_messages(net)
        grants = [m for _, d, m in msgs if isinstance(m, TokenGrant) and d == 99]
        assert grants and len(grants[0].tokens) == params.delta_eff
        assert set(grants[0].tokens) <= set(nbrs)


class TestOddRoundRecords:
    def test_join_batches_stored_for_next_epoch(self, services, params):
        node = MaintenanceNode(1, services)
        node.prime(epoch=4, pos=0.5, neighbors={2: 0.51})
        e_next = 5
        recs = (JoinRecord(7, 0.49, e_next), JoinRecord(8, 0.9, e_next - 1))
        ctx, _ = make_ctx(node, services, 2 * 4 + 1, [(2, JoinBatch(recs))])
        node.on_round(ctx)
        assert set(node.h_records) == {7}  # wrong-epoch record filtered

    def test_h_records_reset_each_odd_round(self, services):
        node = MaintenanceNode(1, services)
        node.prime(epoch=4, pos=0.5, neighbors={2: 0.51})
        ctx, _ = make_ctx(node, services, 9, [(2, JoinBatch((JoinRecord(7, 0.49, 5),)))])
        node.on_round(ctx)
        assert node.h_records
        ctx, _ = make_ctx(node, services, 11, [])
        node.on_round(ctx)
        assert node.h_records == {}


class TestLaunches:
    def test_established_launches_join_and_tokens(self, services, params):
        node = MaintenanceNode(1, services)
        node.prime(epoch=5, pos=0.5, neighbors={2: 0.51})
        ctx, _ = make_ctx(node, services, 10, [])
        node.on_round(ctx)
        # Launches are queued for the next odd round, not yet sent.
        kinds = [m.msg_id[0] for m in node._pending_launch]
        assert kinds.count("join") == 1
        assert kinds.count("token") == params.tau_eff
        join = next(m for m in node._pending_launch if m.msg_id[0] == "join")
        target_epoch = 10 // 2 + params.lam + 2
        assert join.msg_id == ("join", 1, target_epoch, 1)
        assert join.target == services.position_hash.position(1, target_epoch)

    def test_sponsor_launches_for_slot_nodes(self, services, params):
        node = MaintenanceNode(1, services)
        node.prime(epoch=5, pos=0.5, neighbors={2: 0.51})
        ctx, _ = make_ctx(node, services, 9, [(99, ConnectMsg(99))])
        node.on_round(ctx)
        ctx, _ = make_ctx(node, services, 10, [])
        node.on_round(ctx)
        joins = [m for m in node._pending_launch if m.msg_id[0] == "join"]
        sponsored = [m for m in joins if m.msg_id[1] == 99]
        assert len(sponsored) == 1

    def test_fresh_node_does_not_launch(self, services):
        node = MaintenanceNode(1, services)
        node.phase = Phase.FRESH
        ctx, _ = make_ctx(node, services, 10, [])
        node.on_round(ctx)
        assert node._pending_launch == []


class TestStageContract:
    """The staged round: prepare files nothing, and runs for every node
    before any node acts (what makes ``on_rounds`` equal the node loop)."""

    def test_prepare_sends_nothing_and_precedes_every_act(self, monkeypatch):
        from repro.adversary.oblivious import RandomChurnAdversary
        from repro.core.runner import MaintenanceSimulation

        params = ProtocolParams(n=24, c=1.2, r=2, delta=3, tau=8, seed=5)
        adversary = RandomChurnAdversary(params, seed=9, intensity=1.0)
        sim = MaintenanceSimulation(params, adversary, strict_budget=False)
        net = sim.engine.network

        def sends():
            return (
                len(net._srcs), len(net._dsts), len(net._msgs),  # object lane
                net.plane.sends, net.plane._count, len(net.plane._flat),  # hop plane
                net._pending_count, dict(net._sent_counts),  # counters
            )

        log: list[tuple[int, str, int]] = []
        prepare, act = MaintenanceNode._prepare, MaintenanceNode._act

        def checked_prepare(self, ctx):
            before = sends()
            step = prepare(self, ctx)
            assert sends() == before
            log.append((ctx.round, "prepare", self.id))
            return step

        def logged_act(self, ctx, step):
            log.append((ctx.round, "act", self.id))
            act(self, ctx, step)

        monkeypatch.setattr(MaintenanceNode, "_prepare", checked_prepare)
        monkeypatch.setattr(MaintenanceNode, "_act", logged_act)
        rounds = 2 * (params.lam + 3) + 6
        sim.run(rounds)
        assert net._pending_count > 0  # the rounds did send — in act
        for t in range(rounds):
            stages = [(stage, v) for r, stage, v in log if r == t]
            alive = len(stages) // 2
            assert alive >= params.n // 2
            assert [s for s, _ in stages] == ["prepare"] * alive + ["act"] * alive
            ids = [v for _, v in stages[:alive]]
            assert ids == sorted(ids) == [v for _, v in stages[alive:]]
