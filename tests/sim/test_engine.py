"""Tests for the synchronous round engine, using toy protocols."""

from __future__ import annotations

import pytest

from repro.adversary.base import Adversary, ChurnDecision, JoinRequest
from repro.adversary.budget import ChurnViolation
from repro.config import ProtocolParams
from repro.faults.plan import FaultPlan, MessageFaults
from repro.routing.messages import RoutedMessage
from repro.sim.engine import Engine, JoinNotice, NodeContext, NodeProtocol


class EchoProtocol(NodeProtocol):
    """Replies to every message; node 0 pings node 1 in round 0."""

    def __init__(self, node_id: int, services) -> None:
        self.node_id = node_id
        self.received: list[tuple[int, object]] = []

    def on_round(self, ctx: NodeContext) -> None:
        self.received.extend(ctx.inbox)
        if ctx.round == 0 and ctx.node_id == 0:
            ctx.send(1, "ping")
        for src, msg in ctx.inbox:
            if msg == "ping":
                ctx.send(src, "pong")


class GossipProtocol(NodeProtocol):
    """Round-robin flooding of a token along the id ring."""

    def __init__(self, node_id: int, services) -> None:
        self.node_id = node_id
        self.seen = False

    def on_round(self, ctx: NodeContext) -> None:
        if ctx.inbox:
            self.seen = True
        if ctx.round == 0 and ctx.node_id == 0:
            self.seen = True
        if self.seen:
            ctx.send((ctx.node_id + 1) % ctx.params.n, "tok")


def make_engine(protocol_cls, n=16, adversary=None, **kw):
    params = ProtocolParams(n=n, seed=1, alpha=0.25)
    eng = Engine(params, lambda v, s: protocol_cls(v, s), adversary=adversary, **kw)
    eng.seed_nodes(range(n))
    return eng


class TestBasicExecution:
    def test_message_takes_one_round(self):
        eng = make_engine(EchoProtocol)
        eng.run(1)
        assert eng.protocol_of(1).received == []
        eng.run(1)
        assert eng.protocol_of(1).received == [(0, "ping")]

    def test_reply_takes_another_round(self):
        eng = make_engine(EchoProtocol)
        eng.run(3)
        assert (1, "pong") in eng.protocol_of(0).received

    def test_edges_recorded(self):
        eng = make_engine(EchoProtocol)
        eng.run(2)
        assert eng.trace.edges_at(0) == [(0, 1)]
        assert eng.trace.edges_at(1) == [(1, 0)]

    def test_metrics_recorded(self):
        eng = make_engine(EchoProtocol)
        reports = eng.run(2)
        assert reports[0].metrics.total_sent == 1
        assert reports[1].metrics.total_sent == 1
        assert reports[0].alive == 16

    def test_gossip_floods_ring(self):
        eng = make_engine(GossipProtocol)
        eng.run(17)
        assert all(eng.protocol_of(v).seen for v in range(16))

    def test_deterministic_given_seed(self):
        a = make_engine(GossipProtocol)
        b = make_engine(GossipProtocol)
        ra = a.run(5)
        rb = b.run(5)
        assert [r.metrics.total_sent for r in ra] == [r.metrics.total_sent for r in rb]

    def test_seed_nodes_only_once(self):
        eng = make_engine(EchoProtocol)
        with pytest.raises(RuntimeError):
            eng.seed_nodes([99])


class LeaveOneAdversary(Adversary):
    """Churns out node 1 at round 1, replacing it with a new node."""

    topology_lateness = 2

    def __init__(self):
        super().__init__(active_from=1)
        self.done = False

    def decide(self, view):
        if self.done:
            return ChurnDecision.none()
        self.done = True
        return ChurnDecision(
            leaves=frozenset({1}),
            joins=(JoinRequest(view.fresh_id(), 0),),
        )


class SpamFutureProtocol(EchoProtocol):
    """Node 0 sends to id 16 in round 0 — before that id has even joined."""

    def on_round(self, ctx):
        self.received.extend(ctx.inbox)
        if ctx.round == 0 and ctx.node_id == 0:
            ctx.send(16, "early")


class TestChurnSemantics:
    def test_leaver_sends_from_previous_round_still_delivered(self):
        """A node leaving in round t still has its t-1 sends delivered in t."""

        class Pinger(EchoProtocol):
            def on_round(self, ctx):
                self.received.extend(ctx.inbox)
                if ctx.round == 0 and ctx.node_id == 1:
                    ctx.send(0, "from-the-grave")

        eng = make_engine(Pinger, adversary=LeaveOneAdversary())
        eng.run(2)  # node 1 leaves in round 1, after sending in round 0
        assert 1 not in eng.alive
        assert (1, "from-the-grave") in eng.protocol_of(0).received

    def test_joiner_receives_nothing_in_join_round(self):
        """A node joining in round t receives nothing that round — even a
        message somehow addressed to its id before it existed."""
        eng = make_engine(SpamFutureProtocol, adversary=LeaveOneAdversary())
        eng.run(3)  # "early" would be due in round 1, exactly the join round
        assert 16 in eng.alive
        assert eng.protocol_of(16).received == []

    def test_leaver_does_not_receive(self):
        eng = make_engine(EchoProtocol, adversary=LeaveOneAdversary())
        # Round 0: node 0 sends ping to 1. Round 1: node 1 leaves before receipt.
        eng.run(2)
        assert 1 not in eng.alive

    def test_join_notice_delivered_to_bootstrap(self):
        notices = []

        class Rec(EchoProtocol):
            def on_round(self, ctx):
                notices.extend(
                    m for _, m in ctx.inbox if isinstance(m, JoinNotice)
                )
                super().on_round(ctx)

        eng = make_engine(Rec, adversary=LeaveOneAdversary())
        eng.run(2)
        assert notices == [JoinNotice(16)]

    def test_new_node_age_tracked(self):
        eng = make_engine(EchoProtocol, adversary=LeaveOneAdversary())
        eng.run(2)
        assert eng.lifecycle.joined_round(16) == 1

    def test_trace_records_churn(self):
        eng = make_engine(EchoProtocol, adversary=LeaveOneAdversary())
        eng.run(2)
        assert eng.trace.leaves_at(1) == (1,)
        assert eng.trace.joins_at(1) == (16,)


class LateChurnAdversary(LeaveOneAdversary):
    """The same swap one round later — the round a 1-round-late copy lands."""

    def __init__(self):
        super().__init__()
        self.active_from = 2


class HopSpamProtocol(NodeProtocol):
    """Node 0 multicasts one hop in round 0 — also to the not-yet-born id 16."""

    def __init__(self, node_id: int, services) -> None:
        self.hops: list[tuple[int, int]] = []  # (round, rows received)

    def on_round(self, ctx: NodeContext) -> None:
        if ctx.hops is not None:
            self.hops.append((ctx.round, len(ctx.hops)))
        if ctx.round == 0 and ctx.node_id == 0:
            hop = RoutedMessage("hop", 0, 0.5, (0.0, 0.5), ctx.round)
            ctx.send_hops(hop, 0, [1, 2, 16])


class TestHopPlaneUnderFaults:
    def test_plane_is_mounted_with_a_fault_plan(self):
        plan = FaultPlan(seed=1, messages=(MessageFaults(drop_p=0.5),))
        assert make_engine(EchoProtocol, faults=plan).network.plane is not None

    def test_delayed_copy_skips_leaver_and_joiner_of_its_delivery_round(self):
        plan = FaultPlan(seed=1, messages=(MessageFaults(delay_p=1.0, delay_rounds=1),))
        eng = make_engine(HopSpamProtocol, adversary=LateChurnAdversary(), faults=plan)
        eng.run(2)
        assert eng.network.has_pending  # all three copies are still in flight
        eng.run(2)  # round 2: node 1 leaves and 16 joins as the copies land
        assert 1 not in eng.alive and 16 in eng.alive
        assert eng.protocol_of(2).hops == [(2, 1)]
        assert eng.protocol_of(16).hops == []
        assert not eng.network.has_pending
        assert eng.reports[0].metrics.faults.delayed == 3


class TestSortedAliveCache:
    """run_round sorts the alive set once and reuses it until churn."""

    def test_cache_matches_alive_and_is_reused(self):
        eng = make_engine(EchoProtocol)
        eng.run(1)
        cached = eng._sorted_alive
        assert cached == sorted(eng.alive)
        eng.run(3)  # no churn: the very same list object is reused
        assert eng._sorted_alive is cached

    def test_cache_invalidated_on_churn(self):
        eng = make_engine(EchoProtocol, adversary=LeaveOneAdversary())
        eng.run(1)
        cached = eng._sorted_alive
        eng.run(1)  # round 1: node 1 leaves, node 16 joins
        assert eng._sorted_alive is not cached
        assert eng._sorted_alive == sorted(eng.alive)
        assert 1 not in eng._sorted_alive and 16 in eng._sorted_alive


class GreedyAdversary(Adversary):
    """Tries to churn out everything — must be stopped by the budget."""

    topology_lateness = 2

    def decide(self, view):
        victims = sorted(view.alive)[: len(view.alive) // 2]
        return ChurnDecision(leaves=frozenset(victims))


class TestBudgetIntegration:
    def test_strict_mode_raises(self):
        eng = make_engine(EchoProtocol, adversary=GreedyAdversary())
        with pytest.raises(ChurnViolation):
            eng.run(1)

    def test_lenient_mode_skips_and_reports(self):
        eng = make_engine(EchoProtocol, adversary=GreedyAdversary(), strict_budget=False)
        reports = eng.run(2)
        assert all(r.rejected is not None for r in reports)
        assert len(eng.alive) == 16  # nothing actually churned

    def test_lateness_attributes_declared_on_base(self):
        """The base class declares the (2, 10)-late defaults; no getattr."""

        class Noop(Adversary):
            def decide(self, view):
                return ChurnDecision.none()

        adv = Noop()
        assert adv.topology_lateness == 2
        assert adv.state_lateness >= 10**6  # effectively "never sees state"
        assert "topology_lateness" in Adversary.__dict__
        assert "state_lateness" in Adversary.__dict__

    def test_adversary_inactive_before_active_from(self):
        adv = LeaveOneAdversary()
        adv.active_from = 5
        eng = make_engine(EchoProtocol, adversary=adv)
        eng.run(5)
        assert len(eng.alive) == 16
        eng.run(1)
        assert 1 not in eng.alive
