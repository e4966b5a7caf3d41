"""Property-based tests for the simulator's core invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.adversary.base import ChurnDecision
from repro.adversary.budget import ChurnLedger, ChurnViolation
from repro.config import ProtocolParams
from repro.sim.identity import Lifecycle
from repro.sim.network import Network


# ----------------------------------------------------------------------
# Network: exactly-once delivery to survivors
# ----------------------------------------------------------------------

sends_st = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),  # src
        st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=4),
    ),
    max_size=20,
)
alive_st = st.sets(st.integers(min_value=0, max_value=9))


class TestNetworkProperties:
    @given(sends_st, alive_st)
    def test_exactly_once_to_survivors(self, sends, alive):
        """Every (send, surviving receiver) pair delivers exactly once;
        dead receivers get nothing; edge counts equal send counts."""
        net = Network()
        expected: dict[int, int] = {}
        total_sends = 0
        for i, (src, dsts) in enumerate(sends):
            if i % 2 == 0:
                for d in dsts:
                    net.send(src, d, ("m", i))
            else:
                net.send_singles_batch(src, [(d, ("m", i)) for d in dsts])
            for d in dsts:
                total_sends += 1
                if d in alive:
                    expected[d] = expected.get(d, 0) + 1
        edges, sent = net.close_send_phase()
        assert len(edges) == total_sends
        assert sum(sent.values()) == total_sends
        inboxes, received = net.deliver(alive)
        assert set(inboxes) <= alive
        got = {d: len(msgs) for d, msgs in inboxes.items()}
        assert got == expected
        assert received == expected

    @given(sends_st)
    def test_no_duplicate_delivery_across_rounds(self, sends):
        net = Network()
        for src, dsts in sends:
            net.send_singles_batch(src, [(d, "x") for d in dsts])
        net.close_send_phase()
        everyone = set(range(10))
        first, _ = net.deliver(everyone)
        second, _ = net.deliver(everyone)
        assert second == {}


# ----------------------------------------------------------------------
# Churn ledger: the sliding window is never exceeded
# ----------------------------------------------------------------------


def leave_decision(ids) -> ChurnDecision:
    return ChurnDecision(leaves=frozenset(ids))


class TestLedgerProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=60),
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=3, max_value=12),
    )
    @settings(max_examples=60)
    def test_window_never_exceeded(self, spend_wishes, budget, window):
        """Greedily spending as much as validation allows never lets any
        sliding window exceed the budget."""
        params = ProtocolParams(
            n=64,
            kappa=2.0,
            seed=0,
            churn_budget_override=budget,
            churn_window_override=window,
        )
        lc = Lifecycle()
        for i in range(128):  # plenty of headroom above n
            lc.add(i, joined_round=-100)
        ledger = ChurnLedger(params)
        spent_at: list[tuple[int, int]] = []
        next_victim = 0
        for t, wish in enumerate(spend_wishes):
            take = min(wish, ledger.remaining(t), 128 - next_victim)
            # Never shrink below n.
            take = min(take, len(lc.alive) - params.n)
            if take <= 0:
                continue
            ids = list(range(next_victim, next_victim + take))
            next_victim += take
            ledger.validate(t, leave_decision(ids), lc)
            for v in ids:
                lc.remove(v, t)
            ledger.commit(t, leave_decision(ids))
            spent_at.append((t, take))
        # Check every sliding window by brute force.
        rounds = len(spend_wishes)
        for start in range(rounds):
            total = sum(c for t, c in spent_at if start <= t < start + window)
            assert total <= budget

    @given(st.integers(min_value=2, max_value=20), st.integers(min_value=3, max_value=12))
    @settings(max_examples=30)
    def test_over_budget_always_rejected(self, budget, window):
        params = ProtocolParams(
            n=64,
            kappa=2.0,
            seed=0,
            churn_budget_override=budget,
            churn_window_override=window,
        )
        lc = Lifecycle()
        for i in range(128):
            lc.add(i, joined_round=-100)
        ledger = ChurnLedger(params)
        ids = list(range(budget + 1))
        try:
            ledger.validate(5, leave_decision(ids), lc)
            raised = False
        except ChurnViolation:
            raised = True
        assert raised


# ----------------------------------------------------------------------
# Engine: determinism
# ----------------------------------------------------------------------


class TestEngineDeterminism:
    def test_maintenance_run_bitwise_reproducible(self):
        from repro.core.runner import MaintenanceSimulation

        def run():
            params = ProtocolParams(n=40, c=1.2, delta=3, tau=6, seed=33)
            sim = MaintenanceSimulation(params)
            sim.run(14)
            return [m.total_sent for m in sim.engine.metrics.history]

        assert run() == run()

    def test_different_seed_different_traffic(self):
        from repro.core.runner import MaintenanceSimulation

        def run(seed):
            params = ProtocolParams(n=40, c=1.2, delta=3, tau=6, seed=seed)
            sim = MaintenanceSimulation(params)
            sim.run(14)
            return [m.total_sent for m in sim.engine.metrics.history]

        assert run(1) != run(2)
