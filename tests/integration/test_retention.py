"""What a live run retains: reduced ``E_t`` rounds and nothing round-local.

Three checks on a real ``MaintenanceSimulation`` at n=24, over rounds of both
parities:

* **copy conservation** between the metrics and the trace — the retained log
  of round ``t`` still counts every copy the round sent;
* the trace's readers answer from the reduced rows exactly what the per-copy
  loop over the round's *send-order* columns answers (kept aside here by
  wrapping ``Network.close_send_phase``), dict key order included;
* **retention** — the CREATE batches die with the cutover that reads
  them, a retained round is never longer than ``|V_t|²`` rows, and a
  churned run's trace keeps ``E_t``, ``V_t``, joins and leaves for the
  newest ``edge_depth`` rounds only.
"""

from __future__ import annotations

import gc

import pytest

from repro.adversary.base import Adversary, ChurnDecision, JoinRequest
from repro.adversary.view import AdversaryView
from repro.config import ProtocolParams
from repro.core.messages import CreateBatch
from repro.core.runner import MaintenanceSimulation


@pytest.fixture(scope="module")
def live():
    """A warm n=24 run that kept each round's send-order log aside."""
    params = ProtocolParams.calibrated(24, seed=5, alpha=0.25, kappa=1.25)
    with MaintenanceSimulation(params) as sim:
        net = sim.engine.network
        sent_logs = []
        close = net.close_send_phase

        def keeping_close():
            edges, sent = close()
            sent_logs.append(edges)
            return edges, sent

        net.close_send_phase = keeping_close
        sim.run(2 * (params.lam + 3) + 2)
        yield sim, sent_logs


def _last_two_rounds(sim):
    return (sim.engine.round - 2, sim.engine.round - 1)  # one of each parity


def test_trace_and_metrics_agree_on_the_copy_count(live):
    sim, sent_logs = live
    eng = sim.engine
    for t in _last_two_rounds(sim):
        log = eng.trace.edges_at(t)
        assert log.counts is not None
        assert len(log) == eng.reports[t].metrics.total_sent == len(sent_logs[t])
        assert len(log) > 10_000 > len(log.columns()[0])
        assert sorted(log) == sorted(sent_logs[t])


def test_readers_of_a_retained_round_match_the_per_copy_loops(live):
    sim, sent_logs = live
    eng = sim.engine
    view = AdversaryView(
        eng.round, eng.trace, eng.lifecycle, topology_lateness=0, state_lateness=100
    )
    for t in _last_two_rounds(sim):
        copies = list(sent_logs[t])  # send order, one pair per copy
        degrees: dict[int, int] = {}
        for src, dst in copies:
            degrees[src] = degrees.get(src, 0) + 1
            degrees[dst] = degrees.get(dst, 0) + 1
        assert list(view.degree_table(t).items()) == list(degrees.items())
        v = min(eng.alive)
        assert view.out_neighbors_of(t, v) == {d for s, d in copies if s == v}
        assert view.contacts_of(t, v) == (
            {d for s, d in copies if s == v} | {s for s, d in copies if d == v}
        )
        # Pair order of the retained rows: first occurrence in send order.
        srcs, dsts = eng.trace.edges_at(t).columns()
        assert list(zip(srcs.tolist(), dsts.tolist())) == list(dict.fromkeys(copies))


def test_create_messages_die_with_their_cutover(live):
    sim, _ = live
    eng = sim.engine
    after_even, after_odd = set(), []
    for _ in range(4):  # two rounds of each parity
        sim.run(1)
        gc.collect()
        batches = sum(isinstance(o, CreateBatch) for o in gc.get_objects())
        if eng.round % 2 == 0:  # sent by the odd round just run, in flight
            after_odd.append(batches)
        else:
            after_even.add(batches)
        alive = len(eng.alive)
        for t in range(eng.round - eng.trace.edge_depth, eng.round):
            assert len(eng.trace.edges_at(t).columns()[0]) <= alive * alive
    # Each cutover drops every batch of its round: what survives an even
    # round is the same few objects held outside this run.  In flight after
    # an odd round: one batch per matchmaker, shared by all its targets.
    (kept,) = after_even
    assert kept <= 2 and all(kept < b <= kept + len(eng.alive) for b in after_odd)


class _OneInOneOut(Adversary):
    """Every round the budget allows: the lowest id leaves, a new node joins
    via the highest eligible bootstrap."""

    def decide(self, view):
        boots = sorted(view.eligible_bootstraps())
        victim = min(view.alive)
        if view.budget_remaining < 2 or not boots or boots == [victim]:
            return ChurnDecision.none()
        boot = boots[-1] if boots[-1] != victim else boots[-2]
        return ChurnDecision(
            leaves=frozenset({victim}), joins=(JoinRequest(view.fresh_id(), boot),)
        )


def test_a_churned_trace_keeps_the_newest_rounds_only():
    params = ProtocolParams.calibrated(24, seed=5, alpha=0.25, kappa=1.25)
    with MaintenanceSimulation(params, _OneInOneOut(active_from=2)) as sim:
        trace = sim.engine.trace
        depth = trace.edge_depth
        churned = []
        for _ in range(3 * depth):
            sim.run(1)
            t = sim.engine.round
            if sim.engine.reports[-1].decision.leaves:
                churned.append(t - 1)
            assert list(trace._edges) == list(range(max(0, t - depth), t))
        # Churn happened, and the rounds it happened in have left the trace.
        old = [s for s in churned if s < t - depth]
        assert old
        assert all(trace.edges_at(s) is None for s in old)
