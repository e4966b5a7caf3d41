"""Tests for the per-phase round profiler."""

from __future__ import annotations

import itertools

from repro.config import ProtocolParams
from repro.sim.engine import Engine, NodeContext, NodeProtocol
from repro.sim.profile import PHASES, PhaseProfiler, PhaseTimings


class ChatterProtocol(NodeProtocol):
    """Every node pings its successor every round (keeps all phases busy)."""

    def __init__(self, node_id: int, services) -> None:
        self.node_id = node_id

    def on_round(self, ctx: NodeContext) -> None:
        ctx.send((ctx.node_id + 1) % ctx.params.n, ("tok", ctx.round))


def make_engine(n=8, **kw):
    params = ProtocolParams(n=n, seed=1, alpha=0.25)
    eng = Engine(params, lambda v, s: ChatterProtocol(v, s), **kw)
    eng.seed_nodes(range(n))
    return eng


def fake_clock(step=1.0):
    """A deterministic clock ticking ``step`` seconds per call."""
    counter = itertools.count()
    return lambda: next(counter) * step


class TestPhaseTimings:
    def test_total_and_dict(self):
        t = PhaseTimings(adversary=1.0, receive=2.0, compute=3.0, close=4.0)
        assert t.total == 10.0
        assert t.as_dict() == {
            "adversary": 1.0,
            "receive": 2.0,
            "compute": 3.0,
            "close": 4.0,
        }
        assert tuple(t.as_dict()) == PHASES


class TestPhaseProfiler:
    def test_records_per_round(self):
        prof = PhaseProfiler(clock=fake_clock())
        eng = make_engine(profiler=prof)
        reports = eng.run(5)
        assert prof.rounds == 5
        # The fake clock ticks exactly once per phase boundary (5 ticks per
        # round), so every phase lasts exactly one fake second.
        for timings in prof.history:
            assert timings.as_dict() == {name: 1.0 for name in PHASES}
        assert prof.total_time() == 5 * 4.0
        assert prof.totals() == {name: 5.0 for name in PHASES}
        # The same record lands on the round metrics.
        for report, timings in zip(reports, prof.history):
            assert report.metrics.phases is timings

    def test_detached_engine_records_nothing(self):
        eng = make_engine()
        reports = eng.run(3)
        assert eng.profiler is None
        assert all(r.metrics.phases is None for r in reports)

    def test_profiler_does_not_change_simulation(self):
        plain = make_engine()
        profiled = make_engine(profiler=PhaseProfiler())
        plain.run(6)
        profiled.run(6)
        for a, b in zip(plain.reports, profiled.reports):
            assert a.metrics.total_sent == b.metrics.total_sent
            assert a.metrics.max_sent == b.metrics.max_sent
            assert a.metrics.max_received == b.metrics.max_received
            assert a.metrics.alive == b.metrics.alive

    def test_empty_profiler_summaries(self):
        prof = PhaseProfiler()
        assert prof.rounds == 0
        assert prof.total_time() == 0.0
        assert "phase" in prof.table()

    def test_table_sorted_by_cost(self):
        prof = PhaseProfiler()
        prof.record(adversary=0.1, receive=0.2, compute=4.0, close=0.05)
        prof.record(adversary=0.1, receive=0.2, compute=4.0, close=0.05)
        table = prof.table()
        lines = table.splitlines()
        assert lines[1].startswith("compute")
        assert lines[-1].startswith("all")
        assert "ms/round" in lines[0]
        # Shares sum to ~100% and the dominant phase dominates.
        assert "91.9%" in lines[1] or "92.0%" in lines[1]


class TestRunnerIntegration:
    def test_maintenance_sim_passthrough(self):
        from repro.core.runner import MaintenanceSimulation

        prof = PhaseProfiler()
        sim = MaintenanceSimulation(
            ProtocolParams(n=16, seed=3), profiler=prof
        )
        sim.run(4)
        assert prof.rounds == 4
        assert sim.engine.profiler is prof
        assert all(t.total > 0.0 for t in prof.history)
