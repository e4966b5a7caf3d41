"""End-to-end fault-layer tests: zero overhead, reproducibility, chaos cells."""

from __future__ import annotations

from repro.config import ProtocolParams
from repro.core.runner import MaintenanceSimulation
from repro.experiments.e_chaos import chaos_scenario, default_cells
from repro.experiments.registry import all_experiments
from repro.faults.plan import FaultPlan
from repro.scenarios.runner import cell_ok, run_scenario_cell
from repro.sim.audit import Auditor
from repro.sim.engine import Engine, NodeContext, NodeProtocol


def small_params(seed=5):
    return ProtocolParams.calibrated(24, seed=seed, alpha=0.25, kappa=1.25)


class ChatterProtocol(NodeProtocol):
    """Deterministic chatter exercising unicast, multicast and the inbox."""

    def __init__(self, node_id: int, services) -> None:
        self.node_id = node_id

    def on_round(self, ctx: NodeContext) -> None:
        n = ctx.params.n
        ctx.send((ctx.node_id + 1) % n, ("tick", ctx.round))
        if ctx.node_id % 3 == 0:
            ctx.send_singles_batch([((ctx.node_id + k) % n, "mc") for k in (2, 3, 4)])
        for src, _ in ctx.inbox:
            if (ctx.node_id + ctx.round) % 5 == 0:
                ctx.send(src, "ack")


class TestZeroOverheadWhenOff:
    """An all-zero FaultPlan must be byte-identical to no fault layer at all."""

    def test_engine_metrics_identical(self):
        params = ProtocolParams(n=16, seed=1, alpha=0.25)

        def run(**kw):
            eng = Engine(params, lambda v, s: ChatterProtocol(v, s), **kw)
            eng.seed_nodes(range(16))
            eng.run(6)
            return eng

        plain = run()
        gated = run(faults=FaultPlan.none())
        assert gated.metrics.history == plain.metrics.history
        for t in range(6):
            assert gated.trace.edges_at(t) == plain.trace.edges_at(t)
        assert all(m.faults is None for m in gated.metrics.history)
        assert gated.metrics.fault_totals().injected == 0

    def test_maintenance_metrics_identical(self):
        params = small_params()
        plain = MaintenanceSimulation(params)
        gated = MaintenanceSimulation(params, faults=FaultPlan.none())
        rounds = 10
        plain.run(rounds)
        gated.run(rounds)
        assert gated.engine.metrics.history == plain.engine.metrics.history


class TestDeterministicReproducibility:
    """Same seed + non-trivial plan => identical schedules and event streams."""

    def run_once(self):
        params = small_params()
        plan = FaultPlan.simple(
            seed=9, drop_p=0.3, delay_p=0.3, stall_p=0.15, start=4
        )
        monitor = Auditor()
        sim = MaintenanceSimulation(params, faults=plan)
        sim.engine.attach(monitor)
        sim.run(16)
        fault_series = [m.faults for m in sim.engine.metrics.history]
        return fault_series, list(monitor.verdicts), sim.engine.metrics.fault_totals()

    def test_two_runs_identical(self):
        series_a, events_a, totals_a = self.run_once()
        series_b, events_b, totals_b = self.run_once()
        assert totals_a.injected > 0  # the plan actually fired
        assert series_a == series_b
        assert events_a == events_b
        assert totals_a == totals_b

    def test_faults_quiet_before_window(self):
        series, _, _ = self.run_once()
        assert all(f is None for f in series[:4])
        assert any(f is not None for f in series[4:])


class TestChaosCells:
    def test_zero_cell_reproduces_paper_guarantees(self):
        scenario = chaos_scenario((0.0, 0.0, 0.0), n=24)
        cell = run_scenario_cell((scenario, 5))
        assert cell["faults_injected"] == 0
        assert cell["probes"]["delivery_rate"] >= 0.95
        assert cell["established_fraction"] >= 0.95
        assert cell["recovery"]["events"] == 0
        assert cell["recovery"]["time_to_first_degradation"] is None
        assert cell_ok(scenario, cell)

    def test_harsh_cell_degrades_gracefully(self):
        """Heavy combined faults bend the overlay; the run reports, not dies."""
        scenario = chaos_scenario((0.4, 0.3, 0.1), n=24)
        cell = run_scenario_cell((scenario, 5))
        assert cell["faults_injected"] > 0
        assert (cell["probes"]["delivery_rate"] or 0.0) < 1.0
        assert cell["recovery"]["events"] > 0
        assert cell["recovery"]["time_to_first_degradation"] is not None
        assert cell_ok(scenario, cell)


class TestExperimentWiring:
    def test_e_chaos_registered(self):
        assert "E-CH" in all_experiments()

    def test_default_cells_include_baseline_and_faults(self):
        for quick in (True, False):
            cells = default_cells(quick)
            assert (0.0, 0.0, 0.0) in cells
            assert any(any(axis > 0 for axis in cell) for cell in cells)
        assert len(default_cells(False)) == 12
        # Each cell is a generated scenario: no churn, no attack, and a run
        # of a dilation plus 6 rounds past bootstrap.
        scenario = chaos_scenario((0.15, 0.0, 0.0), n=40)
        assert scenario.name == "chaos-d0.15-y0-s0"
        assert scenario.adversaries == ()
        assert scenario.rounds == 2 * 6 + 2 + 6  # lam = 6 at n=40

    def test_near_equal_probabilities_are_distinct_cells(self):
        # A 6-significant-digit name would give both cells one name, and the
        # scenario runner rejects a grid with a repeated name.
        assert (
            chaos_scenario((0.1000001, 0, 0), 40).name
            != chaos_scenario((0.1000002, 0, 0), 40).name
        )

    def test_report_order_includes_chaos(self):
        from repro.experiments.report import DEFAULT_ORDER

        assert "E-CH" in DEFAULT_ORDER
