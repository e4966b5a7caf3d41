"""The auditor's degradation audits and their summaries, on toy protocols
(no lifecycle, so no contract clause fires: see test_protocol_contract.py)."""

from __future__ import annotations

import pytest

from repro.analysis.connectivity import components
from repro.config import ProtocolParams
from repro.core.runner import MaintenanceSimulation
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import build_adversary, build_params, materialize_plan
from repro.sim.audit import Auditor, Verdict
from repro.sim.engine import Engine, NodeContext, NodeProtocol


class RingProtocol(NodeProtocol):
    """Every node talks to its ring successor each round (connected graph)."""

    def __init__(self, node_id: int, services) -> None:
        self.node_id = node_id

    def on_round(self, ctx: NodeContext) -> None:
        ctx.send((ctx.node_id + 1) % ctx.params.n, "hb")


class TwoIslandsProtocol(NodeProtocol):
    """Nodes only ever talk within their half — a permanently split graph."""

    def __init__(self, node_id: int, services) -> None:
        self.node_id = node_id

    def on_round(self, ctx: NodeContext) -> None:
        half = ctx.params.n // 2
        base = 0 if ctx.node_id < half else half
        ctx.send(base + (ctx.node_id - base + 1) % half, "hb")


class SilentProtocol(NodeProtocol):
    """Never sends anything."""

    def __init__(self, node_id: int, services) -> None:
        self.node_id = node_id

    def on_round(self, ctx: NodeContext) -> None:
        pass


class OverlayStub(NodeProtocol):
    """Exposes pos/epoch/d_nbrs so the structural audits engage.

    Positions are spread evenly over the ring, neighbourhoods are the
    symmetric ring edges — a healthy overlay by construction.  Class
    attributes let tests break one invariant at a time.
    """

    broken_symmetry = False
    collapse_positions = False
    unplaced = False  # no node holds a position yet

    def __init__(self, node_id: int, services) -> None:
        self.node_id = node_id
        n = services.params.n
        self.pos = 0.0 if self.collapse_positions else node_id / n
        if self.unplaced:
            self.pos = None
        self.epoch = 0
        left, right = (node_id - 1) % n, (node_id + 1) % n
        self.d_nbrs = {left: None, right: None}
        if self.broken_symmetry and node_id == 0:
            self.d_nbrs[n // 2] = None  # node n//2 does not point back

    def on_round(self, ctx: NodeContext) -> None:
        ctx.send((ctx.node_id + 1) % ctx.params.n, "hb")


def run_monitored(protocol_cls, rounds=3, n=16):
    params = ProtocolParams(n=n, seed=1, alpha=0.25)
    monitor = Auditor()
    eng = Engine(params, lambda v, s: protocol_cls(v, s), observers=[monitor])
    eng.seed_nodes(range(n))
    reports = eng.run(rounds)
    assert monitor.violations == []
    return monitor, reports


class TestConnectivityAudit:
    def test_connected_graph_no_events(self):
        monitor, _ = run_monitored(RingProtocol)
        assert monitor.verdicts == []
        assert monitor.first_degradation_round is None

    def test_split_graph_reports_disconnected(self):
        monitor, reports = run_monitored(TwoIslandsProtocol)
        kinds = {e.kind for e in monitor.verdicts}
        assert kinds == {"disconnected"}
        assert all(e.severity == "critical" for e in monitor.verdicts)
        assert monitor.first_degradation_round == 0
        # A verdict carries the round whose end raised it.
        assert monitor.verdicts[0].round == reports[0].round

    def test_silent_window_is_not_a_partition(self):
        monitor, _ = run_monitored(SilentProtocol)
        assert monitor.verdicts == []


def reference_connectivity(engine: Engine, t: int) -> list[Verdict]:
    """The connectivity audit as a walk over every copy of two rounds — the
    oracle the column queries of ``_audit_connectivity`` must reproduce."""
    mature = {
        v
        for v in engine.alive
        if t - engine.lifecycle.joined_round(v) >= Auditor.MATURITY_AGE
    }
    if len(mature) < 2:
        return []
    knows: dict[int, set[int]] = {v: set() for v in mature}
    any_edges = False
    for rnd in (t - 1, t):
        for src, dst in engine.trace.edges_at(rnd) or []:
            if src in mature and dst in mature:
                knows[src].add(dst)
                any_edges = True
    comps = components(knows)
    if not any_edges or len(comps) <= 1:
        return []
    sizes = sorted((len(c) for c in comps), reverse=True)
    detail = (
        f"communication graph split into {len(comps)} components "
        f"(sizes {sizes[:5]}{'...' if len(sizes) > 5 else ''})"
    )
    return [Verdict(t, "disconnected", "critical", detail)]


class TestConnectivityOracle:
    @pytest.mark.parametrize(
        ("protocol_cls", "degraded"),
        [(TwoIslandsProtocol, True), (RingProtocol, False), (SilentProtocol, False)],
    )
    def test_toy_protocols_match_the_per_copy_reference(self, protocol_cls, degraded):
        params = ProtocolParams(n=16, seed=1, alpha=0.25)
        monitor = Auditor()
        eng = Engine(params, lambda v, s: protocol_cls(v, s))
        eng.seed_nodes(range(16))
        for t in range(3):
            eng.run_round()
            events = monitor._audit_connectivity(eng, t)
            assert events == reference_connectivity(eng, t)
            assert bool(events) == degraded

    def test_scenario_with_churn_matches_the_per_copy_reference(self):
        """A registry scenario: churn (immature nodes masked out, ids past the
        seed population) under loss.  Its graph stays connected — a dropped
        copy keeps its edge — so the masked pair set is compared as well."""
        scenario = get_scenario("churn-loss")
        params = build_params(scenario.n, 3)
        monitor = Auditor()
        with MaintenanceSimulation(
            params,
            build_adversary(scenario, params, 3),
            strict_budget=False,
            faults=materialize_plan(scenario, params, 3),
        ) as sim:
            eng = sim.engine
            masked = 0
            for t in range(params.bootstrap_rounds + 16):
                eng.run_round()
                assert monitor._audit_connectivity(eng, t) == reference_connectivity(
                    eng, t
                )
                mature = {
                    v for v in eng.alive if t - eng.lifecycle.joined_round(v) >= 2
                }
                masked += len(eng.alive - mature)
                edges = eng.trace.edges_at(t)
                assert set(edges.pairs_among(mature)) == {
                    (s, d) for s, d in edges if s in mature and d in mature
                }
            assert masked > 0  # some round audited around a newcomer


class TestStructuralAudits:
    def setup_method(self):
        OverlayStub.broken_symmetry = False
        OverlayStub.collapse_positions = False
        OverlayStub.unplaced = False

    teardown_method = setup_method

    def test_healthy_overlay_no_events(self):
        monitor, _ = run_monitored(OverlayStub, rounds=2)
        assert monitor.verdicts == []

    def test_one_sided_edge_reports_asymmetry(self):
        OverlayStub.broken_symmetry = True
        monitor, _ = run_monitored(OverlayStub, rounds=1)
        kinds = monitor.counts_by_kind()
        assert kinds.get("asymmetric-list") == 1
        assert monitor.verdicts[0].severity == "warn"

    def test_one_way_debruijn_edge_is_not_owed_back(self):
        """At n=128, node n/2 sits in node 0's De Bruijn arc around 1/2, but
        0 lies in none of node n/2's arcs: that edge is owed one way only."""
        OverlayStub.broken_symmetry = True
        monitor, _ = run_monitored(OverlayStub, rounds=1, n=128)
        assert monitor.verdicts == []

    def test_collapsed_positions_report_empty_swarms(self):
        OverlayStub.collapse_positions = True
        monitor, _ = run_monitored(OverlayStub, rounds=1)
        assert "empty-swarm" in monitor.counts_by_kind()
        assert any(e.severity == "critical" for e in monitor.verdicts)

    def test_overlay_without_positions_reports_every_swarm_empty(self):
        """Alive overlay nodes, none holding both a position and an epoch:
        every sampled point's swarm is empty (a positionless protocol, like
        RingProtocol above, has no swarms to audit)."""
        OverlayStub.unplaced = True
        monitor, _ = run_monitored(OverlayStub, rounds=1)
        [verdict] = monitor.verdicts
        assert (verdict.kind, verdict.severity) == ("empty-swarm", "critical")
        points = Auditor.SAMPLE_POINTS
        assert verdict.detail.startswith(f"{points}/{points} sampled points")

    def test_observing_never_perturbs_the_run(self):
        params = ProtocolParams(n=16, seed=1, alpha=0.25)
        plain = Engine(params, lambda v, s: RingProtocol(v, s))
        plain.seed_nodes(range(16))
        watched = Engine(
            params, lambda v, s: RingProtocol(v, s), observers=[Auditor()]
        )
        watched.seed_nodes(range(16))
        m0 = [r.metrics for r in plain.run(4)]
        m1 = [r.metrics for r in watched.run(4)]
        assert m0 == m1


class TestSummaries:
    def test_summary_shape(self):
        monitor, _ = run_monitored(TwoIslandsProtocol, rounds=2)
        assert len(monitor.verdicts) == len(monitor.degradations) == 2
        assert monitor.first_degradation_round == 0
        assert monitor.counts_by_kind() == {"disconnected": 2}

    def test_empty_summary(self):
        monitor, _ = run_monitored(RingProtocol, rounds=1)
        assert monitor.verdicts == []
        assert monitor.counts_by_kind() == {}
        assert monitor.first_degradation_round is None
        assert monitor.degraded_round_fraction == 0.0
        assert monitor.time_to_recover is None

    def test_degraded_round_fraction(self):
        monitor, _ = run_monitored(TwoIslandsProtocol, rounds=4)
        assert monitor.rounds_observed == 4
        assert monitor.degraded_round_fraction == 1.0
        healthy, _ = run_monitored(RingProtocol, rounds=4)
        assert healthy.degraded_round_fraction == 0.0

    def test_time_to_recover_none_while_degraded(self):
        monitor, _ = run_monitored(TwoIslandsProtocol, rounds=3)
        # Every audited round is degraded, so the run never recovers.
        assert monitor.time_to_recover is None

    def test_time_to_recover_counts_clean_tail(self):
        params = ProtocolParams(n=16, seed=1, alpha=0.25)
        monitor = Auditor()
        eng = Engine(params, lambda v, s: RingProtocol(v, s), observers=[monitor])
        eng.seed_nodes(range(16))
        eng.run(4)
        # Inject a synthetic degradation at round 1 and re-derive the
        # recovery time; a violation is no degradation and moves nothing.
        monitor.verdicts.append(
            Verdict(round=1, kind="disconnected", severity="critical", detail="x")
        )
        monitor.verdicts.append(Verdict(round=2, kind="wall", severity="violation", detail="y"))
        assert monitor.time_to_recover == 2  # rounds 2..3 clean
        assert monitor.counts_by_kind() == {"disconnected": 1}
        assert [v.kind for v in monitor.violations] == ["wall"]

    def test_empty_alive_set_skipped(self):
        params = ProtocolParams(n=8, seed=1, alpha=0.25)
        monitor = Auditor()
        eng = Engine(params, lambda v, s: RingProtocol(v, s), observers=[monitor])
        eng.run(2)  # no nodes seeded: alive set is empty every round
        assert monitor.verdicts == []
        assert monitor.rounds_observed == 0
        assert monitor.degraded_round_fraction == 0.0
