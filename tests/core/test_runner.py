"""Unit tests for the maintenance runner's audits and probe bookkeeping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary.base import Adversary, ChurnDecision, JoinRequest
from repro.config import ProtocolParams
from repro.core.bootstrap import prime_initial_overlay
from repro.core.runner import MaintenanceSimulation, OverlayAudit, ProbeReport
from repro.sim.audit import Auditor


@pytest.fixture(scope="module")
def warm_sim():
    params = ProtocolParams.calibrated(40, seed=21)
    sim = MaintenanceSimulation(params)
    sim.run(2 * (params.lam + 3))
    return sim


class TestAudits:
    def test_initial_graph_matches_params(self):
        params = ProtocolParams.calibrated(40, seed=21)
        sim = MaintenanceSimulation(params)
        assert len(sim.initial_graph) == params.n

    def test_audit_fields(self, warm_sim):
        audit = warm_sim.audit_overlay()
        assert isinstance(audit, OverlayAudit)
        assert audit.members == 40
        assert audit.alive == 40
        assert audit.established_fraction == 1.0
        assert audit.required_edges > 0
        assert audit.edge_coverage == 1.0
        assert audit.min_swarm_size >= 1

    def test_health_summary_keys(self, warm_sim):
        h = warm_sim.health_summary()
        for key in (
            "round",
            "alive",
            "established_fraction",
            "total_demotions",
            "peak_congestion",
            "mean_congestion",
        ):
            assert key in h

    def test_empty_audit_when_nothing_established(self):
        params = ProtocolParams.calibrated(40, seed=22)
        sim = MaintenanceSimulation(params)
        for node in sim.alive_nodes():
            node.phase = type(node.phase).FRESH
        audit = sim.audit_overlay()
        assert audit.members == 0
        assert audit.established_fraction == 0.0
        assert audit.edge_coverage == 1.0  # vacuous

    def test_an_epoch_tie_goes_to_the_newer_epoch(self):
        """Half the nodes moved on to the next epoch: the audit and the
        auditor both inspect the newer half."""
        params = ProtocolParams.calibrated(24, seed=5, alpha=0.25, kappa=1.25)
        monitor = Auditor()
        sim = MaintenanceSimulation(params)
        sim.engine.attach(monitor)
        nodes = sim.alive_nodes()
        (old,) = {node.epoch for node in nodes}
        moved = nodes[: len(nodes) // 2]
        for node in moved:
            node.epoch = old + 1
            node.pos = sim.services.position_hash.position(node.id, old + 1)
        audit = sim.audit_overlay()
        assert (audit.epoch, audit.members) == (old + 1, len(moved))
        snapshot = monitor._overlay_snapshot(sim.engine)
        assert sorted(snapshot) == sorted(node.id for node in moved)


class TestProbes:
    def test_probe_report_empty(self, warm_sim):
        report = warm_sim.probe_report([])
        assert isinstance(report, ProbeReport)
        assert report.launched == 0
        assert report.delivery_rate == 1.0

    def test_probe_roundtrip(self, warm_sim):
        rng = np.random.default_rng(5)
        ids = warm_sim.send_probes(3, rng)
        warm_sim.run(2 * warm_sim.params.dilation + 4)
        report = warm_sim.probe_report(ids)
        assert report.launched == 3
        assert report.delivered == 3
        assert report.mean_receivers >= 1
        arrivals = warm_sim.probe_arrivals(ids)
        assert list(arrivals) == ids
        assert sum(map(len, arrivals.values())) == 3 * report.mean_receivers
        assert all(min(rounds) > warm_sim.round - 2 * warm_sim.params.dilation - 4
                   for rounds in arrivals.values())

    def test_probe_ids_unique(self, warm_sim):
        rng = np.random.default_rng(6)
        a = warm_sim.send_probes(2, rng)
        b = warm_sim.send_probes(2, rng)
        assert len(set(a) | set(b)) == 4

    def test_probe_origins_are_established_nodes(self, warm_sim):
        ids = warm_sim.send_probes(3, np.random.default_rng(7))
        established = warm_sim.established_nodes()
        assert all(warm_sim.probe_origins[pid] in established for pid in ids)


class _EvictAt(Adversary):
    """At round ``at``, ``victim`` leaves and a fresh node joins in its place."""

    def __init__(self, victim: int, at: int) -> None:
        super().__init__(active_from=at)
        self.victim = victim
        self.at = at

    def decide(self, view):
        if view.round != self.at:
            return ChurnDecision.none()
        boot = max(view.eligible_bootstraps() - {self.victim})
        return ChurnDecision(
            leaves=frozenset({self.victim}), joins=(JoinRequest(view.fresh_id(), boot),)
        )


class TestNodeCounters:
    COUNTERS = ("total_demotions", "connects_received", "connects_dropped")

    def test_departed_nodes_keep_their_counts(self):
        params = ProtocolParams.calibrated(24, seed=5, alpha=0.25, kappa=1.25)
        at = params.bootstrap_rounds
        with MaintenanceSimulation(params, _EvictAt(victim=3, at=at)) as sim:
            sim.run(at)
            victim = sim.node(3)
            victim.demotions = 2
            victim.connects_received += 7
            victim.connects_dropped += 1
            victim.max_connects_in_round = 99
            before = sim.health_summary()
            sim.run(1)
            assert 3 not in sim.engine.alive
            after = sim.health_summary()
        assert sim.engine.metrics.departed["demotions"] == 2
        assert after["max_connects_in_round"] == 99
        for name in self.COUNTERS:
            assert after[name] >= before[name] > 0

    def test_sharded_runs_reject_the_summary(self):
        with MaintenanceSimulation(ProtocolParams.calibrated(16, seed=1), workers=2) as sim:
            with pytest.raises(ValueError, match="workers=1"):
                sim.health_summary()


class TestBootstrapPriming:
    def test_prime_requires_round_zero(self):
        params = ProtocolParams.calibrated(40, seed=23)
        sim = MaintenanceSimulation(params)
        sim.run(1)
        with pytest.raises(RuntimeError):
            prime_initial_overlay(sim.engine)

    def test_primed_nodes_have_definition5_neighborhoods(self):
        params = ProtocolParams.calibrated(40, seed=24)
        sim = MaintenanceSimulation(params)
        graph = sim.initial_graph
        for v in list(sim.engine.alive)[:8]:
            node = sim.node(v)
            assert set(node.d_nbrs) == {int(w) for w in graph.neighbors(v)}
            assert node.epoch == 0
