"""Tests for the distributed bootstrap construction."""

from __future__ import annotations

import pytest

from repro.config import ProtocolParams
from repro.core.construction import (
    ConstructionNode,
    build_initial_overlay_distributed,
    construction_schedule,
)
from repro.core.runner import MaintenanceSimulation
from repro.overlay.lds import LDSGraph
from repro.overlay.positions import PositionIndex
from repro.sim.engine import Engine
from repro.util.intervals import ring_distance


@pytest.fixture
def params() -> ProtocolParams:
    return ProtocolParams(n=64, c=1.5, seed=4)


class TestSchedule:
    def test_phases_ordered(self, params):
        s = construction_schedule(params)
        assert 0 < s.doubling_end < s.range_end <= s.push_round < s.find_start
        assert s.find_start < s.total_rounds

    def test_total_rounds_logarithmic(self):
        small = construction_schedule(ProtocolParams(n=32, seed=0))
        big = construction_schedule(ProtocolParams(n=1024, seed=0))
        # O(log n): 32x more nodes costs only ~3x log2(32) extra rounds.
        assert big.total_rounds - small.total_rounds <= 3 * 5 + 4

    def test_range_covers_list_arc(self, params):
        s = construction_schedule(params)
        assert 2**s.range_levels >= 4 * params.c * params.lam


class TestEndToEnd:
    @pytest.mark.parametrize("n", [32, 64, 96])
    def test_builds_definition5_superset(self, n):
        params = ProtocolParams(n=n, c=1.5, seed=4)
        # The construction raises on any missing Definition-5 edge.
        nbrs, rounds = build_initial_overlay_distributed(params)
        assert len(nbrs) == n
        assert rounds == construction_schedule(params).total_rounds

    def test_positions_in_neighborhoods_are_correct(self, params):
        nbrs, _ = build_initial_overlay_distributed(params)
        engine = Engine(params, lambda v, s: ConstructionNode(v, s))
        truth_hash = engine.services.position_hash
        for v, table in list(nbrs.items())[:8]:
            for w, pos in table.items():
                assert pos == truth_hash.position(w, 0)

    def test_neighborhoods_exclude_self(self, params):
        nbrs, _ = build_initial_overlay_distributed(params)
        for v, table in nbrs.items():
            assert v not in table

    def test_verification_catches_sabotage(self, params, monkeypatch):
        """If finalisation drops the De Bruijn contacts, verify must fail."""

        real = ConstructionNode._finalize

        def sabotaged(self):
            self.find_results = {0: {}, 1: {}}
            real(self)

        monkeypatch.setattr(ConstructionNode, "_finalize", sabotaged)
        with pytest.raises(RuntimeError, match="missing"):
            build_initial_overlay_distributed(params)

    def test_congestion_polylog(self, params):
        """No node sends more than O(lam^2)-ish messages in any round."""
        engine = Engine(params, lambda v, s: ConstructionNode(v, s))
        engine.seed_nodes(range(params.n))
        positions = {
            v: engine.services.position_hash.position(v, 0) for v in range(params.n)
        }
        order = sorted(positions, key=positions.__getitem__)
        for i, v in enumerate(order):
            succ = order[(i + 1) % len(order)]
            engine.protocol_of(v).seed_successor(succ, positions[succ])
        engine.run(construction_schedule(params).total_rounds)
        peak = engine.metrics.peak_congestion()
        assert peak <= 20 * params.lam**2


class TestMaintenanceIntegration:
    def test_maintenance_runs_on_constructed_bootstrap(self):
        params = ProtocolParams.calibrated(48, seed=9)
        sim = MaintenanceSimulation(params, distributed_bootstrap=True)
        sim.run(2 * (params.lam + 3))
        audit = sim.audit_overlay()
        assert audit.edge_coverage == 1.0
        assert audit.members == params.n
