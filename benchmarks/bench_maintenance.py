"""Bench E-L17 / E-L22 — maintenance invariants, plus a protocol-round
micro-benchmark (the simulator's core cost)."""

from __future__ import annotations

from repro.config import ProtocolParams
from repro.core.runner import MaintenanceSimulation


def test_lemma17_good_swarms(run_experiment):
    run_experiment("E-L17")


def test_lemma22_connect_bound(run_experiment):
    run_experiment("E-L22")


def test_micro_protocol_rounds(benchmark, quick, record_bench):
    """Steady-state cost of one maintenance round (n=48, no churn)."""
    params = ProtocolParams.calibrated(48, seed=1)
    sim = MaintenanceSimulation(params)
    sim.run(2 * (params.lam + 3))  # reach steady state

    def two_rounds():
        sim.run(2)
        return sim.round

    benchmark.pedantic(two_rounds, rounds=3 if quick else 10, iterations=1)
    record_bench(benchmark, "micro_protocol_rounds", n=params.n, rounds=2)
    assert sim.audit_overlay().edge_coverage == 1.0
