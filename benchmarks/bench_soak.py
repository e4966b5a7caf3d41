"""Soak benchmark — a long Theorem-14 horizon with live audits.

The paper claims routability for ``O(n^k)`` rounds; any finite run samples
that claim.  This soak runs the full protocol under budget-maximal random
churn for many complete reconfiguration cycles, auditing the overlay every
10 rounds and probing continuously.  It is the closest thing to "leave it
running overnight" that fits a benchmark suite.
"""

from __future__ import annotations

import numpy as np

from repro.adversary.oblivious import RandomChurnAdversary
from repro.config import ProtocolParams
from repro.core.runner import MaintenanceSimulation


def test_soak_long_horizon(benchmark, quick):
    rounds = 100 if quick else 600
    params = ProtocolParams.calibrated(48, seed=41, alpha=0.25, kappa=1.25)
    adv = RandomChurnAdversary(params, seed=42)
    sim = MaintenanceSimulation(params, adversary=adv)
    rng = np.random.default_rng(0)
    audits: list[float] = []
    probe_ids: list = []

    def soak():
        chunks = rounds // 10
        for chunk in range(chunks):
            sim.run(10)
            if chunk >= 2:
                probe_ids.extend(sim.send_probes(2, rng))
            audits.append(sim.audit_overlay().edge_coverage)
        sim.run(2 * params.dilation + 4)
        return sim.round

    benchmark.pedantic(soak, rounds=1, iterations=1)

    # Every audited epoch had full Definition-5 coverage.
    assert min(audits) >= 0.999, f"coverage dipped: {min(audits)}"
    # Every probe that landed was delivered to its whole target swarm.
    report = sim.probe_report(probe_ids)
    assert report.delivery_rate == 1.0, report
    # Nobody ever fell out of the overlay.
    assert sim.health_summary()["total_demotions"] == 0
