#!/usr/bin/env python3
"""Churn survival: run the full maintenance protocol against an adversary.

The paper's headline scenario (Theorem 14): a (2, O(log n))-late adversary
churns the network at the maximum rate the model allows while the protocol
rebuilds the entire overlay every two rounds.  We watch the overlay's health
live: established fraction, Definition-5 edge coverage, probe delivery.

Run:  python examples/churn_survival.py [--adversary random|contact|degree]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.adversary.oblivious import RandomChurnAdversary
from repro.adversary.swarm_wipe import ContactTraceAdversary, DegreeTargetAdversary
from repro.config import ProtocolParams
from repro.core.runner import MaintenanceSimulation


def make_adversary(name: str, params: ProtocolParams):
    if name == "random":
        return RandomChurnAdversary(params, seed=2)
    if name == "contact":
        return ContactTraceAdversary(params, victim=0, seed=2, topology_lateness=2)
    if name == "degree":
        return DegreeTargetAdversary(params, seed=2, top=6, topology_lateness=2)
    raise SystemExit(f"unknown adversary {name!r}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--adversary", default="random", choices=["random", "contact", "degree"]
    )
    parser.add_argument("--n", type=int, default=48)
    parser.add_argument("--chunks", type=int, default=8)
    args = parser.parse_args()

    params = ProtocolParams.calibrated(args.n, seed=1, alpha=0.25, kappa=1.25)
    adversary = make_adversary(args.adversary, params)
    sim = MaintenanceSimulation(params, adversary=adversary)
    rng = np.random.default_rng(0)

    print(
        f"n={params.n}, lam={params.lam}, adversary={args.adversary} "
        f"(2-late, budget {params.churn_budget}/{params.churn_window} rounds), "
        f"bootstrap {params.bootstrap_rounds} rounds"
    )
    print(
        f"{'round':>6} {'alive':>6} {'established':>12} {'coverage':>9} "
        f"{'probes':>9} {'demotions':>10} {'peak msgs':>10}"
    )
    probe_ids: list = []
    for chunk in range(args.chunks):
        sim.run(12)
        if chunk >= 1:
            probe_ids.extend(sim.send_probes(4, rng))
        health = sim.health_summary()
        audit = sim.audit_overlay()
        probe = sim.probe_report(probe_ids)
        print(
            f"{sim.round:>6} {int(health['alive']):>6} "
            f"{health['established_fraction']:>12.2f} "
            f"{audit.edge_coverage:>9.3f} "
            f"{probe.delivered:>4}/{probe.launched:<4} "
            f"{int(health['total_demotions']):>10} "
            f"{int(health['peak_congestion']):>10}"
        )
    # Let the last probes land and print the verdict.
    sim.run(2 * params.dilation)
    probe = sim.probe_report(probe_ids)
    print(
        f"\nfinal: delivery {probe.delivery_rate:.2%} "
        f"({probe.delivered}/{probe.launched} probes, "
        f"mean {probe.mean_receivers:.1f} receivers each), "
        f"coverage {sim.audit_overlay().edge_coverage:.3f}"
    )
    assert probe.delivery_rate >= 0.95, "routability violated!"
    print("the overlay stayed routable — two steps ahead of the adversary.")


if __name__ == "__main__":
    main()
