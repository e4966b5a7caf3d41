"""E-X2 (extension) — running on estimated network sizes.

Section 3 assumes every node knows ``n`` and ``kappa`` and remarks that all
algorithms work with close estimates of ``lam`` and ``lam/n`` (citing the
estimation techniques of Richa et al. and King & Saia).  This experiment
validates the remark: nodes estimate ``n`` purely from local neighbour
distances, the protocol constants are re-derived from the median estimate,
and (a) the Swarm Property and (b) end-to-end routing still hold with the
estimated radii.
"""

from __future__ import annotations

import numpy as np

from repro.config import ProtocolParams
from repro.experiments.registry import ExperimentResult, register
from repro.overlay.estimation import median_size_estimate, params_from_estimate
from repro.overlay.lds import LDSGraph
from repro.overlay.positions import PositionIndex
from repro.routing.series import SeriesRouter

__all__ = ["run_estimation"]


@register("E-X2")
def run_estimation(quick: bool = True, seed: int = 17) -> ExperimentResult:
    sizes = [128, 256] if quick else [128, 256, 512, 1024]
    rng = np.random.default_rng(seed)
    header = [
        "true n",
        "median estimate",
        "rel. error",
        "lam (true/est)",
        "swarm property (no slack)",
        "swarm property (c x1.2 slack)",
        "routing delivery w/ est. n",
    ]
    rows = []
    passed = True
    for n in sizes:
        base = ProtocolParams(n=n, c=1.5, r=2, seed=seed)
        index = PositionIndex({i: float(p) for i, p in enumerate(rng.random(n))})
        est = median_size_estimate(index)
        rel = abs(est - n) / n
        derived = params_from_estimate(base, est)  # default 1.2x c slack

        # (a) Structure: does the Swarm Property (for true-radius swarms)
        # hold with edges derived purely from the estimate?  Lemma 6's radii
        # are exactly tight, so without slack an overestimate of n can break
        # it — the slack column is the protocol answer.
        def swarm_property(params_used) -> bool:
            graph = LDSGraph(index, params_used)
            points = rng.random(10 if quick else 25)
            return graph.swarm_violations(points, base.swarm_radius) == 0

        no_slack_ok = swarm_property(params_from_estimate(base, est, safety=1.0))
        slack_ok = swarm_property(derived)

        # (b) Behaviour: routing parameterised entirely by the estimate.
        router = SeriesRouter(derived, node_ids=range(n), seed=seed)
        targets = rng.random(32)
        ids = [router.send(int(rng.integers(0, n)), float(t)) for t in targets]
        router.run_until_quiet()
        delivery = sum(1 for i in ids if router.outcomes[i].delivered) / len(ids)

        ok = rel < 0.3 and slack_ok and delivery >= 0.97
        passed = passed and ok
        rows.append(
            [n, est, rel, f"{base.lam}/{derived.lam}", no_slack_ok, slack_ok, delivery]
        )
    return ExperimentResult(
        experiment_id="E-X2",
        title="Extension — protocol constants from estimated n",
        claim="Local density estimation recovers n within ~30%; radii "
        "re-derived with a constant slack factor preserve the Swarm "
        "Property and routing (without slack, Lemma 6's tight radii can "
        "fail under an overestimate — a reproduction finding).",
        header=header,
        rows=rows,
        passed=passed,
    )
