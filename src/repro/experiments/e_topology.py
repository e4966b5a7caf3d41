"""E-L6 and E-L12 — topology lemmas.

* **E-L6 (Swarm Property, Lemma 6)**: over many random LDS instances, every
  node of ``S(p)`` is connected to all of ``S(p/2)`` and ``S((p+1)/2)``; the
  property must also *fail* once the De Bruijn radius is shrunk below the
  lemma's 3/2 factor (showing the constant is load-bearing).
* **E-L12 (Trajectory census, Lemma 12)**: the number of trajectories whose
  ``j``-th step falls in an interval ``I`` concentrates around ``k*n*|I|``
  for every middle step ``j``.
"""

from __future__ import annotations

import numpy as np

from repro.config import ProtocolParams
from repro.experiments.registry import ExperimentResult, register
from repro.overlay.lds import LDSGraph
from repro.overlay.trajectory import crossing_counts
from repro.util.intervals import Arc

__all__ = ["run_lemma6", "run_lemma12"]


@register("E-L6")
def run_lemma6(quick: bool = True, seed: int = 0) -> ExperimentResult:
    sizes = [64, 128] if quick else [64, 128, 256, 512]
    instances = 5 if quick else 20
    points_per = 20 if quick else 50
    header = ["n", "instances", "points", "violations (paper radii)", "violations (radii/4)"]
    rows = []
    passed = True
    rng = np.random.default_rng(seed)
    for n in sizes:
        params = ProtocolParams(n=n, seed=seed)
        # Edges at a quarter of Definition 5's radii, held to the true swarms.
        shrunk = params.with_updates(c=params.c * 0.25)
        good_bad = 0
        shrunk_bad = 0
        for i in range(instances):
            graph = LDSGraph.random(params, rng)
            points = rng.random(points_per)
            good_bad += graph.swarm_violations(points)
            shrunk_bad += LDSGraph(graph.index, shrunk).swarm_violations(
                points, params.swarm_radius
            )
        passed = passed and good_bad == 0 and shrunk_bad > 0
        rows.append([n, instances, instances * points_per, good_bad, shrunk_bad])
    return ExperimentResult(
        experiment_id="E-L6",
        title="Lemma 6 — the Swarm Property",
        claim="Every node of S(p) has edges to all of S(p/2) and S((p+1)/2); "
        "shrinking the edge radii far below Definition 5 breaks this.",
        header=header,
        rows=rows,
        passed=passed,
    )


@register("E-L12")
def run_lemma12(quick: bool = True, seed: int = 0) -> ExperimentResult:
    n = 2000 if quick else 20000
    k = 2
    lam = ProtocolParams(n=max(64, n // 10), seed=seed).lam + 4
    rng = np.random.default_rng(seed)
    sources = rng.random(n * k)
    targets = rng.random(n * k)
    interval = Arc(0.37, 0.04)  # |I| = 0.08
    expected = k * n * interval.length
    header = ["step j", "observed X_I^j", "expected k*n*|I|", "rel. error"]
    rows = []
    passed = True
    steps = [0, 1, lam // 2, lam - 1, lam, lam + 1]
    for j in steps:
        got = crossing_counts(sources, targets, lam, interval, j)
        rel = abs(got - expected) / expected
        # Middle steps concentrate tightly; endpoints are the node/target
        # densities themselves and share the same expectation.
        passed = passed and rel < (0.30 if quick else 0.12)
        rows.append([j, got, expected, rel])
    return ExperimentResult(
        experiment_id="E-L12",
        title="Lemma 12 — trajectory-interval crossing census",
        claim="E[#trajectories with step j in I] = k*n*|I| for every step j.",
        header=header,
        rows=rows,
        passed=passed,
        notes=[f"n={n}, k={k}, lam={lam}, |I|={interval.length:.3f}"],
    )
