"""E-L24 — congestion scales polylogarithmically (O(log^3 n) per node/round).

We run the full maintenance protocol (no churn — churn only reduces traffic)
across a range of ``n`` with the protocol's Theta(log n) parameter scalings
(``delta ~ lam/2``, ``tau ~ lam``), measure the steady-state peak per-node
message count, and check the *shape*: the measured congestion divided by
``lam^3`` must stay within a constant band, while any polynomial model
``n^eps`` would drift.  A log-power fit reports the exponent.

It stays a hand loop rather than a scenario cell: it scales ``delta`` and
``tau`` with ``n`` where every scenario runs the calibrated constants, and
it reads the per-round send counts of a steady-state window.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.estimators import fit_log_power
from repro.config import ProtocolParams
from repro.core.runner import MaintenanceSimulation
from repro.experiments.registry import ExperimentResult, register

__all__ = ["run_congestion"]


def _measure(n: int, seed: int) -> tuple[int, float, float]:
    lam = ProtocolParams(n=n, seed=seed).lam
    params = ProtocolParams.calibrated(
        n, seed=seed, delta=max(2, lam // 2), tau=max(4, lam)
    )
    sim = MaintenanceSimulation(params)
    warmup = 2 * (params.lam + 3)
    sim.run(warmup)
    before = len(sim.engine.metrics.history)
    sim.run(10)
    window = sim.engine.metrics.history[before:]
    peak = max(m.max_sent for m in window)
    mean = float(np.mean([m.mean_sent for m in window]))
    return params.lam, peak, mean


@register("E-L24")
def run_congestion(quick: bool = True, seed: int = 10) -> ExperimentResult:
    sizes = [32, 48, 64] if quick else [32, 48, 64, 96, 128]
    header = ["n", "lam", "peak sent/node/round", "mean sent/node/round", "peak / lam^3"]
    rows = []
    lams, peaks, ratios = [], [], []
    for n in sizes:
        lam, peak, mean = _measure(n, seed)
        ratio = peak / lam**3
        rows.append([n, lam, peak, mean, ratio])
        lams.append(lam)
        peaks.append(peak)
        ratios.append(ratio)
    # Shape check 1: the lam^3-normalised constant stays in a narrow band.
    band = max(ratios) / min(ratios)
    # Shape check 2: fitted exponent of peak ~ a * lam^b.
    if len(set(lams)) >= 2:
        _, exponent = fit_log_power(np.array(sizes), np.array(peaks, dtype=float))
    else:  # degenerate sweep (all sizes share lam)
        exponent = float("nan")
    passed = band <= 3.0
    return ExperimentResult(
        experiment_id="E-L24",
        title="Lemma 24 — O(log^3 n) congestion per node and round",
        claim="Peak per-node message counts grow as a constant times lam^3.",
        header=header,
        rows=rows,
        passed=passed,
        notes=[
            f"normalisation band max/min = {band:.2f} (<= 3 accepted)",
            f"fitted exponent of peak ~ (log2 n)^b: b = {exponent:.2f}",
        ],
    )
