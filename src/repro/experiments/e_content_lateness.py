"""E-X5 (extension) — the content-lateness threshold (the second half of
``(a, b)``).

The paper requires the adversary to be ``b = 2*lam + 7``-late on message
*contents*.  This experiment shows the bound is not slack: a JOIN launched at
round ``2s`` carries a position that only goes live at ``2s + 2*lam + 4``,
so an adversary that decrypts contents with lag ``b < 2*lam + 4`` reads a
**future** overlay and can annihilate one of its swarms before it exists —
no amount of reconfiguration or swarm redundancy survives a swarm that is
empty at birth.  At the paper's ``b`` every readable join wave has already
expired and the same adversary never fires.

It stays a hand loop rather than a scenario cell: the content-late
adversary needs the run's position hash and its own churn budget (C=60,
T=12), and its probes all target one fixed point, 0.5, where a cell's
probes target random points.
"""

from __future__ import annotations

import numpy as np

from repro.adversary.content_late import ContentLateAdversary
from repro.config import ProtocolParams
from repro.core.runner import MaintenanceSimulation
from repro.experiments.registry import ExperimentResult, register

__all__ = ["run_content_lateness"]


def _attack_params(seed: int, quick: bool) -> ProtocolParams:
    return ProtocolParams.calibrated(
        48 if quick else 64,
        seed=seed,
        alpha=0.5,
        kappa=1.5,
        churn_budget_override=60,
        churn_window_override=12,
    )


def _attack_run(b: int, seed: int, quick: bool) -> tuple[int, float, float]:
    params = _attack_params(seed, quick)
    sim = MaintenanceSimulation(params)
    adv = ContentLateAdversary(
        params, sim.services.position_hash, seed=seed + 1, state_lateness=b
    )
    sim.engine.adversary = adv
    rng = np.random.default_rng(seed)
    sim.run(params.bootstrap_rounds + 4)
    ids = []
    for i in range(10):
        origin = int(rng.choice(sorted(sim.established_nodes())))
        pid = ("cx5", b, i)
        sim.node(origin).queue_probe(pid, 0.5)
        ids.append(pid)
    sim.run(2 * params.dilation + 6)
    report = sim.probe_report(ids)
    health = sim.health_summary()
    return len(adv.wipes), report.delivery_rate, health["established_fraction"]


@register("E-X5")
def run_content_lateness(quick: bool = True, seed: int = 27) -> ExperimentResult:
    lam = _attack_params(seed, quick).lam
    cases = [
        (2 * lam, "future overlays readable", "collapses"),
        (2 * lam + 5, "live overlay readable", "collapses"),
        (2 * lam + 6, "only expired overlays readable", "survives"),
        (2 * lam + 7, "the paper's b (one round of slack)", "survives"),
    ]
    header = ["content lateness b", "regime", "future-swarm wipes", "probe delivery", "established frac", "ok"]
    rows = []
    passed = True
    for b, regime, expect in cases:
        wipes, delivery, established = _attack_run(b, seed, quick)
        if expect == "collapses":
            ok = wipes > 0 and (delivery <= 0.3 or established <= 0.5)
        else:
            ok = wipes == 0 and delivery >= 0.95 and established >= 0.9
        passed = passed and ok
        rows.append([f"{b} (2λ{b - 2 * lam:+d})", regime, wipes, delivery, established, ok])
    return ExperimentResult(
        experiment_id="E-X5",
        title="Extension — the content-lateness threshold",
        claim="Content knowledge with b <= 2*lam+5 reveals a live or future "
        "overlay and lets the adversary empty one of its swarms; "
        "b >= 2*lam+6 leaves only expired information (the paper's "
        "b = 2*lam+7 has one round of slack).",
        header=header,
        rows=rows,
        passed=passed,
        notes=[f"lam={lam}; the attacker holds the decrypted JOIN payloads "
               "with lag b, modelled as delayed access to the position hash"],
    )
