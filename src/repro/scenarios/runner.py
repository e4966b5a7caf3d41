"""Scenario execution — one cell per ``(scenario, seed)``, pool-parallel.

A cell builds the scenario's simulation (plan shifted past bootstrap, the
adversary list composed into one adversary, an :class:`~repro.sim.audit.Auditor`
attached), runs it round by round, launches up to two probe waves and
condenses the outcome into a plain-data record: routing stretch percentiles,
the contract violations, the recovery metrics (time to first degradation,
degraded-round fraction, time to recover), the audit's edge coverage, the
node counters of Lemma 22 and a fingerprint digest of everything observable.

Cells take :class:`Scenario` objects — registry entries and generated grids
(E-CH, E-T14) alike — and :func:`cell_ok` is their one pass criterion.  The
grid is sorted by ``(scenario name, seed)`` and every cell is a pure function
of ``(scenario, seed)``, so ``run_matrix(..., workers=4)`` is bit-for-bit
``workers=1``.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
from typing import Any, Sequence

import numpy as np

from repro.config import ProtocolParams
from repro.core.runner import MaintenanceSimulation, OverlayAudit
from repro.scenarios.spec import Scenario, build_adversary, build_params, materialize_plan
from repro.sim.audit import Auditor

__all__ = ["PROBES_PER_WAVE", "cell_ok", "run_scenario_cell", "run_matrix"]

#: Probes launched per wave (up to two waves per run).
PROBES_PER_WAVE = 6


def _percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _adverse(scenario: Scenario) -> bool:
    return not scenario.plan.is_trivial or bool(scenario.adversaries)


def _probe_waves(
    scenario: Scenario, params: ProtocolParams, total: int, close: int | None
) -> list[int]:
    """Wave rounds: 2 past bootstrap, then the round after the faults close
    (or, with adversity but no close, a dilation + 2 later) if it can land."""
    first = params.bootstrap_rounds + 2
    if close is not None:
        second = close + 1
    elif _adverse(scenario):
        second = first + params.dilation + 2
    else:
        return [first]
    lands = second != first and second + params.dilation + 1 <= total
    return [first, second] if lands else [first]


def _fingerprint(
    sim: MaintenanceSimulation, auditor: Auditor, audit: OverlayAudit, deliveries: dict
) -> str:
    """Digest of everything observable about the run (simfp's contract)."""
    rounds = []
    for report in sim.engine.reports:
        m = report.metrics
        f = m.faults
        rounds.append(
            (
                m.round,
                m.total_sent,
                m.max_sent,
                m.alive,
                None
                if f is None
                else (f.dropped, f.delayed, f.duplicated, f.stalled, f.deferred),
                tuple(sorted(report.decision.leaves)),
                tuple(sorted((j.new_id, j.bootstrap_id) for j in report.decision.joins)),
            )
        )
    parts = (
        tuple(rounds),
        tuple((v.round, v.kind, v.severity) for v in auditor.verdicts),
        (audit.epoch, audit.members, audit.alive, audit.missing_edges, audit.required_edges),
        tuple(sorted((repr(pid), d) for pid, d in deliveries.items())),
    )
    return hashlib.blake2b(repr(parts).encode(), digest_size=16).hexdigest()


def run_scenario_cell(task: tuple[Scenario, int]) -> dict[str, Any]:
    """Run one ``(scenario, seed)`` cell (worker entry point)."""
    scenario, seed = task
    params = build_params(scenario.n, seed)
    plan = materialize_plan(scenario, params, seed)
    adversary = build_adversary(scenario, params, seed)
    sim = MaintenanceSimulation(
        params,
        adversary,
        strict_budget=False,  # composed decisions may overspend; reject, don't raise
        faults=None if plan.is_trivial else plan,
    )
    auditor = Auditor()
    sim.engine.attach(auditor)
    total = params.bootstrap_rounds + scenario.rounds
    window_open, window_close = plan.fault_window()
    waves = _probe_waves(scenario, params, total, window_close)

    # Close even on mid-cell failure: under a sharded engine the simulation
    # owns worker processes and shared-memory slabs, and a pool worker that
    # leaks them strands /dev/shm segments past the cell.
    with sim:
        rng = np.random.default_rng(seed + 17)
        queued_at: dict[object, int] = {}
        for t in range(total):
            if t in waves:
                try:
                    for pid in sim.send_probes(PROBES_PER_WAVE, rng):
                        queued_at[pid] = t
                except RuntimeError:
                    pass  # overlay collapsed: nothing established to probe from
            sim.engine.run_round()

        # First-delivery round per probe (a probe reaches a whole swarm; the
        # earliest receipt defines its latency).
        deliveries = {
            pid: min(rounds) for pid, rounds in sim.probe_arrivals(queued_at).items() if rounds
        }

        # A probe enters the network with its origin's multicast, the odd
        # round after its launch; one whose origin left first was never sent.
        records = sim.engine.lifecycle.records
        origin_left = sum(
            not records[sim.probe_origins[pid]].alive_at(t + 1 + t % 2)
            for pid, t in queued_at.items()
        )
        sent = len(queued_at) - origin_left

        stretches = [
            (deliveries[pid] - queued_at[pid]) / params.dilation for pid in deliveries
        ]
        stretch = (
            {f"p{p}": _percentile(stretches, p) for p in (50, 95, 99)} if stretches else None
        )

        first = auditor.first_degradation_round
        last = auditor.last_degradation_round
        if window_close is None or last is None:
            after_close = None
        else:
            # Degradation rounds past the window close = how long the overlay
            # took to shake the damage off once the environment went quiet.
            after_close = max(0, last - window_close + 1)
        recovery = {
            "time_to_first_degradation": None
            if first is None or window_open is None
            else first - window_open,
            "degraded_round_fraction": auditor.degraded_round_fraction,
            "time_to_recover": auditor.time_to_recover,
            "recovery_rounds_after_close": after_close,
            "events": len(auditor.degradations),
            "events_by_kind": auditor.counts_by_kind(),
        }

        audit = sim.audit_overlay()
        health = sim.health_summary()
        totals = sim.engine.metrics.fault_totals()
        churned = sum(r.decision.churn_count for r in sim.engine.reports)
        return {
            "scenario": scenario.name,
            "seed": seed,
            "n": params.n,
            "rounds": total,
            "bootstrap_rounds": params.bootstrap_rounds,
            "fault_window": [window_open, window_close],
            "probes": {
                "launched": len(queued_at),
                "origin_left": origin_left,
                "delivered": len(deliveries),
                "delivery_rate": len(deliveries) / sent if sent else None,
            },
            "stretch": stretch,
            "violations": len(auditor.violations),
            "recovery": recovery,
            "established_fraction": audit.established_fraction,
            "edge_coverage": audit.edge_coverage,
            "demotions": int(health["total_demotions"]),
            "peak_congestion": int(health["peak_congestion"]),
            "connects": {
                "max_in_round": int(health["max_connects_in_round"]),
                "received": int(health["connects_received"]),
                "dropped": int(health["connects_dropped"]),
                "bound": 2 * params.delta_eff,
            },
            "faults_injected": totals.injected,
            "churn_events": churned,
            "fingerprint": _fingerprint(sim, auditor, audit, deliveries),
            "plan": plan.to_json(),
        }


def cell_ok(scenario: Scenario, cell: dict[str, Any]) -> bool:
    """The pass criterion of a cell record of ``scenario``.

    A cell that broke a clause of the protocol contract fails, whatever its
    adversity.  On a reliable network (trivial plan) churn and attacks stay
    inside Theorem 14's envelope, so the cell must meet the paper's
    thresholds, Lemma 22's included; with no churn or attack either it must
    also stay quiet.  With environmental faults it must show they fired —
    how the overlay fares is the measurement, not the criterion.
    """
    if cell["violations"]:
        return False
    fired = bool(cell["faults_injected"]) or bool(cell["churn_events"])
    if not scenario.plan.is_trivial:
        return fired
    connects = cell["connects"]
    paper = (
        (cell["probes"]["delivery_rate"] or 0.0) >= 0.95
        and cell["edge_coverage"] >= 0.99
        and cell["demotions"] <= 1
        and connects["max_in_round"] <= connects["bound"]
        and connects["dropped"] <= 0.02 * connects["received"]
    )
    if _adverse(scenario):
        return paper
    return (
        paper
        and not fired
        and cell["established_fraction"] >= 0.95
        and cell["recovery"]["events"] == 0
    )


def run_matrix(
    scenarios: Sequence[Scenario],
    seeds: tuple[int, ...] = (0,),
    *,
    workers: int = 1,
) -> list[dict[str, Any]]:
    """Run the ``scenarios x seeds`` grid; output is worker-count invariant.

    Records are keyed by ``(scenario name, seed)``, so names and seeds must
    each be distinct: a repeated cell would count one run twice.  Cells fan
    out over up to ``workers`` processes (inline at <= 1); ``Pool.map``
    returns them in task order.
    """
    names = sorted(s.name for s in scenarios)
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate scenario names in grid: {names}")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"duplicate seeds in grid: {sorted(seeds)}")
    tasks = sorted(
        ((s, int(seed)) for s in scenarios for seed in seeds),
        key=lambda task: (task[0].name, task[1]),
    )
    if not tasks:
        raise ValueError("empty scenario grid")
    if workers <= 1:
        return [run_scenario_cell(task) for task in tasks]
    try:  # fork is cheap and inherits imports; spawn where it is missing
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(processes=min(workers, len(tasks))) as pool:
        return pool.map(run_scenario_cell, tasks)
