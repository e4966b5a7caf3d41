"""Parallel experiment sweeps (E-SW).

Fans a sorted ``(experiment, seed)`` grid over :func:`repro.util.pool.pool_map`
and merges the per-cell outcomes into one :class:`ExperimentResult`.  Every
cell is a pure function of ``(experiment_id, seed, quick)`` — each experiment
builds its own engine from its seed — so ``run_sweep(..., workers=4)`` gives
a bit-for-bit identical table to ``workers=1``: wall-clock scales down, output
does not change, and the test suite pins it.
"""

from __future__ import annotations

import os

from repro.experiments.registry import ExperimentResult, register
from repro.util.pool import pool_map

__all__ = ["DEFAULT_GRID", "run_cell", "run_sweep", "run_sweep_experiment"]

#: Default experiment grid: cheap, seed-robust structural checks.
DEFAULT_GRID = ("E-F1", "E-L6", "E-L12")


def run_cell(task: tuple[str, int, bool]) -> tuple[str, int, bool, int, str]:
    """Run one ``(experiment_id, seed, quick)`` cell (worker entry point).

    Returns the compact summary ``(id, seed, passed, rows, first_note)``
    rather than the full result so the parent never deserialises arbitrary
    row payloads from workers.
    """
    eid, seed, quick = task
    from repro.experiments import get_experiment

    result = get_experiment(eid)(quick=quick, seed=seed)
    note = result.notes[0] if result.notes else ""
    return (eid, seed, result.passed, len(result.rows), note)


def run_sweep(
    ids: tuple[str, ...] = DEFAULT_GRID,
    seeds: tuple[int, ...] = (0, 1),
    *,
    workers: int = 1,
    quick: bool = True,
) -> ExperimentResult:
    """Run the ``ids x seeds`` grid over ``workers`` processes (inline at <= 1)."""
    tasks = sorted((eid, int(s), bool(quick)) for eid in ids for s in seeds)
    if not tasks:
        raise ValueError("empty sweep grid")
    cells = pool_map(run_cell, tasks, workers)
    rows = [
        [eid, seed, rows_n, "PASS" if ok else "FAIL"]
        for eid, seed, ok, rows_n, _ in cells
    ]
    failed = [f"{eid}/seed={seed}" for eid, seed, ok, _, _ in cells if not ok]
    notes = [
        f"{len(tasks)} cells over {len(set(t[0] for t in tasks))} experiments"
        f" x {len(set(t[1] for t in tasks))} seeds"
    ]
    if failed:
        notes.append("failed cells: " + ", ".join(failed))
    return ExperimentResult(
        experiment_id="E-SW",
        title="Parallel experiment sweep",
        claim=(
            "Deterministic (experiment, seed) cells merge into a result that "
            "is invariant under the worker count."
        ),
        header=["experiment", "seed", "rows", "verdict"],
        rows=rows,
        passed=not failed,
        notes=notes,
    )


@register("E-SW")
def run_sweep_experiment(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Parallel (experiment x seed) sweep, worker-count invariant.

    Runs the default grid at ``seed`` and ``seed + 1`` with up to two
    workers, so CI exercises the pool path without oversubscribing small
    runners.
    """
    workers = min(2, os.cpu_count() or 1)
    return run_sweep(
        DEFAULT_GRID, (seed, seed + 1), workers=workers, quick=quick
    )
