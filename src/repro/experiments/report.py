"""Experiment report generation.

Runs (or loads) experiment results and renders a single markdown report in
the EXPERIMENTS.md style — the regeneratable record of paper-vs-measured.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.experiments.registry import ExperimentResult, all_experiments

__all__ = ["run_all", "render_report", "write_report"]

#: Regeneration order: paper artefact order.
DEFAULT_ORDER = (
    "E-T1",
    "E-F1",
    "E-L3",
    "E-L4",
    "E-L6",
    "E-L9",
    "E-L12",
    "E-L13",
    "E-L17",
    "E-L22",
    "E-T14",
    "E-L24",
    "E-AB",
    "E-CH",
    "E-SC",
    "E-X1",
    "E-X2",
    "E-X3",
    "E-X4",
    "E-X5",
    "E-X6",
)


def run_all(
    quick: bool = True,
    only: Iterable[str] | None = None,
    progress: bool = False,
) -> list[ExperimentResult]:
    """Run experiments in artefact order and return their results."""
    registry = all_experiments()
    ids = list(only) if only is not None else list(DEFAULT_ORDER)
    unknown = [i for i in ids if i not in registry]
    if unknown:
        raise KeyError(f"unknown experiment ids: {unknown}")
    results = []
    for eid in ids:
        if progress:
            print(f"running {eid} ...", flush=True)
        results.append(registry[eid](quick=quick))
    return results


def render_report(results: list[ExperimentResult]) -> str:
    """One markdown document: summary table + per-experiment sections."""
    lines = [
        "# Experiment report (regenerated)",
        "",
        "| id | title | verdict |",
        "|----|-------|---------|",
    ]
    for r in results:
        lines.append(
            f"| {r.experiment_id} | {r.title} | "
            f"{'PASS' if r.passed else 'FAIL'} |"
        )
    lines.append("")
    for r in results:
        lines.append(r.to_markdown())
        lines.append("")
    return "\n".join(lines)


def write_report(path: str | Path, results: list[ExperimentResult]) -> Path:
    path = Path(path)
    path.write_text(render_report(results))
    return path
