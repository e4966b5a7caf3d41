"""Recovery-report schema: the JSON contract of ``repro scenario``.

A report wraps the cell records of :mod:`repro.scenarios.runner` under a
versioned schema tag.  :func:`validate_scenario_report` is the same
validator CI's ``scenario-smoke`` job runs against the emitted file — a
report that passes here is a report every downstream consumer (benchmark
embedding, SLO tooling) can rely on.  :func:`cell_row` is the one table row
of a cell that E-SC, E-CH and ``repro scenario`` print.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.scenarios.runner import cell_ok
from repro.scenarios.spec import Scenario

__all__ = ["ROW_HEADER", "SCHEMA", "cell_row", "scenario_report", "validate_scenario_report"]

SCHEMA = "repro/scenario-report/v3"

#: Required top-level fields of every cell record.
_CELL_FIELDS = (
    "scenario",
    "seed",
    "n",
    "rounds",
    "fault_window",
    "probes",
    "stretch",
    "violations",
    "recovery",
    "established_fraction",
    "edge_coverage",
    "demotions",
    "peak_congestion",
    "connects",
    "faults_injected",
    "churn_events",
    "fingerprint",
    "plan",
)

_PROBE_FIELDS = ("launched", "origin_left", "delivered", "delivery_rate")
_RECOVERY_FIELDS = (
    "time_to_first_degradation",
    "degraded_round_fraction",
    "time_to_recover",
    "recovery_rounds_after_close",
    "events",
)
_STRETCH_FIELDS = ("p50", "p95", "p99")
_CONNECT_FIELDS = ("max_in_round", "received", "dropped", "bound")


#: The columns of :func:`cell_row`.
ROW_HEADER = [
    "scenario", "seed", "delivery", "stretch p95", "established", "demotions",
    "events", "first degradation", "degraded frac", "recover", "faults", "churn",
    "fingerprint", "ok",
]


def cell_row(scenario: Scenario, cell: dict[str, Any]) -> list[Any]:
    """``scenario``'s cell record as one table row (E-SC, E-CH, ``repro scenario``)."""
    delivery, stretch = cell["probes"]["delivery_rate"], cell["stretch"]
    recovery = cell["recovery"]
    first, ttr = recovery["time_to_first_degradation"], recovery["time_to_recover"]
    return [
        cell["scenario"],
        cell["seed"],
        "-" if delivery is None else round(delivery, 2),
        "-" if stretch is None else round(stretch["p95"], 2),
        cell["established_fraction"],
        cell["demotions"],
        recovery["events"],
        "-" if first is None else first,
        round(recovery["degraded_round_fraction"], 3),
        "-" if ttr is None else ttr,
        cell["faults_injected"],
        cell["churn_events"],
        cell["fingerprint"],
        cell_ok(scenario, cell),
    ]


def scenario_report(cells: list[dict[str, Any]]) -> dict[str, Any]:
    """Wrap cell records into the versioned report document."""
    return {
        "schema": SCHEMA,
        "cells": list(cells),
        "scenarios": sorted({str(c.get("scenario")) for c in cells}),
    }


def _require(doc: Mapping[str, Any], fields: tuple[str, ...], where: str) -> None:
    missing = [f for f in fields if f not in doc]
    if missing:
        raise ValueError(f"{where} is missing fields {missing}")


def validate_scenario_report(doc: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` unless ``doc`` is a well-formed recovery report."""
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"expected schema {SCHEMA!r}, got {doc.get('schema')!r}")
    cells = doc.get("cells")
    if not isinstance(cells, list) or not cells:
        raise ValueError("report must carry a non-empty 'cells' list")
    for i, cell in enumerate(cells):
        where = f"cell[{i}]"
        if not isinstance(cell, Mapping):
            raise ValueError(f"{where} is not an object")
        _require(cell, _CELL_FIELDS, where)
        _require(cell["probes"], _PROBE_FIELDS, f"{where}.probes")
        _require(cell["recovery"], _RECOVERY_FIELDS, f"{where}.recovery")
        stretch = cell["stretch"]
        if stretch is not None:
            _require(stretch, _STRETCH_FIELDS, f"{where}.stretch")
        window = cell["fault_window"]
        if not isinstance(window, (list, tuple)) or len(window) != 2:
            raise ValueError(f"{where}.fault_window must be a [open, close] pair")
        connects = cell["connects"]
        _require(connects, _CONNECT_FIELDS, f"{where}.connects")
        fractions = {
            "recovery.degraded_round_fraction": cell["recovery"]["degraded_round_fraction"],
            "edge_coverage": cell["edge_coverage"],
        }
        for name, value in fractions.items():
            if not isinstance(value, (int, float)) or not 0.0 <= float(value) <= 1.0:
                raise ValueError(f"{where}.{name} must lie in [0, 1]")
        counts = {
            "violations": cell["violations"],
            "probes.origin_left": cell["probes"]["origin_left"],
            "demotions": cell["demotions"],
            "peak_congestion": cell["peak_congestion"],
            **{f"connects.{name}": connects[name] for name in _CONNECT_FIELDS},
        }
        for name, value in counts.items():
            if type(value) is not int or value < 0:
                raise ValueError(f"{where}.{name} must be a non-negative int")
        if connects["dropped"] > connects["received"]:
            raise ValueError(f"{where}.connects.dropped exceeds connects.received")
        if not isinstance(cell["fingerprint"], str) or len(cell["fingerprint"]) != 32:
            raise ValueError(f"{where}.fingerprint must be a 32-hex-char digest")
        if not isinstance(cell["plan"], Mapping):
            raise ValueError(f"{where}.plan must be the embedded fault-plan JSON")
