"""The committed findings baseline (grandfathered violations).

The baseline is a small JSON file (``check-baseline.json``) committed at the
repository root::

    {
      "schema": 1,
      "findings": [
        {"path": "src/repro/sim/profile.py", "rule": "wallclock",
         "message": "...exact finding message...",
         "note": "why this one is grandfathered"}
      ]
    }

Entries match findings by ``(path, rule, message)`` — never by line number,
so unrelated edits above a grandfathered site do not un-baseline it.
Matching is multiset-style: one entry absorbs one finding, a duplicated
defect needs a duplicated entry.  Entries that match nothing are *stale*
and reported so the baseline only ever shrinks.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.analysis.lint.findings import Finding

__all__ = ["BASELINE_SCHEMA", "DEFAULT_BASELINE_NAME", "Baseline", "write_baseline"]

BASELINE_SCHEMA = 1

#: File name looked up at the repository root by default.
DEFAULT_BASELINE_NAME = "check-baseline.json"

_KEY_FIELDS = ("path", "rule", "message")


class Baseline:
    """Grandfathered findings loaded from (or destined for) a JSON file."""

    def __init__(self, entries: list[dict] | None = None) -> None:
        self.entries = list(entries or [])
        for i, entry in enumerate(self.entries):
            if not isinstance(entry, dict):
                raise ValueError(f"baseline entry {i}: not an object")
            for name in _KEY_FIELDS:
                if not isinstance(entry.get(name), str) or not entry[name]:
                    raise ValueError(f"baseline entry {i}: missing field {name!r}")

    @classmethod
    def load(cls, path: Path | str) -> "Baseline":
        """Load a baseline file; a missing file is an empty baseline."""
        path = Path(path)
        if not path.exists():
            return cls([])
        data = json.loads(path.read_text())
        if not isinstance(data, dict) or data.get("schema") != BASELINE_SCHEMA:
            raise ValueError(f"{path}: expected schema {BASELINE_SCHEMA}")
        entries = data.get("findings")
        if not isinstance(entries, list):
            raise ValueError(f"{path}: findings must be a list")
        return cls(entries)

    def partition(
        self, findings: list[Finding]
    ) -> tuple[list[Finding], list[Finding], list[dict]]:
        """Split findings into ``(active, baselined)`` plus stale entries."""
        budget: dict[tuple[str, str, str], int] = {}
        for entry in self.entries:
            key = (entry["path"], entry["rule"], entry["message"])
            budget[key] = budget.get(key, 0) + 1
        active: list[Finding] = []
        baselined: list[Finding] = []
        for finding in findings:
            key = finding.baseline_key()
            if budget.get(key, 0) > 0:
                budget[key] -= 1
                baselined.append(finding)
            else:
                active.append(finding)
        stale: list[dict] = []
        for entry in self.entries:
            key = (entry["path"], entry["rule"], entry["message"])
            if budget.get(key, 0) > 0:
                budget[key] -= 1
                stale.append(entry)
        return active, baselined, stale


def write_baseline(
    path: Path | str,
    findings: list[Finding],
    notes: dict[tuple[str, str, str], str] | None = None,
    keep: Iterable[dict] = (),
) -> Path:
    """Write a baseline covering ``findings`` (sorted, deterministic output).

    ``keep`` are existing entries carried over verbatim — those of rules
    that did not run, which this run can neither confirm nor retire.
    """
    entries = [dict(entry) for entry in keep]
    for finding in sorted(findings):
        entry = {"path": finding.path, "rule": finding.rule, "message": finding.message}
        note = (notes or {}).get(finding.baseline_key())
        if note:
            entry["note"] = note
        entries.append(entry)
    entries.sort(key=lambda e: (e["path"], e["rule"], e["message"]))
    payload = {"schema": BASELINE_SCHEMA, "findings": entries}
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path
