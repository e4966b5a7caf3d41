"""The findings model of ``repro check``.

A :class:`Finding` is one rule violation at one source location.  Findings
are value objects: two findings with the same ``(path, rule, message)``
triple are the *same* defect for baseline purposes, even when the line
number drifted because unrelated code above it moved — that is what lets a
committed baseline survive ordinary refactors.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SEVERITIES", "Finding"]

#: Recognised severities, most severe first.  Every shipped rule currently
#: reports ``error`` — the field exists so a future advisory rule does not
#: need a schema change.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation (``order=True`` gives stable path/line sorting)."""

    path: str
    line: int
    rule: str
    message: str
    severity: str = "error"
    fix_hint: str = ""

    def baseline_key(self) -> tuple[str, str, str]:
        """Identity used by the baseline: line numbers deliberately excluded."""
        return (self.path, self.rule, self.message)

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "fix_hint": self.fix_hint,
        }

    def format(self) -> str:
        """``path:line: [rule] message`` — clickable in most terminals."""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"
