"""Inline lint directives: waivers and module overrides.

Two comment directives are recognised anywhere in a scanned file:

``# repro: allow(<rule>): <justification>``
    Waive one rule on one line.  A trailing comment waives its own line; a
    standalone comment line waives the next code line (so long expressions
    can carry the waiver *inside* them, right above the offending part).
    The justification is **required** — a bare ``allow(<rule>)`` does not
    waive anything and is itself reported (rule ``waiver-justification``),
    and a justified waiver that matches no finding is reported too (rule
    ``unused-waiver``).  Waivers cannot waive either of those two rules.

``# repro: module(<dotted.name>)``
    Pretend the file is the named module when rules decide whether they
    apply.  This exists for the test fixture corpus, which must exercise
    package-scoped rules from files living under ``tests/``.

Directives are extracted from real COMMENT tokens (via :mod:`tokenize`),
so directive-shaped text inside string literals is ignored.
"""

from __future__ import annotations

import re
import tokenize
from dataclasses import dataclass, field

__all__ = ["Waiver", "scan_directives"]

_WAIVER_RE = re.compile(r"#\s*repro:\s*allow\(\s*([A-Za-z0-9_-]+)\s*\)\s*:?\s*(.*)$")
_MODULE_RE = re.compile(r"#\s*repro:\s*module\(\s*([A-Za-z0-9_.]+)\s*\)")


@dataclass
class Waiver:
    """One parsed ``allow`` directive."""

    rule: str
    justification: str
    comment_line: int
    target_line: int
    used: bool = field(default=False, compare=False)

    @property
    def justified(self) -> bool:
        return bool(self.justification.strip())


def _is_comment_only(line: str) -> bool:
    stripped = line.strip()
    return not stripped or stripped.startswith("#")


def _comment_tokens(lines: list[str]) -> list[tuple[int, int, str]]:
    """``(line, column, text)`` for every real comment token in the file."""
    source = iter(line + "\n" for line in lines)
    comments: list[tuple[int, int, str]] = []
    try:
        for tok in tokenize.generate_tokens(lambda: next(source)):
            if tok.type == tokenize.COMMENT:
                comments.append((tok.start[0], tok.start[1], tok.string))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover - defensive
        pass
    return comments


def scan_directives(lines: list[str]) -> tuple[list[Waiver], str | None]:
    """Parse all directives out of a file's lines (1-based line numbers).

    Returns ``(waivers, module_override)`` where ``module_override`` is the
    dotted name of the last ``module(...)`` directive, or ``None``.
    """
    waivers: list[Waiver] = []
    module: str | None = None
    for i, col, text in _comment_tokens(lines):
        m = _MODULE_RE.search(text)
        if m:
            module = m.group(1)
        m = _WAIVER_RE.search(text)
        if m is None:
            continue
        standalone = not lines[i - 1][:col].strip()
        target = i
        if standalone:
            # Waive the next line that is actual code (skip blank lines and
            # further comments, so waiver comments can stack).
            for j in range(i, len(lines)):
                if not _is_comment_only(lines[j]):
                    target = j + 1
                    break
        waivers.append(
            Waiver(
                rule=m.group(1),
                justification=m.group(2).strip(),
                comment_line=i,
                target_line=target,
            )
        )
    return waivers, module
