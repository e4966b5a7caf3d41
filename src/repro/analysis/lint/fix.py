"""``repro check --fix``: delete stale waiver comments automatically.

The only finding the engine can fix mechanically without judgement is W2
(``unused-waiver``): the waiver comment matches no finding, so the safe
fix *is* the fix hint — delete the comment.  Everything else it reports
needs a human.  W2 audits a waiver only if its rule ran, so a ``--rules``
subset never deletes the live waivers of the rules it left out.

The edit is surgical and byte-exact outside the removed comments:

* a **standalone** waiver comment (nothing but whitespace before it on
  its line) is removed together with its line;
* a **trailing** waiver comment is stripped from the end of its line,
  along with the whitespace that separated it from the code;
* newline style, surrounding lines, and every other comment — including
  ``# repro: module(...)`` directives and the waivers of rules that did
  not run — are untouched.

Comment positions come from :mod:`tokenize` (the same scan the waiver
parser uses), so waiver-shaped text inside string literals is never
edited.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.analysis.check import run_check
from repro.analysis.lint.engine import Rule
from repro.analysis.lint.waivers import _WAIVER_RE, _comment_tokens
from repro.analysis.source_cache import SourceCache

__all__ = ["fix_unused_waivers"]


def _remove_waiver_comments(text: str, comment_lines: set[int]) -> tuple[str, int]:
    """``(new_text, removed)`` with the waiver comments on those lines gone."""
    raw = text.splitlines(keepends=True)
    plain = text.splitlines()
    positions = {
        line: col
        for line, col, tok in _comment_tokens(plain)
        if line in comment_lines and _WAIVER_RE.search(tok)
    }
    removed = 0
    for line in sorted(positions, reverse=True):
        col = positions[line]
        prefix = plain[line - 1][:col]
        if not prefix.strip():
            del raw[line - 1]
        else:
            ending = raw[line - 1][len(plain[line - 1]) :]
            raw[line - 1] = prefix.rstrip() + ending
        removed += 1
    return "".join(raw), removed


def fix_unused_waivers(
    paths: Iterable[Path | str] | None = None,
    *,
    root: Path | str | None = None,
    rules: Iterable[Rule] | None = None,
    cache: SourceCache | None = None,
) -> dict[str, int]:
    """Delete every stale waiver W2 reports; return ``{relpath: removed}``.

    Runs the check without a baseline first (a baselined W2 finding is
    still a stale comment), rewrites each flagged file, and invalidates
    the rewritten files in ``cache`` so later runs re-parse them.
    """
    report = run_check(paths, root=root, rules=rules, baseline=None, cache=cache)
    by_path: dict[str, set[int]] = {}
    for f in report.findings:
        if f.rule == "unused-waiver":
            by_path.setdefault(f.path, set()).add(f.line)

    fixed: dict[str, int] = {}
    for relpath, lines in sorted(by_path.items()):
        path = report.root / relpath
        text = path.read_text()
        new_text, removed = _remove_waiver_comments(text, lines)
        if removed and new_text != text:
            path.write_text(new_text)
            if cache is not None:
                cache.invalidate(path)
            fixed[relpath] = removed
    return fixed
