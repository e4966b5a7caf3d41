"""Waiver hygiene rules (family W).

A waiver is a hole punched in an invariant; these two rules keep every
hole small, explained, and current.  Neither rule can itself be waived.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.analysis.lint.engine import ModuleRule, SourceModule
from repro.analysis.lint.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.check import CheckContext

__all__ = ["WaiverJustificationRule", "UnusedWaiverRule"]


class WaiverJustificationRule(ModuleRule):
    """W1 — every waiver carries a justification (or it waives nothing)."""

    id = "waiver-justification"
    code = "W1"
    description = (
        "`# repro: allow(<rule>)` requires a justification after the closing "
        "paren; an unjustified waiver is inert and reported"
    )
    fix_hint = "write `# repro: allow(<rule>): <why this is safe here>`"

    def check_module(self, mod: SourceModule, ctx: CheckContext) -> Iterator[Finding]:
        for waiver in mod.waivers:
            if not waiver.justified:
                yield self.finding(
                    mod,
                    waiver.comment_line,
                    f"waiver for `{waiver.rule}` has no justification (it is inert)",
                )


class UnusedWaiverRule(ModuleRule):
    """W2 — a waiver that matches no finding is stale and must be removed."""

    id = "unused-waiver"
    code = "W2"
    post_waiver = True
    description = (
        "a justified waiver that matches no finding of its rule on its target "
        "line is stale — the code was fixed or the waiver points at the wrong line"
    )
    fix_hint = "delete the waiver comment (or move it next to the code it excuses)"

    def check_module(self, mod: SourceModule, ctx: CheckContext) -> Iterator[Finding]:
        for waiver in mod.waivers:
            if waiver.rule in ctx.deselected:
                # A rule that did not run cannot prove its waivers stale.
                continue
            if waiver.justified and not waiver.used:
                yield self.finding(
                    mod,
                    waiver.comment_line,
                    f"waiver for `{waiver.rule}` matches no finding "
                    f"(target line {waiver.target_line})",
                )
