"""Lateness / information-flow rules (family L).

The paper's central object is the ``(a, b)``-late adversary (Section 2,
Lemmas 3-4): every impossibility and every maintenance guarantee is stated
against an adversary that sees topology ``a`` rounds late and internal
state ``b`` rounds late.  The simulator keeps that wall with a single
choke point — :class:`repro.adversary.view.AdversaryView` — and these
rules make the wall machine-checked:

* adversary code must not be able to *reach* fresh simulator state
  (no runtime imports of the sim/core/overlay internals, no private
  attribute spelunking);
* the engine must not *hand* fresh state to the adversary (views are
  built with explicit lateness parameters; ``decide`` receives a view,
  never a live trace/network/lifecycle object).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.analysis.lint.engine import ModuleRule, SourceModule
from repro.analysis.lint.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.check import CheckContext

__all__ = [
    "AdversaryImportRule",
    "ViewInternalsRule",
    "LiveStateRule",
]

#: Packages holding fresh world state an adversary must never import at
#: runtime (TYPE_CHECKING-only imports are the sanctioned annotation path).
_FORBIDDEN_FOR_ADVERSARY = ("repro.sim", "repro.core", "repro.overlay")

#: Engine attributes that are live, current-round state.
_LIVE_STATE_ATTRS = frozenset(
    {"trace", "network", "lifecycle", "ledger", "metrics", "_protocols", "_rngs"}
)


def _is_type_checking_test(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "TYPE_CHECKING"
    if isinstance(node, ast.Attribute):
        return node.attr == "TYPE_CHECKING"
    return False


class AdversaryImportRule(ModuleRule):
    """L1 — adversary modules import sim internals only under TYPE_CHECKING."""

    id = "adversary-import"
    code = "L1"
    description = (
        "repro.adversary may import repro.sim/repro.core/repro.overlay only "
        "inside `if TYPE_CHECKING:` — a runtime import is a channel to fresh state"
    )
    fix_hint = (
        "move the import under `if TYPE_CHECKING:` and use string annotations; "
        "read world state through the AdversaryView instead"
    )

    def applies_to(self, mod: SourceModule) -> bool:
        return mod.in_packages(("repro.adversary",))

    def check_module(self, mod: SourceModule, ctx: CheckContext) -> Iterator[Finding]:
        yield from self._walk(mod, mod.tree, guarded=False)

    def _walk(
        self, mod: SourceModule, node: ast.AST, guarded: bool
    ) -> Iterator[Finding]:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if guarded:
                return
            if isinstance(node, ast.Import):
                origins = [alias.name for alias in node.names]
            else:
                origins = [mod.resolve_import_from(node)]
            for origin in origins:
                if any(
                    origin == p or origin.startswith(p + ".")
                    for p in _FORBIDDEN_FOR_ADVERSARY
                ):
                    yield self.finding(
                        mod, node, f"runtime import of `{origin}` from adversary code"
                    )
            return
        if isinstance(node, ast.If) and _is_type_checking_test(node.test):
            for child in node.body:
                yield from self._walk(mod, child, guarded=True)
            for child in node.orelse:
                yield from self._walk(mod, child, guarded)
            return
        for child in ast.iter_child_nodes(node):
            yield from self._walk(mod, child, guarded)


class ViewInternalsRule(ModuleRule):
    """L2 — adversary strategies use only the public AdversaryView API."""

    id = "view-internals"
    code = "L2"
    description = (
        "adversary code may not touch private attributes of other objects "
        "(view._trace, view._lifecycle, ...): only the AdversaryView public "
        "API is lateness-clamped"
    )
    fix_hint = "use the public AdversaryView accessors (edges_at, alive, age_of, ...)"

    def applies_to(self, mod: SourceModule) -> bool:
        return mod.in_packages(("repro.adversary",)) and mod.module != "repro.adversary.view"

    def check_module(self, mod: SourceModule, ctx: CheckContext) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Attribute):
                continue
            attr = node.attr
            if not attr.startswith("_") or attr.startswith("__"):
                continue
            base = node.value
            if isinstance(base, ast.Name) and base.id in ("self", "cls"):
                continue
            yield self.finding(
                mod,
                node,
                f"access to private attribute `{attr}` of a foreign object",
            )


class LiveStateRule(ModuleRule):
    """L3 — the engine hands the adversary views, never live state."""

    id = "live-state-to-adversary"
    code = "L3"
    description = (
        "AdversaryView must be constructed with explicit lateness keywords, and "
        ".decide(...) must receive a view — never a live trace/network/lifecycle "
        "object or the engine itself"
    )
    fix_hint = (
        "build AdversaryView(t, trace, lifecycle, topology_lateness=..., "
        "state_lateness=...) and pass only that view to the adversary"
    )

    def applies_to(self, mod: SourceModule) -> bool:
        return mod.in_packages(("repro.sim", "repro.core"))

    def check_module(self, mod: SourceModule, ctx: CheckContext) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "AdversaryView":
                keywords = {kw.arg for kw in node.keywords}
                missing = {"topology_lateness", "state_lateness"} - keywords
                if missing:
                    yield self.finding(
                        mod,
                        node,
                        "AdversaryView constructed without explicit "
                        f"{' and '.join(sorted(missing))} keyword(s)",
                    )
            elif name == "decide" and isinstance(func, ast.Attribute):
                args = list(node.args) + [kw.value for kw in node.keywords]
                for arg in args:
                    if isinstance(arg, ast.Attribute) and arg.attr in _LIVE_STATE_ATTRS:
                        yield self.finding(
                            mod,
                            arg,
                            f"live engine state `{ast.unparse(arg)}` passed to "
                            "an adversary decide() callback",
                        )
                    elif isinstance(arg, ast.Name) and arg.id in ("self", "engine"):
                        yield self.finding(
                            mod,
                            arg,
                            f"`{arg.id}` passed to an adversary decide() callback",
                        )
