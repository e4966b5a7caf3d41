"""Phase-context dataflow: under which lifecycle phases can a line run?

The paper's phase discipline (NEW -> FRESH -> ESTABLISHED, Section 5) is
implemented as ordinary control flow — ``if self.phase is
Phase.ESTABLISHED:`` guards, early returns, and ``self.phase = Phase.X``
assignments.  This module recovers, for every AST node inside a protocol
node class, the *phase context*: the set of phases the node can be in
when that line executes.

Two layers:

* :class:`FunctionPhases` — intraprocedural: walks one function body
  tracking a constraint set through phase tests (``is``/``==``/``in``,
  ``and``/``or``/``not`` compositions), terminating branches (a guard
  that returns narrows the fallthrough), and phase assignments (which
  set the context *absolutely* — a ``NEW -> FRESH`` promotion holds
  whatever the entry context was).
* :class:`ClassPhases` — interprocedural: seeds the entry context of
  externally-called methods (``on_round`` and the other
  :data:`ENTRY_METHODS`, ``prime``, …) with all
  phases and propagates entry contexts through ``self.<method>()`` call
  sites to a fixpoint, so a send buried two helpers below an
  ESTABLISHED guard still inherits ``{established}``.

The lattice is tiny (subsets of three phases) so the fixpoint is cheap;
contexts are deliberately over-approximate — the analyzer only reports a
violation when a site's context *escapes* the spec'd phase set.
"""

from __future__ import annotations

import ast

from repro.analysis.proto.spec import PHASES

__all__ = [
    "ALL_PHASES",
    "ENTRY_METHODS",
    "ClassPhases",
    "FunctionPhases",
    "phase_of_attr",
]

ALL_PHASES = frozenset(PHASES)

#: How a round enters a node class: the engine calls ``on_round`` (one node)
#: or the ``on_rounds`` batch entry, and a staged batch entry calls the
#: ``_prepare`` / ``_act`` stage hooks on each node of the batch — through
#: the node, not through ``self``.  All four run in whatever phase the node
#: is in.
ENTRY_METHODS = ("on_round", "on_rounds", "_prepare", "_act")
_EMPTY: frozenset[str] = frozenset()


def phase_of_attr(expr: ast.expr) -> str | None:
    """``Phase.ESTABLISHED`` (however the enum is spelled) -> "established"."""
    if not isinstance(expr, ast.Attribute):
        return None
    name = expr.attr.lower()
    if name not in PHASES:
        return None
    base = expr.value
    while isinstance(base, ast.Attribute):
        base = base.value
    if isinstance(base, ast.Name) and "phase" in base.id.lower():
        return name
    return None


def _is_self_phase(expr: ast.expr) -> bool:
    return (
        isinstance(expr, ast.Attribute)
        and expr.attr == "phase"
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    )


def _cond_sets(test: ast.expr) -> tuple[frozenset[str], frozenset[str]]:
    """``(phases if true, phases if false)`` implied by a condition."""
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        t, f = _cond_sets(test.operand)
        return f, t
    if isinstance(test, ast.BoolOp):
        parts = [_cond_sets(v) for v in test.values]
        if isinstance(test.op, ast.And):
            true = ALL_PHASES
            false: frozenset[str] = _EMPTY
            for t, f in parts:
                true &= t
                false |= f
            return true, false
        true = _EMPTY
        false = ALL_PHASES
        for t, f in parts:
            true |= t
            false &= f
        return true, false
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        left, op, right = test.left, test.ops[0], test.comparators[0]
        if _is_self_phase(right) and not isinstance(op, (ast.In, ast.NotIn)):
            left, right = right, left
        if _is_self_phase(left):
            if isinstance(op, (ast.In, ast.NotIn)) and isinstance(
                right, (ast.Tuple, ast.List, ast.Set)
            ):
                members = [phase_of_attr(e) for e in right.elts]
                if all(m is not None for m in members):
                    sel = frozenset(members)  # type: ignore[arg-type]
                    if isinstance(op, ast.In):
                        return sel, ALL_PHASES - sel
                    return ALL_PHASES - sel, sel
            phase = phase_of_attr(right)
            if phase is not None:
                sel = frozenset((phase,))
                if isinstance(op, (ast.Is, ast.Eq)):
                    return sel, ALL_PHASES - sel
                if isinstance(op, (ast.IsNot, ast.NotEq)):
                    return ALL_PHASES - sel, sel
    return ALL_PHASES, ALL_PHASES


def _assigned_phase(stmt: ast.stmt) -> str | None:
    """The phase a ``self.phase = Phase.X`` statement installs, if any."""
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        if _is_self_phase(stmt.targets[0]):
            return phase_of_attr(stmt.value) or "?"
    if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        if _is_self_phase(stmt.target):
            return phase_of_attr(stmt.value) or "?"
    return None


def _phases_assigned_within(stmts: list[ast.stmt]) -> frozenset[str]:
    found: set[str] = set()
    for stmt in stmts:
        for node in ast.walk(stmt):
            if isinstance(node, ast.stmt):
                phase = _assigned_phase(node)
                if phase == "?":
                    return ALL_PHASES
                if phase is not None:
                    found.add(phase)
    return frozenset(found)


class FunctionPhases:
    """Intraprocedural phase contexts for one function body.

    ``at[id(node)]`` is ``(context, absolute)``: the phase set under
    which the node executes *relative to the function entry*, and
    whether it derives from a phase assignment (in which case the entry
    context no longer constrains it).
    """

    def __init__(self, func: ast.FunctionDef) -> None:
        self.func = func
        self.at: dict[int, tuple[frozenset[str], bool]] = {}
        self.self_calls: list[tuple[str, ast.Call]] = []
        exit_state = self._walk(func.body, ALL_PHASES, False)
        self.exit = exit_state
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
            ):
                self.self_calls.append((node.func.attr, node))

    # -- tagging ------------------------------------------------------

    def _tag(self, node: ast.AST, ctx: frozenset[str], absolute: bool) -> None:
        for n in ast.walk(node):
            self.at[id(n)] = (ctx, absolute)

    def lookup(self, node: ast.AST) -> tuple[frozenset[str], bool]:
        return self.at.get(id(node), (ALL_PHASES, False))

    # -- the walk -----------------------------------------------------

    def _walk(
        self, stmts: list[ast.stmt], ctx: frozenset[str], absolute: bool
    ) -> tuple[frozenset[str], bool] | None:
        """Process a block; returns the fallthrough state or None."""
        state: tuple[frozenset[str], bool] | None = (ctx, absolute)
        for stmt in stmts:
            if state is None:
                # Unreachable after a terminator: tag with the empty set so
                # nothing downstream is ever reported from dead code.
                self._tag(stmt, _EMPTY, False)
                continue
            ctx, absolute = state
            if isinstance(stmt, ast.If):
                self.at[id(stmt)] = (ctx, absolute)
                self._tag(stmt.test, ctx, absolute)
                true_set, false_set = _cond_sets(stmt.test)
                body_state = self._walk(stmt.body, ctx & true_set, absolute)
                if stmt.orelse:
                    else_state = self._walk(stmt.orelse, ctx & false_set, absolute)
                else:
                    else_state = (ctx & false_set, absolute)
                if body_state is None and else_state is None:
                    state = None
                elif body_state is None:
                    state = else_state
                elif else_state is None:
                    state = body_state
                else:
                    state = (
                        body_state[0] | else_state[0],
                        body_state[1] and else_state[1],
                    )
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                self.at[id(stmt)] = (ctx, absolute)
                header = stmt.test if isinstance(stmt, ast.While) else stmt.iter
                self._tag(header, ctx, absolute)
                if isinstance(stmt, (ast.For, ast.AsyncFor)):
                    self._tag(stmt.target, ctx, absolute)
                widened = ctx | _phases_assigned_within(stmt.body)
                self._walk(stmt.body, widened, absolute)
                if stmt.orelse:
                    self._walk(stmt.orelse, widened, absolute)
                state = (widened, absolute)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                self.at[id(stmt)] = (ctx, absolute)
                for item in stmt.items:
                    self._tag(item, ctx, absolute)
                state = self._walk(stmt.body, ctx, absolute)
            elif isinstance(stmt, ast.Try):
                self.at[id(stmt)] = (ctx, absolute)
                widened = ctx | _phases_assigned_within(stmt.body)
                body_state = self._walk(stmt.body, ctx, absolute)
                for handler in stmt.handlers:
                    self._walk(handler.body, widened, absolute)
                if stmt.orelse and body_state is not None:
                    body_state = self._walk(stmt.orelse, *body_state)
                if stmt.finalbody:
                    after = body_state if body_state is not None else (widened, absolute)
                    body_state = self._walk(stmt.finalbody, *after)
                state = body_state
            elif isinstance(stmt, (ast.Return, ast.Raise, ast.Break, ast.Continue)):
                self._tag(stmt, ctx, absolute)
                state = None
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Nested helpers execute (when called) somewhere under the
                # definition context; tag the whole body with it.
                self._tag(stmt, ctx, absolute)
            else:
                self._tag(stmt, ctx, absolute)
                phase = _assigned_phase(stmt)
                if phase == "?":
                    state = (ALL_PHASES, True)
                elif phase is not None:
                    state = (frozenset((phase,)), True)
        return state


class ClassPhases:
    """Interprocedural phase contexts for one protocol node class."""

    def __init__(self, cls: ast.ClassDef) -> None:
        self.cls = cls
        self.methods: dict[str, ast.FunctionDef] = {
            n.name: n
            for n in cls.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        self.local: dict[str, FunctionPhases] = {
            name: FunctionPhases(node) for name, node in self.methods.items()
        }
        # Fixpoint over entry contexts.  Methods never self-called inside
        # the class are callable from anywhere -> all phases; the round's
        # entry points are regardless.
        self_called = {
            callee
            for fp in self.local.values()
            for callee, _ in fp.self_calls
            if callee in self.methods
        }
        self.entries: dict[str, frozenset[str]] = {
            name: (
                ALL_PHASES
                if name not in self_called or name in ENTRY_METHODS
                else _EMPTY
            )
            for name in self.methods
        }
        changed = True
        while changed:
            changed = False
            for caller, fp in self.local.items():
                entry = self.entries[caller]
                for callee, call in fp.self_calls:
                    if callee not in self.methods:
                        continue
                    local_ctx, absolute = fp.lookup(call)
                    eff = local_ctx if absolute else entry & local_ctx
                    merged = self.entries[callee] | eff
                    if merged != self.entries[callee]:
                        self.entries[callee] = merged
                        changed = True

    def context(self, method: str, node: ast.AST) -> frozenset[str]:
        """Effective phase context of an AST node inside ``method``."""
        fp = self.local.get(method)
        if fp is None:
            return ALL_PHASES
        local_ctx, absolute = fp.lookup(node)
        if absolute:
            return local_ctx
        return self.entries.get(method, ALL_PHASES) & local_ctx
