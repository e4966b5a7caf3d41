"""Protocol contract rules P1–P6.

Each rule compares one aspect of the extracted
:class:`~repro.analysis.proto.extract.ProtocolModel` (the *implemented*
protocol) against the committed
:class:`~repro.analysis.proto.spec.ProtocolSpec` (the *paper's*
contract).  Like the other families these are syntactic and
deliberately over-approximate on the evidence side, but every finding
names the spec clause (and its PAPER.md/DESIGN.md anchor) it violates —
a proto finding is an argument, not a style nit.

Rules read the extracted model and the spec off the
:class:`~repro.analysis.check.CheckContext` (``ctx.protocol`` / ``ctx.spec``).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.analysis.lint.engine import Rule
from repro.analysis.lint.findings import Finding
from repro.analysis.proto.extract import StepWrite
from repro.analysis.proto.spec import PHASES, norm_expr

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.check import CheckContext

__all__ = [
    "UnhandledMessageRule",
    "PhaseViolationRule",
    "FieldDriftRule",
    "StepBoundRule",
    "EpochMonotoneRule",
    "SpecCoverageRule",
]


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------


def _fmt_phases(phases: Iterable[str]) -> str:
    ordered = [p for p in PHASES if p in set(phases)]
    if tuple(ordered) == PHASES:
        return "any"
    return "{" + ", ".join(ordered) + "}" if ordered else "{}"


def _deref(
    expr: ast.expr, bindings: dict[str, ast.expr], depth: int = 3
) -> ast.expr:
    """Follow simple ``name = expr`` bindings a few hops."""
    while (
        depth > 0
        and isinstance(expr, ast.Name)
        and expr.id in bindings
        and bindings[expr.id] is not expr
    ):
        expr = bindings[expr.id]
        depth -= 1
    return expr


def _loop_target_names(func: ast.AST) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            for n in ast.walk(node.target):
                if isinstance(n, ast.Name):
                    names.add(n.id)
        elif isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)):
            for comp in node.generators:
                for n in ast.walk(comp.target):
                    if isinstance(n, ast.Name):
                        names.add(n.id)
    return names


def _param_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    a = func.args
    names = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
    if a.vararg:
        names.add(a.vararg.arg)
    if a.kwarg:
        names.add(a.kwarg.arg)
    return names


def _has_bound_compare(scope: ast.AST | None, bound: str) -> bool:
    """Any comparison in ``scope`` mentioning the spec'd bound name."""
    if scope is None:
        return False
    for node in ast.walk(scope):
        if isinstance(node, ast.Compare) and bound in ast.unparse(node):
            return True
    return False


def _mentions_self(expr: ast.expr) -> bool:
    return any(
        isinstance(n, ast.Name) and n.id == "self" for n in ast.walk(expr)
    )


# ----------------------------------------------------------------------
# P1 — every constructed message is dispatched (and vice versa)
# ----------------------------------------------------------------------


class UnhandledMessageRule(Rule):
    """P1 — constructed messages must be dispatched; dispatch must be live."""

    id = "protocol-unhandled-message"
    code = "P1"
    description = (
        "a dispatched-kind message that is constructed but appears in no node "
        "dispatch table silently drops on delivery; a dispatch entry (or "
        "payload-tag test) matching no construction site is dead protocol"
    )
    fix_hint = (
        "add the message to the on_round dispatch dict (or an on_* handler), "
        "or delete the dead entry"
    )

    def check(self, ctx: CheckContext) -> Iterator[Finding]:
        handled = {d.message for d in ctx.protocol.dispatch}
        constructed = {c.message for c in ctx.protocol.constructions}
        reported: set[tuple[str, str, int]] = set()
        for site in ctx.protocol.constructions:
            entry = ctx.spec.message(site.message)
            if entry is not None and not entry.dispatched:
                continue  # records ride inside other messages
            if site.message in handled:
                continue
            key = (site.module.relpath, site.message, site.lineno)
            if key in reported:
                continue
            reported.add(key)
            yield self.finding(
                site.module,
                site.lineno,
                f"`{site.message}` is constructed here but no node "
                "dispatches it (no dispatch-dict entry or on_* handler)",
            )
        for entry in ctx.protocol.dispatch:
            if entry.message not in constructed:
                yield self.finding(
                    entry.module,
                    entry.lineno,
                    f"dispatch entry for `{entry.message}` is dead: "
                    "nothing constructs that message",
                )
        # Routed payload tags: emitted tags must be tested somewhere.
        tested = {t.tag for t in ctx.protocol.payload_checks}
        emitted = {p.tag for p in ctx.protocol.payload_sites}
        seen_tags: set[tuple[str, str, int]] = set()
        for site in ctx.protocol.payload_sites:
            if site.tag in tested:
                continue
            key = (site.module.relpath, site.tag, site.lineno)
            if key in seen_tags:
                continue
            seen_tags.add(key)
            yield self.finding(
                site.module,
                site.lineno,
                f'routed payload tag "{site.tag}" is emitted here but '
                "never tested at any delivery site",
            )
        for check in ctx.protocol.payload_checks:
            if check.tag not in emitted:
                yield self.finding(
                    check.module,
                    check.lineno,
                    f'payload tag "{check.tag}" is tested here but '
                    "nothing emits it",
                )


# ----------------------------------------------------------------------
# P2 — phase discipline at producer and consumer sites
# ----------------------------------------------------------------------


class PhaseViolationRule(Rule):
    """P2 — sends/handles happen only in the spec'd lifecycle phases."""

    id = "protocol-phase-violation"
    code = "P2"
    description = (
        "a message constructed (or a routed payload emitted) in a phase "
        "context outside the spec's producer phases, or handed to a handler "
        "outside its consumer phases — e.g. a FRESH node emitting "
        "ESTABLISHED-only maintenance traffic"
    )
    fix_hint = (
        "guard the site with the spec'd `self.phase` check, or correct the "
        "spec with a DESIGN.md citation"
    )

    def check(self, ctx: CheckContext) -> Iterator[Finding]:
        for site in ctx.protocol.constructions:
            entry = ctx.spec.message(site.message)
            if entry is None or site.phases is None or not site.phases:
                continue
            allowed = frozenset(entry.producer_phases)
            extra = site.phases - allowed
            if extra:
                yield self.finding(
                    site.module,
                    site.lineno,
                    f"`{site.message}` constructed in phase context "
                    f"{_fmt_phases(site.phases)} but the spec allows "
                    f"producers only in {_fmt_phases(allowed)} "
                    f"[{entry.anchor}]",
                )
        for site in ctx.protocol.payload_sites:
            entry = ctx.spec.payload(site.tag)
            if entry is None or site.phases is None or not site.phases:
                continue
            allowed = frozenset(entry.producer_phases)
            if site.phases - allowed:
                yield self.finding(
                    site.module,
                    site.lineno,
                    f'routed payload "{site.tag}" emitted in phase context '
                    f"{_fmt_phases(site.phases)} but the spec allows "
                    f"{_fmt_phases(allowed)} [{entry.anchor}]",
                )
        for consumer in ctx.protocol.consumers:
            entry = ctx.spec.message(consumer.message)
            if entry is None or not consumer.phases:
                continue
            allowed = frozenset(entry.consumer_phases)
            if consumer.phases - allowed:
                yield self.finding(
                    consumer.module,
                    consumer.lineno,
                    f"`{consumer.message}` handed to {consumer.handler} in "
                    f"phase context {_fmt_phases(consumer.phases)} but the "
                    f"spec allows consumers only in {_fmt_phases(allowed)} "
                    f"[{entry.anchor}]",
                )


# ----------------------------------------------------------------------
# P3 — field agreement: spec <-> dataclass <-> constructor calls
# ----------------------------------------------------------------------


class FieldDriftRule(Rule):
    """P3 — spec fields, dataclass fields and constructor calls agree."""

    id = "protocol-field-drift"
    code = "P3"
    description = (
        "the spec's field list, the dataclass definition, and every "
        "constructor call must agree (names, order, required fields)"
    )
    fix_hint = "update the spec and the dataclass together, citing DESIGN.md"

    def check(self, ctx: CheckContext) -> Iterator[Finding]:
        for name in sorted(ctx.protocol.registry):
            impl = ctx.protocol.registry[name]
            entry = ctx.spec.message(name)
            if entry is None:
                continue  # P6's business
            impl_fields = tuple(f.name for f in impl.fields)
            if impl_fields != tuple(entry.fields):
                yield self.finding(
                    impl.module,
                    impl.lineno,
                    f"`{name}` fields ({', '.join(impl_fields) or 'none'}) "
                    f"drift from the spec ({', '.join(entry.fields) or 'none'}) "
                    f"[{entry.anchor}]",
                )
        for site in ctx.protocol.constructions:
            impl = ctx.protocol.registry.get(site.message)
            if impl is None:
                continue
            yield from self._check_call(site, impl)

    def _check_call(self, site, impl) -> Iterator[Finding]:
        fields = impl.fields
        names = [f.name for f in fields]
        call = site.call
        if any(isinstance(a, ast.Starred) for a in call.args) or any(
            kw.arg is None for kw in call.keywords
        ):
            return  # *args/**kwargs: not statically checkable
        if len(call.args) > len(fields):
            yield self.finding(
                site.module,
                site.lineno,
                f"`{site.message}` constructed with {len(call.args)} "
                f"positional args but it has {len(fields)} fields",
            )
            return
        provided = set(names[: len(call.args)])
        for kw in call.keywords:
            if kw.arg not in names:
                yield self.finding(
                    site.module,
                    site.lineno,
                    f"`{site.message}` constructed with unknown field "
                    f"`{kw.arg}` (fields: {', '.join(names)})",
                )
            else:
                provided.add(kw.arg)
        for f in fields:
            if not f.has_default and f.name not in provided:
                yield self.finding(
                    site.module,
                    site.lineno,
                    f"`{site.message}` constructed without required field "
                    f"`{f.name}`",
                )


# ----------------------------------------------------------------------
# P4 — hop step / TTL bound discipline
# ----------------------------------------------------------------------


class StepBoundRule(Rule):
    """P4 — hop steps and TTL stamps come only from bounded expressions."""

    id = "protocol-step-bound"
    code = "P4"
    description = (
        "a hop step must be the spec'd initial value, a passthrough of an "
        "existing step, or an increment dominated by a bound check against "
        "the trajectory's final step; TTL expiries must use spec'd sources"
    )
    fix_hint = (
        "compare against `final_step` before advancing the step, or stamp "
        "TTLs from a spec'd expiry expression"
    )

    def check(self, ctx: CheckContext) -> Iterator[Finding]:
        hops = ctx.spec.hops
        if hops is not None:
            for sw in ctx.protocol.step_writes:
                message = self._classify(sw, hops.step_init, hops.bound)
                if message is not None:
                    yield self.finding(sw.module, sw.lineno, message)
        ttl = ctx.spec.ttl
        if ttl is not None:
            for tw in ctx.protocol.ttl_writes:
                expr = _deref(tw.expr, tw.bindings)
                text = norm_expr(expr)
                if text in ttl.sources or norm_expr(tw.expr) in ttl.sources:
                    continue
                yield self.finding(
                    tw.module,
                    tw.lineno,
                    f"TTL expiry for `{tw.attr}` stamped from `{text}`, "
                    f"which is not a spec'd source "
                    f"({', '.join(ttl.sources)}) [{ttl.anchor}]",
                )

    def _classify(
        self, sw: StepWrite, step_init: int, bound: str
    ) -> str | None:
        expr = sw.expr
        if isinstance(expr, ast.Constant):
            if expr.value == step_init:
                return None
            return (
                f"hop step initialised to {expr.value!r} but the spec "
                f"says step_init={step_init}"
            )
        d = _deref(expr, sw.bindings)
        if isinstance(d, ast.Name):
            if sw.func is not None and (
                d.id in _param_names(sw.func)
                or d.id in _loop_target_names(sw.func)
            ):
                return None  # passthrough of an existing step value
            return (
                f"hop step written from unbound name `{d.id}` "
                "(not a parameter, loop variable, or tracked binding)"
            )
        if isinstance(d, (ast.Subscript, ast.Attribute)):
            return None  # passthrough from a step column / message field
        if isinstance(d, ast.BinOp) and isinstance(d.op, ast.Add):
            scope: ast.AST | None = sw.func
            if _mentions_self(d):
                scope = sw.cls if sw.cls is not None else sw.func
            if _has_bound_compare(scope, bound):
                return None
            return (
                f"hop step advanced (`{norm_expr(d)}`) without a dominating "
                f"`{bound}` bound check in scope"
            )
        if isinstance(d, ast.Constant):
            if d.value == step_init:
                return None
            return (
                f"hop step initialised to {d.value!r} but the spec "
                f"says step_init={step_init}"
            )
        return (
            f"hop step written from unrecognised expression "
            f"`{norm_expr(d)}` (spec allows init={step_init}, passthrough, "
            f"or a `{bound}`-bounded increment)"
        )


# ----------------------------------------------------------------------
# P5 — epoch monotonicity: who may write self.epoch, and from what
# ----------------------------------------------------------------------


class EpochMonotoneRule(Rule):
    """P5 — ``self.epoch`` (and message epoch fields) use spec'd sources."""

    id = "protocol-epoch-monotone"
    code = "P5"
    description = (
        "self.epoch may be written only by the spec'd writer functions from "
        "their spec'd source expressions (None — demotion/reset — is always "
        "legal); message epoch fields must be filled from spec'd sources"
    )
    fix_hint = (
        "route the epoch through a spec'd writer/expression, or extend the "
        "spec with a DESIGN.md citation"
    )

    def check(self, ctx: CheckContext) -> Iterator[Finding]:
        epochs = ctx.spec.epochs
        if epochs is not None:
            for ew in ctx.protocol.epoch_writes:
                expr = _deref(ew.expr, ew.bindings)
                if isinstance(expr, ast.Constant) and expr.value is None:
                    continue
                allowed = epochs.allowed(ew.qname)
                if allowed is None:
                    yield self.finding(
                        ew.module,
                        ew.lineno,
                        f"`{ew.qname}` writes self.epoch but is not a "
                        f"spec'd epoch writer [{epochs.anchor}]",
                    )
                    continue
                text = norm_expr(expr)
                raw = norm_expr(ew.expr)
                if text not in allowed and raw not in allowed:
                    yield self.finding(
                        ew.module,
                        ew.lineno,
                        f"self.epoch written from `{raw}` but the spec "
                        f"allows only ({', '.join(allowed)}) here "
                        f"[{epochs.anchor}]",
                    )
        for site in ctx.protocol.constructions:
            entry = ctx.spec.message(site.message)
            impl = ctx.protocol.registry.get(site.message)
            if entry is None or impl is None or not entry.epoch_field_sources:
                continue
            arg = self._epoch_arg(site.call, [f.name for f in impl.fields])
            if arg is None:
                continue
            expr = _deref(arg, site.bindings)
            text = norm_expr(expr)
            raw = norm_expr(arg)
            if (
                isinstance(expr, ast.Constant) and expr.value is None
            ) or text in entry.epoch_field_sources or raw in entry.epoch_field_sources:
                continue
            yield self.finding(
                site.module,
                site.lineno,
                f"field `epoch` of `{site.message}` filled from `{text}` "
                f"but the spec allows "
                f"({', '.join(entry.epoch_field_sources)}) [{entry.anchor}]",
            )

    @staticmethod
    def _epoch_arg(call: ast.Call, names: list[str]) -> ast.expr | None:
        if "epoch" not in names:
            return None
        for kw in call.keywords:
            if kw.arg == "epoch":
                return kw.value
        idx = names.index("epoch")
        if idx < len(call.args):
            return call.args[idx]
        return None


# ----------------------------------------------------------------------
# P6 — spec <-> implementation coverage
# ----------------------------------------------------------------------


class SpecCoverageRule(Rule):
    """P6 — the spec and the implementation cover each other exactly."""

    id = "protocol-spec-coverage"
    code = "P6"
    description = (
        "every spec message must have a __protocol__-marked implementation, "
        "every marked class (and every dataclass in a spec'd message "
        "module) must be covered by the spec, and routed payload tags must "
        "match the spec's payload table"
    )
    fix_hint = (
        "add the missing spec entry with its PAPER.md/DESIGN.md anchor, or "
        "mark/remove the unregistered class"
    )

    def check(self, ctx: CheckContext) -> Iterator[Finding]:
        spec = ctx.spec
        model = ctx.protocol
        for entry in spec.messages:
            if entry.name not in model.registry:
                yield self.finding(
                    spec.relpath,
                    0,
                    f"spec covers `{entry.name}` but no __protocol__-marked "
                    f"class implements it [{entry.anchor}]",
                )
        for name in sorted(model.registry):
            if spec.message(name) is None:
                impl = model.registry[name]
                yield self.finding(
                    impl.module,
                    impl.lineno,
                    f"message class `{name}` is not covered by the protocol "
                    "spec (add an entry with its paper anchor)",
                )
        by_module = {m.module: m for m in model.modules}
        for dotted in spec.message_modules:
            mod = by_module.get(dotted)
            if mod is None:
                continue  # path-restricted run; the full gate sees it
            for name, lineno in model.dataclasses_by_module.get(dotted, []):
                if name not in model.registry:
                    yield self.finding(
                        mod,
                        lineno,
                        f"dataclass `{name}` in message module {dotted} "
                        "lacks the __protocol__ marker (every message-module "
                        "dataclass must be registered and spec-covered)",
                    )
        emitted = {}
        for site in model.payload_sites:
            emitted.setdefault(site.tag, site)
        for tag in sorted(emitted):
            if spec.payload(tag) is None:
                site = emitted[tag]
                yield self.finding(
                    site.module,
                    site.lineno,
                    f'routed payload tag "{tag}" is not covered by the '
                    "spec's payload table",
                )
        for payload in spec.payloads:
            if payload.tag not in emitted:
                yield self.finding(
                    spec.relpath,
                    0,
                    f'spec covers payload "{payload.tag}" but nothing emits '
                    f"it [{payload.anchor}]",
                )
