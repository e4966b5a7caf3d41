"""Protocol contract rules P3 and P6.

Each rule compares the declarations the
:class:`~repro.analysis.proto.extract.ProtocolModel` extracts (the
``__protocol__`` registry, its constructor calls and the emitted payload
tags) against the committed
:class:`~repro.analysis.proto.spec.ProtocolSpec` (the *paper's*
contract).  Every finding names the spec clause (and its
PAPER.md/DESIGN.md anchor) it violates — a proto finding is an
argument, not a style nit.  The spec's behavioural clauses (phases,
steps, epochs, TTLs) are checked on live rounds instead, by
``tests/integration/contract.py``.

Rules read the extracted model and the spec off the
:class:`~repro.analysis.check.CheckContext` (``ctx.protocol`` / ``ctx.spec``).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.analysis.lint.engine import Rule
from repro.analysis.lint.findings import Finding
from repro.analysis.proto.extract import ConstructionSite, MessageClass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.check import CheckContext

__all__ = ["FieldDriftRule", "SpecCoverageRule"]


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
        spec = ctx.spec  # loaded first: a P rule never runs without its spec
        for name in sorted(ctx.protocol.registry):
            impl = ctx.protocol.registry[name]
            entry = spec.message(name)
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

    def _check_call(
        self, site: ConstructionSite, impl: MessageClass
    ) -> Iterator[Finding]:
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
