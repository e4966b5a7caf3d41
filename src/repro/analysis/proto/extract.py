"""Extraction: recover the *declared* protocol from the AST.

This is the evidence side of P3 and P6.  It walks the parsed project (the
same :class:`SourceModule` set and
:class:`~repro.analysis.flow.callgraph.ProjectIndex` the F and S rules
share) and builds a :class:`ProtocolModel`:

* the **message registry** — classes carrying a ``__protocol__`` marker,
  with their dataclass fields, plus every module's top-level dataclasses
  (P6's message-module coverage);
* **construction sites** of registry classes — every call P3 checks
  against the dataclass fields;
* **routed-payload tags** — the ``"tag"`` of each
  ``make_routed_message(payload=("tag", …))`` construction, direct or
  through a local ``*routed*`` wrapper (P6's payload table).

Only declarations are read: nothing here models how a node class is
shaped, so reshaping ``core/node.py`` needs no change to this module.
What the code *does* with its messages (phases, steps, epochs, TTLs) is
checked on live rounds by ``tests/integration/contract.py``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.analysis.flow.callgraph import ProjectIndex
from repro.analysis.lint.engine import SourceModule

__all__ = [
    "ConstructionSite",
    "FieldInfo",
    "MessageClass",
    "PayloadSite",
    "ProtocolModel",
]

_MARKER = "__protocol__"


@dataclass(frozen=True)
class FieldInfo:
    """One dataclass field of a registered message class."""

    name: str
    has_default: bool


@dataclass
class MessageClass:
    """A ``__protocol__``-marked class: one implemented message type."""

    name: str
    module: SourceModule
    lineno: int
    fields: tuple[FieldInfo, ...]


@dataclass
class ConstructionSite:
    """A call constructing a registry message class."""

    message: str
    module: SourceModule
    lineno: int
    call: ast.Call


@dataclass
class PayloadSite:
    """A ``make_routed_message(..., payload=("tag", body))`` call."""

    tag: str
    module: SourceModule
    lineno: int


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = (
            target.id
            if isinstance(target, ast.Name)
            else getattr(target, "attr", None)
        )
        if name == "dataclass":
            return True
    return False


def _has_marker(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == _MARKER for t in stmt.targets
        ):
            return True
    return False


def _class_fields(node: ast.ClassDef) -> tuple[FieldInfo, ...]:
    fields: list[FieldInfo] = []
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign):
            continue
        if not isinstance(stmt.target, ast.Name):
            continue
        name = stmt.target.id
        if name.startswith("_"):
            continue
        ann = ast.unparse(stmt.annotation)
        if "ClassVar" in ann:
            continue
        fields.append(FieldInfo(name=name, has_default=stmt.value is not None))
    return tuple(fields)


def _last_component(dotted: str | None) -> str | None:
    if not dotted:
        return None
    return dotted.rpartition(".")[2]


def _scope_bindings(func: ast.AST) -> dict[str, ast.expr]:
    """``name -> expr`` for simple assignments in a function body."""
    bindings: dict[str, ast.expr] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                bindings[target.id] = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                bindings[node.target.id] = node.value
    return bindings


class ProtocolModel:
    """Everything P3 and P6 need, extracted in one pass."""

    def __init__(self, modules: Sequence[SourceModule], index: ProjectIndex) -> None:
        self.modules = list(modules)
        self.index = index
        self.registry: dict[str, MessageClass] = {}
        self.constructions: list[ConstructionSite] = []
        self.payload_sites: list[PayloadSite] = []
        #: module dotted name -> top-level dataclass names (for P6 coverage).
        self.dataclasses_by_module: dict[str, list[tuple[str, int]]] = {}

        for mod in self.modules:
            self._scan_classes(mod)
        for mod in self.modules:
            # The analyzers themselves mention payloads by name everywhere;
            # never read protocol sites out of them.
            if not mod.in_packages(("repro.analysis",)):
                for cls_name, func in _functions_of(mod):
                    self._scan_function(mod, cls_name, func)

    def _scan_classes(self, mod: SourceModule) -> None:
        datas: list[tuple[str, int]] = []
        for node in mod.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            if _is_dataclass_decorated(node):
                datas.append((node.name, node.lineno))
            if _has_marker(node):
                self.registry[node.name] = MessageClass(
                    name=node.name,
                    module=mod,
                    lineno=node.lineno,
                    fields=_class_fields(node),
                )
        if datas:
            self.dataclasses_by_module[mod.module] = datas

    def _scan_function(
        self,
        mod: SourceModule,
        cls_name: str | None,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> None:
        bindings = _scope_bindings(func)
        for call in ast.walk(func):
            if not isinstance(call, ast.Call):
                continue
            callee = _last_component(mod.resolve(call.func)) or (
                call.func.id if isinstance(call.func, ast.Name) else None
            )
            if callee in self.registry:
                self.constructions.append(
                    ConstructionSite(
                        message=callee, module=mod, lineno=call.lineno, call=call
                    )
                )
            attr = call.func.attr if isinstance(call.func, ast.Attribute) else None
            if "routed" in (callee or "") or "routed" in (attr or ""):
                payload = self._payload_arg(mod, cls_name, call)
                if payload is not None:
                    self._scan_payload(mod, call, payload, bindings)

    def _payload_arg(
        self, mod: SourceModule, cls_name: str | None, call: ast.Call
    ) -> ast.expr | None:
        """The ``payload`` argument of a routed-message call: the keyword,
        or the positional argument a local wrapper's ``payload`` parameter
        takes (resolved over the flow :class:`ProjectIndex`)."""
        for kw in call.keywords:
            if kw.arg == "payload":
                return kw.value
        if not call.args:
            return None
        resolved = self.index.resolve_call(mod, cls_name, call.func)
        if resolved is None:
            return None
        info, is_bound = resolved
        params = [a.arg for a in info.node.args.posonlyargs + info.node.args.args]
        if is_bound and params and params[0] in ("self", "cls"):
            params = params[1:]
        if "payload" in params and params.index("payload") < len(call.args):
            return call.args[params.index("payload")]
        return None

    def _scan_payload(
        self,
        mod: SourceModule,
        call: ast.Call,
        payload: ast.expr,
        bindings: dict[str, ast.expr],
    ) -> None:
        if isinstance(payload, ast.Name) and payload.id in bindings:
            payload = bindings[payload.id]
        for tup in ast.walk(payload):
            if (
                isinstance(tup, ast.Tuple)
                and tup.elts
                and isinstance(tup.elts[0], ast.Constant)
                and isinstance(tup.elts[0].value, str)
            ):
                self.payload_sites.append(
                    PayloadSite(tag=tup.elts[0].value, module=mod, lineno=call.lineno)
                )

    def summary(self) -> dict:
        """Counts for the report's ``protocol`` block (deterministic)."""
        return {
            "messages": len(self.registry),
            "constructions": len(self.constructions),
            "payload_sites": len(self.payload_sites),
        }


def _functions_of(
    mod: SourceModule,
) -> Iterable[tuple[str | None, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """``(enclosing class name, function node)`` for top-two-level defs."""
    for node in mod.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield None, node
        elif isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, child
