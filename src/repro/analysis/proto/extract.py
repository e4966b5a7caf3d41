"""Extraction: recover the *implemented* protocol from the AST.

This is the evidence side of the P rules.  It walks the parsed project
(the same :class:`SourceModule` set and
:class:`~repro.analysis.flow.callgraph.ProjectIndex` the F and S rules
share) and builds a :class:`ProtocolModel`:

* the **message registry** — classes carrying a ``__protocol__`` marker,
  with their dataclass fields;
* **node classes** — any class defining ``on_round`` or another of the
  round's entry points (:data:`~repro.analysis.proto.phases.ENTRY_METHODS`)
  — each with a :class:`~repro.analysis.proto.phases.ClassPhases` phase
  analysis;
* the **dispatch table** — the exact-type bucket dict inside an entry
  method (message class -> bucket variable) plus ``on_<msg>`` handler
  methods, and the **consumer sites** where buckets are handed to handler
  methods — in the method that fills them or, carried over on a step
  record under the bucket's name, in a later stage;
* **construction sites** of registry classes (the proxy for send sites:
  constructed messages flow through pending-launch dicts and batch
  APIs before any literal ``ctx.send``), each with its phase context;
* **routed-payload sites** — ``make_routed_message(payload=("tag", …))``
  constructions and the ``tag == "…"`` comparisons that consume them;
* **step / TTL / epoch writes** — the raw material for the bound rules
  (P4/P5), with per-function name bindings so ``next_k = k + 1`` is
  classified by what bound ``next_k``.

Extraction is deliberately syntactic and over-approximate; the rules in
:mod:`repro.analysis.proto.rules` decide what is a finding.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.analysis.flow.callgraph import ProjectIndex
from repro.analysis.lint.engine import SourceModule
from repro.analysis.proto.phases import ENTRY_METHODS, ClassPhases
from repro.analysis.proto.spec import ProtocolSpec

__all__ = [
    "SEND_APIS",
    "ConstructionSite",
    "ConsumerSite",
    "DispatchEntry",
    "FieldInfo",
    "MessageClass",
    "NodeClass",
    "PayloadSite",
    "PayloadTagCheck",
    "ProtocolModel",
    "SendSite",
    "StepWrite",
    "TtlWrite",
    "EpochWrite",
]

#: Context send APIs whose calls count as wire emission sites.
SEND_APIS = frozenset(
    {
        "send",
        "send_singles_batch",
        "send_many",
        "send_hops",
        "send_hops_batch",
    }
)

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
    node: ast.ClassDef
    lineno: int
    fields: tuple[FieldInfo, ...]


@dataclass
class NodeClass:
    """A protocol node class (defines a round entry point), with phase analysis."""

    name: str
    module: SourceModule
    node: ast.ClassDef
    phases: ClassPhases


@dataclass
class DispatchEntry:
    """``{MessageClass: bucket_var}`` entry in the round's dispatch dict."""

    message: str
    bucket: str
    node_class: str
    module: SourceModule
    lineno: int


@dataclass
class ConsumerSite:
    """A handler receiving a message type (bucket hand-off or ``on_*``)."""

    message: str
    handler: str  # qualified Class.method
    module: SourceModule
    lineno: int
    phases: frozenset[str]


@dataclass
class ConstructionSite:
    """A call constructing a registry message class."""

    message: str
    module: SourceModule
    qname: str
    lineno: int
    call: ast.Call
    #: Phase context when inside a node-class method; None elsewhere.
    phases: frozenset[str] | None
    bindings: dict[str, ast.expr]


@dataclass
class PayloadSite:
    """A ``make_routed_message(..., payload=("tag", body))`` call."""

    tag: str
    module: SourceModule
    qname: str
    lineno: int
    phases: frozenset[str] | None


@dataclass
class PayloadTagCheck:
    """A ``tag == "…"`` comparison consuming a routed payload."""

    tag: str
    module: SourceModule
    qname: str
    lineno: int


@dataclass
class SendSite:
    """A ``ctx.send*`` call (any receiver, API name match)."""

    api: str
    module: SourceModule
    qname: str
    lineno: int
    call: ast.Call


@dataclass
class StepWrite:
    """A hop step value leaving this function (``send_hops`` arg, the
    ``step=`` of ``launch_chunks``, or a step column)."""

    module: SourceModule
    qname: str
    lineno: int
    expr: ast.expr
    func: ast.FunctionDef | ast.AsyncFunctionDef | None
    cls: ast.ClassDef | None
    bindings: dict[str, ast.expr]


@dataclass
class TtlWrite:
    """An expiry stamp entering a TTL pool/ledger attribute."""

    module: SourceModule
    qname: str
    lineno: int
    expr: ast.expr
    attr: str
    kind: str  # "pool" | "ledger"
    bindings: dict[str, ast.expr]


@dataclass
class EpochWrite:
    """A ``self.epoch = …`` assignment inside a node class."""

    module: SourceModule
    qname: str
    lineno: int
    expr: ast.expr
    bindings: dict[str, ast.expr]


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


def _unpack_sources(func: ast.AST) -> dict[str, str]:
    """``name -> source text`` for tuple-unpack targets (payload tags)."""
    out: dict[str, str] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, (ast.Tuple, ast.List)):
                src = ast.unparse(node.value)
                for elt in target.elts:
                    if isinstance(elt, ast.Name):
                        out[elt.id] = src
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if isinstance(node.target, (ast.Tuple, ast.List)):
                src = ast.unparse(node.iter)
                for elt in node.target.elts:
                    if isinstance(elt, ast.Name):
                        out[elt.id] = src
    return out


class ProtocolModel:
    """Everything proto rules need, extracted in one pass."""

    def __init__(
        self,
        modules: Sequence[SourceModule],
        index: ProjectIndex,
        spec: ProtocolSpec,
    ) -> None:
        self.modules = list(modules)
        self.index = index
        self.spec = spec
        self.registry: dict[str, MessageClass] = {}
        self.node_classes: list[NodeClass] = []
        self.dispatch: list[DispatchEntry] = []
        self.consumers: list[ConsumerSite] = []
        self.constructions: list[ConstructionSite] = []
        self.payload_sites: list[PayloadSite] = []
        self.payload_checks: list[PayloadTagCheck] = []
        self.send_sites: list[SendSite] = []
        self.step_writes: list[StepWrite] = []
        self.ttl_writes: list[TtlWrite] = []
        self.epoch_writes: list[EpochWrite] = []
        #: module dotted name -> top-level dataclass names (for P6 coverage).
        self.dataclasses_by_module: dict[str, list[tuple[str, int]]] = {}

        for mod in self.modules:
            self._scan_classes(mod)
        self._node_class_names = {nc.name for nc in self.node_classes}
        for mod in self.modules:
            self._scan_module(mod)

    # -- pass 1: classes ---------------------------------------------------

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
                    node=node,
                    lineno=node.lineno,
                    fields=_class_fields(node),
                )
            if any(
                isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                and child.name in ENTRY_METHODS
                for child in node.body
            ):
                self.node_classes.append(
                    NodeClass(
                        name=node.name,
                        module=mod,
                        node=node,
                        phases=ClassPhases(node),
                    )
                )
        if datas:
            self.dataclasses_by_module[mod.module] = datas

    # -- pass 2: sites -----------------------------------------------------

    def _scan_module(self, mod: SourceModule) -> None:
        if mod.in_packages(("repro.analysis",)):
            # The analyzers themselves mention steps/payloads/epochs by
            # name everywhere; never read protocol sites out of them.
            return
        node_by_class = {
            nc.name: nc for nc in self.node_classes if nc.module is mod
        }
        for cls_ast, func, qname in _functions_of(mod):
            node_cls = node_by_class.get(cls_ast.name) if cls_ast else None
            self._scan_function(mod, cls_ast, func, qname, node_cls)
        # Dispatch/consumers need the whole-function view.
        for nc in node_by_class.values():
            self._scan_dispatch(nc)
            self._scan_handlers(nc)

    def _scan_function(
        self,
        mod: SourceModule,
        cls_node: ast.ClassDef | None,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        qname: str,
        node_cls: NodeClass | None,
    ) -> None:
        bindings = _scope_bindings(func)
        unpacks = _unpack_sources(func)

        def ctx_of(node: ast.AST) -> frozenset[str] | None:
            if node_cls is None:
                return None
            return node_cls.phases.context(func.name, node)

        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                self._scan_call(
                    mod, qname, func, cls_node, node, bindings, ctx_of
                )
            elif isinstance(node, ast.Compare):
                self._scan_tag_check(mod, qname, node, unpacks, bindings)
            elif isinstance(node, ast.Assign):
                self._scan_assign(mod, qname, node, bindings, node_cls)

    # -- calls -------------------------------------------------------------

    def _scan_call(
        self,
        mod: SourceModule,
        qname: str,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        cls_node: ast.ClassDef | None,
        call: ast.Call,
        bindings: dict[str, ast.expr],
        ctx_of,
    ) -> None:
        callee = _last_component(mod.resolve(call.func)) or (
            call.func.id if isinstance(call.func, ast.Name) else None
        )
        attr = call.func.attr if isinstance(call.func, ast.Attribute) else None

        # Message construction (the send proxy).
        if callee in self.registry:
            self.constructions.append(
                ConstructionSite(
                    message=callee,
                    module=mod,
                    qname=qname,
                    lineno=call.lineno,
                    call=call,
                    phases=ctx_of(call),
                    bindings=bindings,
                )
            )
        # Routed payload construction — a direct ``make_routed_message``
        # call, or a local ``*routed*`` wrapper that forwards a
        # ``payload`` parameter (resolved over the flow ProjectIndex).
        if "routed" in (callee or "") or "routed" in (attr or ""):
            payload_expr: ast.expr | None = None
            for kw in call.keywords:
                if kw.arg == "payload":
                    payload_expr = kw.value
            if payload_expr is None and call.args:
                resolved = self.index.resolve_call(
                    mod, cls_node.name if cls_node else None, call.func
                )
                if resolved is not None:
                    info, is_bound = resolved
                    params = [
                        a.arg
                        for a in info.node.args.posonlyargs
                        + info.node.args.args
                    ]
                    if is_bound and params and params[0] in ("self", "cls"):
                        params = params[1:]
                    if "payload" in params:
                        pos = params.index("payload")
                        if pos < len(call.args):
                            payload_expr = call.args[pos]
            if payload_expr is not None:
                if (
                    isinstance(payload_expr, ast.Name)
                    and payload_expr.id in bindings
                ):
                    payload_expr = bindings[payload_expr.id]
                for tup in ast.walk(payload_expr):
                    if (
                        isinstance(tup, ast.Tuple)
                        and tup.elts
                        and isinstance(tup.elts[0], ast.Constant)
                        and isinstance(tup.elts[0].value, str)
                    ):
                        self.payload_sites.append(
                            PayloadSite(
                                tag=tup.elts[0].value,
                                module=mod,
                                qname=qname,
                                lineno=call.lineno,
                                phases=ctx_of(call),
                            )
                        )
        # Send APIs (emission sites + hop-plane step columns).
        if attr in SEND_APIS:
            self.send_sites.append(
                SendSite(
                    api=attr,
                    module=mod,
                    qname=qname,
                    lineno=call.lineno,
                    call=call,
                )
            )
            if attr == "send_hops":
                # NodeContext.send_hops(msg, step, dsts) vs the network
                # level send_hops(src, msg, step, dsts): the step sits
                # just before the dsts in a fully positional call.
                step = None
                for kw in call.keywords:
                    if kw.arg == "step":
                        step = kw.value
                if step is None and len(call.args) >= 4:
                    step = call.args[2]
                elif step is None and len(call.args) >= 2:
                    step = call.args[1]
                if step is not None:
                    self.step_writes.append(
                        StepWrite(
                            module=mod,
                            qname=qname,
                            lineno=call.lineno,
                            expr=step,
                            func=func,
                            cls=cls_node,
                            bindings=bindings,
                        )
                    )
            if attr == "send_hops_batch":
                # Items are (msg, step, dsts) tuples, possibly inside a
                # list literal or comprehension.
                for arg in call.args:
                    for tup in ast.walk(arg):
                        if not (
                            isinstance(tup, ast.Tuple) and len(tup.elts) >= 2
                        ):
                            continue
                        self.step_writes.append(
                            StepWrite(
                                module=mod,
                                qname=qname,
                                lineno=tup.lineno,
                                expr=tup.elts[1],
                                func=func,
                                cls=cls_node,
                                bindings=bindings,
                            )
                        )
        # The launch kernel's ``step=``: the hop step launches enter at.
        if callee == "launch_chunks":
            for kw in call.keywords:
                if kw.arg == "step":
                    self.step_writes.append(
                        StepWrite(
                            module=mod,
                            qname=qname,
                            lineno=call.lineno,
                            expr=kw.value,
                            func=func,
                            cls=cls_node,
                            bindings=bindings,
                        )
                    )
        # `.append(...)` sites: hop-plane step columns and TTL pools.
        if attr == "append" and call.args:
            receiver = call.func.value
            recv_name = None
            if isinstance(receiver, ast.Name):
                recv_name = receiver.id
            elif isinstance(receiver, ast.Attribute):
                recv_name = receiver.attr
            if recv_name and "step" in recv_name.lower():
                self.step_writes.append(
                    StepWrite(
                        module=mod,
                        qname=qname,
                        lineno=call.lineno,
                        expr=call.args[0],
                        func=func,
                        cls=cls_node,
                        bindings=bindings,
                    )
                )
            ttl = self.spec.ttl
            if (
                ttl is not None
                and isinstance(receiver, ast.Attribute)
                and receiver.attr in ttl.pools
                and isinstance(call.args[0], ast.Tuple)
                and call.args[0].elts
            ):
                self.ttl_writes.append(
                    TtlWrite(
                        module=mod,
                        qname=qname,
                        lineno=call.lineno,
                        expr=call.args[0].elts[0],
                        attr=receiver.attr,
                        kind="pool",
                        bindings=bindings,
                    )
                )

    # -- payload tag comparisons --------------------------------------------

    def _scan_tag_check(
        self,
        mod: SourceModule,
        qname: str,
        node: ast.Compare,
        unpacks: dict[str, str],
        bindings: dict[str, ast.expr],
    ) -> None:
        if len(node.ops) != 1 or not isinstance(node.ops[0], (ast.Eq, ast.In)):
            return
        for const, other in (
            (node.left, node.comparators[0]),
            (node.comparators[0], node.left),
        ):
            if not (isinstance(const, ast.Constant) and isinstance(const.value, str)):
                continue
            text = ast.unparse(other)
            if isinstance(other, ast.Name):
                if other.id in unpacks:
                    text = unpacks[other.id]
                elif other.id in bindings:
                    text = ast.unparse(bindings[other.id])
            if "payload" in text:
                self.payload_checks.append(
                    PayloadTagCheck(
                        tag=const.value,
                        module=mod,
                        qname=qname,
                        lineno=node.lineno,
                    )
                )

    # -- assignments (epoch writes, TTL ledgers) -----------------------------

    def _scan_assign(
        self,
        mod: SourceModule,
        qname: str,
        node: ast.Assign,
        bindings: dict[str, ast.expr],
        node_cls: NodeClass | None,
    ) -> None:
        if len(node.targets) != 1:
            return
        target = node.targets[0]
        if (
            node_cls is not None
            and isinstance(target, ast.Attribute)
            and target.attr == "epoch"
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            self.epoch_writes.append(
                EpochWrite(
                    module=mod,
                    qname=qname,
                    lineno=node.lineno,
                    expr=node.value,
                    bindings=bindings,
                )
            )
        ttl = self.spec.ttl
        if (
            ttl is not None
            and isinstance(target, ast.Subscript)
            and isinstance(target.value, ast.Attribute)
            and target.value.attr in ttl.ledgers
            and isinstance(target.value.value, ast.Name)
            and target.value.value.id == "self"
        ):
            self.ttl_writes.append(
                TtlWrite(
                    module=mod,
                    qname=qname,
                    lineno=node.lineno,
                    expr=node.value,
                    attr=target.value.attr,
                    kind="ledger",
                    bindings=bindings,
                )
            )

    # -- dispatch & consumers ------------------------------------------------

    def _scan_dispatch(self, nc: NodeClass) -> None:
        entries = [
            (name, nc.phases.methods[name])
            for name in ENTRY_METHODS
            if name in nc.phases.methods
        ]
        mod = nc.module
        bucket_of: dict[str, str] = {}
        for _, func in entries:
            for node in ast.walk(func):
                if not isinstance(node, ast.Dict):
                    continue
                for key, value in zip(node.keys, node.values):
                    if key is None or not isinstance(value, ast.Name):
                        continue
                    name = _last_component(mod.resolve(key)) or (
                        key.id if isinstance(key, ast.Name) else None
                    )
                    # Any dict inside an entry method keyed by registry
                    # classes is the dispatch table (even a partial one —
                    # that IS the P1 case).
                    if name in self.registry:
                        self.dispatch.append(
                            DispatchEntry(
                                message=name,
                                bucket=value.id,
                                node_class=nc.name,
                                module=mod,
                                lineno=key.lineno,
                            )
                        )
                        bucket_of[value.id] = name
        if not bucket_of:
            return

        def carried(expr: ast.expr) -> str | None:
            """The message type a name — or, across stages, a step-record
            attribute named after a bucket — carries."""
            if isinstance(expr, ast.Name):
                return alias.get(expr.id)
            if isinstance(expr, ast.Attribute):
                return bucket_of.get(expr.attr)
            return None

        # Loop aliases: `for m in bucket:` makes the target carry the type.
        alias: dict[str, str] = dict(bucket_of)
        for _, func in entries:
            for node in ast.walk(func):
                if (
                    isinstance(node, (ast.For, ast.AsyncFor))
                    and isinstance(node.target, ast.Name)
                    and carried(node.iter) is not None
                ):
                    alias[node.target.id] = carried(node.iter)  # type: ignore[assignment]
        for method, func in entries:
            for node in ast.walk(func):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "self"
                ):
                    continue
                for arg in node.args:
                    message = carried(arg)
                    if message is not None:
                        self.consumers.append(
                            ConsumerSite(
                                message=message,
                                handler=f"{nc.name}.{node.func.attr}",
                                module=mod,
                                lineno=node.lineno,
                                phases=nc.phases.context(method, node),
                            )
                        )

    def _scan_handlers(self, nc: NodeClass) -> None:
        """``on_<x>(self, ..., msg: MessageType)`` methods count as dispatch."""
        mod = nc.module
        for name, func in nc.phases.methods.items():
            if not name.startswith("on_") or name in ENTRY_METHODS:
                continue
            for arg in func.args.args + func.args.kwonlyargs:
                if arg.annotation is None:
                    continue
                msg = _last_component(mod.resolve(arg.annotation)) or (
                    arg.annotation.id
                    if isinstance(arg.annotation, ast.Name)
                    else None
                )
                if msg in self.registry:
                    self.dispatch.append(
                        DispatchEntry(
                            message=msg,
                            bucket=arg.arg,
                            node_class=nc.name,
                            module=mod,
                            lineno=func.lineno,
                        )
                    )
                    self.consumers.append(
                        ConsumerSite(
                            message=msg,
                            handler=f"{nc.name}.{name}",
                            module=mod,
                            lineno=func.lineno,
                            phases=nc.phases.entries.get(
                                name, frozenset()
                            ),
                        )
                    )

    # -- summary -------------------------------------------------------------

    def summary(self) -> dict:
        """Counts for the report's ``protocol`` block (deterministic)."""
        return {
            "messages": len(self.registry),
            "node_classes": len(self.node_classes),
            "dispatch_entries": len(self.dispatch),
            "constructions": len(self.constructions),
            "payload_sites": len(self.payload_sites),
            "send_sites": len(self.send_sites),
            "step_writes": len(self.step_writes),
            "ttl_writes": len(self.ttl_writes),
            "epoch_writes": len(self.epoch_writes),
        }


def _functions_of(
    mod: SourceModule,
) -> Iterable[
    tuple[ast.ClassDef | None, ast.FunctionDef | ast.AsyncFunctionDef, str]
]:
    """``(enclosing class, function node, qname)`` for top-two-level defs."""
    for node in mod.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield None, node, f"{mod.module}.{node.name}"
        elif isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield (
                        node,
                        child,
                        f"{mod.module}.{node.name}.{child.name}",
                    )
