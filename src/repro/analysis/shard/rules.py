"""Shard safety rules S2–S5.

Each rule checks one clause of the sharded engine's safety contract
(:mod:`repro.sim.shard` module docstring) against the inferred process
roles (:mod:`repro.analysis.shard.roles`).  Like the lint rules these are
*syntactic* heuristics tuned so the contract cannot be broken silently;
band membership of individual ids is a runtime property and is covered by
the ``REPRO_SHARD_SANITIZE=1`` asserts instead.  Code S1 is retired and
not reused.

Rules read the shared call graph and role map off the
:class:`~repro.analysis.check.CheckContext` (``ctx.index`` / ``ctx.roles``)
and walk whole functions, so one rule can correlate acquisitions and
releases across the methods of a class (S4).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.analysis.flow.callgraph import FunctionInfo
from repro.analysis.lint.engine import Rule, SourceModule
from repro.analysis.lint.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.check import CheckContext

__all__ = [
    "BoundaryTypeRule",
    "MasterStateRule",
    "SegmentLifecycleRule",
    "ForkHygieneRule",
]


def _functions(ctx: CheckContext) -> Iterable[FunctionInfo]:
    for qname in sorted(ctx.index.functions):
        yield ctx.index.functions[qname]


def _worker_functions(ctx: CheckContext) -> Iterable[FunctionInfo]:
    """Functions that run *exclusively* in worker processes."""
    for info in _functions(ctx):
        if ctx.roles.worker_only(info.qname):
            yield info


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------


def _receiver_text(expr: ast.expr) -> str | None:
    """The trailing identifier of a receiver (``enc``, ``self._down_enc``)."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _is_self_attr(expr: ast.expr) -> ast.Attribute | None:
    """``self.<attr>`` / ``cls.<attr>`` as an Attribute node, else None."""
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id in ("self", "cls")
    ):
        return expr
    return None


def _except_handler_nodes(fn: ast.AST) -> set[int]:
    """``id()`` of every AST node inside an ``except`` handler body."""
    inside: set[int] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.ExceptHandler):
            for sub in ast.walk(node):
                inside.add(id(sub))
    return inside


# ----------------------------------------------------------------------
# S2 — boundary codec types
# ----------------------------------------------------------------------

#: Constructors whose results must never cross the pipe/frame boundary.
_BANNED_CTORS = {
    "threading.Lock": "a lock",
    "threading.RLock": "a lock",
    "threading.Condition": "a condition variable",
    "threading.Event": "an event",
    "threading.Semaphore": "a semaphore",
    "multiprocessing.Lock": "a lock",
    "multiprocessing.RLock": "a lock",
    "multiprocessing.Queue": "a queue",
}


class BoundaryTypeRule(Rule):
    """S2 — only codec-approved values reach pipe/frame-encode sinks."""

    id = "shard-boundary-types"
    code = "S2"
    description = (
        "values reaching pipe send / frame-encode sinks (conn.send_bytes, "
        "_dumps/pickle.dumps, FrameEncoder.encode) must be in the approved "
        "codec set — no closures, lambdas, generators, locks, open files, "
        "or raw memoryviews/shared-buffer exports"
    )
    fix_hint = (
        "ship plain data (tuples/dicts/arrays/messages) across the "
        "boundary; reconstruct callables and views on the far side"
    )

    def check(self, ctx: CheckContext) -> Iterator[Finding]:
        for info in _functions(ctx):
            mod = info.module
            banned_names = self._banned_bindings(info.node)
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Call):
                    continue
                if not self._is_sink(mod, node):
                    continue
                args = list(node.args) + [kw.value for kw in node.keywords]
                for arg in args:
                    label = self._banned_expr(mod, arg, banned_names)
                    if label is not None:
                        yield self.finding(
                            mod,
                            arg,
                            f"`{info.qname}` sends {label} to a pipe/frame "
                            "boundary sink — not in the approved codec set",
                        )

    @staticmethod
    def _is_sink(mod: SourceModule, node: ast.Call) -> bool:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "_dumps":
                return True
            dotted = mod.import_map.get(func.id)
            return dotted == "pickle.dumps"
        if isinstance(func, ast.Attribute):
            if func.attr == "send_bytes":
                return True
            if func.attr == "dumps" and mod.resolve(func) == "pickle.dumps":
                return True
            if func.attr == "encode":
                # FrameEncoder-style receivers only (`enc`, `up_enc`,
                # `self._down_enc`); plain `text.encode("utf-8")` is not a
                # boundary sink.
                recv = _receiver_text(func.value)
                return recv is not None and "enc" in recv.lower()
        return False

    @staticmethod
    def _banned_bindings(fn: ast.AST) -> dict[str, str]:
        """Local names bound to values that may not cross the boundary."""
        banned: dict[str, str] = {}
        for node in ast.walk(fn):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node is not fn:
                    banned[node.name] = "a nested function (closure)"
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    label = BoundaryTypeRule._value_label(node.value)
                    if label is not None:
                        banned[target.id] = label
        return banned

    @staticmethod
    def _value_label(value: ast.expr) -> str | None:
        if isinstance(value, ast.Lambda):
            return "a lambda"
        if isinstance(value, ast.GeneratorExp):
            return "a generator expression"
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            if value.func.id == "memoryview":
                return "a raw memoryview"
            if value.func.id == "open":
                return "an open file handle"
        if isinstance(value, ast.Attribute) and value.attr == "buf":
            return "a raw shared-memory buffer view"
        return None

    @staticmethod
    def _banned_expr(
        mod: SourceModule, expr: ast.expr, banned_names: dict[str, str]
    ) -> str | None:
        direct = BoundaryTypeRule._value_label(expr)
        if direct is not None:
            return direct
        if isinstance(expr, ast.Name):
            return banned_names.get(expr.id)
        if isinstance(expr, ast.Call):
            dotted = mod.resolve(expr.func)
            if dotted in _BANNED_CTORS:
                return _BANNED_CTORS[dotted]
        return None


# ----------------------------------------------------------------------
# S3 — master-only state in worker code
# ----------------------------------------------------------------------

#: Engine/runner attributes that exist only on the master side of the
#: fork: the adversary, the round observers, tracing/metrics, the network
#: (workers get a local send log), lifecycle bookkeeping, and the msg-id
#: re-canonicalisation registry.
MASTER_ONLY_ATTRS = frozenset(
    {
        "adversary",
        "observers",
        "trace",
        "metrics",
        "faults",
        "network",
        "lifecycle",
        "_canon",
    }
)

#: Dotted prefixes of master-only services a worker must never construct.
_MASTER_ONLY_CTOR_PREFIXES = ("repro.adversary.", "repro.faults.health")


class MasterStateRule(Rule):
    """S3 — worker-role code never touches master-only state."""

    id = "shard-master-state"
    code = "S3"
    description = (
        "worker-role code must not touch master-only state (adversary, "
        "round observers, trace/metrics, faults, the live network, "
        "lifecycle, the msg-id registry): after the fork those objects "
        "only advance in the master, so a worker read is stale and a "
        "worker write is silently lost"
    )
    fix_hint = (
        "ship the needed value through the round control message (or a "
        "fork-time snapshot), or move the access to the master side"
    )

    def check(self, ctx: CheckContext) -> Iterator[Finding]:
        for info in _worker_functions(ctx):
            mod = info.module
            for node in ast.walk(info.node):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr in MASTER_ONLY_ATTRS
                ):
                    yield self.finding(
                        mod,
                        node,
                        f"worker-role `{info.qname}` touches master-only "
                        f"state `.{node.attr}` — stale after the fork",
                    )
                elif isinstance(node, ast.Call):
                    dotted = mod.resolve(node.func)
                    if dotted is not None and any(
                        dotted.startswith(p) for p in _MASTER_ONLY_CTOR_PREFIXES
                    ):
                        yield self.finding(
                            mod,
                            node,
                            f"worker-role `{info.qname}` constructs master-only "
                            f"service `{dotted}`",
                        )


# ----------------------------------------------------------------------
# S4 — segment lifecycle
# ----------------------------------------------------------------------

#: Calls that acquire a shared-memory segment.
_ACQUIRE_FUNCS = ("create_segment",)
#: Calls that release a segment passed as their first argument.
_RELEASE_FUNCS = ("destroy_segment", "close_segment")
#: Methods that release their receiver.
_RELEASE_METHODS = ("close", "unlink")


class SegmentLifecycleRule(Rule):
    """S4 — every acquired segment reaches a destroy/close."""

    id = "shard-segment-lifecycle"
    code = "S4"
    description = (
        "every create_segment() acquisition must reach "
        "destroy_segment()/close() on all non-exceptional paths (a release "
        "only inside an except handler does not count), and no exported "
        "buffer view may escape a function that destroys its segment"
    )
    fix_hint = (
        "destroy the segment in a finally (or a close() method of the "
        "owning class), and copy buffer contents out before destroying"
    )

    def check(self, ctx: CheckContext) -> Iterator[Finding]:
        # (module, cls) -> attr -> (SourceModule, lineno) of the acquisition.
        class_acquired: dict[tuple, dict[str, tuple]] = {}
        # (module, cls) -> attrs released by some method of the class.
        class_released: dict[tuple, set[str]] = {}
        for info in _functions(ctx):
            yield from self._check_function(
                info, class_acquired, class_released
            )
        for key, acquired in sorted(class_acquired.items()):
            released = class_released.get(key, set())
            for attr, (mod, lineno) in sorted(acquired.items()):
                if attr not in released:
                    yield self.finding(
                        mod,
                        lineno,
                        f"`self.{attr}` acquires a shared-memory segment but "
                        f"no method of `{key[1]}` destroys or closes it",
                    )

    def _check_function(
        self,
        info: FunctionInfo,
        class_acquired: dict[tuple, dict[str, tuple]],
        class_released: dict[tuple, set[str]],
    ) -> Iterator[Finding]:
        mod = info.module
        fn = info.node
        in_handler = _except_handler_nodes(fn)
        cls_key = (info.module.module, info.cls)
        local_acquired: dict[str, int] = {}  # name -> lineno
        local_released: set[str] = set()
        local_destroyed: set[str] = set()  # destroy_segment specifically
        escaped: set[str] = set()
        aliases: dict[str, str] = {}  # local name -> self attr it aliases
        view_of: dict[str, str] = {}  # local name -> segment its .buf it views

        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                acquired = self._is_acquisition(mod, value)
                if acquired:
                    if isinstance(target, ast.Name):
                        local_acquired.setdefault(target.id, node.lineno)
                    else:
                        attr = _is_self_attr(target)
                        if attr is not None:
                            class_acquired.setdefault(cls_key, {}).setdefault(
                                attr.attr, (mod, node.lineno)
                            )
                elif isinstance(target, ast.Name):
                    attr = _is_self_attr(value)
                    if attr is not None:
                        aliases[target.id] = attr.attr
                    seg = self._buf_view_source(value)
                    if seg is not None:
                        view_of[target.id] = seg
            elif isinstance(node, ast.Call):
                released = self._released_by(node)
                if released is None:
                    # A segment handed to any other call escapes this
                    # function's ownership (e.g. Process args, helpers).
                    for arg in node.args:
                        if isinstance(arg, ast.Name):
                            escaped.add(arg.id)
                        for sub in ast.walk(arg):
                            if isinstance(sub, ast.Name):
                                escaped.add(sub.id)
                    continue
                kind, target = released
                if id(node) in in_handler:
                    continue  # except-handler-only release does not count
                if isinstance(target, ast.Name):
                    name = target.id
                    local_released.add(name)
                    if kind == "destroy":
                        local_destroyed.add(name)
                    if name in aliases:
                        class_released.setdefault(cls_key, set()).add(
                            aliases[name]
                        )
                else:
                    attr = _is_self_attr(target)
                    if attr is not None:
                        class_released.setdefault(cls_key, set()).add(attr.attr)
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                value = node.value
                if value is not None:
                    for sub in ast.walk(value):
                        if isinstance(sub, ast.Name):
                            escaped.add(sub.id)

        for name, lineno in sorted(local_acquired.items()):
            if name not in local_released and name not in escaped:
                yield self.finding(
                    mod,
                    lineno,
                    f"segment `{name}` acquired in `{info.qname}` never "
                    "reaches destroy_segment()/close() on a non-exceptional "
                    "path",
                )

        # Buffer-escape: a function that destroys a segment must not return
        # a view over that segment's buffer.
        for node in ast.walk(fn):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            for sub in ast.walk(node.value):
                seg = self._buf_view_source(sub)
                if seg is None and isinstance(sub, ast.Name):
                    seg = view_of.get(sub.id)
                if seg is not None and seg in local_destroyed:
                    yield self.finding(
                        mod,
                        node,
                        f"`{info.qname}` returns a buffer view over segment "
                        f"`{seg}` that it destroys — the mapping is gone "
                        "before the caller reads it",
                    )

    @staticmethod
    def _is_acquisition(mod: SourceModule, value: ast.expr) -> bool:
        if not isinstance(value, ast.Call):
            return False
        func = value.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in _ACQUIRE_FUNCS:
            return True
        if name == "SharedMemory":
            return any(
                kw.arg == "create"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in value.keywords
            )
        return False

    @staticmethod
    def _released_by(node: ast.Call) -> tuple[str, ast.expr] | None:
        """``("destroy"|"close", released_expr)`` if this call releases."""
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in _RELEASE_FUNCS and node.args:
            kind = "destroy" if name == "destroy_segment" else "close"
            return kind, node.args[0]
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _RELEASE_METHODS
            and not node.args
        ):
            return "close", func.value
        return None

    @staticmethod
    def _buf_view_source(expr: ast.expr) -> str | None:
        """The segment name behind ``<name>.buf`` (or ``None``)."""
        if (
            isinstance(expr, ast.Attribute)
            and expr.attr == "buf"
            and isinstance(expr.value, ast.Name)
        ):
            return expr.value.id
        return None


# ----------------------------------------------------------------------
# S5 — fork hygiene
# ----------------------------------------------------------------------

#: Methods that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "append",
        "add",
        "update",
        "pop",
        "popitem",
        "clear",
        "extend",
        "remove",
        "discard",
        "insert",
        "setdefault",
        "appendleft",
    }
)

#: RNG acquisitions that are nondeterministic across forked processes.
_NONDET_RNG = ("os.urandom",)
_NONDET_RNG_PREFIXES = ("secrets.",)


class ForkHygieneRule(Rule):
    """S5 — no module-global mutation or un-reseeded RNG in workers."""

    id = "shard-fork-hygiene"
    code = "S5"
    description = (
        "worker-role code must not mutate module globals (each fork "
        "mutates its private copy — state silently diverges) or draw from "
        "un-reseeded / OS-entropy RNGs (default_rng() without a seed, "
        "os.urandom, secrets)"
    )
    fix_hint = (
        "keep worker state in function locals or objects shipped through "
        "the control message; draw randomness from the per-node "
        "RngService streams forked with the engine snapshot"
    )

    def check(self, ctx: CheckContext) -> Iterator[Finding]:
        module_globals: dict[str, set[str]] = {}
        for info in _worker_functions(ctx):
            mod = info.module
            if mod.module not in module_globals:
                module_globals[mod.module] = self._top_level_names(mod)
            globals_here = module_globals[mod.module]
            for node in ast.walk(info.node):
                if isinstance(node, ast.Global):
                    yield self.finding(
                        mod,
                        node,
                        f"worker-role `{info.qname}` rebinds module "
                        f"global(s) {', '.join(node.names)} — each fork "
                        "mutates a private copy",
                    )
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATORS
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in globals_here
                ):
                    yield self.finding(
                        mod,
                        node,
                        f"worker-role `{info.qname}` mutates module global "
                        f"`{node.func.value.id}` in place",
                    )
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        if (
                            isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Name)
                            and target.value.id in globals_here
                        ):
                            yield self.finding(
                                mod,
                                node,
                                f"worker-role `{info.qname}` writes into "
                                f"module global `{target.value.id}`",
                            )
                elif isinstance(node, ast.Call):
                    yield from self._check_rng(info, mod, node)

    def _check_rng(
        self, info: FunctionInfo, mod: SourceModule, node: ast.Call
    ) -> Iterator[Finding]:
        dotted = mod.resolve(node.func)
        if dotted is None and isinstance(node.func, ast.Name):
            dotted = mod.import_map.get(node.func.id, node.func.id)
        if dotted is None:
            return
        if dotted in _NONDET_RNG or any(
            dotted.startswith(p) for p in _NONDET_RNG_PREFIXES
        ):
            yield self.finding(
                mod,
                node,
                f"worker-role `{info.qname}` draws OS entropy via "
                f"`{dotted}` — forked runs diverge",
            )
        elif (
            dotted.endswith("default_rng")
            and not node.args
            and not node.keywords
        ):
            yield self.finding(
                mod,
                node,
                f"worker-role `{info.qname}` creates an unseeded "
                "default_rng() — each fork gets fresh OS entropy",
            )

    @staticmethod
    def _top_level_names(mod: SourceModule) -> set[str]:
        names: set[str] = set()
        for node in mod.tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                names.add(node.target.id)
        return names
