"""Per-function taint summaries by forward abstract interpretation.

Each function body is walked in statement order with an environment
mapping local names to taint sets.  The walk produces a
:class:`Summary` — the function's externally visible flow behaviour:

* ``return_tags`` — source tags generated inside (or in callees) that can
  reach the return value;
* ``param_to_return`` — parameter indices whose taint flows to the
  return value;
* ``param_sinks`` — parameter indices that reach a policy sink inside
  the function (directly or through further calls).

Summaries are computed to a fixpoint over the project call graph
(:func:`analyze_project`): a call to an analysed function substitutes the
actual argument taints into the callee's current summary, so taint is
tracked through any chain of helpers up to :data:`MAX_DEPTH` calls long.
Both policies ride the same fixpoint; rules F1/F2 each filter its findings.

Soundness is deliberately bounded (this is a tripwire, not a proof
system): loop bodies are interpreted twice (enough for one back-edge of
propagation), attribute state is not tracked across method boundaries
(no heap model), and method calls resolve only through ``self``/``cls``
and imported module paths (single static dispatch).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.flow.callgraph import FunctionInfo, ProjectIndex
from repro.analysis.flow.policies import (
    ALL_POLICIES,
    DETERMINISM,
    LATENESS,
    LIVE_SOURCE_PACKAGES,
    LIVE_STATE_ATTRS,
    SANITIZER_NAME,
    SANITIZER_REQUIRED_KWARGS,
    Policy,
    dotted_source_label,
)
from repro.analysis.flow.taint import (
    EMPTY,
    Tag,
    is_param,
    param_index,
    param_tag,
    real_tags,
)
from repro.analysis.lint.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.lint.engine import SourceModule

__all__ = [
    "MAX_DEPTH",
    "FlowFacts",
    "FunctionAnalyzer",
    "ParamSink",
    "Summary",
    "analyze_project",
]

#: Bound on summary-propagation passes, i.e. the longest helper chain taint
#: is tracked through (the live tree converges in 5).
MAX_DEPTH = 8

_POLICY_BY_ID = {p.id: p for p in ALL_POLICIES}

#: Labels that survive the AdversaryView sanitizer (it clamps *lateness*;
#: it does not launder determinism taint).
_DETERMINISM_LABELS = frozenset({"wallclock", "env", "global-rng"})


@dataclass(frozen=True, order=True)
class ParamSink:
    """"Parameter ``index`` reaches this sink" — the exported half of a leak."""

    index: int
    policy: str
    detail: str
    path: str
    line: int


@dataclass(frozen=True)
class Summary:
    """The externally visible flow behaviour of one function."""

    return_tags: frozenset = EMPTY
    param_to_return: frozenset = frozenset()
    param_sinks: tuple = ()


def _union(parts) -> frozenset:
    out: set = set()
    for p in parts:
        out |= p
    return frozenset(out)


def _short(node: ast.AST, limit: int = 60) -> str:
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on parsed trees
        text = "<expr>"
    return text if len(text) <= limit else text[: limit - 3] + "..."


class FunctionAnalyzer:
    """One pass of the abstract interpreter over one function body."""

    def __init__(
        self,
        index: ProjectIndex,
        summaries: dict,
        info: FunctionInfo,
        collect: bool,
    ) -> None:
        self.index = index
        self.summaries = summaries
        self.info = info
        self.mod: "SourceModule" = info.module
        self.relpath = self.mod.relpath
        self.collect = collect
        self.env: dict[str, frozenset] = {}
        self.adversary_vars: set[str] = set()
        self.return_tags: set = set()
        self.param_to_return: set = set()
        self.param_sinks: dict[tuple, ParamSink] = {}
        self.findings: list[Finding] = []
        self._finding_keys: set = set()

    # -- entry ----------------------------------------------------------

    def run(self) -> Summary:
        info = self.info
        for i, name in enumerate(info.params):
            self.env[name] = frozenset({param_tag(i)})
            if name in ("adversary", "adv"):
                self.adversary_vars.add(name)
        args = info.node.args
        pos = args.posonlyargs + args.args
        for p, d in zip(pos[len(pos) - len(args.defaults) :], args.defaults):
            self.env[p.arg] |= self.eval(d)
        for p, d in zip(args.kwonlyargs, args.kw_defaults):
            if d is not None:
                self.env[p.arg] |= self.eval(d)
        self.exec_block(info.node.body)
        return Summary(
            return_tags=frozenset(self.return_tags),
            param_to_return=frozenset(self.param_to_return),
            param_sinks=tuple(sorted(self.param_sinks.values())),
        )

    def _context(self) -> str:
        """The function's name relative to its module (``Cls.meth`` / ``fn``)."""
        return self.info.qname[len(self.mod.module) + 1 :]

    # -- findings / sinks -----------------------------------------------

    def _add_finding(self, policy: Policy, line: int, message: str) -> None:
        key = (policy.id, line, message)
        if key in self._finding_keys:
            return
        self._finding_keys.add(key)
        self.findings.append(
            Finding(
                path=self.relpath,
                line=line,
                rule=policy.id,
                message=message,
                fix_hint=policy.fix_hint,
            )
        )

    def _report_real(
        self, policy: Policy, taint: frozenset, line: int, reach: str
    ) -> None:
        """One finding per source label that reaches a sink description."""
        if not self.collect:
            return
        by_label: dict[str, Tag] = {}
        for tag in real_tags(taint):
            if tag.label in policy.labels:
                by_label.setdefault(tag.label, tag)
        for _, tag in sorted(by_label.items()):
            self._add_finding(
                policy, line, f"{tag.detail} ({tag.path}:{tag.line}) {reach}"
            )

    def sink(self, policy: Policy, taint: frozenset, detail: str, node: ast.AST) -> None:
        """Taint meets a sink *in this function*: report and export."""
        line = getattr(node, "lineno", 0)
        self._report_real(policy, taint, line, f"reaches {detail}")
        exported = f"{detail} inside `{self._context()}` ({self.relpath}:{line})"
        for tag in taint:
            if is_param(tag):
                key = (param_index(tag), policy.id, self.relpath, line)
                if key not in self.param_sinks:
                    self.param_sinks[key] = ParamSink(
                        param_index(tag), policy.id, exported, self.relpath, line
                    )

    def _apply_param_sink(
        self, policy: Policy, taint: frozenset, ps: ParamSink, call: ast.Call
    ) -> None:
        """A call argument flows into a sink inside the callee."""
        line = call.lineno
        self._report_real(policy, taint, line, f"flows into {ps.detail}")
        for tag in taint:
            if is_param(tag):
                key = (param_index(tag), ps.policy, ps.path, ps.line)
                if key not in self.param_sinks:
                    self.param_sinks[key] = ParamSink(
                        param_index(tag), ps.policy, ps.detail, ps.path, ps.line
                    )

    def _is_adversary_expr(self, node: ast.AST | None) -> bool:
        if isinstance(node, ast.Attribute) and node.attr == "adversary":
            return True
        if isinstance(node, ast.Name) and node.id in self.adversary_vars:
            return True
        return False

    def _check_store(self, target: ast.expr, taint: frozenset) -> None:
        """Sink checks for an attribute/subscript store."""
        if (
            LATENESS.armed_in(self.mod.module)
            and isinstance(target, ast.Attribute)
            and self._is_adversary_expr(target.value)
        ):
            self.sink(
                LATENESS,
                taint,
                f"adversary object state `{_short(target)}`",
                target,
            )
        if DETERMINISM.armed_in(self.mod.module):
            self.sink(
                DETERMINISM,
                taint,
                f"fingerprint-feeding state `{_short(target)}`",
                target,
            )

    # -- statements -----------------------------------------------------

    def exec_block(self, stmts: list) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt)

    def exec_stmt(self, node: ast.stmt) -> None:
        if isinstance(node, ast.Assign):
            taint = self.eval(node.value)
            for target in node.targets:
                self.assign(target, taint, node.value)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self.assign(node.target, self.eval(node.value), node.value)
        elif isinstance(node, ast.AugAssign):
            taint = self.eval(node.value) | self.eval(node.target)
            self.assign(node.target, taint, node.value)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                for tag in self.eval(node.value):
                    if is_param(tag):
                        self.param_to_return.add(param_index(tag))
                    else:
                        self.return_tags.add(tag)
        elif isinstance(node, ast.Expr):
            self.eval(node.value)
        elif isinstance(node, ast.If):
            self.eval(node.test)
            self.exec_block(node.body)
            self.exec_block(node.orelse)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self.assign(node.target, self.eval(node.iter), node.iter)
            for _ in range(2):  # one extra pass covers the loop back-edge
                self.exec_block(node.body)
            self.exec_block(node.orelse)
        elif isinstance(node, ast.While):
            self.eval(node.test)
            for _ in range(2):
                self.exec_block(node.body)
            self.exec_block(node.orelse)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                taint = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self.assign(item.optional_vars, taint, item.context_expr)
            self.exec_block(node.body)
        elif isinstance(node, ast.Try):
            self.exec_block(node.body)
            for handler in node.handlers:
                self.exec_block(handler.body)
            self.exec_block(node.orelse)
            self.exec_block(node.finalbody)
        elif isinstance(node, ast.Raise):
            self.eval(node.exc)
            self.eval(node.cause)
        elif isinstance(node, ast.Assert):
            self.eval(node.test)
            self.eval(node.msg)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.env.pop(target.id, None)
        # Nested defs/classes, imports, pass/break/continue/global: no flow.

    def assign(self, target: ast.expr, taint: frozenset, value: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = taint
            if self._is_adversary_expr(value):
                self.adversary_vars.add(target.id)
            else:
                self.adversary_vars.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self.assign(elt, taint, value)
        elif isinstance(target, ast.Starred):
            self.assign(target.value, taint, value)
        elif isinstance(target, ast.Attribute):
            self.eval(target.value)
            self._check_store(target, taint)
        elif isinstance(target, ast.Subscript):
            self.eval(target.value)
            self.eval(target.slice)
            self._check_store(target, taint)

    # -- expressions ----------------------------------------------------

    def eval(self, node: ast.expr | None) -> frozenset:
        if node is None:
            return EMPTY
        if isinstance(node, ast.Name):
            return self.env.get(node.id, EMPTY)
        if isinstance(node, ast.Constant):
            return EMPTY
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return _union(self.eval(e) for e in node.elts)
        if isinstance(node, ast.Dict):
            return _union(
                self.eval(e) for e in list(node.keys) + list(node.values) if e
            )
        if isinstance(node, ast.BinOp):
            return self.eval(node.left) | self.eval(node.right)
        if isinstance(node, ast.BoolOp):
            return _union(self.eval(v) for v in node.values)
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand)
        if isinstance(node, ast.Compare):
            return self.eval(node.left) | _union(
                self.eval(c) for c in node.comparators
            )
        if isinstance(node, ast.Subscript):
            return self.eval(node.value) | self.eval(node.slice)
        if isinstance(node, ast.Slice):
            return (
                self.eval(node.lower) | self.eval(node.upper) | self.eval(node.step)
            )
        if isinstance(node, ast.IfExp):
            return self.eval(node.test) | self.eval(node.body) | self.eval(node.orelse)
        if isinstance(node, ast.JoinedStr):
            return _union(self.eval(v) for v in node.values)
        if isinstance(node, ast.FormattedValue):
            return self.eval(node.value)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            for gen in node.generators:
                self.assign(gen.target, self.eval(gen.iter), gen.iter)
                for test in gen.ifs:
                    self.eval(test)
            if isinstance(node, ast.DictComp):
                return self.eval(node.key) | self.eval(node.value)
            return self.eval(node.elt)
        if isinstance(node, ast.NamedExpr):
            taint = self.eval(node.value)
            self.assign(node.target, taint, node.value)
            return taint
        if isinstance(node, ast.Starred):
            return self.eval(node.value)
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self.eval(node.value)
        if isinstance(node, ast.Yield):
            return self.eval(node.value) if node.value else EMPTY
        if isinstance(node, ast.Lambda):
            return EMPTY
        return EMPTY

    def _live_attr_tags(self, attr: str, detail: str, line: int) -> frozenset:
        if attr in LIVE_STATE_ATTRS and self.mod.in_packages(LIVE_SOURCE_PACKAGES):
            return frozenset({Tag("live-state", detail, self.relpath, line)})
        return EMPTY

    def _dotted_tags(self, dotted: str | None, line: int) -> frozenset:
        if dotted is None:
            return EMPTY
        label = dotted_source_label(dotted)
        if label is None:
            return EMPTY
        return frozenset({Tag(label, f"`{dotted}`", self.relpath, line)})

    def _eval_attribute(self, node: ast.Attribute) -> frozenset:
        taint = set(self.eval(node.value))
        taint |= self._live_attr_tags(
            node.attr, f"live state `{_short(node)}`", node.lineno
        )
        taint |= self._dotted_tags(self.mod.resolve(node), node.lineno)
        # `self.attr` where attr is a @property of the enclosing class: the
        # load is a call in disguise — splice in the property's summary.
        if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
            prop = self.index.resolve_property(self.mod, self.info.cls, node.attr)
            if prop is not None and prop.qname != self.info.qname:
                summary = self.summaries.get(prop.qname)
                if summary is not None:
                    taint |= summary.return_tags
        return frozenset(taint)

    def _eval_call(self, call: ast.Call) -> frozenset:
        func = call.func
        # getattr(obj, "name") smuggling: same semantics as obj.name.
        if (
            isinstance(func, ast.Name)
            and func.id == "getattr"
            and len(call.args) >= 2
            and isinstance(call.args[1], ast.Constant)
            and isinstance(call.args[1].value, str)
        ):
            attr = call.args[1].value
            taint = set(self.eval(call.args[0]))
            for extra in call.args[2:]:
                taint |= self.eval(extra)
            taint |= self._live_attr_tags(
                attr, f"live state `{_short(call)}`", call.lineno
            )
            base_dotted = self.mod.resolve(call.args[0])
            if base_dotted:
                taint |= self._dotted_tags(f"{base_dotted}.{attr}", call.lineno)
            return frozenset(taint)

        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        dotted = self.mod.resolve(func)

        # The lateness sanitizer: AdversaryView(..., topology_lateness=...,
        # state_lateness=...).  Without both explicit keywords it is NOT a
        # sanitizer (and L3 flags the construction separately).
        if name == SANITIZER_NAME or (
            dotted is not None and dotted.endswith("." + SANITIZER_NAME)
        ):
            arg_taint = _union(
                [self.eval(a) for a in call.args]
                + [self.eval(kw.value) for kw in call.keywords]
            )
            kwargs = {kw.arg for kw in call.keywords if kw.arg is not None}
            if SANITIZER_REQUIRED_KWARGS <= kwargs:
                return frozenset(
                    t for t in arg_taint if t.label in _DETERMINISM_LABELS
                )
            return arg_taint

        # The decide() sink: every argument of an adversary decision call.
        if isinstance(func, ast.Attribute) and func.attr == "decide":
            self.eval(func.value)
            armed = LATENESS.armed_in(self.mod.module)
            for arg in list(call.args) + [kw.value for kw in call.keywords]:
                taint = self.eval(arg)
                if armed:
                    self.sink(
                        LATENESS,
                        taint,
                        f"adversary decide() argument `{_short(arg)}`",
                        call,
                    )
            return EMPTY

        resolved = self.index.resolve_call(self.mod, self.info.cls, func)
        if resolved is not None:
            return self._eval_resolved_call(call, *resolved)

        # Unknown callee (builtin, third-party, dynamic): worst case — the
        # result carries everything the callee could have seen.
        taint = set(self.eval(func))
        for arg in call.args:
            taint |= self.eval(arg)
        for kw in call.keywords:
            taint |= self.eval(kw.value)
        return frozenset(taint)

    def _eval_resolved_call(
        self, call: ast.Call, info: FunctionInfo, bound: bool
    ) -> frozenset:
        summary: Summary = self.summaries.get(info.qname, Summary())
        offset = 1 if bound else 0
        arg_taints: dict[int, frozenset] = {}
        spill = EMPTY  # *args/**kwargs and arguments beyond known parameters
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                spill |= self.eval(arg.value)
                continue
            taint = self.eval(arg)
            idx = i + offset
            if idx < len(info.params):
                arg_taints[idx] = arg_taints.get(idx, EMPTY) | taint
            else:
                spill |= taint
        for kw in call.keywords:
            taint = self.eval(kw.value)
            idx = info.param_index(kw.arg) if kw.arg is not None else None
            if idx is None:
                spill |= taint
            else:
                arg_taints[idx] = arg_taints.get(idx, EMPTY) | taint
        result = set(summary.return_tags)
        for i in summary.param_to_return:
            result |= arg_taints.get(i, EMPTY)
        result |= spill
        for ps in summary.param_sinks:
            taint = arg_taints.get(ps.index)
            if not taint:
                continue
            self._apply_param_sink(_POLICY_BY_ID[ps.policy], taint, ps, call)
        return frozenset(result)


@dataclass(frozen=True)
class FlowFacts:
    """What one project-wide fixpoint produced (shared by rules F1 and F2)."""

    passes: int
    findings: tuple


def analyze_project(index: ProjectIndex) -> FlowFacts:
    """Summaries to a fixpoint (or :data:`MAX_DEPTH`), then one reporting pass."""
    order = sorted(index.functions)
    summaries: dict[str, Summary] = {}
    passes = 0
    for _ in range(MAX_DEPTH):
        passes += 1
        changed = False
        for qname in order:
            summary = FunctionAnalyzer(
                index, summaries, index.functions[qname], collect=False
            ).run()
            if summaries.get(qname) != summary:
                summaries[qname] = summary
                changed = True
        if not changed:
            break
    findings: list[Finding] = []
    for qname in order:
        analyzer = FunctionAnalyzer(
            index, summaries, index.functions[qname], collect=True
        )
        analyzer.run()
        findings.extend(analyzer.findings)
    return FlowFacts(passes=passes, findings=tuple(findings))
