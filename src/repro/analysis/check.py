"""``repro check`` — the one static-analysis engine.

The engine is deliberately boring: collect the files, parse each once
(:class:`~repro.analysis.source_cache.SourceCache`), run every selected
rule over one :class:`CheckContext`, match inline waivers against the one
finding list, audit stale waivers, apply the committed baseline, and
return one :class:`CheckReport`.  All the judgement lives in the 17 rule
plugins registered in :data:`ALL_RULES`:

====== ====================================== =================================
family rules                                  what they guard
====== ====================================== =================================
D      :mod:`~.lint.rules_determinism` D1–D5  a run is a pure function of its seed
L      :mod:`~.lint.rules_lateness` L1–L3     the adversary's lateness wall
X      :mod:`~.lint.rules_exports` X1         ``__all__`` drift
W      :mod:`~.lint.rules_waivers` W1–W2      waiver hygiene
F      :mod:`~.flow.policies` F1–F2           the same two walls, interprocedurally
S      :mod:`~.shard.rules` S2–S5             process roles of the sharded engine
====== ====================================== =================================

Whole-project facts (call graph, flow fixpoint, role map) hang off the
context as lazily computed properties: each is built at most once per run
and only if a selected rule reads it, so ``--rules D,L,X,W`` pays for
parsing and nothing else.

One waiver namespace, one audit: a ``# repro: allow(<rule>): why`` comment
or a baseline entry is reported stale only if its rule *ran* — a deselected
rule cannot prove anything about its own waivers.

From code::

    from repro.analysis.check import run_check
    report = run_check(root=repo_root)   # defaults: src/repro, all rules
    assert report.ok, report.format_text()
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable

from repro.analysis.flow.callgraph import ProjectIndex
from repro.analysis.flow.policies import DETERMINISM, LATENESS
from repro.analysis.flow.summaries import FlowFacts, analyze_project
from repro.analysis.lint.baseline import Baseline
from repro.analysis.lint.engine import LintError, Rule, SourceModule
from repro.analysis.lint.findings import Finding
from repro.analysis.lint.rules_determinism import (
    EnvReadRule,
    GlobalRandomRule,
    IdOrderingRule,
    UnorderedIterationRule,
    WallClockRule,
)
from repro.analysis.lint.rules_exports import AllDriftRule
from repro.analysis.lint.rules_lateness import (
    AdversaryImportRule,
    LiveStateRule,
    ViewInternalsRule,
)
from repro.analysis.lint.rules_waivers import UnusedWaiverRule, WaiverJustificationRule
from repro.analysis.sarif import sarif_report
from repro.analysis.shard.roles import RoleMap, infer_roles
from repro.analysis.shard.rules import (
    BoundaryTypeRule,
    ForkHygieneRule,
    MasterStateRule,
    SegmentLifecycleRule,
)
from repro.analysis.source_cache import SourceCache, collect_py_files

__all__ = [
    "ALL_RULES",
    "CheckContext",
    "CheckReport",
    "NON_WAIVABLE",
    "load_baseline",
    "resolve_rules",
    "rule_table",
    "run_check",
]

#: Every shipped rule, families in order: determinism, lateness, exports,
#: waiver hygiene, information flow, shard safety.
ALL_RULES: tuple[Rule, ...] = (
    GlobalRandomRule(),
    WallClockRule(),
    UnorderedIterationRule(),
    IdOrderingRule(),
    EnvReadRule(),
    AdversaryImportRule(),
    ViewInternalsRule(),
    LiveStateRule(),
    AllDriftRule(),
    WaiverJustificationRule(),
    UnusedWaiverRule(),
    LATENESS,
    DETERMINISM,
    BoundaryTypeRule(),
    MasterStateRule(),
    SegmentLifecycleRule(),
    ForkHygieneRule(),
)

#: Rules whose findings can never be waived inline (waiving the waiver
#: checker would defeat the point).
NON_WAIVABLE = frozenset({"waiver-justification", "unused-waiver", "parse-error"})


def resolve_rules(spec: str | Iterable[str] | None) -> tuple[Rule, ...]:
    """Rules selected by a comma/space separated list, in registry order.

    Each entry is a rule id (``wallclock``), a code (``S3``) or a family
    letter (``S``).  ``None`` or an empty spec selects every rule; an
    unknown entry raises :class:`LintError` listing what is available.
    """
    if spec is None:
        return ALL_RULES
    if isinstance(spec, str):
        spec = spec.replace(",", " ").split()
    wanted = [w.strip().lower() for w in spec if w.strip()]
    if not wanted:
        return ALL_RULES
    selected: set[str] = set()
    for key in wanted:
        hits = [r.id for r in ALL_RULES if key in (r.id, r.code.lower(), r.code[0].lower())]
        if not hits:
            known = ", ".join(f"{r.code}/{r.id}" for r in ALL_RULES)
            raise LintError(f"unknown rule {key!r}; known rules: {known}")
        selected.update(hits)
    return tuple(r for r in ALL_RULES if r.id in selected)


def rule_table(rules: Iterable[Rule] = ALL_RULES) -> str:
    """A plain-text ``code  id  description`` table (``--list-rules``)."""
    rules = tuple(rules)
    width = max(len(r.id) for r in rules)
    return "\n".join(f"{r.code:>4}  {r.id:<{width}}  {r.description}" for r in rules)


class CheckContext:
    """What rules see: the parsed modules plus lazily built project facts."""

    def __init__(
        self,
        root: Path,
        modules: list[SourceModule],
        cache: SourceCache,
        rules: tuple[Rule, ...],
    ) -> None:
        self.root = root
        self.modules = modules
        self.cache = cache
        #: Ids of shipped rules that are *not* running: their waivers and
        #: baseline entries cannot be proven stale by this run.
        self.deselected = frozenset(r.id for r in ALL_RULES) - {r.id for r in rules}

    @cached_property
    def index(self) -> ProjectIndex:
        """The project call graph (families F and S)."""
        return ProjectIndex(self.modules)

    @cached_property
    def flow(self) -> FlowFacts:
        """The taint fixpoint whose findings F1 and F2 each filter."""
        return analyze_project(self.index)

    @cached_property
    def roles(self) -> RoleMap:
        """Master / worker / shared role of every reachable function."""
        return infer_roles(self.index)

    def facts(self) -> dict:
        """Summary counts of the facts this run actually built."""
        built = vars(self)
        out: dict = {}
        if "index" in built:
            out["functions"] = len(self.index.functions)
        if "flow" in built:
            out["passes"] = self.flow.passes
        if "roles" in built:
            out["roles"] = self.roles.counts()
        return out


@dataclass
class CheckReport:
    """Everything one run produced."""

    root: Path
    files: int
    rules: tuple[Rule, ...]
    #: The run's context, for callers that want the facts themselves
    #: (``report.context.roles``).
    context: CheckContext
    facts: dict = field(default_factory=dict)
    findings: list[Finding] = field(default_factory=list)
    waived: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    stale_baseline: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "version": 2,
            "root": str(self.root),
            "ok": self.ok,
            "files": self.files,
            "rules": [r.id for r in self.rules],
            "facts": self.facts,
            "counts": {
                "active": len(self.findings),
                "waived": len(self.waived),
                "baselined": len(self.baselined),
                "stale_baseline": len(self.stale_baseline),
            },
            "findings": [f.to_dict() for f in self.findings],
            "waived": [f.to_dict() for f in self.waived],
            "baselined": [f.to_dict() for f in self.baselined],
            "stale_baseline": self.stale_baseline,
        }

    def to_sarif(self) -> dict:
        """One SARIF run (``repro-check``) carrying the selected rules."""
        meta = {
            r.id: {"description": r.description, "help": r.fix_hint, "level": r.severity}
            for r in self.rules
        }
        return sarif_report(
            self.findings, tool_name="repro-check", rule_meta=meta, root=self.root
        )

    def format_text(self) -> str:
        out: list[str] = []
        for f in self.findings:
            out.append(f.format())
            if f.fix_hint:
                out.append(f"    fix: {f.fix_hint}")
        for entry in self.stale_baseline:
            out.append(
                f"stale baseline entry: {entry['path']} [{entry['rule']}] "
                "no longer matches anything — remove it"
            )
        looked_at = [f"{self.files} file(s)", f"{len(self.rules)} rule(s)"]
        facts = self.facts
        if "functions" in facts:
            looked_at.append(f"{facts['functions']} function(s)")
        if "passes" in facts:
            looked_at.append(f"{facts['passes']} flow pass(es)")
        if "roles" in facts:
            r = facts["roles"]
            looked_at.append(f"{r['master']} master / {r['worker']} worker / {r['shared']} shared")
        out.append(
            f"{', '.join(looked_at)}: {len(self.findings)} finding(s), "
            f"{len(self.waived)} waived, {len(self.baselined)} baselined"
        )
        return "\n".join(out)


def load_baseline(baseline: Path | str | Baseline | None) -> Baseline:
    """A missing file or ``None`` is an empty baseline; a broken one is an error."""
    if baseline is None:
        return Baseline([])
    if isinstance(baseline, Baseline):
        return baseline
    try:
        return Baseline.load(baseline)
    except (OSError, ValueError) as exc:  # unreadable, not JSON, wrong schema
        raise LintError(f"baseline {baseline}: {exc}") from None


def run_check(
    paths: Iterable[Path | str] | None = None,
    *,
    root: Path | str | None = None,
    rules: Iterable[Rule] | None = None,
    baseline: Path | str | Baseline | None = None,
    cache: SourceCache | None = None,
) -> CheckReport:
    """Run the selected rules and return a :class:`CheckReport`.

    ``paths`` defaults to ``<root>/src/repro``; ``root`` defaults to the
    current directory; ``rules`` defaults to :data:`ALL_RULES`.
    ``baseline`` may be a path (missing file = empty baseline), a loaded
    :class:`Baseline`, or ``None`` for no baseline.  ``cache`` is an
    optional shared :class:`SourceCache`, so several runs parse each file
    once.
    """
    rules = ALL_RULES if rules is None else tuple(rules)
    root = (Path(root) if root is not None else Path.cwd()).resolve()
    targets = [Path(p) for p in paths] if paths is not None else [root / "src" / "repro"]
    try:
        files = collect_py_files(targets)
    except FileNotFoundError as exc:
        raise LintError(str(exc)) from None
    base = load_baseline(baseline)
    if cache is None:
        cache = SourceCache(root)

    # Parse.  A syntax error becomes a `parse-error` finding instead of
    # aborting, so a broken file fails the gate with a pointable location.
    modules: list[SourceModule] = []
    active: list[Finding] = []
    for path in files:
        try:
            modules.append(cache.module(path))
        except SyntaxError as exc:
            try:
                rel = path.relative_to(root).as_posix()
            except ValueError:
                rel = path.as_posix()
            active.append(
                Finding(
                    path=rel,
                    line=exc.lineno or 0,
                    rule="parse-error",
                    message=f"file does not parse: {exc.msg}",
                )
            )

    ctx = CheckContext(root, modules, cache, rules)
    raw = [f for rule in rules if not rule.post_waiver for f in rule.check(ctx)]

    # Waiver matching: a justified waiver absorbs every finding of its rule
    # on its target line.  Modules can come from a shared cache, so the
    # mutable `used` flags are reset for this run.
    by_path = {mod.relpath: mod for mod in modules}
    for mod in modules:
        for w in mod.waivers:
            w.used = False
    waived: list[Finding] = []
    for f in raw:
        mod = by_path.get(f.path)
        matched = False
        if mod is not None and f.rule not in NON_WAIVABLE:
            for w in mod.waivers:
                if w.justified and w.rule == f.rule and w.target_line == f.line:
                    w.used = matched = True
        (waived if matched else active).append(f)
    for rule in rules:
        if rule.post_waiver:
            active.extend(rule.check(ctx))

    active.sort()
    waived.sort()
    final, baselined, stale = base.partition(active)
    return CheckReport(
        root=root,
        files=len(files),
        rules=rules,
        context=ctx,
        facts=ctx.facts(),
        findings=final,
        waived=waived,
        baselined=baselined,
        stale_baseline=[e for e in stale if e["rule"] not in ctx.deselected],
    )
