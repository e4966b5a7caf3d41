"""``repro check`` — the one static-analysis engine.

The engine is deliberately boring: collect the files, parse each once
(:class:`~repro.analysis.source_cache.SourceCache`), run every selected
rule over one :class:`CheckContext`, match inline waivers against the one
finding list, audit stale waivers, apply the committed baseline, and
return one :class:`CheckReport`.  All the judgement lives in the 11 rule
plugins registered in :data:`ALL_RULES`, each of which judges one module
at a time:

====== ====================================== =================================
family rules                                  what they guard
====== ====================================== =================================
D      :mod:`~.lint.rules_determinism` D1–D5  a run is a pure function of its seed
L      :mod:`~.lint.rules_lateness` L1–L3     the adversary's lateness wall
X      :mod:`~.lint.rules_exports` X1         ``__all__`` drift
W      :mod:`~.lint.rules_waivers` W1–W2      waiver hygiene
====== ====================================== =================================

The two walls the D and L rules guard syntactically are also checked on
executed runs, by the test suite: the adversary's reach by the protocol
contract's wall clause (``tests/integration/contract.py``) and a run's
determinism by a twin-process run of the scenario registry
(``tests/integration/test_twin_run.py``).

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
from pathlib import Path
from typing import Iterable

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
#: waiver hygiene.
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
)

#: Rules whose findings can never be waived inline (waiving the waiver
#: checker would defeat the point).
NON_WAIVABLE = frozenset({"waiver-justification", "unused-waiver", "parse-error"})


def resolve_rules(spec: str | Iterable[str] | None) -> tuple[Rule, ...]:
    """Rules selected by a comma/space separated list, in registry order.

    Each entry is a rule id (``wallclock``), a code (``D2``) or a family
    letter (``D``).  ``None`` or an empty spec selects every rule; an
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
    """What rules see: the parsed modules and which shipped rules are off."""

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


@dataclass
class CheckReport:
    """Everything one run produced."""

    root: Path
    files: int
    rules: tuple[Rule, ...]
    #: The run's context (``report.context.deselected``).
    context: CheckContext
    findings: list[Finding] = field(default_factory=list)
    waived: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    stale_baseline: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "version": 3,
            "root": str(self.root),
            "ok": self.ok,
            "files": self.files,
            "rules": [r.id for r in self.rules],
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
        out.append(
            f"{self.files} file(s), {len(self.rules)} rule(s): {len(self.findings)} finding(s), "
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
        findings=final,
        waived=waived,
        baselined=baselined,
        stale_baseline=[e for e in stale if e["rule"] not in ctx.deselected],
    )
