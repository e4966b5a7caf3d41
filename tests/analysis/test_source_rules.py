"""Nine AST rules over ``src/repro``: determinism, the lateness wall, ``__all__`` drift.

A run must be a pure function of its seed, or the golden digests mean
nothing; and the ``(a, b)``-late adversary must read world state only
through :class:`repro.adversary.view.AdversaryView`. The D and L rules
below catch the obvious spellings that break either, one module at a
time, before anything runs; X1 keeps package ``__init__`` re-exports in
step with their child modules.

====  =======================  ==================================================
code  rule                     checks
====  =======================  ==================================================
D1    global-random            no stdlib ``random``, no global-state
                               ``numpy.random.*`` outside ``repro.util.rngs``
D2    wallclock                no ``time.time``/``perf_counter``/``datetime.now``/...
D3    unordered-iteration      no iteration over a bare set, frozenset or
                               ``dict.keys()`` in a fingerprint package
D4    id-ordering              no ``id()`` in a fingerprint package
D5    env-read                 no ``os.environ``/``os.getenv`` outside
                               ``repro.config``
L1    adversary-import         ``repro.adversary`` imports ``repro.sim``/``core``/
                               ``overlay`` only under ``if TYPE_CHECKING:``
L2    view-internals           adversary code touches no private attribute of
                               another object (``view._trace``, ...)
L3    live-state-to-adversary  ``AdversaryView(...)`` names both lateness keywords;
                               ``.decide(...)`` never gets ``self``, ``engine`` or
                               a live trace/network/lifecycle/... attribute
X1    all-drift                a package ``__init__`` re-exports exactly its child
                               modules' ``__all__`` and binds all of its own
====  =======================  ==================================================

The live tree passes only through :data:`ALLOWED`, one entry per accepted
finding, each with its reason. Each rule has an ``ok`` and a ``bad``
fixture under ``fixtures/lint/<rule>/``; a fixture's first line,
``# repro: module(<dotted.name>)``, names the module it stands in for.

Known limits. The rules see syntax, not types or values: ``xs = {1, 2}``
then ``for x in xs`` passes D3; L3 knows only the literal names
``AdversaryView`` and ``.decide``; X1 skips child packages and
non-literal ``__all__`` lists. Where a value *goes* (aliases, helpers,
``getattr``) is checked on executed runs instead: the runtime auditor's
wall clause (``repro.sim.audit``, driven by
``tests/integration/test_protocol_contract.py``) and the twin-process run
(``tests/integration/test_twin_run.py``).
"""

from __future__ import annotations

import ast
import functools
import re
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent
ROOT = SRC.parents[1]
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"

#: A fixture's first line names the module it stands in for.
_MARKER = re.compile(r"# repro: module\(([\w.]+)\)")

#: Packages whose execution order reaches the golden digests (by dotted
#: prefix). ``repro.util.arena`` is the frame codec every sharded round
#: replays.
FINGERPRINT_PACKAGES = (
    "repro.sim",
    "repro.core",
    "repro.overlay",
    "repro.routing",
    "repro.adversary",
    "repro.faults",
    "repro.scenarios",
    "repro.util.arena",
)

_UNORDERED = "hash order leaks into execution order"

#: The live tree's accepted findings, ``(path, rule, message, reason)``.
#: They are matched as a multiset on ``(path, rule, message)``: a moved
#: line keeps its entry, a second occurrence in the same file fails.
ALLOWED: tuple[tuple[str, str, str, str], ...] = (
    (
        "src/repro/core/node.py",
        "unordered-iteration",
        f"iteration over a set comprehension — {_UNORDERED}",
        "an int-only set: CPython does not randomise int hashes, so the order is a "
        "function of the token list; sorting would reorder the shuffle input and "
        "move the golden fingerprints",
    ),
    (
        "src/repro/overlay/positions.py",
        "unordered-iteration",
        f"iteration over bare dict .keys() — {_UNORDERED}",
        "dict .keys() is insertion-ordered and values() iterates alike; the stable "
        "argsort right after makes the index independent of input order",
    ),
    # Two call sites: adversary_reach's live-object table and its visited set.
    *2
    * (
        (
            "src/repro/sim/audit.py",
            "id-ordering",
            "call to builtin id() — object addresses are not stable",
            "adversary_reach keys its visited set and the live-object table by "
            "identity; ids are only compared, never ordered or serialised, and the "
            "walk's result never enters simulation state",
        ),
    ),
    (
        "src/repro/sim/epochs.py",
        "unordered-iteration",
        f"iteration over bare dict .keys() — {_UNORDERED}",
        "dict .keys() is insertion-ordered and the h(v,e) table grows in the "
        "engine's node order, so the unsynced tail slice is reproducible",
    ),
    (
        "src/repro/sim/profile.py",
        "wallclock",
        "wall-clock read `time.perf_counter`",
        "PhaseProfiler measures wall time by design; the clock is injectable and "
        "its timings never enter simulation state",
    ),
    (
        "src/repro/util/arena.py",
        "id-ordering",
        "call to builtin id() — object addresses are not stable",
        "an identity-interning memo: the id is a dict key, never ordered or "
        "serialised, and `_keep` pins every memoised object so an address cannot "
        "be recycled mid-frame",
    ),
    (
        "src/repro/util/benchrec.py",
        "wallclock",
        "wall-clock read `datetime.datetime.now`",
        "a BENCH entry's timestamp is history metadata written after a run; it "
        "never enters simulation state",
    ),
)


class Finding(NamedTuple):
    path: str
    line: int
    rule: str
    message: str


class Module(NamedTuple):
    """One parsed file."""

    path: Path
    relpath: str
    name: str
    package: str
    tree: ast.Module
    imports: dict[str, str]


# ----------------------------------------------------------------------
# Parsing and name resolution
# ----------------------------------------------------------------------


def is_init(path: Path) -> bool:
    return path.name == "__init__.py"


def resolve_import_from(package: str, node: ast.ImportFrom) -> str:
    """Absolute dotted module a ``from ... import`` inside ``package`` pulls from."""
    if not node.level:
        return node.module or ""
    base = package.split(".") if package else []
    if node.level > 1:
        base = base[: len(base) - (node.level - 1)]
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base)


def import_map(tree: ast.Module, package: str) -> dict[str, str]:
    """Local name -> absolute dotted origin, from every import statement."""
    mapping: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    mapping[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    mapping[head] = head
        elif isinstance(node, ast.ImportFrom):
            origin = resolve_import_from(package, node)
            for alias in node.names:
                local = alias.asname or alias.name
                mapping[local] = f"{origin}.{alias.name}" if origin else alias.name
    return mapping


@functools.cache
def parse(path: Path) -> Module:
    """``path`` parsed once per session, named by its marker or its place under ``src``."""
    source = path.read_text()
    marker = _MARKER.match(source)
    if marker:
        name = marker.group(1)
    else:
        name = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        name = name.removesuffix(".__init__")
    package = name if is_init(path) else name.rpartition(".")[0]
    tree = ast.parse(source, filename=str(path))
    relpath = path.relative_to(ROOT).as_posix()
    return Module(path, relpath, name, package, tree, import_map(tree, package))


def resolve(mod: Module, node: ast.expr) -> str | None:
    """Dotted name of a ``Name``/``Attribute`` chain, through import aliases."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    return ".".join([mod.imports.get(parts[0], parts[0])] + parts[1:])


def in_packages(mod: Module, prefixes: Iterable[str]) -> bool:
    return any(mod.name == p or mod.name.startswith(p + ".") for p in prefixes)


# ----------------------------------------------------------------------
# The rules: each yields ``(node or line, message)``; the registry turns
# that into findings.
# ----------------------------------------------------------------------

RULES: dict[str, Callable[[Module], list[Finding]]] = {}


def rule(rule_id: str):
    def register(fn: Callable[[Module], Iterator[tuple[ast.AST | int, str]]]):
        if rule_id in RULES:
            raise ValueError(f"rule {rule_id!r} registered twice")

        def run(mod: Module) -> list[Finding]:
            return [
                Finding(mod.relpath, getattr(where, "lineno", where), rule_id, message)
                for where, message in fn(mod)
            ]

        RULES[rule_id] = run
        return run

    return register


#: ``numpy.random`` attributes that touch the global generator.
_NUMPY_GLOBAL = frozenset(
    "seed random rand randn randint random_sample random_integers ranf sample choice "
    "bytes shuffle permutation standard_normal normal uniform get_state set_state".split()
)

_WALLCLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)
_TIME_FN_NAMES = frozenset(n.split(".", 1)[1] for n in _WALLCLOCK if n.startswith("time."))


@rule("global-random")
def global_random(mod):
    """D1: all randomness flows through ``repro.util.rngs`` streams."""
    if mod.name == "repro.util.rngs":
        return
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield node, "import of stdlib `random` (process-global RNG state)"
        elif isinstance(node, ast.ImportFrom):
            origin = resolve_import_from(mod.package, node)
            if origin == "random":
                yield node, "import from stdlib `random` (process-global RNG state)"
            elif origin == "numpy.random":
                for alias in node.names:
                    if alias.name in _NUMPY_GLOBAL:
                        yield node, f"import of global-state numpy.random.{alias.name}"
        elif isinstance(node, ast.Attribute):
            dotted = resolve(mod, node)
            if (
                dotted is not None
                and dotted.startswith("numpy.random.")
                and dotted.rsplit(".", 1)[1] in _NUMPY_GLOBAL
            ):
                yield node, f"global-state numpy RNG call `{dotted}`"


@rule("wallclock")
def wallclock(mod):
    """D2: simulated time is the only time."""
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.ImportFrom):
            if resolve_import_from(mod.package, node) == "time":
                for alias in node.names:
                    if alias.name in _TIME_FN_NAMES:
                        yield node, f"import of wall-clock `time.{alias.name}`"
        elif isinstance(node, ast.Attribute):
            dotted = resolve(mod, node)
            if dotted in _WALLCLOCK:
                yield node, f"wall-clock read `{dotted}`"


def _unordered(node: ast.expr) -> str | None:
    """A label if ``node`` syntactically produces hash-ordered items."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in ("set", "frozenset"):
            return f"a bare {node.func.id}(...)"
        if isinstance(node.func, ast.Attribute) and node.func.attr == "keys":
            return "bare dict .keys()"
    return None


#: Calls whose argument order reaches their output.
_ORDER_SENSITIVE_CALLS = frozenset(
    {"list", "tuple", "iter", "enumerate", "map", "filter", "zip", "islice", "chain"}
)
_ORDER_SENSITIVE_METHODS = frozenset({"fromiter", "join", "extend"})


@rule("unordered-iteration")
def unordered_iteration(mod):
    """D3: no iteration over hash-ordered collections in fingerprint code."""
    if not in_packages(mod, FINGERPRINT_PACKAGES):
        return
    for node in ast.walk(mod.tree):
        sites: list[ast.expr] = []
        if isinstance(node, ast.For):
            sites.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            sites.extend(gen.iter for gen in node.generators)
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id in _ORDER_SENSITIVE_CALLS) or (
                isinstance(func, ast.Attribute) and func.attr in _ORDER_SENSITIVE_METHODS
            ):
                sites.extend(node.args)
        for site in sites:
            label = _unordered(site)
            if label is not None:
                yield site, f"iteration over {label} — {_UNORDERED}"


@rule("id-ordering")
def id_ordering(mod):
    """D4: CPython addresses vary run to run."""
    if not in_packages(mod, FINGERPRINT_PACKAGES):
        return
    for node in ast.walk(mod.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
            and node.args
        ):
            yield node, "call to builtin id() — object addresses are not stable"


@rule("env-read")
def env_read(mod):
    """D5: configuration comes from ``ProtocolParams``, not the environment."""
    if mod.name == "repro.config":
        return
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.ImportFrom):
            if resolve_import_from(mod.package, node) == "os":
                for alias in node.names:
                    if alias.name in ("environ", "getenv"):
                        yield node, f"import of os.{alias.name} (environment read)"
        elif isinstance(node, ast.Attribute):
            dotted = resolve(mod, node)
            if dotted in ("os.environ", "os.getenv"):
                yield node, f"environment read `{dotted}`"


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


@rule("adversary-import")
def adversary_import(mod):
    """L1: a runtime import of fresh world state is a channel past the wall."""
    if not in_packages(mod, ("repro.adversary",)):
        return

    def walk(node: ast.AST, guarded: bool):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if guarded:
                return
            if isinstance(node, ast.Import):
                origins = [alias.name for alias in node.names]
            else:
                origins = [resolve_import_from(mod.package, node)]
            for origin in origins:
                if any(
                    origin == p or origin.startswith(p + ".")
                    for p in ("repro.sim", "repro.core", "repro.overlay")
                ):
                    yield node, f"runtime import of `{origin}` from adversary code"
            return
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            for child in node.body:
                yield from walk(child, True)
            for child in node.orelse:
                yield from walk(child, guarded)
            return
        for child in ast.iter_child_nodes(node):
            yield from walk(child, guarded)

    yield from walk(mod.tree, False)


@rule("view-internals")
def view_internals(mod):
    """L2: only the AdversaryView public API is lateness-clamped."""
    if not in_packages(mod, ("repro.adversary",)) or mod.name == "repro.adversary.view":
        return
    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.Attribute):
            continue
        if not node.attr.startswith("_") or node.attr.startswith("__"):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
            continue
        yield node, f"access to private attribute `{node.attr}` of a foreign object"


#: Engine attributes that are live, current-round state.
_LIVE_STATE_ATTRS = frozenset(
    {"trace", "network", "lifecycle", "ledger", "metrics", "_protocols", "_rngs"}
)


@rule("live-state-to-adversary")
def live_state_to_adversary(mod):
    """L3: the engine hands the adversary views, never live state."""
    if not in_packages(mod, ("repro.sim", "repro.core")):
        return
    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "AdversaryView":
            missing = {"topology_lateness", "state_lateness"} - {kw.arg for kw in node.keywords}
            if missing:
                yield node, (
                    "AdversaryView constructed without explicit "
                    f"{' and '.join(sorted(missing))} keyword(s)"
                )
        elif name == "decide" and isinstance(func, ast.Attribute):
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if isinstance(arg, ast.Attribute) and arg.attr in _LIVE_STATE_ATTRS:
                    yield arg, (
                        f"live engine state `{ast.unparse(arg)}` passed to "
                        "an adversary decide() callback"
                    )
                elif isinstance(arg, ast.Name) and arg.id in ("self", "engine"):
                    yield arg, f"`{arg.id}` passed to an adversary decide() callback"


def _literal_all(tree: ast.Module) -> list[str] | None:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)) and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str)
                for e in node.value.elts
            ):
                return [e.value for e in node.value.elts]
    return None


def _bound_names(tree: ast.Module) -> set[str]:
    """Top-level names a module binds (imports, defs, assignments)."""
    bound: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            bound.add(node.target.id)
    return bound


@rule("all-drift")
def all_drift(mod):
    """X1: a package ``__init__`` stays in step with its child modules' ``__all__``."""
    if not (is_init(mod.path) and mod.name.startswith("repro")):
        return
    pkg_all = _literal_all(mod.tree)
    children: dict[str, tuple[ast.ImportFrom, list[str]]] = {}
    for node in mod.tree.body:
        if not isinstance(node, ast.ImportFrom):
            continue
        origin = resolve_import_from(mod.package, node)
        child = origin.removeprefix(mod.name + ".")
        # Foreign modules, grandchildren and child packages are out of scope.
        if child == origin or "." in child or not (mod.path.parent / f"{child}.py").exists():
            continue
        names = [alias.asname or alias.name for alias in node.names]
        children.setdefault(child, (node, []))[1].extend(names)

    if children and pkg_all is None:
        first = next(iter(children.values()))[0]
        yield first, "package __init__ re-exports child modules but has no __all__"
    for child, (node, names) in sorted(children.items()):
        child_all = _literal_all(parse(mod.path.parent / f"{child}.py").tree)
        if child_all is not None:
            for name in names:
                if name not in child_all:
                    yield node, (
                        f"imports `{name}` from `{child}`, which does not declare it in __all__"
                    )
            for name in child_all:
                if name not in names:
                    yield node, (
                        f"`{child}.__all__` declares `{name}`, which is not re-exported here"
                    )
        for name in names:
            if pkg_all is not None and name not in pkg_all:
                yield node, f"re-exports `{name}` from `{child}` but omits it from __all__"
    bound = _bound_names(mod.tree)
    for name in pkg_all or []:
        if name not in bound:
            yield 1, f"__all__ names `{name}`, which is not defined or imported in this module"


# ----------------------------------------------------------------------
# Running the rules and auditing against ALLOWED
# ----------------------------------------------------------------------


def check(*paths: Path) -> list[Finding]:
    """Every rule's findings over the ``.py`` files at or under ``paths``."""
    files = sorted({f for p in paths for f in ([p] if p.is_file() else p.rglob("*.py"))})
    return sorted(f for path in files for run in RULES.values() for f in run(parse(path)))


@functools.cache
def live_findings() -> tuple[Finding, ...]:
    return tuple(check(SRC))


def audit(findings: Iterable[Finding], allowed=ALLOWED) -> list[str]:
    """What fails the gate: findings no entry covers, unused entries, entries without a reason."""
    budget = Counter((path, rule_id, message) for path, rule_id, message, _ in allowed)
    problems = []
    for f in findings:
        key = (f.path, f.rule, f.message)
        if budget[key]:
            budget[key] -= 1
        else:
            problems.append(f"{f.path}:{f.line}: [{f.rule}] {f.message}")
    problems += [f"stale ALLOWED entry {key}" for key, left in budget.items() for _ in range(left)]
    problems += [f"ALLOWED entry without a reason {e[:3]}" for e in allowed if not e[3].strip()]
    return problems


def fixture(rule_id: str, kind: str) -> Path:
    """A rule's ``ok``/``bad`` fixture: one file, or a package directory."""
    single = FIXTURES / rule_id / f"{kind}.py"
    return single if single.exists() else FIXTURES / rule_id / f"{kind}_pkg"


def entries(findings: Iterable[Finding], reason: str = "accepted") -> tuple[tuple[str, ...], ...]:
    """``ALLOWED``-shaped entries that accept exactly ``findings``."""
    return tuple((f.path, f.rule, f.message, reason) for f in findings)


def stale(accepted: Iterable[tuple[str, ...]]) -> list[str]:
    return sorted(f"stale ALLOWED entry {e[:3]}" for e in accepted)


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------


def test_live_tree_passes_only_through_allowed():
    assert audit(live_findings()) == []
    assert len(ALLOWED) == 8


def test_each_allowed_entry_absorbs_exactly_one_live_finding():
    for i, (path, rule_id, message, _) in enumerate(ALLOWED):
        problems = audit(live_findings(), ALLOWED[:i] + ALLOWED[i + 1 :])
        assert len(problems) == 1, problems
        assert problems[0].startswith(f"{path}:")
        assert problems[0].endswith(f": [{rule_id}] {message}")


def test_stale_allowed_entry_fails():
    gone = ("src/repro/sim/engine.py", "wallclock", "wall-clock read `time.time`", "gone")
    assert audit(live_findings(), ALLOWED + (gone,)) == stale([gone])


@pytest.mark.parametrize("rule_id", RULES)
def test_stale_entry_of_each_rule_fails(rule_id):
    accepted = entries(f for f in check(fixture(rule_id, "bad")) if f.rule == rule_id)
    assert accepted
    assert sorted(audit(live_findings(), ALLOWED + accepted)) == stale(accepted)


def test_entry_naming_no_rule_is_always_stale():
    path, _, message, _ = ALLOWED[0]
    ghost = (path, "no-such-rule", message, "names no rule")
    assert audit(live_findings(), ALLOWED + (ghost,)) == stale([ghost])


@pytest.mark.parametrize("rule_id", RULES)
def test_allowed_round_trip_and_stale_entry(rule_id):
    bad = check(fixture(rule_id, "bad"))
    accepted = entries(bad)
    assert audit(bad, accepted) == []
    assert sorted(audit(check(fixture(rule_id, "ok")), accepted)) == stale(accepted)


@pytest.mark.parametrize("rule_id", RULES)
def test_justified_entry_absorbs_and_counts(rule_id):
    injected = check(fixture(rule_id, "bad"))
    findings = live_findings() + tuple(injected)
    accepted = entries(injected, "a reason")
    assert audit(findings, ALLOWED + accepted) == []
    # One entry absorbs one finding: without it, one occurrence fails.
    problems = audit(findings, ALLOWED + accepted[1:])
    assert len(problems) == 1
    assert problems[0].endswith(f"[{injected[0].rule}] {injected[0].message}")


@pytest.mark.parametrize("rule_id", RULES)
def test_allowed_entry_without_reason_fails(rule_id):
    injected = check(fixture(rule_id, "bad"))
    bare = entries(injected[:1], "") + entries(injected[1:])
    problems = audit(live_findings() + tuple(injected), ALLOWED + bare)
    assert problems == [f"ALLOWED entry without a reason {bare[0][:3]}"]


def test_allowed_entry_with_blank_reason_fails():
    assert all(reason.strip() for *_, reason in ALLOWED)
    for reason in ("   ", "\n\t"):
        blank = ALLOWED[:-1] + (ALLOWED[-1][:3] + (reason,),)
        assert audit(live_findings(), blank) == [f"ALLOWED entry without a reason {blank[-1][:3]}"]


def test_moved_line_keeps_its_entry():
    moved = [f._replace(line=f.line + 40) for f in live_findings()]
    assert audit(moved) == []


def test_second_occurrence_in_the_same_file_fails():
    twice = live_findings()[0]._replace(line=1)
    assert audit(live_findings() + (twice,)) == [f"{twice.path}:1: [{twice.rule}] {twice.message}"]


def test_registry_is_unique_and_complete():
    assert len(RULES) == 9
    assert {rule_id for _, rule_id, _, _ in ALLOWED} <= set(RULES)
    with pytest.raises(ValueError, match="registered twice"):
        rule("wallclock")(wallclock)
    assert len(RULES) == 9


def test_every_rule_has_a_fixture_pair():
    for rule_id in RULES:
        assert fixture(rule_id, "ok").exists() and fixture(rule_id, "bad").exists()
    assert sorted(d.name for d in FIXTURES.iterdir() if d.is_dir()) == sorted(RULES)


@pytest.mark.parametrize("rule_id", RULES)
def test_ok_fixture_is_clean(rule_id):
    assert check(fixture(rule_id, "ok")) == []


@pytest.mark.parametrize("rule_id", RULES)
def test_bad_fixture_triggers_its_rule(rule_id):
    hits = [f for f in check(fixture(rule_id, "bad")) if f.rule == rule_id]
    assert hits
    assert all(f.line > 0 and f.message for f in hits)


def test_all_drift_bad_package_exercises_all_four_checks():
    messages = " | ".join(f.message for f in check(fixture("all-drift", "bad")))
    assert "`hidden` from `one`, which does not declare it" in messages
    assert "declares `beta`, which is not re-exported" in messages
    assert "omits it from __all__" in messages
    assert "__all__ names `ghost`" in messages


@pytest.mark.parametrize("rule_id", RULES)
def test_injected_bad_fixture_fails_the_gate(rule_id):
    problems = audit(live_findings() + tuple(check(fixture(rule_id, "bad"))))
    assert any(f"[{rule_id}]" in p for p in problems), problems


def test_module_marker_names_the_module():
    assert parse(fixture("wallclock", "bad")).name == "repro.sim.example"
    assert parse(fixture("all-drift", "ok") / "one.py").name == "repro.examplepkg.one"
    assert parse(SRC / "sim" / "engine.py").name == "repro.sim.engine"
    package = parse(SRC / "sim" / "__init__.py")
    assert (package.name, package.package) == ("repro.sim", "repro.sim")


def test_docstring_rule_table_lists_exactly_the_rules():
    rows = re.findall(r"^([DLX]\d)    ([a-z-]+) ", __doc__, flags=re.MULTILINE)
    assert [rule_id for _, rule_id in rows] == list(RULES)
    assert [code for code, _ in rows] == "D1 D2 D3 D4 D5 L1 L2 L3 X1".split()
