"""Determinism rules (family D).

The perf trajectory of this repo is only trustworthy because a run is a
pure function of its seed: the golden-fingerprint tests compare digests of
whole simulations across refactors.  These rules catch, *at lint time*, the
constructions that historically break that property — global RNG state,
wall clocks, hash-order iteration, ``id()``-derived keys, and environment
reads — before a simulation ever runs.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.analysis.lint.engine import ModuleRule, SourceModule
from repro.analysis.lint.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.check import CheckContext

__all__ = [
    "FINGERPRINT_PACKAGES",
    "GlobalRandomRule",
    "WallClockRule",
    "UnorderedIterationRule",
    "IdOrderingRule",
    "EnvReadRule",
]

#: Packages whose execution feeds the simulation fingerprint: every message,
#: every RNG draw, and every iteration order in these packages is part of
#: the bit-for-bit contract.
FINGERPRINT_PACKAGES = (
    "repro.sim",
    # Matching is by dotted prefix, so repro.sim covers every sim submodule
    # — including repro.sim.shard, whose forked workers replay the compute
    # phase and must satisfy the same determinism contract as the engine.
    "repro.sim.shard",
    "repro.core",
    "repro.overlay",
    "repro.routing",
    "repro.adversary",
    "repro.faults",
    "repro.scenarios",
    # The frame codec and segment registry under the zero-copy exchange:
    # encode/decode order and memo behaviour shape the bytes every sharded
    # round replays, so arena code answers to the same contract.
    "repro.util.arena",
)

#: ``numpy.random`` attributes that touch the *global* generator (the
#: explicitly-seeded object API — ``default_rng``/``Generator``/
#: ``SeedSequence``/``RandomState(seed)`` streams — is what rngs.py wraps).
_NUMPY_GLOBAL = frozenset(
    {
        "seed",
        "random",
        "rand",
        "randn",
        "randint",
        "random_sample",
        "random_integers",
        "ranf",
        "sample",
        "choice",
        "bytes",
        "shuffle",
        "permutation",
        "standard_normal",
        "normal",
        "uniform",
        "get_state",
        "set_state",
    }
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


class GlobalRandomRule(ModuleRule):
    """D1 — all randomness must flow through ``repro.util.rngs`` streams."""

    id = "global-random"
    code = "D1"
    description = (
        "no stdlib `random` and no numpy global-state RNG outside repro.util.rngs; "
        "use RngService streams so every draw is keyed by the master seed"
    )
    fix_hint = "draw from an RngService stream (services.rng.stream(...)) instead"

    def applies_to(self, mod: SourceModule) -> bool:
        return mod.module != "repro.util.rngs"

    def check_module(self, mod: SourceModule, ctx: CheckContext) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.finding(
                            mod, node, "import of stdlib `random` (process-global RNG state)"
                        )
            elif isinstance(node, ast.ImportFrom):
                origin = mod.resolve_import_from(node)
                if origin == "random":
                    yield self.finding(
                        mod, node, "import from stdlib `random` (process-global RNG state)"
                    )
                elif origin == "numpy.random":
                    for alias in node.names:
                        if alias.name in _NUMPY_GLOBAL:
                            yield self.finding(
                                mod,
                                node,
                                f"import of global-state numpy.random.{alias.name}",
                            )
            elif isinstance(node, ast.Attribute):
                dotted = mod.resolve(node)
                if (
                    dotted is not None
                    and dotted.startswith("numpy.random.")
                    and dotted.rsplit(".", 1)[1] in _NUMPY_GLOBAL
                ):
                    yield self.finding(
                        mod, node, f"global-state numpy RNG call `{dotted}`"
                    )


class WallClockRule(ModuleRule):
    """D2 — no wall-clock reads; simulated time is the only time."""

    id = "wallclock"
    code = "D2"
    description = (
        "no wall-clock reads (time.time/perf_counter, datetime.now, ...): "
        "a run must be a pure function of its seed"
    )
    fix_hint = (
        "derive timing from the round counter; if the value is measurement "
        "metadata only, waive with `# repro: allow(wallclock): <why>`"
    )

    def check_module(self, mod: SourceModule, ctx: CheckContext) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.ImportFrom):
                if mod.resolve_import_from(node) == "time":
                    for alias in node.names:
                        if alias.name in _TIME_FN_NAMES:
                            yield self.finding(
                                mod, node, f"import of wall-clock `time.{alias.name}`"
                            )
            elif isinstance(node, ast.Attribute):
                dotted = mod.resolve(node)
                if dotted in _WALLCLOCK:
                    yield self.finding(mod, node, f"wall-clock read `{dotted}`")


def _is_unordered_expr(node: ast.expr) -> str | None:
    """A human label if ``node`` syntactically produces hash-ordered items."""
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


#: Call targets whose argument order reaches the output.
_ORDER_SENSITIVE_CALLS = frozenset(
    {"list", "tuple", "iter", "enumerate", "map", "filter", "zip", "islice", "chain"}
)
_ORDER_SENSITIVE_METHODS = frozenset({"fromiter", "join", "extend"})


class UnorderedIterationRule(ModuleRule):
    """D3 — no iteration over hash-ordered collections in fingerprint code."""

    id = "unordered-iteration"
    code = "D3"
    description = (
        "no iteration over bare set/frozenset/dict.keys() in fingerprint-feeding "
        "packages unless wrapped in sorted(...); hash order is not part of the "
        "determinism contract"
    )
    fix_hint = (
        "wrap the iterable in sorted(...), or waive with a justification of why "
        "the order is deterministic (e.g. insertion-ordered dict) or cannot reach "
        "the fingerprint"
    )

    def applies_to(self, mod: SourceModule) -> bool:
        return mod.in_packages(FINGERPRINT_PACKAGES)

    def check_module(self, mod: SourceModule, ctx: CheckContext) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            sites: list[ast.expr] = []
            if isinstance(node, ast.For):
                sites.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                sites.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call):
                consumer = (
                    isinstance(node.func, ast.Name)
                    and node.func.id in _ORDER_SENSITIVE_CALLS
                ) or (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _ORDER_SENSITIVE_METHODS
                )
                if consumer:
                    sites.extend(node.args)
            for site in sites:
                label = _is_unordered_expr(site)
                if label is not None:
                    yield self.finding(
                        mod,
                        site,
                        f"iteration over {label} — hash order leaks into execution order",
                    )


class IdOrderingRule(ModuleRule):
    """D4 — no ``id()``-derived keys or ordering in fingerprint code."""

    id = "id-ordering"
    code = "D4"
    description = (
        "no id()-based keys, hashing, or ordering in fingerprint-feeding packages: "
        "CPython addresses vary run to run"
    )
    fix_hint = (
        "key on stable identifiers (node id, message fields); identity-interning "
        "that never orders by the id value may be waived with a justification"
    )

    def applies_to(self, mod: SourceModule) -> bool:
        return mod.in_packages(FINGERPRINT_PACKAGES)

    def check_module(self, mod: SourceModule, ctx: CheckContext) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id"
                and node.args
            ):
                yield self.finding(
                    mod, node, "call to builtin id() — object addresses are not stable"
                )


class EnvReadRule(ModuleRule):
    """D5 — configuration comes from ``ProtocolParams``, not the environment."""

    id = "env-read"
    code = "D5"
    description = (
        "no os.environ/os.getenv outside repro.config and repro.util.benchrec: "
        "ambient environment must not steer a simulation"
    )
    fix_hint = "thread the value through ProtocolParams or an explicit argument"

    _ALLOWED = ("repro.config", "repro.util.benchrec")

    def applies_to(self, mod: SourceModule) -> bool:
        return mod.module not in self._ALLOWED

    def check_module(self, mod: SourceModule, ctx: CheckContext) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.ImportFrom):
                if mod.resolve_import_from(node) == "os":
                    for alias in node.names:
                        if alias.name in ("environ", "getenv"):
                            yield self.finding(
                                mod, node, f"import of os.{alias.name} (environment read)"
                            )
            elif isinstance(node, ast.Attribute):
                dotted = mod.resolve(node)
                if dotted in ("os.environ", "os.getenv"):
                    yield self.finding(mod, node, f"environment read `{dotted}`")
