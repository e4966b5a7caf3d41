"""Declarative source → sanitizer → sink policies of the flow analysis.

A :class:`Policy` names the taint labels it tracks, the packages in which
its sinks are armed, and the modules exempt from it.  The *mechanics* —
how sources are recognised, how taint propagates, how sanitizers strip
labels — live in :mod:`~repro.analysis.flow.summaries`; this module is
the single place that says **what** each policy means.  A policy is also
its own ``repro check`` rule: ``check`` picks its findings out of the one
project-wide fixpoint both policies share.

**F1 ``flow-lateness``** — the paper's security argument (Section 2,
Lemmas 3-4) is void the moment the adversary touches state fresher than
its ``(a, b)`` lateness.  Sources are the engine's live objects (trace,
network, lifecycle, churn ledger, per-node protocols and RNG streams);
the only sanitizer is an :class:`~repro.adversary.view.AdversaryView`
constructed with explicit lateness keywords; sinks are the arguments of
``.decide(...)`` calls and anything assigned onto an adversary instance.

**F2 ``flow-determinism``** — a run must stay a pure function of its
seed.  Sources are wall-clock reads, environment reads, and global-RNG
draws (the same vocabulary as lint rules D1/D2/D5, but tracked through
assignments, helpers and ``getattr``); there is no sanitizer; sinks are
stores into object state inside the fingerprint-feeding packages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.analysis.lint.engine import Rule
from repro.analysis.lint.findings import Finding
from repro.analysis.lint.rules_determinism import (
    _NUMPY_GLOBAL,
    _WALLCLOCK,
    FINGERPRINT_PACKAGES,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.check import CheckContext

__all__ = [
    "Policy",
    "LATENESS",
    "DETERMINISM",
    "ALL_POLICIES",
    "LIVE_STATE_ATTRS",
    "LIVE_SOURCE_PACKAGES",
    "SANITIZER_NAME",
    "SANITIZER_REQUIRED_KWARGS",
    "dotted_source_label",
]


@dataclass(frozen=True)
class Policy(Rule):
    """One source→sanitizer→sink check, identified (and run) like any rule."""

    # Defaults only because the ``Rule`` base already gives the first four one.
    id: str = ""
    code: str = ""
    description: str = ""
    fix_hint: str = ""
    #: Taint labels this policy acts on when they reach one of its sinks.
    labels: frozenset = frozenset()
    #: Packages in which this policy's sinks are armed.
    sink_packages: tuple = ()
    #: Modules whose sink hits are suppressed (documented design holes).
    exempt_modules: tuple = ()

    def check(self, ctx: CheckContext) -> Iterator[Finding]:
        return (f for f in ctx.flow.findings if f.rule == self.id)

    def armed_in(self, module: str) -> bool:
        if module in self.exempt_modules:
            return False
        return any(
            module == p or module.startswith(p + ".") for p in self.sink_packages
        )


#: Engine attributes holding live, current-round world state.  An
#: attribute load (or ``getattr``) of one of these names inside the
#: simulator packages is a lateness source.
LIVE_STATE_ATTRS = frozenset(
    {
        "trace",
        "network",
        "lifecycle",
        "ledger",
        "metrics",
        "_protocols",
        "_rngs",
        "rng_service",
    }
)

#: Packages whose live-named attributes are treated as lateness sources.
LIVE_SOURCE_PACKAGES = ("repro.sim", "repro.core", "repro.overlay", "repro.faults")

#: The lateness sanitizer: a call to this class *with both required
#: keywords* launders live-state taint (the view clamps what it exposes).
SANITIZER_NAME = "AdversaryView"
SANITIZER_REQUIRED_KWARGS = frozenset({"topology_lateness", "state_lateness"})


def dotted_source_label(dotted: str) -> str | None:
    """The determinism label a resolved dotted name carries, if any."""
    if dotted in _WALLCLOCK:
        return "wallclock"
    if dotted in ("os.environ", "os.getenv"):
        return "env"
    if dotted == "random" or dotted.startswith("random."):
        return "global-rng"
    if dotted.startswith("numpy.random."):
        if dotted.rsplit(".", 1)[1] in _NUMPY_GLOBAL:
            return "global-rng"
    return None


LATENESS = Policy(
    id="flow-lateness",
    code="F1",
    description=(
        "live engine state (trace/network/lifecycle/ledger/node protocols/RNG "
        "streams) must pass through AdversaryView(topology_lateness=..., "
        "state_lateness=...) before reaching the adversary — through any number "
        "of assignments and helper calls"
    ),
    fix_hint=(
        "hand the adversary an AdversaryView built with explicit lateness "
        "keywords; never a raw engine object or anything derived from one"
    ),
    labels=frozenset({"live-state"}),
    sink_packages=LIVE_SOURCE_PACKAGES,
)

DETERMINISM = Policy(
    id="flow-determinism",
    code="F2",
    description=(
        "wall-clock, environment, and global-RNG values must not reach "
        "fingerprint-feeding state, even via helpers, aliases, or getattr"
    ),
    fix_hint=(
        "derive the value from the round counter or a seeded RngService "
        "stream; measurement-only code belongs in the exempt modules"
    ),
    labels=frozenset({"wallclock", "env", "global-rng"}),
    sink_packages=FINGERPRINT_PACKAGES,
    # The profiler measures wall time by design (same grandfathering as the
    # D2 baseline entry); benchrec's opt-in env read is sanctioned by D5.
    exempt_modules=("repro.sim.profile", "repro.util.benchrec"),
)

#: Every shipped policy, in code order.
ALL_POLICIES: tuple = (LATENESS, DETERMINISM)
