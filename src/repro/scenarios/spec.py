"""Scenario specifications — named adversity, frozen as data.

A :class:`Scenario` composes the independent stress axes of a run — an
environmental :class:`~repro.faults.plan.FaultPlan` and a list of registered
adversaries (:class:`AdversarySpec`: background churn, targeted attacks) —
plus a duration, into one frozen, JSON-serializable record.  Scenarios
are *templates*: their fault windows are expressed relative to round 0 =
"end of bootstrap" (``ProtocolParams.bootstrap_rounds`` depends only on
``n``, so the anchor is known before the run), and :func:`materialize_plan`
shifts them onto the absolute round axis and mixes the run seed into the
plan seed.  The same scenario at the same seed therefore always reproduces
the identical run, bit for bit, on any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping, NamedTuple

from repro.adversary.base import Adversary
from repro.adversary.composed import ComposedAdversary
from repro.adversary.oblivious import RandomChurnAdversary
from repro.adversary.swarm_wipe import ContactTraceAdversary, DegreeTargetAdversary
from repro.config import ProtocolParams
from repro.faults.plan import FaultPlan

__all__ = [
    "ADVERSARY_KINDS",
    "AdversarySpec",
    "Scenario",
    "build_params",
    "materialize_plan",
    "build_adversary",
]


class _Kind(NamedTuple):
    """A registered adversary: its class, its seed offset from the run seed,
    and the only keywords a spec may set (the class defaults fill the rest)."""

    cls: Callable[..., Adversary]
    seed_offset: int
    keywords: tuple[str, ...]


#: The adversaries a scenario may name.
ADVERSARY_KINDS: dict[str, _Kind] = {
    "random": _Kind(RandomChurnAdversary, 1, ("intensity",)),
    "degree-target": _Kind(DegreeTargetAdversary, 2, ("top",)),
    "contact-trace": _Kind(ContactTraceAdversary, 2, ("victim",)),
}

#: Each settable keyword's valid range: (test, what it says).
_RANGES: dict[str, tuple[Callable[[Any], bool], str]] = {
    "intensity": (lambda x: 0.0 < x <= 1.0, "in (0, 1]"),  # fraction of the churn budget
    "top": (lambda x: x >= 1, ">= 1"),  # degree-target: how many hubs to chase
    "victim": (lambda x: x >= 0, ">= 0"),  # contact-trace: the traced node
}


@dataclass(frozen=True, init=False)
class AdversarySpec:
    """One registered adversary: a kind of :data:`ADVERSARY_KINDS` plus the
    keywords it sets, e.g. ``AdversarySpec("degree-target", top=4)``."""

    kind: str
    keywords: tuple[tuple[str, Any], ...]

    def __init__(self, kind: str, **keywords: Any) -> None:
        row = ADVERSARY_KINDS.get(kind)
        if row is None:
            raise ValueError(f"unknown adversary kind {kind!r}, known: {sorted(ADVERSARY_KINDS)}")
        for key, value in keywords.items():
            if key not in row.keywords:
                raise ValueError(f"{kind} adversary takes only {row.keywords}, got {key!r}")
            valid, expected = _RANGES[key]
            if not valid(value):
                raise ValueError(f"{key} must be {expected}, got {value!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "keywords", tuple(sorted(keywords.items())))

    def to_json(self) -> dict[str, Any]:
        return {"kind": self.kind, **dict(self.keywords)}

    @staticmethod
    def from_json(doc: Mapping[str, Any]) -> "AdversarySpec":
        keywords = dict(doc)
        return AdversarySpec(keywords.pop("kind", None), **keywords)


@dataclass(frozen=True)
class Scenario:
    """One named adversity template: environment x adversaries x duration.

    ``plan`` windows are relative (round 0 = end of bootstrap); ``rounds``
    counts post-bootstrap rounds.  ``n`` sizes the network — every derived
    protocol parameter follows from it via :func:`build_params`.
    """

    name: str
    description: str
    plan: FaultPlan = FaultPlan.none()
    adversaries: tuple[AdversarySpec, ...] = ()
    rounds: int = 36
    n: int = 40

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.n < 8:
            raise ValueError(f"n must be >= 8, got {self.n}")

    def to_json(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "plan": self.plan.to_json(),
            "adversaries": [spec.to_json() for spec in self.adversaries],
            "rounds": self.rounds,
            "n": self.n,
        }

    @staticmethod
    def from_json(doc: Mapping[str, Any]) -> "Scenario":
        known = {"name", "description", "plan", "adversaries", "rounds", "n"}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"scenario has unknown fields {sorted(unknown)}")
        return Scenario(
            name=str(doc["name"]),
            description=str(doc.get("description", "")),
            plan=FaultPlan.from_json(doc.get("plan", {})),
            adversaries=tuple(map(AdversarySpec.from_json, doc.get("adversaries", ()))),
            rounds=int(doc.get("rounds", 36)),
            n=int(doc.get("n", 40)),
        )


def build_params(n: int, seed: int) -> ProtocolParams:
    """The protocol parameters of every scenario run, generated cells included."""
    return ProtocolParams.calibrated(n, seed=seed, alpha=0.25, kappa=1.25)


def materialize_plan(
    scenario: Scenario, params: ProtocolParams, seed: int
) -> FaultPlan:
    """The scenario's plan on the absolute round axis, seeded for this run.

    Windows shift past the bootstrap phase; the run seed is mixed into the
    plan seed so different seeds draw different fault schedules while the
    same ``(scenario, seed)`` pair always reproduces the same plan.
    """
    shifted = scenario.plan.shifted(params.bootstrap_rounds)
    return replace(shifted, seed=shifted.seed ^ (seed * 0x9E3779B9))


def build_adversary(
    scenario: Scenario, params: ProtocolParams, seed: int
) -> Adversary | None:
    """The scenario's adversaries as one engine adversary, composed in list order."""
    children = []
    for spec in scenario.adversaries:
        row = ADVERSARY_KINDS[spec.kind]
        children.append(row.cls(params, seed=seed + row.seed_offset, **dict(spec.keywords)))
    if not children:
        return None
    return children[0] if len(children) == 1 else ComposedAdversary(*children)
