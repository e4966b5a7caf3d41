"""Scenario specifications — named adversity, frozen as data.

A :class:`Scenario` composes the three independent stress axes of a run —
an environmental :class:`~repro.faults.plan.FaultPlan`, a background churn
schedule (:class:`ChurnSpec`) and a targeted attack (:class:`AdversarySpec`)
— plus a duration, into one frozen, JSON-serializable record.  Scenarios
are *templates*: their fault windows are expressed relative to round 0 =
"end of bootstrap" (``ProtocolParams.bootstrap_rounds`` depends only on
``n``, so the anchor is known before the run), and :func:`materialize_plan`
shifts them onto the absolute round axis and mixes the run seed into the
plan seed.  The same scenario at the same seed therefore always reproduces
the identical run, bit for bit, on any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping

from repro.adversary.base import Adversary
from repro.adversary.composed import ComposedAdversary
from repro.adversary.oblivious import RandomChurnAdversary
from repro.adversary.swarm_wipe import ContactTraceAdversary, DegreeTargetAdversary
from repro.config import ProtocolParams
from repro.faults.plan import FaultPlan

__all__ = [
    "ChurnSpec",
    "AdversarySpec",
    "Scenario",
    "build_params",
    "materialize_plan",
    "build_adversary",
]

#: Valid background-churn kinds.
CHURN_KINDS = ("none", "random")

#: Valid targeted-attack kinds.
ATTACK_KINDS = ("none", "degree-target", "contact-trace")


@dataclass(frozen=True)
class ChurnSpec:
    """Background churn workload: uniform random leave+join pairs."""

    kind: str = "none"
    intensity: float = 1.0  # fraction of the churn budget to use

    def __post_init__(self) -> None:
        if self.kind not in CHURN_KINDS:
            raise ValueError(f"churn kind must be one of {CHURN_KINDS}, got {self.kind!r}")
        if not 0.0 < self.intensity <= 1.0:
            raise ValueError(f"intensity must be in (0, 1], got {self.intensity}")

    def to_json(self) -> dict[str, Any]:
        return {"kind": self.kind, "intensity": self.intensity}

    @staticmethod
    def from_json(doc: Mapping[str, Any]) -> "ChurnSpec":
        unknown = set(doc) - {"kind", "intensity"}
        if unknown:
            raise ValueError(f"churn spec has unknown fields {sorted(unknown)}")
        return ChurnSpec(**dict(doc))


@dataclass(frozen=True)
class AdversarySpec:
    """Targeted attack choice (the strategies of :mod:`repro.adversary`)."""

    kind: str = "none"
    top: int = 8  # degree-target: how many hubs to chase
    victim: int = 0  # contact-trace: the traced node

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_KINDS:
            raise ValueError(
                f"attack kind must be one of {ATTACK_KINDS}, got {self.kind!r}"
            )
        if self.top < 1:
            raise ValueError(f"top must be >= 1, got {self.top}")
        if self.victim < 0:
            raise ValueError(f"victim must be >= 0, got {self.victim}")

    def to_json(self) -> dict[str, Any]:
        return {"kind": self.kind, "top": self.top, "victim": self.victim}

    @staticmethod
    def from_json(doc: Mapping[str, Any]) -> "AdversarySpec":
        unknown = set(doc) - {"kind", "top", "victim"}
        if unknown:
            raise ValueError(f"adversary spec has unknown fields {sorted(unknown)}")
        return AdversarySpec(**dict(doc))


@dataclass(frozen=True)
class Scenario:
    """One named adversity template: environment x churn x attack x duration.

    ``plan`` windows are relative (round 0 = end of bootstrap); ``rounds``
    counts post-bootstrap rounds.  ``n`` sizes the network — every derived
    protocol parameter follows from it via :func:`build_params`.
    """

    name: str
    description: str
    plan: FaultPlan = FaultPlan.none()
    churn: ChurnSpec = ChurnSpec()
    attack: AdversarySpec = AdversarySpec()
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
            "churn": self.churn.to_json(),
            "attack": self.attack.to_json(),
            "rounds": self.rounds,
            "n": self.n,
        }

    @staticmethod
    def from_json(doc: Mapping[str, Any]) -> "Scenario":
        known = {"name", "description", "plan", "churn", "attack", "rounds", "n"}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"scenario has unknown fields {sorted(unknown)}")
        return Scenario(
            name=str(doc["name"]),
            description=str(doc.get("description", "")),
            plan=FaultPlan.from_json(doc.get("plan", {})),
            churn=ChurnSpec.from_json(doc.get("churn", {})),
            attack=AdversarySpec.from_json(doc.get("attack", {})),
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
    """The scenario's churn + attack, composed into one engine adversary."""
    children: list[Adversary] = []
    if scenario.churn.kind == "random":
        children.append(
            RandomChurnAdversary(params, seed=seed + 1, intensity=scenario.churn.intensity)
        )
    if scenario.attack.kind == "degree-target":
        children.append(DegreeTargetAdversary(params, seed=seed + 2, top=scenario.attack.top))
    elif scenario.attack.kind == "contact-trace":
        children.append(
            ContactTraceAdversary(params, victim=scenario.attack.victim, seed=seed + 2)
        )
    if not children:
        return None
    if len(children) == 1:
        return children[0]
    return ComposedAdversary(*children)
