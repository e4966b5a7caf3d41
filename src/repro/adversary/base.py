"""Adversary interface.

At the start of every round the engine asks the adversary for a
:class:`ChurnDecision` — which nodes leave (``O_t ⊆ V_{t-1}``) and which join
(each with a bootstrap node from ``V_t ∩ V_{t-2}``).  The adversary only sees
the world through an :class:`~repro.adversary.view.AdversaryView`, which
clamps topology knowledge to ``a`` rounds of lateness, and every decision is
validated against the churn budget before it is applied.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Collection

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    import numpy as np

    from repro.adversary.view import AdversaryView

__all__ = ["JoinRequest", "ChurnDecision", "Adversary", "NullAdversary", "kill_and_replace"]


@dataclass(frozen=True)
class JoinRequest:
    """One new node joining via a bootstrap node."""

    new_id: int
    bootstrap_id: int


@dataclass(frozen=True)
class ChurnDecision:
    """The adversary's action for one round."""

    leaves: frozenset[int] = frozenset()
    joins: tuple[JoinRequest, ...] = ()

    @property
    def churn_count(self) -> int:
        """Join/leave events this decision spends from the budget."""
        return len(self.leaves) + len(self.joins)

    @staticmethod
    def none() -> "ChurnDecision":
        return ChurnDecision()


class Adversary(abc.ABC):
    """Base class for churn adversaries.

    ``active_from`` implements the bootstrap phase: the engine does not
    consult the adversary before that round.

    ``topology_lateness`` / ``state_lateness`` declare how stale the
    adversary's view is (the paper's ``a`` and ``b``); the engine reads them
    directly when building the :class:`~repro.adversary.view.AdversaryView`.
    The defaults — 2-late on topology, effectively oblivious of internal
    state — are the model the maintenance algorithm is proved against;
    subclasses override them (as class or instance attributes) to study
    other lateness regimes.
    """

    topology_lateness: int = 2
    state_lateness: int = 10**9

    def __init__(self, active_from: int = 0) -> None:
        self.active_from = active_from

    @abc.abstractmethod
    def decide(self, view: "AdversaryView") -> ChurnDecision:
        """Choose this round's churn given the (lateness-clamped) view."""

    def notify_rejected(self, decision: ChurnDecision, reason: str) -> None:
        """Called when a decision violated the budget and was discarded.

        Well-behaved adversaries never trigger this; subclasses may override
        to adapt.  The default is silent (the engine records the rejection).
        """


class NullAdversary(Adversary):
    """No churn at all (useful for routing-only experiments)."""

    def decide(self, view: "AdversaryView") -> ChurnDecision:
        return ChurnDecision.none()


def kill_and_replace(
    view: "AdversaryView",
    rng: "np.random.Generator",
    kills: Collection[int],
    exclude: Collection[int] | None = None,
) -> ChurnDecision:
    """``kills`` leave and as many fresh nodes join, one per bootstrap.

    The bootstraps are distinct (a join fan-in of 1), at least 2 rounds old
    and outside ``exclude`` (default: ``kills``); one ``rng.choice`` draws
    them from the eligible ids in ascending order, and the new ids count up
    from ``view.fresh_id()``.  Too few bootstraps means no decision at all.
    """
    boots = sorted(view.eligible_bootstraps() - set(kills if exclude is None else exclude))
    if len(boots) < len(kills):
        return ChurnDecision.none()
    picked = rng.choice(boots, size=len(kills), replace=False)
    base = view.fresh_id()
    joins = tuple(JoinRequest(base + i, int(w)) for i, w in enumerate(picked))
    return ChurnDecision(leaves=frozenset(kills), joins=joins)
