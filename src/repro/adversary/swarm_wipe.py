"""Targeted (a)-late attacks against the maintained overlay.

Two strategies that use the stale topology view as aggressively as the model
allows — the attacks Theorem 14 claims the maintenance algorithm survives:

* :class:`ContactTraceAdversary` — picks a victim node and churns out, every
  round, everything seen communicating with the victim ``a`` rounds ago.
  Against a static overlay this erases the victim's neighbourhood; against
  the 2-round reconfiguration the information is two overlays stale.
* :class:`DegreeTargetAdversary` — churns out the nodes with the highest
  communication degree in ``G_{t-a}`` (a "kill the hubs" heuristic; in the
  LDS all nodes look alike, which is the point).

Both pace themselves against the ``(C, T)`` budget and pair every kill with
a replacement join.
"""

from __future__ import annotations

import numpy as np

from repro.adversary.base import Adversary, ChurnDecision, kill_and_replace
from repro.adversary.view import AdversaryView
from repro.config import ProtocolParams

__all__ = ["ContactTraceAdversary", "DegreeTargetAdversary"]


class _PairedKillAdversary(Adversary):
    """Shared machinery: kill a chosen set, join replacements, stay legal."""

    state_lateness = 10**9

    def __init__(
        self,
        params: ProtocolParams,
        seed: int = 0,
        *,
        topology_lateness: int = 2,
        active_from: int | None = None,
    ) -> None:
        super().__init__(
            active_from=params.bootstrap_rounds if active_from is None else active_from
        )
        self.params = params
        self.topology_lateness = topology_lateness
        self.rng = np.random.default_rng(seed)

    def _choose_victims(self, view: AdversaryView) -> set[int]:  # pragma: no cover
        raise NotImplementedError

    def decide(self, view: AdversaryView) -> ChurnDecision:
        victims = self._choose_victims(view) & set(view.alive)
        if not victims:
            return ChurnDecision.none()
        budget = view.budget_remaining or 0
        kill_count = min(len(victims), budget // 2)
        if kill_count == 0:
            return ChurnDecision.none()
        return kill_and_replace(view, self.rng, sorted(victims)[:kill_count])


class ContactTraceAdversary(_PairedKillAdversary):
    """Churn out everyone seen talking to the victim ``a`` rounds ago."""

    def __init__(self, params: ProtocolParams, victim: int = 0, seed: int = 0, **kw) -> None:
        super().__init__(params, seed, **kw)
        self.victim = victim

    def _choose_victims(self, view: AdversaryView) -> set[int]:
        if self.victim not in view.alive:
            return set()
        s = view.newest_visible_topology_round()
        if s < 0:
            return set()
        contacts = view.contacts_of(s, self.victim)
        contacts.discard(self.victim)
        return contacts


class DegreeTargetAdversary(_PairedKillAdversary):
    """Churn out the highest-degree nodes of the stale topology view."""

    def __init__(self, params: ProtocolParams, seed: int = 0, top: int = 8, **kw) -> None:
        super().__init__(params, seed, **kw)
        self.top = top

    def _choose_victims(self, view: AdversaryView) -> set[int]:
        s = view.newest_visible_topology_round()
        if s < 0:
            return set()
        degrees = view.degree_table(s)
        ranked = sorted(degrees, key=degrees.__getitem__, reverse=True)
        return set(ranked[: self.top])
