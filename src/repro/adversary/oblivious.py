"""Oblivious (uniform-random) churn, paced to the model's budget.

The weakest adversary: churns out uniformly random nodes and churns in fresh
replacements, never consulting its view.  Useful as the background-churn
workload for Theorem 14 runs and as the control against targeted attacks.
"""

from __future__ import annotations

import math

import numpy as np

from repro.adversary.base import Adversary, ChurnDecision, kill_and_replace
from repro.adversary.view import AdversaryView
from repro.config import ProtocolParams

__all__ = ["RandomChurnAdversary", "paced_schedule"]


def paced_schedule(params: ProtocolParams, intensity: float = 1.0) -> tuple[int, int]:
    """``(pairs, interval)``: churn ``pairs`` leave+join pairs every ``interval`` rounds.

    Sized so the sliding-window budget ``(alpha*n, T)`` is used at the given
    ``intensity`` (1.0 = the maximum the model permits, 0.5 = half, ...)
    without ever tripping the ledger.
    """
    if not 0.0 < intensity <= 1.0:
        raise ValueError(f"intensity must be in (0, 1], got {intensity}")
    budget = max(2, int(params.churn_budget * intensity))
    window = params.churn_window
    # Each firing spends 2*pairs events; the worst case packs
    # floor((window-1)/interval) + 1 firings into one sliding window.
    pairs = max(1, budget // 6)
    allowed_firings = max(1, budget // (2 * pairs))
    if allowed_firings == 1:
        interval = window
    else:
        interval = math.ceil((window - 1) / (allowed_firings - 1))
    return pairs, max(1, interval)


class RandomChurnAdversary(Adversary):
    """Budget-paced uniform random leave+join churn."""

    topology_lateness = 2

    def __init__(
        self,
        params: ProtocolParams,
        seed: int = 0,
        *,
        intensity: float = 1.0,
        active_from: int | None = None,
    ) -> None:
        super().__init__(
            active_from=params.bootstrap_rounds if active_from is None else active_from
        )
        self.params = params
        self.rng = np.random.default_rng(seed)
        self.pairs, self.interval = paced_schedule(params, intensity)
        self._fired_at: int | None = None

    def decide(self, view: AdversaryView) -> ChurnDecision:
        t = view.round
        if self._fired_at is not None and t - self._fired_at < self.interval:
            return ChurnDecision.none()
        if view.budget_remaining is not None and view.budget_remaining < 2 * self.pairs:
            return ChurnDecision.none()
        eligible_leave = sorted(view.alive)
        if len(eligible_leave) <= self.pairs or not view.eligible_bootstraps():
            return ChurnDecision.none()
        self._fired_at = t
        victims = self.rng.choice(eligible_leave, size=self.pairs, replace=False)
        return kill_and_replace(view, self.rng, frozenset(int(v) for v in victims))
