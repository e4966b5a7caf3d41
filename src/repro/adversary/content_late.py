"""The content-lateness attack — why ``b`` must exceed ``2*lam + 4``.

The adversary is ``(a, b)``-late: topology after ``a`` rounds, *everything
else* — including message contents — after ``b`` rounds.  The maintenance
protocol's security argument (Lemma 16) silently needs the content lag to
exceed the join pipeline's depth: a JOIN launched at round ``2s`` carries the
position for epoch ``s + lam + 2``, which only becomes the live overlay at
round ``2s + 2*lam + 4``.  An adversary that can read that message's content
at round ``2s + b`` with ``b < 2*lam + 4`` therefore learns a **future**
overlay — and can kill every member of one of its swarms before it even
exists, leaving a hole no goodness argument can patch.

:class:`ContentLateAdversary` models the decryption capability directly: it
holds the position hash (what reading the JOIN payloads reveals) but may
only evaluate it for epochs whose join contents are at least ``b`` rounds
old, i.e. ``2*(e - lam - 2) + b <= t``.  If that set contains a *future*
epoch (``2e > t``), it wipes one of its swarms.  With the paper's
``b = 2*lam + 7`` the readable epochs are all already expired and the
adversary has nothing to act on.
"""

from __future__ import annotations

import numpy as np

from repro.adversary.base import Adversary, ChurnDecision, kill_and_replace
from repro.adversary.view import AdversaryView
from repro.config import ProtocolParams
from repro.util.rngs import PositionHash

__all__ = ["ContentLateAdversary"]


class ContentLateAdversary(Adversary):
    """Wipes a future swarm whenever the content lag ``b`` lets it see one."""

    topology_lateness = 2

    #: The ring point whose swarm the attack wipes.
    target_point = 0.5

    def __init__(
        self,
        params: ProtocolParams,
        position_hash: PositionHash,
        seed: int = 0,
        *,
        state_lateness: int,
        active_from: int | None = None,
    ) -> None:
        super().__init__(
            active_from=params.bootstrap_rounds if active_from is None else active_from
        )
        self.params = params
        self.state_lateness = state_lateness
        self._hash = position_hash  # what decrypting JOIN payloads reveals
        self.rng = np.random.default_rng(seed)
        self.wipes: list[tuple[int, int, int]] = []  # (round, epoch, kills)

    # ------------------------------------------------------------------

    def readable_epochs(self, t: int) -> range:
        """Epochs whose JOIN contents are at least ``b`` rounds old at ``t``.

        The join for epoch ``e`` is launched at round ``2*(e - lam - 2)``,
        so its content becomes readable at ``2*(e - lam - 2) + b``.
        """
        lam = self.params.lam
        e_max = (t - self.state_lateness) // 2 + lam + 2
        return range(0, max(0, e_max + 1))

    def decide(self, view: AdversaryView) -> ChurnDecision:
        t = view.round
        lam = self.params.lam
        # The newest epoch whose contents we can read:
        readable = self.readable_epochs(t)
        if not readable:
            return ChurnDecision.none()
        e = readable[-1]
        if 2 * e + 1 < t:
            # Everything we can read has already expired — the paper's
            # parameterisation.  Nothing useful to do.
            return ChurnDecision.none()
        # We know a CURRENT or FUTURE overlay (D_e lives in rounds 2e and
        # 2e+1).  Wipe the swarm of `target_point` in it: a future swarm is
        # empty at birth; a current one loses every in-flight hop it holds.
        members = [
            v
            for v in view.alive
            if min(
                abs(self._hash.position(v, e) - self.target_point),
                1 - abs(self._hash.position(v, e) - self.target_point),
            )
            <= self.params.swarm_radius
        ]
        budget = view.budget_remaining or 0
        spare = len(view.eligible_bootstraps() - set(members))
        kill_count = min(len(members), budget // 2, spare)
        if kill_count < max(2, len(members) // 2):
            return ChurnDecision.none()  # not enough budget to matter yet
        self.wipes.append((t, e, kill_count))
        return kill_and_replace(view, self.rng, sorted(members)[:kill_count], exclude=members)
