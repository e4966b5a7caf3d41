"""The (a, b)-late adversary view — lateness made mechanical.

An ``(a, b)``-late omniscient adversary at round ``t`` may see:

* the **topology** — graphs ``G_0 .. G_{t-a}`` (who messaged whom);
* **everything else** (internal state, message contents, random choices) only
  up to round ``t-b``.

It also knows, by construction, the current node population and every node's
age — the adversary itself performs all churn, so hiding ``V_t`` from it
would be meaningless.  What stays hidden is what the paper's analysis relies
on: node *positions* and in-flight message *contents* (we simply expose no
state accessor below lateness ``b``; the position hash key never reaches the
adversary).

Requesting a round newer than the lateness bound raises
:class:`LatenessViolation` — attacks that "work" only by peeking fail loudly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - avoids a sim <-> adversary import cycle
    from repro.sim.identity import Lifecycle
    from repro.sim.network import EdgeLog
    from repro.sim.trace import GraphTrace

__all__ = ["LatenessViolation", "AdversaryView"]


class LatenessViolation(RuntimeError):
    """The adversary asked for information newer than its lateness permits."""


class AdversaryView:
    """What one adversary is allowed to observe at the current round."""

    def __init__(
        self,
        t: int,
        trace: GraphTrace,
        lifecycle: Lifecycle,
        *,
        topology_lateness: int,
        state_lateness: int,
        budget_remaining: int | None = None,
    ) -> None:
        # The lateness bounds are keyword-only on purpose: rule L3
        # (tests/analysis/test_source_rules.py) requires both keywords to be
        # spelled out at every call site, and the contract's wall clause
        # treats a view as the one object that may carry live state across
        # the wall.
        if topology_lateness < 0 or state_lateness < 0:
            raise ValueError("lateness values must be non-negative")
        self.round = t
        self._trace = trace
        self._lifecycle = lifecycle
        self.topology_lateness = topology_lateness
        self.state_lateness = state_lateness
        #: Churn events still available in the current (C, T) window.  The
        #: adversary knows the rules it plays under; exposing the ledger
        #: balance only saves it from mirroring the bookkeeping.
        self.budget_remaining = budget_remaining

    # ------------------------------------------------------------------
    # Population knowledge (the adversary performs the churn itself)
    # ------------------------------------------------------------------

    @property
    def alive(self) -> frozenset[int]:
        """``V_{t-1}`` — the population before this round's churn."""
        return self._lifecycle.alive

    def age_of(self, v: int) -> int:
        """Rounds since node ``v`` joined."""
        return self._lifecycle.age(v, self.round)

    def eligible_bootstraps(self) -> set[int]:
        """Alive nodes that are at least 2 rounds old (legal join targets)."""
        return self._lifecycle.alive_since(self.round, 2)

    def fresh_id(self) -> int:
        """A never-used node id for churning in a new node."""
        return self._lifecycle.next_id()

    # ------------------------------------------------------------------
    # Topology knowledge (a-late)
    # ------------------------------------------------------------------

    def newest_visible_topology_round(self) -> int:
        return self.round - self.topology_lateness

    def _check_topology(self, s: int) -> None:
        if s > self.newest_visible_topology_round():
            raise LatenessViolation(
                f"adversary is {self.topology_lateness}-late on topology: "
                f"round {s} not visible at round {self.round}"
            )

    def edges_at(self, s: int) -> EdgeLog | list[tuple[int, int]]:
        """``E_s`` if visible and still in the trace buffer, else empty."""
        self._check_topology(s)
        return self._trace.edges_at(s) or []

    def contacts_of(self, s: int, v: int) -> set[int]:
        """Everyone who communicated with ``v`` in round ``s`` (if visible)."""
        self._check_topology(s)
        return self._trace.contacts_of(s, v)

    def out_neighbors_of(self, s: int, v: int) -> set[int]:
        self._check_topology(s)
        return self._trace.out_neighbors_at(s, v)

    def degree_table(self, s: int) -> dict[int, int]:
        """Per-node message-degree in round ``s`` (if visible)."""
        self._check_topology(s)
        edges = self._trace.edges_at(s)
        return edges.degrees() if edges is not None else {}
