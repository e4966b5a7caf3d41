"""The graph-series recorder — what the (a, b)-late adversary observes.

The trace stores, per round ``t``:

* the directed edge set ``E_t`` (who messaged whom) as a *reduced*
  :class:`~repro.sim.network.EdgeLog` — one row per distinct ``(src, dst)``
  pair in first-occurrence order, with its copy count.  A round has far
  more copies than edges (45 : 1 at n=128), and every reader asks about
  edges or about counts per edge, so the per-copy columns are not kept;
* the alive set ``V_t`` (churn-free rounds share one frozenset);
* join/leave events.

All of it is kept for the most recent ``edge_depth`` rounds only, because
nothing older is ever consulted (the adversary needs ``G_{t-a}`` with small
``a``; audits need a couple of rounds of history), so a run of any length
holds a bounded trace.

Access control (who may see which round) is *not* enforced here — that is the
job of :class:`repro.adversary.view.AdversaryView`, which wraps a trace and
clamps queries to the lateness bounds.
"""

from __future__ import annotations

from typing import Iterable

from repro.sim.network import EdgeLog

__all__ = ["GraphTrace"]


class GraphTrace:
    """Recorder of the evolving communication graph.

    Every per-round map — ``E_t``, ``V_t``, joins and leaves — holds the
    newest ``edge_depth`` rounds; older rounds read as unknown.  ``E_t`` is
    held as at most ``|V_t|²`` distinct pairs with multiplicities
    (:meth:`EdgeLog.reduced`).  A retained log still speaks in copies: its
    ``len`` is the round's copy count and iterating it yields every pair
    once per copy, grouped at the pair's first occurrence.
    """

    def __init__(self, edge_depth: int = 8) -> None:
        if edge_depth < 1:
            raise ValueError(f"edge_depth must be positive, got {edge_depth}")
        self.edge_depth = edge_depth
        self._edges: dict[int, EdgeLog] = {}
        self._alive: dict[int, frozenset[int]] = {}
        self._joins: dict[int, tuple[int, ...]] = {}
        self._leaves: dict[int, tuple[int, ...]] = {}
        self._last_round: int | None = None

    def record(
        self,
        t: int,
        edges: EdgeLog | Iterable[tuple[int, int]],
        alive: frozenset[int],
        joins: tuple[int, ...] = (),
        leaves: tuple[int, ...] = (),
    ) -> None:
        """Record one completed round (rounds must be recorded in order).

        ``edges`` is stored reduced; a per-copy log or a plain pair list is
        reduced here, an already-reduced log is kept as it is.
        """
        if self._last_round is not None and t != self._last_round + 1:
            raise ValueError(
                f"rounds must be recorded consecutively; got {t} after {self._last_round}"
            )
        if not isinstance(edges, EdgeLog):
            edges = EdgeLog.from_pairs(edges)
        self._edges[t] = edges.reduced()
        self._alive[t] = alive
        self._joins[t] = tuple(joins)
        self._leaves[t] = tuple(leaves)
        self._last_round = t
        old = t - self.edge_depth
        for store in (self._edges, self._alive, self._joins, self._leaves):
            store.pop(old, None)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def edges_at(self, t: int) -> EdgeLog | None:
        """``E_t``, or ``None`` if that round was evicted or never recorded."""
        return self._edges.get(t)

    def alive_at(self, t: int) -> frozenset[int] | None:
        """``V_t`` (after churn of round ``t`` was applied)."""
        return self._alive.get(t)

    def joins_at(self, t: int) -> tuple[int, ...]:
        return self._joins.get(t, ())

    def leaves_at(self, t: int) -> tuple[int, ...]:
        return self._leaves.get(t, ())

    def survivors(self, t0: int, t1: int) -> frozenset[int]:
        """``V_{t0} ∩ V_{t1}`` — nodes present at both rounds (for audits)."""
        a, b = self._alive.get(t0), self._alive.get(t1)
        if a is None or b is None:
            raise KeyError(f"rounds {t0}/{t1} not recorded")
        return a & b

    def out_neighbors_at(self, t: int, v: int) -> set[int]:
        """Nodes ``v`` sent to in round ``t`` (empty if unknown/evicted)."""
        edges = self._edges.get(t)
        return edges.out_neighbors(v) if edges is not None else set()

    def contacts_of(self, t: int, v: int) -> set[int]:
        """All nodes that communicated with ``v`` in round ``t`` (either way)."""
        edges = self._edges.get(t)
        return edges.contacts_of(v) if edges is not None else set()
