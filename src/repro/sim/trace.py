"""The graph-series recorder — what the (a, b)-late adversary observes.

The trace stores, per round ``t``, the directed edge set ``E_t`` (who
messaged whom) as a *reduced* :class:`~repro.sim.network.EdgeLog` — one row
per distinct ``(src, dst)`` pair in first-occurrence order, with its copy
count.  A round has far more copies than edges (45 : 1 at n=128), and every
reader asks about edges or about counts per edge, so the per-copy columns
are not kept.

Only the most recent ``edge_depth`` rounds are kept, because nothing older
is ever consulted (the adversary needs ``G_{t-a}`` with small ``a``; audits
need a couple of rounds of history), so a run of any length holds a bounded
trace.  Membership is not recorded here: the engine's
:class:`~repro.sim.identity.Lifecycle` holds ``V_t`` and every join and
leave, and each :class:`~repro.sim.engine.RoundReport` carries the round's
churn decision.

Access control (who may see which round) is *not* enforced here — that is the
job of :class:`repro.adversary.view.AdversaryView`, which wraps a trace and
clamps queries to the lateness bounds.
"""

from __future__ import annotations

from typing import Iterable

from repro.sim.network import EdgeLog

__all__ = ["GraphTrace"]


class GraphTrace:
    """Recorder of the evolving communication graph ``E_t``.

    Holds the newest ``edge_depth`` rounds; older rounds read as unknown.
    ``E_t`` is held as at most ``|V_t|²`` distinct pairs with multiplicities
    (:meth:`EdgeLog.reduced`).  A retained log still speaks in copies: its
    ``len`` is the round's copy count and iterating it yields every pair
    once per copy, grouped at the pair's first occurrence.
    """

    def __init__(self, edge_depth: int = 8) -> None:
        if edge_depth < 1:
            raise ValueError(f"edge_depth must be positive, got {edge_depth}")
        self.edge_depth = edge_depth
        self._edges: dict[int, EdgeLog] = {}
        self._last_round: int | None = None

    def record(self, t: int, edges: EdgeLog | Iterable[tuple[int, int]]) -> None:
        """Record ``E_t`` of one completed round (rounds must come in order).

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
        self._last_round = t
        self._edges.pop(t - self.edge_depth, None)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def edges_at(self, t: int) -> EdgeLog | None:
        """``E_t``, or ``None`` if that round was evicted or never recorded."""
        return self._edges.get(t)

    def out_neighbors_at(self, t: int, v: int) -> set[int]:
        """Nodes ``v`` sent to in round ``t`` (empty if unknown/evicted)."""
        edges = self._edges.get(t)
        return edges.out_neighbors(v) if edges is not None else set()

    def contacts_of(self, t: int, v: int) -> set[int]:
        """All nodes that communicated with ``v`` in round ``t`` (either way)."""
        edges = self._edges.get(t)
        return edges.contacts_of(v) if edges is not None else set()
