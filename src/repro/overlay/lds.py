"""The Linearized De Bruijn Swarm (LDS) — Definition 5.

Given node positions on the unit ring, the LDS connects each node ``v`` to

* **list edges** ``E_L``: every node within ring distance ``2*c*lam/n``;
* **long-distance (De Bruijn) edges** ``E_DB``: every node within distance
  ``3*c*lam/(2n)`` of ``(v + i)/2`` for ``i in {0, 1}``.

The list radius is deliberately *twice* the swarm radius and the De Bruijn
radius 1.5x: Lemma 6 (the Swarm Property) then guarantees that every node of a
swarm ``S(p)`` has edges to **all** of ``S(p/2)`` and ``S((p+1)/2)``, which is
what makes swarm-to-swarm routing survive churn.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping

import numpy as np

from repro.config import ProtocolParams
from repro.overlay.positions import PositionIndex
from repro.overlay.swarm import swarm_members, swarm_violations
from repro.util.intervals import Arc, wrap, wrap_array

__all__ = [
    "LDSGraph",
    "arc_centers",
    "build_lds",
    "current_epoch",
    "neighbor_arc_slots",
    "required_neighbor_arcs",
]


def required_neighbor_arcs(p: float, params: ProtocolParams) -> tuple[Arc, Arc, Arc]:
    """The three arcs a node at position ``p`` must be connected to.

    Returns ``(list_arc, db_arc_0, db_arc_1)`` — the neighbourhoods around
    ``p``, ``p/2`` and ``(p+1)/2`` from Definition 5.  The same arcs drive the
    maintenance algorithm's JOIN rebroadcast (Listing 3).
    """
    return (
        Arc(p, params.list_radius),
        Arc(wrap(p / 2.0), params.debruijn_radius),
        Arc(wrap((p + 1.0) / 2.0), params.debruijn_radius),
    )


def current_epoch(epochs: Iterable[int]) -> int | None:
    """The epoch an overlay audit inspects: the most common of ``epochs``,
    the newer one on a tie (``None`` when there are none).

    Nodes mid-cutover still report the previous epoch; they are the
    demotion machinery's business, not the audited overlay's.
    """
    counts = Counter(epochs)
    if not counts:
        return None
    return max(counts, key=lambda e: (counts[e], e))


def arc_centers(points: np.ndarray) -> np.ndarray:
    """The centres of :func:`required_neighbor_arcs` for many positions.

    Row ``i`` is ``(p, wrap(p / 2), wrap((p + 1) / 2))`` for ``p =
    points[i]`` — the scalar :func:`wrap`, elementwise and IEEE-identical.
    ``wrap`` is not the identity on the De Bruijn centres: at ``p = 1 −
    2⁻⁵³`` the sum ``p + 1`` rounds to ``2.0``, so ``(p + 1) / 2`` is
    ``1.0``, which wraps to ``0.0``.
    """
    centers = np.empty((points.size, 3), dtype=np.float64)
    centers[:, 0] = points
    np.divide(points, 2.0, out=centers[:, 1])
    np.divide(points + 1.0, 2.0, out=centers[:, 2])
    centers[:, 1:] = wrap_array(centers[:, 1:])
    return centers


def neighbor_arc_slots(
    index: PositionIndex, points: np.ndarray, list_radius: float, db_radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """The slots of ``index`` inside the Definition-5 arcs of every point.

    Returns ``(owner, slot)`` columns: for point ``i``, the sorted-array
    slots of the list arc around ``p`` and of the De Bruijn arcs around
    ``p/2`` and ``(p+1)/2`` — the :func:`required_neighbor_arcs` order —
    each arc in ring order from its counter-clockwise end, every slot once at
    its first occurrence; ``owner`` is ascending.  Slot for slot, point ``i``
    lists ``dict.fromkeys`` of the three ``ids_within`` windows.  Every
    arc is a ring segment ``(start, length)``; the segments expand to one
    flat slot column.
    """
    n = len(index)
    count = points.size
    centers = arc_centers(points)
    start = np.zeros((count, 3), dtype=np.intp)
    length = np.full((count, 3), n, dtype=np.intp)  # radius >= 0.5: the ring
    for cols, radius in ((slice(0, 1), list_radius), (slice(1, 3), db_radius)):
        if radius < 0.5:
            a, b, wrapped = index.bounds_many(centers[:, cols].ravel(), radius)
            start[:, cols] = a.reshape(count, -1)
            length[:, cols] = np.where(wrapped, n - a + b, b - a).reshape(count, -1)
    owner = np.repeat(np.arange(count), length.sum(axis=1))
    start = start.ravel()
    length = length.ravel()
    ends = np.cumsum(length)
    entry = np.arange(int(ends[-1]) if count else 0)
    slot = entry - np.repeat(ends - length, length) + np.repeat(start, length)
    slot[slot >= n] -= n
    # First occurrence of a slot inside its point: scatter the entry numbers
    # back to front, so the earliest write to a key lands last.
    key = owner * n + slot
    first = np.empty(count * n, dtype=np.intp)
    first[key[::-1]] = entry[::-1]
    keep = first[key] == entry
    return owner[keep], slot[keep]


class LDSGraph:
    """An LDS snapshot: positions plus the implied edge sets.

    Edges are directed "knows the id of" relations per the paper's model;
    list edges are symmetric by construction, De Bruijn edges are not.  The
    graph is a view over one :func:`neighbor_arc_slots` pass over its index,
    made on first use: a CSR whose row ``i`` holds the sorted ids of the
    node in sorted slot ``i``'s three Definition-5 arcs, minus the node.
    """

    def __init__(self, index: PositionIndex, params: ProtocolParams) -> None:
        self.index = index
        self.params = params
        self._csr: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def random(
        cls, params: ProtocolParams, rng: np.random.Generator, n: int | None = None
    ) -> "LDSGraph":
        """An LDS over ``n`` nodes at i.i.d. uniform positions (ids 0..n-1)."""
        count = params.n if n is None else n
        positions = {i: float(p) for i, p in enumerate(rng.random(count))}
        return cls(PositionIndex(positions), params)

    @property
    def node_ids(self) -> np.ndarray:
        return self.index.ids

    def __len__(self) -> int:
        return len(self.index)

    # ------------------------------------------------------------------
    # Neighbourhoods
    # ------------------------------------------------------------------

    def _adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, ids)``: the neighbour CSR, rows in sorted-slot order."""
        csr = self._csr
        if csr is None:
            index = self.index
            n = len(index)
            pos = index.sorted_positions
            radii = (self.params.list_radius, self.params.debruijn_radius)
            # The kernel's scratch is points x n entries: a large ring goes
            # in blocks of points (one block up to n = 2048).
            block = max(1, (1 << 22) // max(n, 1))
            starts = range(0, max(n, 1), block)
            parts = [neighbor_arc_slots(index, pos[lo : lo + block], *radii) for lo in starts]
            owner = np.concatenate([o + lo for (o, _), lo in zip(parts, starts)])
            slot = np.concatenate([s for _, s in parts])
            other = slot != owner  # a node's own slot is in its list arc
            owner = owner[other]
            ids = index.ids[slot[other]]
            ids = ids[np.lexsort((ids, owner))]  # owner is already ascending
            indptr = np.zeros(len(index) + 1, dtype=np.intp)
            np.cumsum(np.bincount(owner, minlength=len(index)), out=indptr[1:])
            csr = self._csr = (indptr, ids)
        return csr

    def neighbors(self, v: int) -> np.ndarray:
        """All out-neighbours of ``v`` (list plus De Bruijn), as sorted ids."""
        indptr, ids = self._adjacency()
        i = self.index.slot_map[v]
        return ids[indptr[i] : indptr[i + 1]]

    def swarm(self, p: float) -> np.ndarray:
        """Ids of ``S(p)`` in this snapshot."""
        return swarm_members(self.index, p, self.params)

    def degree(self, v: int) -> int:
        return int(self.neighbors(v).size)

    def degree_stats(self) -> tuple[int, float, int]:
        """(min, mean, max) out-degree over all nodes."""
        if len(self.index) == 0:
            return (0, 0.0, 0)
        degs = np.diff(self._adjacency()[0])
        return (int(degs.min()), float(np.mean(degs)), int(degs.max()))

    def edge_count(self) -> int:
        """Number of directed edges."""
        return int(self._adjacency()[0][-1])

    # ------------------------------------------------------------------
    # Audits
    # ------------------------------------------------------------------

    def swarm_violations(self, points: Iterable[float], swarm_radius: float | None = None) -> int:
        """Lemma 6 at the given points: how many (point, branch) pairs fail.

        For each point ``p`` and branch ``q`` in ``(p/2, (p+1)/2)``, every
        node of ``S(p)`` must have an edge to every node of ``S(q)`` (itself
        counting as trivially reached).  Swarms take ``swarm_radius``
        (default: this graph's own), so edges drawn at other radii can be
        held to the true swarms.  Zero means the Swarm Property holds.
        """
        radius = self.params.swarm_radius if swarm_radius is None else swarm_radius
        return swarm_violations(
            self.index,
            self.neighbors,
            points,
            lambda p: (wrap(p / 2.0), wrap((p + 1.0) / 2.0)),
            radius,
        )

    def audit_claimed_adjacency(
        self, claimed: Mapping[int, AbstractSetLike]
    ) -> dict[int, set[int]]:
        """Compare claimed neighbour sets against Definition 5.

        Returns, per node, the set of *missing* required neighbours (empty
        everywhere means the claimed overlay covers the LDS).  Used to audit
        overlays built by the maintenance algorithm against ground truth.
        """
        indptr, ids = self._adjacency()
        rows = np.split(ids, indptr[1:-1])
        missing: dict[int, set[int]] = {}
        for v, required in zip(self.index.ids_list, rows):
            have = claimed.get(v, ())
            if not isinstance(have, (set, frozenset, dict)):
                have = {int(w) for w in have}
            gap = {w for w in required.tolist() if w not in have}
            if gap:
                missing[v] = gap
        return missing


# ``Mapping[int, set[int] | frozenset[int] | np.ndarray]`` — anything iterable.
AbstractSetLike = Iterable[int]


def build_lds(
    positions: "Mapping[int, float] | PositionIndex", params: ProtocolParams
) -> LDSGraph:
    """Convenience constructor from an id -> position mapping.

    A prebuilt :class:`PositionIndex` — e.g. an interned view handed out by
    the engine's :class:`~repro.sim.epochs.EpochCache` — is used as-is, so
    audits can share the epoch's sorted arrays instead of re-sorting them.
    """
    if isinstance(positions, PositionIndex):
        return LDSGraph(positions, params)
    return LDSGraph(PositionIndex(positions), params)
