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

from typing import Iterable, Mapping

import numpy as np

from repro.config import ProtocolParams
from repro.overlay.positions import PositionIndex
from repro.overlay.swarm import swarm_members
from repro.util.intervals import Arc, wrap, wrap_array

__all__ = [
    "LDSGraph",
    "arc_centers",
    "build_lds",
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
    lists ``dict.fromkeys`` of the three ``ids_within_list`` windows.  Every
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
    list edges are symmetric by construction, De Bruijn edges are not.
    Neighbour sets are computed lazily and cached; :meth:`prime` fills every
    node's cache in one vectorised sorted-array sweep (two batched
    ``searchsorted`` calls per radius instead of two per node) — audits and
    whole-graph statistics use it so no per-node binary searches remain.
    """

    def __init__(self, index: PositionIndex, params: ProtocolParams) -> None:
        self.index = index
        self.params = params
        self._neighbors: dict[int, np.ndarray] = {}
        self._list_neighbors: dict[int, np.ndarray] = {}
        self._db_neighbors: dict[int, np.ndarray] = {}
        self._primed = False

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

    def list_neighbors(self, v: int) -> np.ndarray:
        """Ids within the list radius of ``v`` (excluding ``v`` itself)."""
        cached = self._list_neighbors.get(v)
        if cached is None:
            p = self.index.position(v)
            ids = self.index.ids_within(p, self.params.list_radius)
            cached = ids[ids != v]
            self._list_neighbors[v] = cached
        return cached

    def db_neighbors(self, v: int) -> np.ndarray:
        """Ids within the De Bruijn radius of ``v/2`` or ``(v+1)/2``."""
        cached = self._db_neighbors.get(v)
        if cached is None:
            p = self.index.position(v)
            rho = self.params.debruijn_radius
            a = self.index.ids_within(wrap(p / 2.0), rho)
            b = self.index.ids_within(wrap((p + 1.0) / 2.0), rho)
            merged = np.union1d(a, b)
            cached = merged[merged != v]
            self._db_neighbors[v] = cached
        return cached

    def neighbors(self, v: int) -> np.ndarray:
        """All out-neighbours of ``v`` (list plus De Bruijn, deduplicated)."""
        cached = self._neighbors.get(v)
        if cached is None:
            cached = np.union1d(self.list_neighbors(v), self.db_neighbors(v))
            self._neighbors[v] = cached
        return cached

    def _window(self, a: int, b: int, wrapped: bool) -> np.ndarray:
        ids = self.index.ids
        if not wrapped:
            return ids[a:b]
        return np.concatenate([ids[a:], ids[:b]])

    def prime(self) -> None:
        """Bulk warm-up: fill all three neighbour caches in one sweep."""
        if self._primed:
            return
        self._primed = True
        index = self.index
        ids = index.ids
        pos = index.sorted_positions
        n = ids.size
        if n == 0:
            return
        params = self.params
        rho_l = params.list_radius
        rho_db = params.debruijn_radius
        full = ids  # position order, as ids_within returns for radius >= 0.5
        if rho_l < 0.5:
            la, lb, lw = index.bounds_many(pos, rho_l)
        if rho_db < 0.5:
            centers = arc_centers(pos)
            d0a, d0b, d0w = index.bounds_many(centers[:, 1], rho_db)
            d1a, d1b, d1w = index.bounds_many(centers[:, 2], rho_db)
        list_cache = self._list_neighbors
        db_cache = self._db_neighbors
        nbr_cache = self._neighbors
        for i in range(n):
            v = int(ids[i])
            lst = full if rho_l >= 0.5 else self._window(la[i], lb[i], lw[i])
            lst = lst[lst != v]
            if rho_db >= 0.5:
                merged = np.union1d(full, full)
            else:
                merged = np.union1d(
                    self._window(d0a[i], d0b[i], d0w[i]),
                    self._window(d1a[i], d1b[i], d1w[i]),
                )
            db = merged[merged != v]
            list_cache[v] = lst
            db_cache[v] = db
            nbr_cache[v] = np.union1d(lst, db)

    def swarm(self, p: float) -> np.ndarray:
        """Ids of ``S(p)`` in this snapshot."""
        return swarm_members(self.index, p, self.params)

    def degree(self, v: int) -> int:
        return int(self.neighbors(v).size)

    def degree_stats(self) -> tuple[int, float, int]:
        """(min, mean, max) out-degree over all nodes (primes the caches)."""
        if len(self.index) == 0:
            return (0, 0.0, 0)
        self.prime()
        degs = np.fromiter(
            (nbrs.size for nbrs in self._neighbors.values()),
            dtype=np.int64,
            count=len(self._neighbors),
        )
        return (int(degs.min()), float(np.mean(degs)), int(degs.max()))

    def edge_count(self) -> int:
        """Number of directed edges (primes the caches)."""
        self.prime()
        return int(sum(nbrs.size for nbrs in self._neighbors.values()))

    # ------------------------------------------------------------------
    # Audits
    # ------------------------------------------------------------------

    def check_swarm_property(self, points: Iterable[float]) -> bool:
        """Empirically verify Lemma 6 at the given points.

        For each point ``p``: every node of ``S(p)`` must have an edge to
        every node of ``S(p/2)`` and of ``S((p+1)/2)`` (itself counting as
        trivially reached).  Membership tests run as one ``np.isin`` per
        node instead of rebuilding Python sets.
        """
        self.prime()
        for p in points:
            members = self.swarm(p)
            for branch in (0, 1):
                target = self.swarm(wrap((p + branch) / 2.0))
                if target.size == 0:
                    continue
                for v in members:
                    v = int(v)
                    covered = np.isin(target, self.neighbors(v)) | (target == v)
                    if not covered.all():
                        return False
        return True

    def audit_claimed_adjacency(
        self, claimed: Mapping[int, AbstractSetLike]
    ) -> dict[int, set[int]]:
        """Compare claimed neighbour sets against Definition 5.

        Returns, per node, the set of *missing* required neighbours (empty
        everywhere means the claimed overlay covers the LDS).  Used to audit
        overlays built by the maintenance algorithm against ground truth.
        """
        self.prime()
        missing: dict[int, set[int]] = {}
        for v in self.node_ids:
            v = int(v)
            required = self.neighbors(v)
            have = claimed.get(v, ())
            if isinstance(have, np.ndarray):
                have_arr = have.astype(np.int64, copy=False)
            else:
                have_arr = np.fromiter((int(w) for w in have), dtype=np.int64)
            if have_arr.size:
                gap = required[~np.isin(required, have_arr)]
            else:
                gap = required
            if gap.size:
                missing[v] = set(gap.tolist())
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
