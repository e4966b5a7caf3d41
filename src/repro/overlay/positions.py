"""Sorted position tables with wrap-aware range queries.

The hot loop of every topology operation is "which nodes lie within distance
``rho`` of point ``p`` on the ring?".  :class:`PositionIndex` answers this in
``O(log n + output)`` via a sorted NumPy array and ``searchsorted`` — the
vectorised idiom recommended by the HPC guides (no Python-level scans).

All range queries funnel through one piece of window arithmetic — the arc
endpoints of :meth:`_bounds` (scalar) and :func:`_arc_ends_many` (arrays,
behind :meth:`arcs_many` and :meth:`bounds_many`) — so the endpoint and
float-wrap semantics cannot drift apart between ``ids_within``, the arc
variants and the batched window users, each the one home of its rule: swarm
counts (:func:`~repro.overlay.swarm.swarm_sizes`), the LDS neighbourhoods
(:func:`~repro.overlay.lds.neighbor_arc_slots`) and A_SAMPLING's rank test
(:class:`~repro.core.forwarding.HopPlan`).  The endpoints are exact: a point
is inside the window iff ``ring_distance(p, center) <= radius`` as computed
in floats.  ``center ± radius`` rounds, and where it wraps past 1 it rounds at
the magnitude of 1 — ``ids_within([0.25], 1 - 2**-53, 0.25)`` used to return
the point at distance ``0.25 + 2**-53`` — so each rounded endpoint is
started from the closed form of the predicate's boundary where that is
needed and then moved to the last float inside the arc.

Indexes are immutable, but not island-like: the epoch cache
(:mod:`repro.sim.epochs`) grows one shared per-epoch index incrementally via
:meth:`with_added` / :meth:`without` — O(changed + n) array surgery instead
of an O(n log n) re-sort — and cuts per-node views out of it with
:meth:`restricted`.  The id -> position map and the id -> slot map are built
lazily: hot construction paths (one index per node per cutover) only pay for
the sorted arrays; dict materialisation happens on the first point lookup.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import nextafter
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.util.intervals import Arc, ring_distance

__all__ = ["PositionIndex"]


def _coerce_keep(keep: Iterable[int]) -> np.ndarray:
    """Canonical int64 id array for membership filters (both input paths).

    ``set``/iterable and ``np.ndarray`` inputs go through the same
    normalisation: deduplicate, require integral values, and tolerate
    unknown ids (they simply match nothing).  Floats that are not exact
    integers are rejected rather than silently truncated.
    """
    if isinstance(keep, np.ndarray):
        arr = keep
        if arr.dtype.kind == "f":
            as_int = arr.astype(np.int64)
            if not np.array_equal(as_int, arr):
                raise ValueError("keep ids must be integral")
            arr = as_int
        elif arr.dtype.kind not in "iu":
            raise ValueError(f"keep ids must be integers, got dtype {arr.dtype}")
        return np.unique(arr.astype(np.int64, copy=False))
    keep_set = keep if isinstance(keep, (set, frozenset)) else set(keep)
    for v in keep_set:
        if not isinstance(v, (int, np.integer)):
            raise ValueError(f"keep ids must be integers, got {v!r}")
    return np.fromiter(keep_set, dtype=np.int64, count=len(keep_set))


_BELOW_ONE = nextafter(1.0, 0.0)


def _far_cut(radius: float) -> tuple[float, float]:
    """``(t, h)``: ``t`` is the least float ``>= 1 - radius`` and ``h`` half
    the float spacing below it.  Across the wrap, a point ``x`` with
    ``D = fl(|x - c|) > 1/2`` is inside iff ``1 - D <= radius`` (exact, as
    ``D >= 1/2``), i.e. iff ``D >= t``."""
    t = 1.0 - radius
    if 1.0 - t > radius:
        t = nextafter(t, 2.0)
    return t, (t - nextafter(t, 0.0)) / 2


def _settle_many(
    ends: np.ndarray, centers: np.ndarray, radius: float, clockwise: np.ndarray
) -> np.ndarray:
    """Move every arc end onto the last float inside its arc, going
    ``clockwise`` (``hi`` ends) or counter-clockwise (``lo`` ends), never
    past the antipode; after the first pass only the ends that moved are
    looked at again.  ``min(d, 1 - d)`` is ring_distance's branch, exactly."""

    def step(x: np.ndarray, by: np.ndarray) -> np.ndarray:
        # Non-negative doubles are ordered like their bit patterns, so the
        # next float either way is one integer step on the int64 view.
        bits = x.view(np.int64) + by
        y = bits.view(np.float64)
        y[y >= 1.0] = 0.0
        y[bits < 0] = _BELOW_ONE  # below 0.0
        return y

    rows = None  # every end
    x, c, cw = ends, centers, clockwise
    by = np.where(cw, 1, -1).astype(np.int64)  # one float forward
    while True:
        d = np.abs(x - c)
        out = np.minimum(d, 1.0 - d) > radius
        ahead = step(x, by)
        d = np.abs(ahead - c)
        grow = (np.minimum(d, 1.0 - d) <= radius) & (
            ((ahead >= c) == (d <= 0.5)) == cw  # the end's own half-ring
        )
        move = np.flatnonzero(out | grow)
        if not move.size:
            return ends
        out, cw, c, by = out[move], cw[move], c[move], by[move]
        x = np.where(out, step(x[move], -by), ahead[move])
        rows = move if rows is None else rows[move]
        ends[rows] = x


def _arc_ends_many(centers: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """The endpoints of :meth:`PositionIndex._bounds` over an array of
    centers, IEEE-identical."""
    n = centers.size
    # Both ends in one column: lo ends first, hi ends after.  ``x -
    # floor(x)`` is ``x % 1.0`` bit for bit on (-1, 2), at a seventh of
    # the cost.
    ends = np.concatenate([centers - radius, centers + radius])
    ends -= np.floor(ends)
    lo, hi = ends[:n], ends[n:]
    lo[lo >= 1.0] = 0.0
    wrapped = hi < centers
    if wrapped.any():
        t, h = _far_cut(radius)
        hi[wrapped] = np.maximum((centers[wrapped] - t) + h, 0.0)
    near = (centers >= radius) & (centers <= 2 * radius)
    if near.any():
        half = (nextafter(radius, 1.0) - radius) / 2
        lo[near] = np.maximum((centers[near] - radius) - half, 0.0)
    clockwise = np.zeros(2 * n, dtype=bool)
    clockwise[n:] = True
    ends = _settle_many(ends, np.concatenate([centers, centers]), radius, clockwise)
    return ends[:n], ends[n:]


def _unpickle_index(ids: bytes, pos: bytes) -> "PositionIndex":
    """Rebuild a pickled :class:`PositionIndex` from its column bytes."""
    return PositionIndex._from_sorted(
        np.frombuffer(ids, dtype=np.int64), np.frombuffer(pos, dtype=np.float64)
    )


class PositionIndex:
    """An immutable snapshot of node positions on the unit ring.

    Parameters
    ----------
    positions:
        Mapping from node id to position in ``[0, 1)``.
    """

    __slots__ = (
        "_ids",
        "_pos",
        "_by_id",
        "_ids_list",
        "_pos_list",
        "_slot_by_id",
        "_scratch",
    )

    def __init__(self, positions: Mapping[int, float]) -> None:
        ids = np.fromiter(positions.keys(), dtype=np.int64, count=len(positions))
        pos = np.fromiter(positions.values(), dtype=np.float64, count=len(positions))
        if pos.size and (pos.min() < 0.0 or pos.max() >= 1.0):
            raise ValueError("all positions must lie in [0, 1)")
        order = np.argsort(pos, kind="stable")
        self._ids = ids[order]
        self._pos = pos[order]
        self._by_id: dict[int, float] | None = None
        self._ids_list: list[int] | None = None
        self._pos_list: list[float] | None = None
        self._slot_by_id: dict[int, int] | None = None
        self._scratch: dict[object, object] | None = None

    @classmethod
    def _from_sorted(cls, ids: np.ndarray, pos: np.ndarray) -> "PositionIndex":
        """Internal: build from already position-sorted, validated arrays."""
        obj = cls.__new__(cls)
        obj._ids = ids
        obj._pos = pos
        obj._by_id = None
        obj._ids_list = None
        obj._pos_list = None
        obj._slot_by_id = None
        obj._scratch = None
        return obj

    @property
    def scratch(self) -> dict[object, object]:
        """Consumer memo space, living exactly as long as the index.

        Interned indexes are shared across every node with the same member
        set (see ``EpochCache.index_for``), so values derived purely from
        the positions in this index and worth keeping for its whole life
        (the ``int32`` id column) can be computed once and reused
        network-wide.  Callers must only store data that is a pure function
        of the index contents (plus globally fixed parameters), never
        per-node state.  The scratch does not travel: a pickled index
        carries its two sorted columns only (:meth:`__reduce__`).
        """
        scratch = self._scratch
        if scratch is None:
            scratch = self._scratch = {}
        return scratch

    def __reduce__(self):
        # The sorted columns only, as raw bytes (pickling two ndarrays costs
        # ~10x more per object): the lazy maps and the scratch — which may
        # hold the epoch cache's whole position table — are rebuilt on demand.
        return _unpickle_index, (self._ids.tobytes(), self._pos.tobytes())

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._ids.size

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._map()

    def _map(self) -> dict[int, float]:
        """The lazy id -> position dict (built once, on first point lookup)."""
        by_id = self._by_id
        if by_id is None:
            by_id = dict(zip(self._ids.tolist(), self._pos.tolist()))
            self._by_id = by_id
        return by_id

    @property
    def slot_map(self) -> dict[int, int]:
        """The lazy id -> sorted-array-slot dict (do not mutate).

        Slot ``i`` means ``ids_list[i]``: a member's rank in a window that
        starts at slot ``a`` is its slot minus ``a`` (wrap-adjusted) —
        A_SAMPLING's rank rule, as the forwarding plan applies it.
        """
        slots = self._slot_by_id
        if slots is None:
            slots = {v: i for i, v in enumerate(self.ids_list)}
            self._slot_by_id = slots
        return slots

    @property
    def ids(self) -> np.ndarray:
        """Node ids, sorted by position (do not mutate)."""
        return self._ids

    @property
    def sorted_positions(self) -> np.ndarray:
        """Positions in ascending order (do not mutate)."""
        return self._pos

    @property
    def ids_list(self) -> list[int]:
        """Node ids sorted by position, as a cached plain-``int`` list (do
        not mutate): Python-level walks over the whole index use it."""
        cached = self._ids_list
        if cached is None:
            cached = self._ids.tolist()
            self._ids_list = cached
        return cached

    def position(self, node_id: int) -> float:
        """Position of one node; raises ``KeyError`` for unknown ids."""
        return self._map()[node_id]

    def as_dict(self) -> dict[int, float]:
        """A fresh id -> position dict."""
        return dict(self._map())

    # ------------------------------------------------------------------
    # Range queries
    # ------------------------------------------------------------------

    def _bounds(self, center: float, radius: float) -> tuple[int, int, bool]:
        """Searchsorted bounds ``(a, b, wrapped)`` of the arc around ``center``.

        Not wrapped: the arc covers sorted indices ``[a, b)``.  Wrapped: it
        covers ``[a, n)`` plus ``[0, b)``.  Callers must handle the
        ``radius >= 0.5`` full-ring case themselves (it has no bounds).

        The endpoints are exact for ``center`` in [0, 1) and ``radius <
        0.5``: ``lo`` and ``hi`` are the first and last float, counter-
        clockwise to clockwise, within ``radius`` by
        :func:`~repro.util.intervals.ring_distance` (see the module
        docstring; :func:`_arc_ends_many` is the same arithmetic over
        arrays).  Scalar lookups bisect a cached plain-``float`` list:
        ``tolist`` round-trips float64 exactly, so C-level ``bisect``
        returns the very indices ``searchsorted`` would (the batched
        :meth:`bounds_many` stays on NumPy).
        """
        pos = self._pos_list
        if pos is None:
            pos = self._pos_list = self._pos.tolist()
        lo = (center - radius) % 1.0
        if lo >= 1.0:  # float edge: tiny negative wraps to exactly 1.0
            lo = 0.0
        hi = (center + radius) % 1.0
        if hi < center:
            # Wrapped clockwise: inside iff fl(center - x) >= t, i.e. up to the
            # exact ``center - t + h`` (tie aside); ``% 1.0`` rounded at 1.
            t, h = _far_cut(radius)
            hi = max((center - t) + h, 0.0)
        if radius <= center <= 2 * radius:
            # lo near 0: inside iff fl(center - x) <= radius, i.e. from the
            # exact ``center - radius - h`` on (tie aside).
            lo = max((center - radius) - (nextafter(radius, 1.0) - radius) / 2, 0.0)
        # Settle each end on the last float inside, never past the antipode
        # (for a radius just below 1/2 there may be no gap there).  ``min(d,
        # 1 - d)`` is ring_distance's branch, exactly: d <= 1/2 gives
        # 1 - d >= 1/2, and d > 1/2 gives the exact 1 - d < 1/2.
        while True:
            d = abs(hi - center)
            if min(d, 1.0 - d) > radius:
                hi = _BELOW_ONE if hi == 0.0 else nextafter(hi, -1.0)
                continue
            ahead = nextafter(hi, 2.0)
            if ahead >= 1.0:
                ahead = 0.0
            d = abs(ahead - center)
            if min(d, 1.0 - d) > radius or (ahead >= center) != (d <= 0.5):
                break
            hi = ahead
        while True:
            d = abs(lo - center)
            if min(d, 1.0 - d) > radius:
                lo = nextafter(lo, 2.0)
                if lo >= 1.0:
                    lo = 0.0
                continue
            ahead = _BELOW_ONE if lo == 0.0 else nextafter(lo, -1.0)
            d = abs(ahead - center)
            if min(d, 1.0 - d) > radius or (ahead >= center) == (d <= 0.5):
                break
            lo = ahead
        return bisect_left(pos, lo), bisect_right(pos, hi), lo > hi

    def bounds_many(
        self, centers: np.ndarray, radius: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised :meth:`_bounds` over many arc centers at one radius.

        One pair of batched ``searchsorted`` calls replaces two scalar calls
        per center; the endpoints are the scalar ones, IEEE-identical, so
        slice ``i`` is byte-identical to what ``ids_within(centers[i],
        radius)`` would return.  Callers handle the ``radius >= 0.5``
        full-ring case themselves.
        """
        pos = self._pos
        lo, hi, wrapped = self.arcs_many(centers, radius)
        return pos.searchsorted(lo, "left"), pos.searchsorted(hi, "right"), wrapped

    @staticmethod
    def arcs_many(
        centers: np.ndarray, radius: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ring arithmetic of :meth:`bounds_many`, index-free: each arc's
        exact ``(lo, hi, wrapped)`` endpoints (:func:`_arc_ends_many`).  The
        same endpoints serve every index the arcs are looked up in."""
        lo, hi = _arc_ends_many(centers, radius)
        return lo, hi, lo > hi

    def ids_within(self, center: float, radius: float) -> np.ndarray:
        """Ids of all nodes ``v`` with ``d(v, center) <= radius``.

        Hot path (called per routed hop): returned ids are ordered by ring
        position starting at the arc's counter-clockwise endpoint, sliced
        at :meth:`_bounds`.
        """
        if radius >= 0.5:
            return self._ids
        a, b, wrapped = self._bounds(center, radius)
        ids = self._ids
        if not wrapped:
            return ids[a:b]
        return np.concatenate([ids[a:], ids[:b]])

    def ids_in_arc(self, arc: Arc) -> np.ndarray:
        """Ids inside the arc ordered by ring position starting at the arc's
        counter-clockwise endpoint (A_SAMPLING's rank rule reads the order)."""
        return self.ids_within(arc.center, arc.radius)

    def closest(self, p: float) -> int:
        """Id of the node closest to ``p`` (ties broken toward lower position)."""
        if self._pos.size == 0:
            raise ValueError("empty position index")
        i = int(np.searchsorted(self._pos, p % 1.0))
        candidates = {(i - 1) % self._pos.size, i % self._pos.size}
        best = min(
            candidates, key=lambda j: (ring_distance(self._pos[j], p), self._pos[j])
        )
        return int(self._ids[best])

    # ------------------------------------------------------------------
    # Derived indexes (copy-on-write construction)
    # ------------------------------------------------------------------

    def restricted(self, keep: Iterable[int]) -> "PositionIndex":
        """A new index containing only the given node ids (e.g. churn survivors).

        Filters the sorted arrays directly (``np.isin``) instead of rebuilding
        an id -> position dict element by element; the relative position order
        of survivors is preserved, so no re-sort is needed.  ``keep`` may be
        any iterable of ids or an ``np.ndarray``; both paths deduplicate and
        ignore unknown ids identically (see :func:`_coerce_keep`).
        """
        keep_arr = _coerce_keep(keep)
        mask = np.isin(self._ids, keep_arr)
        return PositionIndex._from_sorted(self._ids[mask], self._pos[mask])

    def without(self, drop: Iterable[int]) -> "PositionIndex":
        """A new index with the given ids removed — O(dropped + n), no re-sort.

        The incremental churn path: removing ``k`` departed nodes costs one
        ``np.isin`` over ``k`` sorted ids plus one masked copy, instead of
        rebuilding and re-sorting the whole table.  Unknown ids are ignored.
        """
        drop_arr = _coerce_keep(drop)
        if drop_arr.size == 0:
            return self
        mask = np.isin(self._ids, drop_arr, invert=True)
        if mask.all():
            return self
        return PositionIndex._from_sorted(self._ids[mask], self._pos[mask])

    def with_added(
        self, ids: Sequence[int], positions: Sequence[float]
    ) -> "PositionIndex":
        """A new index with ``ids`` inserted at ``positions`` — O(added + n).

        The incremental join path: the new entries are sorted among
        themselves (O(added log added)) and spliced into the existing sorted
        arrays with one ``np.insert`` each, instead of re-sorting everything.
        Entries with positions equal to existing ones land *after* them —
        the same order a fresh build with the new ids appended last yields.
        Ids already present raise ``ValueError`` (an index maps each id to
        exactly one position).
        """
        add_ids = np.asarray(ids, dtype=np.int64)
        add_pos = np.asarray(positions, dtype=np.float64)
        if add_ids.shape != add_pos.shape or add_ids.ndim != 1:
            raise ValueError("ids and positions must be equal-length 1-d sequences")
        if add_ids.size == 0:
            return self
        if add_pos.min() < 0.0 or add_pos.max() >= 1.0:
            raise ValueError("all positions must lie in [0, 1)")
        if np.unique(add_ids).size != add_ids.size:
            raise ValueError("added ids must be unique")
        if np.isin(add_ids, self._ids).any():
            raise ValueError("added ids must not already be present")
        order = np.argsort(add_pos, kind="stable")
        add_ids = add_ids[order]
        add_pos = add_pos[order]
        at = self._pos.searchsorted(add_pos, "right")
        return PositionIndex._from_sorted(
            np.insert(self._ids, at, add_ids), np.insert(self._pos, at, add_pos)
        )
