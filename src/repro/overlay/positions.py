"""Sorted position tables with wrap-aware range queries.

The hot loop of every topology operation is "which nodes lie within distance
``rho`` of point ``p`` on the ring?".  :class:`PositionIndex` answers this in
``O(log n + output)`` via a sorted NumPy array and ``searchsorted`` — the
vectorised idiom recommended by the HPC guides (no Python-level scans).

All range queries funnel through one bounds helper (:meth:`_bounds`) so the
endpoint and float-wrap semantics cannot drift apart between ``ids_within``,
``count_within`` and the arc variants: a tiny negative ``center - radius``
wraps to exactly ``1.0`` under ``%``, which the helper clamps back to ``0.0``.

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
        # repro: allow(unordered-iteration): dict .keys() is insertion-ordered
        # (values() below iterates identically), and the stable argsort right
        # after makes the index independent of the input order anyway.
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
        per-node state; memos read in one round only belong on
        ``EpochCache.round_memo`` instead, which the next round drops.
        """
        scratch = self._scratch
        if scratch is None:
            scratch = self._scratch = {}
        return scratch

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

    def _slots(self) -> dict[int, int]:
        """The lazy id -> sorted-array-slot dict (for O(1) rank queries)."""
        slots = self._slot_by_id
        if slots is None:
            slots = {v: i for i, v in enumerate(self.ids_list)}
            self._slot_by_id = slots
        return slots

    @property
    def slot_map(self) -> dict[int, int]:
        """The lazy id -> sorted-array-slot dict (do not mutate).

        Slot ``i`` means ``ids_list[i]``; hot paths use it to excise one
        known member from a window slice without scanning for it.
        """
        return self._slots()

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
        """Node ids sorted by position, as a cached plain-``int`` list.

        Batched hot paths slice this list directly (list slices beat ndarray
        slice + ``tolist`` for the tiny windows a swarm lookup returns).
        Do not mutate.
        """
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

        Scalar lookups bisect a cached plain-``float`` list: ``tolist``
        round-trips float64 exactly, so C-level ``bisect`` returns the very
        indices ``searchsorted`` would (the batched :meth:`bounds_many`
        stays on NumPy).
        """
        pos = self._pos_list
        if pos is None:
            pos = self._pos_list = self._pos.tolist()
        lo = (center - radius) % 1.0
        hi = (center + radius) % 1.0
        if lo >= 1.0:  # float edge: tiny negative wraps to exactly 1.0
            lo = 0.0
        return bisect_left(pos, lo), bisect_right(pos, hi), lo > hi

    def bounds_many(
        self, centers: np.ndarray, radius: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised :meth:`_bounds` over many arc centers at one radius.

        One pair of batched ``searchsorted`` calls replaces two scalar calls
        per center; ``%`` on float64 arrays is IEEE-identical to Python's
        scalar ``%``, so slice ``i`` is byte-identical to what
        ``ids_within(centers[i], radius)`` would return.  Callers handle the
        ``radius >= 0.5`` full-ring case themselves.
        """
        pos = self._pos
        lo, hi, wrapped = self.arcs_many(centers, radius)
        return pos.searchsorted(lo, "left"), pos.searchsorted(hi, "right"), wrapped

    @staticmethod
    def arcs_many(
        centers: np.ndarray, radius: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ring arithmetic of :meth:`bounds_many`, index-free: each arc's
        ``(lo, hi, wrapped)`` endpoints.  The same endpoints serve every
        index the arcs are looked up in."""
        lo = (centers - radius) % 1.0
        lo[lo >= 1.0] = 0.0  # same float-wrap guard as the scalar path
        hi = (centers + radius) % 1.0
        return lo, hi, lo > hi

    def ids_within(self, center: float, radius: float) -> np.ndarray:
        """Ids of all nodes ``v`` with ``d(v, center) <= radius``.

        Hot path (called per routed hop): returned ids are ordered by ring
        position starting at the arc's counter-clockwise endpoint.  The
        bounds logic is :meth:`_bounds`, inlined to spare a function call.
        """
        if radius >= 0.5:
            return self._ids
        pos = self._pos
        lo = (center - radius) % 1.0
        hi = (center + radius) % 1.0
        if lo >= 1.0:  # float edge: tiny negative wraps to exactly 1.0
            lo = 0.0
        ids = self._ids
        if lo <= hi:
            return ids[pos.searchsorted(lo, "left"):pos.searchsorted(hi, "right")]
        return np.concatenate(
            [ids[pos.searchsorted(lo, "left"):], ids[:pos.searchsorted(hi, "right")]]
        )

    def ids_within_list(self, center: float, radius: float) -> list[int]:
        """:meth:`ids_within` as a plain-``int`` list (shared, do not mutate).

        Slices the cached :attr:`ids_list` — for the tiny windows swarm
        queries return, list slicing plus C-level ``list.index`` beats the
        ndarray round-trip.  Same content and order as :meth:`ids_within`.
        """
        ids = self.ids_list
        if radius >= 0.5:
            return ids
        a, b, wrapped = self._bounds(center, radius)
        if not wrapped:
            return ids[a:b]
        return ids[a:] + ids[:b]

    def count_within(self, center: float, radius: float) -> int:
        """Number of nodes within distance ``radius`` of ``center``.

        Shares :meth:`_bounds` with :meth:`ids_within` (including the
        ``lo >= 1.0`` float-wrap guard) so count and ids can never disagree
        at arc boundaries.
        """
        if radius >= 0.5:
            return self._ids.size
        a, b, wrapped = self._bounds(center, radius)
        if not wrapped:
            return int(b - a)
        return int(self._ids.size - a + b)

    def rank_within(self, center: float, radius: float, node_id: int) -> int | None:
        """Rank of ``node_id`` in the arc's position ordering, or ``None``.

        Equivalent to ``ids_within_list(center, radius).index(node_id)``
        (``None`` when absent) but O(1) after the lazy slot map exists: the
        window is a contiguous run of the sorted array, so a member's rank
        is its sorted slot minus the window start (wrap-adjusted).  The
        A_SAMPLING delivery rule calls this once per arriving token.
        """
        slot = self._slots().get(node_id)
        if slot is None:
            return None
        n = self._ids.size
        if radius >= 0.5:
            return slot
        a, b, wrapped = self._bounds(center, radius)
        if not wrapped:
            return slot - a if a <= slot < b else None
        if slot >= a:
            return slot - a
        if slot < b:
            return n - a + slot
        return None

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
