"""Epoch-shared computation cache: one position table per epoch, not per node.

The maintenance protocol rebuilds the whole overlay every two rounds, and in
the seed implementation every node re-derived the same shared facts alone:
``h(v, e)`` was re-evaluated per sponsor per launch, and every node argsorted
a private :class:`~repro.overlay.positions.PositionIndex` from records its
neighbours were sorting too — total work n·swarm² instead of n·swarm.

:class:`EpochCache` is the engine-level service that deduplicates this work.
It is *pure memoisation*: every value it returns is exactly what the node
would have computed itself (the equivalence suite pins this bit-for-bit), so
protocol fidelity — who knows what, when — is untouched.  Per epoch ``e`` it
keeps:

* a flat ``id -> h(v, e)`` **position table**, filled on first use either by
  evaluating the keyed hash (launch paths) or from the positions nodes carry
  in their records (cutover paths — records are hash-derived by
  construction, so first-writer-wins is consistent);
* one **slab**: a single position-sorted :class:`PositionIndex` over every id
  the epoch's table knows, grown *incrementally* with
  :meth:`PositionIndex.with_added` (O(changed + n) splice, no re-sort) as new
  ids surface;
* an **intern table** mapping a member ``frozenset`` to the index built for
  it, so nodes with identical neighbourhoods share one index object — same
  sorted arrays, same lazily-built id maps.  A member set that covers the
  whole slab gets the slab itself; small complements are carved out with
  :meth:`PositionIndex.without`, larger ones with
  :meth:`PositionIndex.restricted` (identical results, different cost).

An index that was not carved from an epoch's live table — one unpickled
in a shard worker, or built privately — can be mapped back into the slab by
id: :meth:`EpochCache.covering_slab` adds the positions it carries to the
table (hash-derived, so first-writer-wins stays consistent) and returns the
grown slab.  This is how the cutover kernel (:mod:`repro.core.cutover`)
reads every CREATE batch of a band over one slab.

Tables more than one epoch behind the engine's clock are pruned each round;
indexes already handed to nodes survive via the nodes' own references.
Nothing else is kept per round: a value an index's holders share for the
index's whole life belongs on ``PositionIndex.scratch``.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Mapping

from repro.overlay.positions import PositionIndex
from repro.util.rngs import PositionHash

__all__ = ["EpochCache"]


class EpochCache:
    """Shared per-epoch position tables and interned position indexes."""

    __slots__ = (
        "_hash",
        "_tables",
        "_slabs",
        "_slab_sizes",
        "_interned",
        "_floor",
    )

    def __init__(self, position_hash: PositionHash) -> None:
        self._hash = position_hash
        self._tables: dict[int, dict[int, float]] = {}
        self._slabs: dict[int, PositionIndex] = {}
        self._slab_sizes: dict[int, int] = {}
        self._interned: dict[int, dict[frozenset[int], PositionIndex]] = {}
        self._floor = -(10**9)  # epochs below this are pruned

    # ------------------------------------------------------------------
    # Memoised position hash
    # ------------------------------------------------------------------

    def position(self, node_id: int, epoch: int) -> float:
        """Memoised ``h(node_id, epoch)`` — one BLAKE2b per (id, epoch).

        Every sponsor launching a JOIN for the same fresh node evaluates the
        same hash; the epoch table turns the duplicates into dict probes.
        """
        table = self._tables.get(epoch)
        if table is None:
            table = self._tables[epoch] = {}
        p = table.get(node_id)
        if p is None:
            p = self._hash.position(node_id, epoch)
            table[node_id] = p
        return p

    def table(self, epoch: int) -> Mapping[int, float]:
        """The (read-only) id -> position table known so far for ``epoch``."""
        return self._tables.get(epoch, {})

    # ------------------------------------------------------------------
    # Interned indexes over the shared slab
    # ------------------------------------------------------------------

    def index_for(
        self,
        epoch: int,
        members: frozenset[int],
        positions: Mapping[int, float],
    ) -> PositionIndex:
        """The position index over ``members`` at ``epoch`` — interned.

        ``positions`` supplies ``h(v, epoch)`` for any member the epoch table
        has not seen yet (nodes read these straight out of their Join/Create
        records, which are hash-derived by construction); members already in
        the table cost one dict probe.  Two calls with the same member set
        return the *same object*, so equal neighbourhoods share their sorted
        arrays and lazy id maps across nodes.
        """
        interned = self._interned.get(epoch)
        if interned is None:
            interned = self._interned[epoch] = {}
        idx = interned.get(members)
        if idx is not None:
            return idx
        table = self._tables.get(epoch)
        if table is None:
            table = self._tables[epoch] = {}
        for v in members:
            if v not in table:
                table[v] = positions[v]
        slab = self._sync_slab(epoch, table)
        extras = table.keys() - members
        if not extras:
            idx = slab  # the member set covers the whole slab: share it as-is
        elif 4 * len(extras) <= len(members):
            # Small complement (e.g. churn survivors): O(extras + n) carve.
            idx = slab.without(extras)
        else:
            idx = slab.restricted(members)
        idx.scratch["carved"] = (epoch, table)
        interned[members] = idx
        return idx

    def reference(self, index: PositionIndex) -> PositionIndex | None:
        """The live slab ``index`` is a position-sorted subset of, if any.

        An index handed out by :meth:`index_for` stays a subset of its
        epoch's slab for as long as that epoch's table lives (tables only
        grow); once the epoch is pruned, and for any index built elsewhere,
        there is no such slab.  Batched window lookups search the slab once
        and map the bounds through the subset's membership prefix counts.
        """
        carved = index.scratch.get("carved")
        if carved is None:
            return None
        epoch, table = carved  # type: ignore[misc]
        if self._tables.get(epoch) is not table:
            return None
        return self._sync_slab(epoch, table)

    def covering_slab(
        self, epoch: int, indexes: Iterable[PositionIndex]
    ) -> PositionIndex:
        """The epoch's slab, grown to hold every member of ``indexes``.

        Indexes carved from the epoch's live table are subsets already.  Any
        other index (unpickled, private, or carved before the table was
        pruned) adds the positions it carries for ids the table lacks —
        hash-derived, so first-writer-wins agrees with every other writer.
        Every member then has a slot in the returned slab, and an index's
        members keep their relative order there.
        """
        table = self._tables.get(epoch)
        if table is None:
            table = self._tables[epoch] = {}
        for index in indexes:
            carved = index.scratch.get("carved")  # (its epoch, its table)
            if carved is not None and carved[1] is table:  # type: ignore[index]
                continue
            for v, p in zip(index.ids_list, index.sorted_positions.tolist()):
                if v not in table:
                    table[v] = p
        return self._sync_slab(epoch, table)

    def _sync_slab(self, epoch: int, table: dict[int, float]) -> PositionIndex:
        """Grow the epoch slab to cover every table entry (incremental)."""
        slab = self._slabs.get(epoch)
        synced = self._slab_sizes.get(epoch, 0)
        if slab is None or synced == 0:
            slab = PositionIndex(table)
        elif synced < len(table):
            # dicts preserve insertion order: the unsynced tail is new.
            new_ids = list(islice(table.keys(), synced, None))
            slab = slab.with_added(new_ids, [table[v] for v in new_ids])
        else:
            return slab
        self._slabs[epoch] = slab
        self._slab_sizes[epoch] = len(table)
        return slab

    def slab(self, epoch: int) -> PositionIndex | None:
        """The shared epoch-sorted slab (or ``None`` before first use)."""
        table = self._tables.get(epoch)
        if not table:
            return None
        return self._sync_slab(epoch, table)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def begin_round(self, t: int) -> None:
        """Advance the engine clock: prune state for epochs that ended.

        Overlay ``D_e`` is current during rounds ``2e`` and ``2e + 1``; once
        the engine enters epoch ``e`` no node will ever build an index for an
        epoch below ``e`` again (launch positions always target the future),
        so everything older is dropped.  Indexes nodes still hold stay alive
        through their own references.
        """
        floor = t // 2
        if floor <= self._floor:
            return
        self._floor = floor
        for store in (self._tables, self._slabs, self._slab_sizes, self._interned):
            for e in [e for e in store if e < floor]:
                del store[e]

    def stats(self) -> dict[str, int]:
        """Cache occupancy counters (diagnostics)."""
        return {
            "epochs": len(self._tables),
            "positions": sum(len(t) for t in self._tables.values()),
            "interned": sum(len(m) for m in self._interned.values()),
        }
