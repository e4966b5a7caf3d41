"""The cutover kernel: every receiver's CREATE introductions merged in one
bitset pass over the epoch slab.

At the even round ``2e`` every node of ``D_e`` installs the neighbourhood
its CREATE batches introduce.  Per receiver the protocol text reads: for
each batch in inbox order, take the members of the batch's handover index
``H`` inside the receiver's three Definition-5 arcs (list arc around its
position ``p``, De Bruijn arcs around ``p/2`` and ``(p+1)/2``, each member
at its first occurrence), the receiver left out; the new ``d_nbrs`` lists
the introduced ids in that concatenated order, each id at its first
occurrence.  The order is observable (``_serve_pending_grants`` shuffles
it).  A batch of another epoch adds nothing.  A batch names no receiver:
one sender's batch object goes to every node it introduces, and faults only
drop, delay or duplicate a copy to the same receiver.

:func:`introductions` does this for a band of receivers at once, without
materialising any batch's list:

* every distinct index is a subset of the epoch-``e`` slab
  (:meth:`~repro.sim.epochs.EpochCache.covering_slab` maps the ones that
  were not carved from it), so each is one **membership row** over the slab
  (:func:`~repro.core.forwarding.membership`), packed to bits;
* every receiver's arcs are one run of **slab slots**
  (:func:`~repro.overlay.lds.neighbor_arc_slots`).  Restricted to an
  index's members, that run is exactly the batch's introduction list, in
  the same order — an interned index is a position-sorted subset of its
  slab;
* per receiver, a **prefix-OR** of its batches' rows (masked to its arcs)
  in inbox order: a slot first set by batch ``j`` is first introduced by
  batch ``j``.  Ordering the first-set slots by ``(j, arc position)`` is the
  first-occurrence merge of the lists.

Stale, empty and repeated batches need no special case: a repeated batch
sets no new bit.  The kernel reads only the batches and the epoch table and
draws no rng, so running it after every node of the band has prepared, and
before any acts, is unobservable.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Sequence

import numpy as np

from repro.core.forwarding import membership, slot_of_id
from repro.core.messages import CreateBatch
from repro.overlay.lds import neighbor_arc_slots
from repro.sim.epochs import EpochCache

__all__ = ["introductions"]


def introductions(
    inboxes: Sequence[tuple[int, Sequence[CreateBatch]]],
    epoch: int,
    cache: EpochCache,
    *,
    list_radius: float,
    db_radius: float,
) -> list[dict[int, float]]:
    """Each receiver's introduced neighbours at ``epoch``, ``id -> position``.

    ``inboxes`` holds one ``(receiver id, CREATE batches in inbox order)``
    per receiver; entry ``i`` of the result is receiver ``i``'s new
    neighbourhood in first-occurrence order (empty: nobody introduced).
    """
    out: list[dict[int, float]] = [{} for _ in inboxes]
    flat = [b for _, batches in inboxes for b in batches]
    if not flat:
        return out
    lens = [len(batches) for _, batches in inboxes]
    relevant = np.flatnonzero(
        np.fromiter(map(attrgetter("epoch"), flat), np.int64, len(flat)) == epoch
    )
    if not relevant.size:
        return out
    if relevant.size < len(flat):
        flat = [flat[k] for k in relevant.tolist()]
    # Distinct indexes by identity, in first-seen order.
    indexes = list(map(attrgetter("index"), flat))
    groups = {ix: g for g, ix in enumerate(dict.fromkeys(indexes))}
    group_of = list(map(groups.__getitem__, indexes))
    owner_of = np.repeat(np.arange(len(inboxes)), lens)[relevant]
    receivers, counts = np.unique(owner_of, return_counts=True)
    receivers = receivers.tolist()
    counts = counts.tolist()
    targets = [inboxes[i][0] for i in receivers]
    cache.covering_slab(epoch, groups)
    for v in targets:
        cache.position(v, epoch)  # a target outside every index still has arcs
    slab = cache.slab(epoch)
    n = len(slab)
    tslot = slot_of_id(slab)[targets]
    owner, slot = neighbor_arc_slots(
        slab, slab.sorted_positions[tslot], list_radius, db_radius
    )
    keep = slot != tslot[owner]
    owner, slot = owner[keep], slot[keep]
    # Arc membership per receiver as bits, and each arc slot's arc position.
    arc = np.zeros((len(receivers), n), dtype=bool)
    arc[owner, slot] = True
    arc_at = np.zeros((len(receivers), n), dtype=np.int32)
    arc_at[owner, slot] = np.arange(owner.size) - np.searchsorted(owner, owner)
    rows = np.packbits(membership(slab, list(groups)), axis=1, bitorder="little")
    recv = np.repeat(np.arange(len(receivers)), counts)
    seen = rows[group_of] & np.packbits(arc, axis=1, bitorder="little")[recv]
    del arc, rows
    # Per receiver, the prefix-OR in inbox order; a batch's new bits are the
    # slots it introduces first.
    starts = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=starts[1:])
    bounds = starts.tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        if hi - lo > 1:
            np.bitwise_or.accumulate(seen[lo:hi], axis=0, out=seen[lo:hi])
    new = seen.copy()
    new[1:] &= ~seen[:-1]
    new[starts[:-1]] = seen[starts[:-1]]
    del seen
    batch, byte = np.nonzero(new)
    bits = np.unpackbits(new[batch, byte][:, None], axis=1, bitorder="little")
    entry, bit = np.nonzero(bits)
    batch = batch[entry]
    at = byte[entry] * 8 + bit  # the introduced slab slot
    r = recv[batch]
    order = np.lexsort((arc_at[r, at], batch))
    at = at[order]
    ids = slab.ids[at].tolist()
    pos = slab.sorted_positions[at].tolist()
    cut = np.searchsorted(r[order], np.arange(len(receivers) + 1)).tolist()
    for k, i in enumerate(receivers):
        lo, hi = cut[k], cut[k + 1]
        out[i] = dict(zip(ids[lo:hi], pos[lo:hi]))
    return out
