"""The rebroadcast kernel: every holder's arrived JOIN records fanned out to
their Definition-5 arcs in one array pass.

A node that a routed JOIN reaches at its last forwarding step rebroadcasts
the record to the current holders of the three Definition-5 arcs around the
record's position ``p`` (Listing 3 line 10).  Per holder the protocol text
reads: drop repeated ``(node, epoch)`` keys, keeping the first arrival; for
each record in arrival order take the members of the holder's ``D`` in the
list arc around ``p`` and in the De Bruijn arcs around ``p/2`` and
``(p+1)/2`` (``required_neighbor_arcs`` order, each member at its first
occurrence), the holder itself left out; every receiver gets one
:class:`~repro.core.messages.JoinBatch` of its records in arrival order, and
receivers are sent to in the order that record-major sweep first touches
them.

:class:`JoinPlan` does this for a band of holders at once:

* per **distinct record** and slab: the arcs as one CSR of slab slots
  (:func:`~repro.overlay.lds.neighbor_arc_slots`), however many holders hold
  the record;
* per **(holder, record)** pair: the record's slots that are members of the
  holder's ``D`` minus the holder — a holder × slab membership matrix
  (:func:`~repro.core.forwarding.membership`).  Exact, because an interned
  index is a position-sorted subset of its epoch slab: the slab's arc window
  restricted to the members is the index's own window, in the same order.
  An index with no live slab (a private one, or a bootstrap ``D_0`` whose
  epoch was pruned) is its own slab;
* per **(holder, receiver)**: one stable sort groups each receiver's records
  in arrival order, and the receivers are ordered by first touch.  A
  holder's receivers with equal record sets share one *sequence*, so the
  node builds one batch per distinct sequence.

The rebroadcast reads only the holder's ``D`` and its arrived records and
draws no rng, so planning it before any node acts is unobservable.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Sequence

import numpy as np

from repro.core.forwarding import ids32, membership, slot_of_id
from repro.overlay.lds import neighbor_arc_slots
from repro.overlay.positions import PositionIndex
from repro.sim.hopplane import _stable_argsort

__all__ = ["JoinPlan", "JoinShare"]

#: One holder's share of a plan: ``(receivers, seq_of, seq_off, seq_rec)``,
#: all ``int32`` — the receiver ids in send order, each receiver's sequence
#: (an ordinal into the holder's distinct sequences), and the sequences as a
#: CSR of indices into the holder's arrived records, in arrival order.
JoinShare = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

_NONE = np.zeros(0, dtype=np.int32)
_NO_SHARE: JoinShare = (_NONE, _NONE, np.zeros(1, dtype=np.int32), _NONE)


def _starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values in ``keys`` starts."""
    new = np.empty(keys.size, dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return np.flatnonzero(new)


def _runs(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable lexicographic order of the rows of ``keys`` (first key
    primary) and, in that order, a mask of where each run of equal rows
    starts — so a run's first entry is its earliest row."""
    order = np.lexsort(keys[::-1])
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for key in keys:
        ks = key[order]
        new[1:] |= ks[1:] != ks[:-1]
    return order, new


class JoinPlan:
    """Every holder's rebroadcast sends, for one band of nodes.

    ``entries`` holds one ``(join_recs, index, node_id)`` per holder, in node
    order: its arrived records in arrival order, its current neighbourhood
    ``D`` (normally itself included) and its id.  ``reference`` maps an index to the
    live epoch slab it was carved from, if any (:meth:`EpochCache.reference`).
    Holder ``i`` sends ``nodes[i]`` (a :data:`JoinShare`).
    """

    __slots__ = ("nodes",)

    def __init__(
        self,
        entries: Sequence[tuple],
        *,
        list_radius: float,
        db_radius: float,
        reference: Callable[[PositionIndex], PositionIndex | None],
    ) -> None:
        self.nodes: list[JoinShare] = [_NO_SHARE] * len(entries)
        recs = [rec for entry in entries for rec in entry[0]]
        total = len(recs)
        if not total:
            return
        lens = [len(entry[0]) for entry in entries]
        holder = np.repeat(np.arange(len(entries)), lens)
        node = np.fromiter(map(attrgetter("node"), recs), np.int64, total)
        epoch = np.fromiter(map(attrgetter("epoch"), recs), np.int64, total)
        pos = np.fromiter(map(attrgetter("pos"), recs), np.float64, total)
        # Keep-first dedup per holder by (node, epoch); ``rank`` numbers a
        # holder's kept records, ``arrived`` indexes its ``join_recs``.
        order, new = _runs(holder, node, epoch)
        kept = np.sort(order[new])
        arrived = kept - np.repeat(np.cumsum(lens) - lens, lens)[kept]
        holder = holder[kept]
        rank = np.arange(kept.size) - np.searchsorted(holder, holder)
        node, epoch, pos = node[kept], epoch[kept], pos[kept]

        by_slab: dict[PositionIndex, list[int]] = {}
        for i, (_, index, _) in enumerate(entries):
            slab = reference(index)
            by_slab.setdefault(index if slab is None else slab, []).append(i)
        group = np.empty(len(entries), dtype=np.intp)
        for g, members in enumerate(by_slab.values()):
            group[members] = g
        pair_group = group[holder]
        for g, (slab, members) in enumerate(by_slab.items()):
            sel = np.flatnonzero(pair_group == g)
            if sel.size:
                self._plan_slab(
                    slab, [entries[i] for i in members], members,
                    np.searchsorted(members, holder[sel]), arrived[sel], rank[sel],
                    node[sel], epoch[sel], pos[sel], list_radius, db_radius,
                )

    def _plan_slab(
        self,
        slab: PositionIndex,
        entries: Sequence[tuple],
        members: list[int],
        ph: np.ndarray,
        arrived: np.ndarray,
        rank: np.ndarray,
        node: np.ndarray,
        epoch: np.ndarray,
        pos: np.ndarray,
        list_radius: float,
        db_radius: float,
    ) -> None:
        """The sends of the holders ``members`` (``entries``), whose indexes
        are subsets of ``slab``.  Pair ``p`` is the kept record
        ``arrived[p]`` (``rank[p]``-th kept) of local holder ``ph[p]``;
        pairs come holder-major in arrival order."""
        n = len(slab)
        # Distinct records, and the slots of their arcs as a CSR.
        order, new = _runs(node, epoch, pos.view(np.int64))
        rec = np.empty(node.size, dtype=np.intp)
        rec[order] = np.cumsum(new) - 1
        owner, slot = neighbor_arc_slots(slab, pos[order[new]], list_radius, db_radius)
        roff = np.zeros(int(new.sum()) + 1, dtype=np.intp)
        np.cumsum(np.bincount(owner, minlength=roff.size - 1), out=roff[1:])
        # Every pair's record slots, kept where the holder's D has them.
        member = membership(slab, [entry[1] for entry in entries])
        slot_of = slot_of_id(slab)
        for g, (_, _, v) in enumerate(entries):
            if v < slot_of.size and slot_of[v] >= 0:
                member[g, slot_of[v]] = False
        # ``key`` = holder * n + slot: a flat index into ``member``.
        plen = roff[rec + 1] - roff[rec]
        pend = np.cumsum(plen)
        pair = np.repeat(np.arange(ph.size), plen)
        key = np.repeat(ph * n, plen) + slot[
            np.arange(int(pend[-1])) + np.repeat(roff[rec] - pend + plen, plen)
        ]
        keep = member.ravel()[key]
        pair = pair[keep]
        key = key[keep]
        del member, keep
        if not key.size:
            return
        # Group by (holder, receiver): records in arrival order within a
        # group (stable), groups in first-touch order.
        order = _stable_argsort(key)
        ks = key[order]
        starts = _starts(ks)
        seglen = np.diff(starts, append=ks.size)
        touch = _stable_argsort(order[starts])
        seg_key = ks[starts]
        seg_holder = seg_key // n
        pair = pair[order]
        erank = rank[pair]
        # A group's record set as 64-bit words over the holder's record
        # ranks: equal sets, equal rows.
        words = int(erank.max()) // 64 + 1
        wkey = np.repeat(np.arange(starts.size) * words, seglen) + (erank >> 6)
        wst = _starts(wkey)
        bits = np.zeros(starts.size * words, dtype=np.uint64)
        bits[wkey[wst]] = np.bitwise_or.reduceat(
            np.left_shift(np.uint64(1), (erank & 63).astype(np.uint64)), wst
        )
        seq_order, seq_new = _runs(seg_holder, *bits.reshape(-1, words).T)
        seq = np.empty(starts.size, dtype=np.intp)
        seq[seq_order] = np.cumsum(seq_new) - 1
        rep = seq_order[seq_new]  # one group per distinct sequence
        ulen = seglen[rep]
        uend = np.cumsum(ulen)
        seq_rec = arrived[pair][
            np.arange(int(uend[-1])) + np.repeat(starts[rep] - uend + ulen, ulen)
        ].astype(np.int32)
        seq_off = np.zeros(uend.size + 1, dtype=np.int32)
        seq_off[1:] = uend
        # Per-holder views: sends and sequences both come holder-major.
        bounds = np.arange(len(members) + 1)
        send_holder = seg_holder[touch]
        soff = np.searchsorted(send_holder, bounds).tolist()
        uoff = np.searchsorted(seg_holder[rep], bounds)
        receivers = ids32(slab)[seg_key[touch] % n]
        seq_of = (seq[touch] - uoff[send_holder]).astype(np.int32)
        uoff = uoff.tolist()
        for g, i in enumerate(members):
            a, b, c, d = soff[g], soff[g + 1], uoff[g], uoff[g + 1]
            self.nodes[i] = (
                receivers[a:b],
                seq_of[a:b],
                seq_off[c:d + 1] - seq_off[c],
                seq_rec[seq_off[c]:seq_off[d]],
            )
