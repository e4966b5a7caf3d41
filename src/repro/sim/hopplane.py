"""Columnar transport for in-flight routed hops.

Routed hops are ~90% of all traffic: every holder of a message forwards it to
``r`` random swarm members (mid-route) or to the whole target swarm (final
step), so each *logical* hop — one ``(RoutedMessage, step)`` pair — fans out
into many receiver copies (~9 per logical hop per receiver), and receivers
near each other hold almost the same hop sets.  One object per copy,
classified again by every receiver, would be the dominant round cost.

:class:`HopPlane` therefore stores a round's hop traffic in columns:

* each logical hop is **interned once per round** — the first send of a
  ``(message identity, step)`` pair assigns it a dense row id; the message
  object and step live in per-row columns (one entry per *logical* hop);
* sends append ``(src, row, receiver-count)`` plus a flat receiver list —
  nothing is allocated per copy;
* at delivery the copies are grouped by receiver with one stable argsort, so
  each receiver gets a NumPy array of row ids in **global send order**
  (nodes in sorted id order, each node's sends in issue order).  Hops and
  inbox messages are separate streams; neither's order depends on the other;
* per-round classification work (next step, final-step test, lookup point)
  happens **once per logical hop** for the whole network — receivers share
  the columns through :attr:`HopDelivery.cache` and merely gather their row
  subset — instead of once per copy per receiver.

The plane carries fault plans too.  Fates arrive as per-copy columns at
``close_send_phase``; :meth:`FrozenHopRound.cut` keeps the copies that share
one delivery latency as a *segment* (dropped copies gone, duplicates
adjacent, send order kept) and the network queues one segment per latency.
Rows are interned per round, so the segments due together — a delayed one
from an earlier round beside this round's undisturbed copies — are first
:meth:`~FrozenHopRound.merged`: concatenated oldest first with their rows
re-interned on the same ``(message identity, step)`` key, so a delayed copy
still deduplicates against a fresh copy of the same logical hop: a receiver
sees each ``(message identity, step)`` at most once per round, whenever its
copies were sent.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["HopPlane", "FrozenHopRound", "HopDelivery"]


def _freeze_i32(col: list[int]) -> np.ndarray:
    """One-shot int32 conversion of a live append column.

    The live plane appends into plain Python lists — extending a list with a
    list is a pointer memcpy, an order of magnitude cheaper per call than
    ``array('i').extend``'s per-item ``__index__`` conversions on the hot
    forwarding paths — and pays the machine-typing cost exactly once here,
    as a single C-level conversion at freeze time.
    """
    return np.array(col, dtype=np.int32)


class HopDelivery:
    """One round's hop arrivals, grouped by receiver.

    ``msgs``/``steps`` are the shared per-row columns (row id -> logical
    hop); ``rows`` maps each surviving receiver to its row-id array in
    arrival order, already deduplicated to the first occurrence of each
    ``(message identity, step)`` (one vectorised pass at delivery).
    ``counts`` keeps the pre-dedup copy count per receiver — what the
    congestion metrics count as received.  ``cache`` is scratch space where
    the protocol layer memoises derived per-row columns so classification
    runs once per round, not once per receiver.
    """

    __slots__ = ("msgs", "steps", "rows", "counts", "total", "cache")

    def __init__(
        self,
        msgs: list[object],
        steps: np.ndarray,
        rows: dict[int, np.ndarray],
        counts: dict[int, int],
        total: int,
    ) -> None:
        self.msgs = msgs
        self.steps = steps
        self.rows = rows
        self.counts = counts
        self.total = total
        self.cache: dict[object, object] = {}


class FrozenHopRound:
    """The immutable hop traffic of one closed send phase.

    Columns are frozen into NumPy arrays at close time: the append lists the
    live plane grew are released immediately, so a pending round (and the
    trace's :class:`~repro.sim.network.EdgeLog`, which shares this object)
    holds 8-byte machine ints instead of Python list slots plus boxed ints.

    ``srcs`` / ``send_rows`` / ``lens`` hold one entry per multicast and
    ``flat`` one per receiver copy.  A *segment* (:meth:`cut`, :meth:`merged`)
    is the same thing already expanded: ``send_rows`` is per copy, ``lens``
    is ``None``, and there are no sources — its edges were logged from the
    round it was cut from.
    """

    __slots__ = ("msgs", "steps", "srcs", "send_rows", "lens", "flat")

    def __init__(
        self,
        msgs: list[object],
        steps: np.ndarray,
        srcs: np.ndarray | None,
        send_rows: np.ndarray,
        lens: np.ndarray | None,
        flat: np.ndarray,
    ) -> None:
        self.msgs = msgs
        self.steps = steps
        self.srcs = srcs
        self.send_rows = send_rows
        self.lens = lens
        self.flat = flat

    def copies(self) -> int:
        """Total receiver copies frozen in this round."""
        return int(self.flat.size)

    def copy_rows(self) -> np.ndarray:
        """The row id of every receiver copy, in send order."""
        if self.lens is None:
            return self.send_rows
        return np.repeat(self.send_rows, self.lens)

    def cut(self, copies: np.ndarray) -> "FrozenHopRound":
        """The segment holding ``copies`` only (ascending copy indices; a
        repeated index is a duplicated copy).  Shares the row columns."""
        return FrozenHopRound(
            self.msgs, self.steps, None, self.copy_rows()[copies], None, self.flat[copies]
        )

    @classmethod
    def merged(cls, segments: Sequence["FrozenHopRound"]) -> "FrozenHopRound":
        """One delivery round out of the segments due together, oldest first.

        Each segment numbers its rows within the round that sent it; the
        rows a segment still uses are re-interned here on the plane's
        ``(message identity, step)`` key, so copies of one logical hop sent
        in different rounds share a row and deduplicate per receiver.
        """
        plane = HopPlane()
        rows: list[np.ndarray] = []
        for seg in segments:
            seg_rows = seg.copy_rows()
            used = np.zeros(len(seg.msgs), dtype=bool)
            used[seg_rows] = True
            remap = np.zeros(len(seg.msgs), dtype=np.int32)
            seg_msgs = seg.msgs
            seg_steps = seg.steps.tolist()
            for i in np.flatnonzero(used).tolist():
                remap[i] = plane.intern(seg_msgs[i], seg_steps[i])
            rows.append(remap[seg_rows])
        return cls(
            plane._msgs,
            _freeze_i32(plane._steps),
            None,
            np.concatenate(rows),
            None,
            np.concatenate([seg.flat for seg in segments]),
        )

    def edge_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The round's hop edges as ``(srcs, dsts)`` per-copy id arrays."""
        return np.repeat(self.srcs, self.lens), self.flat

    def iter_edges(self):
        """Yield ``(src, dst)`` per copy, in send order (EdgeLog expansion)."""
        srcs, dsts = self.edge_columns()
        return zip(srcs.tolist(), dsts.tolist())

    def deliver(self, alive) -> HopDelivery:
        """Group the copies by surviving receiver (one stable argsort).

        Each receiver's rows are deduplicated to first occurrences here, in
        one vectorised pass for the whole network, instead of per receiving
        node: the stable sort keeps arrival order inside a segment, and the
        ``(receiver, row)`` unique-index mask keeps exactly the copies a
        per-node ``dict.fromkeys`` would have kept.  ``counts`` stays
        pre-dedup: every copy that arrived was received.
        """
        flat = self.flat
        rows = self.copy_rows()
        order = np.argsort(flat, kind="stable")  # stable: keep send order per dst
        dst_sorted = flat[order]
        row_sorted = rows[order]
        if dst_sorted.size:
            starts = np.flatnonzero(np.r_[True, dst_sorted[1:] != dst_sorted[:-1]])
            ends = np.r_[starts[1:], dst_sorted.size]
            receivers = dst_sorted[starts].tolist()
            key = (dst_sorted.astype(np.int64) << 32) | row_sorted
            uniq, first = np.unique(key, return_index=True)
            if uniq.size != key.size:
                mask = np.zeros(key.size, dtype=bool)
                mask[first] = True
                row_kept = row_sorted[mask]
                csum0 = np.r_[0, np.cumsum(mask)]
                kept_starts = csum0[starts].tolist()
                kept_ends = csum0[ends].tolist()
            else:
                row_kept = row_sorted
                kept_starts = starts.tolist()
                kept_ends = ends.tolist()
            starts_l = starts.tolist()
            ends_l = ends.tolist()
        else:
            receivers = []
            starts_l = ends_l = kept_starts = kept_ends = []
            row_kept = row_sorted
        by_dst: dict[int, np.ndarray] = {}
        counts: dict[int, int] = {}
        for i, dst in enumerate(receivers):
            if dst in alive:
                by_dst[dst] = row_kept[kept_starts[i]:kept_ends[i]]
                counts[dst] = ends_l[i] - starts_l[i]
        return HopDelivery(
            self.msgs,
            self.steps,
            by_dst,
            counts,
            total=int(flat.size),
        )


class HopPlane:
    """Per-round columnar collector of hop sends (see module docstring)."""

    __slots__ = ("_reg", "_msgs", "_steps", "_srcs", "_rows", "_lens", "_flat")

    def __init__(self) -> None:
        self._reset()

    def _reset(self) -> None:
        self._reg: dict[int, int] = {}  # (id(msg) << 7 | step) -> row
        self._msgs: list[object] = []
        self._steps: list[int] = []
        # Send columns are plain lists while the round is live: list appends
        # and list-with-list extends are pointer copies (no per-item int
        # conversion), and the freeze converts each column to int32 once
        # (see _freeze_i32).
        self._srcs: list[int] = []
        self._rows: list[int] = []
        self._lens: list[int] = []
        self._flat: list[int] = []

    def intern(self, msg: object, step: int) -> int:
        """The row id of the logical hop ``(msg, step)``, assigned on first use.

        Message objects are shared per logical request with once-only
        construction, so identity equals the documented msg_id dedup.
        """
        # Pack (identity, step) into one int: cheaper to hash than a tuple.
        # Steps are bounded by final_step = 2*lam + 2 << 128, so the low
        # 7 bits never collide across message identities.
        # repro: allow(id-ordering): identity interning only — rows are
        # numbered by first-append order; the id value never orders anything.
        key = (id(msg) << 7) | step
        row = self._reg.get(key)
        if row is None:
            row = len(self._msgs)
            self._reg[key] = row
            self._msgs.append(msg)
            self._steps.append(step)
        return row

    def send(self, src: int, msg: object, step: int, dsts: Sequence[int]) -> int:
        """File one hop multicast; returns the number of copies created.

        ``dsts`` must be a plain-``int`` sequence (the node hot paths already
        produce those).
        """
        n = len(dsts)
        if n == 0:
            return 0
        self._srcs.append(src)
        self._rows.append(self.intern(msg, step))
        self._lens.append(n)
        self._flat.extend(dsts)
        return n

    def send_batch(
        self, src: int, items: list[tuple[object, int, Sequence[int]]]
    ) -> int:
        """File many hop multicasts from one sender in one call.

        Equivalent to :meth:`send` per ``(msg, step, dsts)`` item in order;
        the node forwarding loops issue one multicast per held hop, so the
        per-call overhead this folds away is the dominant remaining cost.
        """
        reg = self._reg
        reg_get = reg.get
        msgs = self._msgs
        steps = self._steps
        srcs = self._srcs
        rows = self._rows
        lens = self._lens
        flat = self._flat
        total = 0
        for msg, step, dsts in items:
            n = len(dsts)
            if n == 0:
                continue
            # repro: allow(id-ordering): identity interning only — rows are
            # numbered by first-append order; the id value never orders anything.
            key = (id(msg) << 7) | step
            row = reg_get(key)
            if row is None:
                row = len(msgs)
                reg[key] = row
                msgs.append(msg)
                steps.append(step)
            srcs.append(src)
            rows.append(row)
            lens.append(n)
            flat.extend(dsts)
            total += n
        return total

    def columns(
        self,
    ) -> tuple[
        dict[int, int],
        list[object],
        list[int],
        list[int],
        list[int],
        list[int],
        list[int],
    ]:
        """Low-level append targets ``(reg, msgs, steps, srcs, rows, lens,
        flat)`` for fused hot loops.

        The protocol forwarding loops run once per held hop per node — the
        innermost cost of a round — so they intern and append *inline*
        instead of paying a method call per hop (see :meth:`send` for the
        semantics they must reproduce: intern on ``id(msg) << 7 | step``,
        append one ``(src, row, len)`` triple plus the flat receivers, and
        report the copy total to ``Network.count_hop_sends``).
        """
        return (
            self._reg,
            self._msgs,
            self._steps,
            self._srcs,
            self._rows,
            self._lens,
            self._flat,
        )

    def pack(
        self,
    ) -> tuple[list[object], list[int], list[int], list[int], list[int]]:
        """The live columns as ``(msgs, steps, rows, lens, flat)``.

        This is the shard uplink's transport tuple: the source column is
        dropped because the master replays each node's plane segment under
        that node's own id while splicing (:mod:`repro.sim.shard`), and the
        int columns ride the shared uplink slab as int32 arrays
        (:mod:`repro.sim.exchange`).
        """
        return (self._msgs, self._steps, self._rows, self._lens, self._flat)

    def close_round(self) -> FrozenHopRound | None:
        """Freeze this round's hop sends; ``None`` when there were none.

        Row interning is per round: copies that fault fates spread over
        several delivery rounds are re-interned when their segments meet
        (:meth:`FrozenHopRound.merged`).
        """
        if not self._msgs:
            return None
        frozen = FrozenHopRound(
            self._msgs,
            _freeze_i32(self._steps),
            _freeze_i32(self._srcs),
            _freeze_i32(self._rows),
            _freeze_i32(self._lens),
            _freeze_i32(self._flat),
        )
        self._reset()
        return frozen
