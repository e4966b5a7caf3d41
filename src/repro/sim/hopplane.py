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
* sends are filed as **chunks of typed arrays**: one :meth:`HopPlane.file`
  call hands over a sender's ``int32`` ``(rows, lens)`` per multicast plus the
  flat ``int32`` receiver column, exactly as the node computed them — no
  copy is ever boxed into a Python int — and closing the round is one
  ``np.concatenate`` per column;
* at delivery the copies are grouped by receiver with one stable sort (a
  radix sort whenever the ids fit 16-bit digits, see :func:`_stable_argsort`),
  so each receiver gets a NumPy array of row ids in **global send order**
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


def _freeze_i32(steps: list[int]) -> np.ndarray:
    """The per-row ``steps`` list as int32 (one entry per *logical* hop)."""
    return np.array(steps, dtype=np.int32)


def _stable_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")``, as radix passes where keys allow.

    NumPy's stable sort is an O(N) radix sort for 16-bit keys and a
    comparison merge sort for wider ones, so non-negative keys below 2**16
    are narrowed to ``uint16`` and keys below 2**32 take two 16-bit LSD
    passes (low digit, then high digit, each stable).  Anything else falls
    through to the plain stable argsort.  Chosen from the data alone.
    """
    if keys.size == 0:
        return np.empty(0, dtype=np.intp)
    if int(keys.min()) >= 0:
        top = int(keys.max())
        if top < 1 << 16:
            return np.argsort(keys.astype(np.uint16), kind="stable")
        if top < 1 << 32:
            low = np.argsort((keys & 0xFFFF).astype(np.uint16), kind="stable")
            high = (keys >> 16).astype(np.uint16)[low]
            return low[np.argsort(high, kind="stable")]
    return np.argsort(keys, kind="stable")


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

    Every send column is one ``int32`` array — the live plane's chunks,
    concatenated at close time; :meth:`edge_columns` is what the round's
    :class:`~repro.sim.network.EdgeLog` copies its hop edges from.

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

    def deliver(self, alive) -> HopDelivery:
        """Group the copies by surviving receiver (stable radix sorts).

        Each receiver's rows are deduplicated to first occurrences here, in
        one vectorised pass for the whole network, instead of per receiving
        node.  The first stable sort groups the copies by receiver and keeps
        arrival order inside each group; a second stable sort of that
        arrangement by row puts the copies of one ``(receiver, row)`` pair
        next to each other, earliest arrival first, so the heads of those
        runs are exactly the copies a per-node ``dict.fromkeys`` would have
        kept.  ``counts`` stays pre-dedup: every copy that arrived was
        received.
        """
        flat = self.flat
        total = int(flat.size)
        by_dst: dict[int, np.ndarray] = {}
        counts: dict[int, int] = {}
        if total:
            order = _stable_argsort(flat)  # stable: keep send order per dst
            dst_sorted = flat[order]
            row_sorted = self.copy_rows()[order]
            del order  # the largest temporary; this method sets the peak RSS
            bounds = np.flatnonzero(
                np.r_[True, dst_sorted[1:] != dst_sorted[:-1], True]
            )
            by_row = _stable_argsort(row_sorted)
            row2 = row_sorted[by_row]
            dst2 = dst_sorted[by_row]
            first = np.empty(total, dtype=bool)
            first[by_row] = np.r_[
                True, (row2[1:] != row2[:-1]) | (dst2[1:] != dst2[:-1])
            ]
            keep = np.flatnonzero(first)
            row_kept = row_sorted[keep]
            kept = np.searchsorted(keep, bounds).tolist()
            bounds_l = bounds.tolist()
            for i, dst in enumerate(dst_sorted[bounds[:-1]].tolist()):
                if dst in alive:
                    by_dst[dst] = row_kept[kept[i]:kept[i + 1]]
                    counts[dst] = bounds_l[i + 1] - bounds_l[i]
        return HopDelivery(self.msgs, self.steps, by_dst, counts, total=total)


class HopPlane:
    """Per-round columnar collector of hop sends (see module docstring).

    ``(reg, msgs, steps)`` — one entry per *logical* hop — are the only
    Python-list state.  The send columns are chunks of ``int32`` arrays, one
    chunk per :meth:`file` call in global send order: a chunk is one
    sender's run of multicasts (``rows`` / ``lens``, one entry each) and
    their receivers (``flat``, one entry per copy).
    """

    __slots__ = (
        "_reg", "_msgs", "_steps", "_srcs", "_rows", "_lens", "_flat", "sends"
    )

    def __init__(self) -> None:
        self._reset()

    def _reset(self) -> None:
        self._reg: dict[int, int] = {}  # (id(msg) << 7 | step) -> row
        self._msgs: list[object] = []
        self._steps: list[int] = []
        self._srcs: list[int] = []  # one sender id per chunk
        self._rows: list[np.ndarray] = []
        self._lens: list[np.ndarray] = []
        self._flat: list[np.ndarray] = []
        #: Multicasts filed so far this round (the length of the frozen
        #: ``srcs`` / ``send_rows`` / ``lens`` columns to come).
        self.sends = 0

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

    def intern_rows(
        self, msgs: list[object], rows: list[int], steps: list[int]
    ) -> np.ndarray:
        """Intern ``(msgs[row], steps[row])`` for every ``row`` of ``rows``.

        Returns an ``int32`` array as long as ``msgs`` holding the assigned
        row id at each listed position and ``-1`` elsewhere — the gather
        table of a whole round's forward keys, built once per round, so
        every node's forwarding pass looks its outgoing rows up with one
        gather.  Interning eagerly changes nothing observable: rows are
        opaque labels into the ``msgs`` / ``steps`` columns, arrival order
        comes from the send sequence, and a row no copy ends up using never
        reaches a receiver.
        """
        out = np.full(len(msgs), -1, dtype=np.int32)
        intern = self.intern
        out[rows] = [intern(msgs[row], steps[row]) for row in rows]
        return out

    def file(
        self, src: int, rows: np.ndarray, lens: np.ndarray, flat: np.ndarray
    ) -> int:
        """File one sender's run of multicasts; returns the copies created.

        ``rows[i]`` (an interned row id) goes to the ``lens[i]`` receivers
        that follow each other in ``flat``; all three are ``int32`` arrays in
        send order, every ``lens[i]`` positive.  The plane keeps the arrays
        themselves until the round closes.
        """
        if not rows.size:
            return 0
        self._srcs.append(src)
        self._rows.append(rows)
        self._lens.append(lens)
        self._flat.append(flat)
        self.sends += rows.size
        return int(flat.size)

    def send(self, src: int, msg: object, step: int, dsts: Sequence[int]) -> int:
        """File one hop multicast; returns the number of copies created."""
        return self.send_batch(src, [(msg, step, dsts)])

    def send_batch(
        self, src: int, items: list[tuple[object, int, Sequence[int]]]
    ) -> int:
        """File many hop multicasts from one sender as one chunk.

        ``(msg, step, dsts)`` items are filed in order; empty receiver lists
        are skipped.  This is the launch path (a handful of fresh requests
        per node per cycle) — forwarding files arrays through :meth:`file`.
        """
        rows: list[int] = []
        lens: list[int] = []
        flat: list[int] = []
        for msg, step, dsts in items:
            if len(dsts):
                rows.append(self.intern(msg, step))
                lens.append(len(dsts))
                flat.extend(dsts)
        return self.file(
            src,
            np.array(rows, dtype=np.int32),
            np.array(lens, dtype=np.int32),
            np.array(flat, dtype=np.int32),
        )

    def _send_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The chunks filed so far as whole ``(rows, lens, flat)`` columns."""
        if not self._rows:
            empty = np.empty(0, dtype=np.int32)
            return empty, empty, empty
        return (
            np.concatenate(self._rows, dtype=np.int32),
            np.concatenate(self._lens, dtype=np.int32),
            np.concatenate(self._flat, dtype=np.int32),
        )

    def pack(
        self,
    ) -> tuple[list[object], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The live round as ``(msgs, steps, rows, lens, flat)``.

        This is the shard uplink's transport tuple: every column but
        ``msgs`` is an ``int32`` array and rides the shared uplink slab as
        such (:mod:`repro.sim.exchange`).  The source column is dropped
        because the master replays each node's plane segment under that
        node's own id while splicing (:mod:`repro.sim.shard`).
        """
        return (self._msgs, _freeze_i32(self._steps), *self._send_columns())

    def close_round(self) -> FrozenHopRound | None:
        """Freeze this round's hop sends; ``None`` when there were none.

        Row interning is per round: copies that fault fates spread over
        several delivery rounds are re-interned when their segments meet
        (:meth:`FrozenHopRound.merged`).
        """
        if not self._msgs:
            return None
        rows, lens, flat = self._send_columns()
        srcs = np.repeat(
            np.array(self._srcs, dtype=np.int32),
            [chunk.size for chunk in self._rows],
        )
        frozen = FrozenHopRound(
            self._msgs, _freeze_i32(self._steps), srcs, rows, lens, flat
        )
        self._reset()
        return frozen
