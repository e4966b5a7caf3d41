"""Columnar transport for in-flight routed hops.

Routed hops are ~90% of all traffic: every holder of a message forwards it to
``r`` random swarm members (mid-route) or to the whole target swarm (final
step), so each *logical* hop — one ``(message, step)`` pair — fans out into
many receiver copies (~9 per logical hop per receiver), and receivers near
each other hold almost the same hop sets.  One object per copy, classified
again by every receiver, would be the dominant round cost.

:class:`HopPlane` therefore stores a round's hop traffic in columns:

* each logical hop is **one row** of a message table (:class:`HopRows`): its
  step and payload object beside the message's own columns — the ``int64``
  launch key that identifies the message
  (:func:`~repro.routing.messages.launch_key`), its final step, payload
  class, sample rank, target and trajectory — so the per-round
  classification is array arithmetic over rows;
* rows arrive **in blocks**: a round's forwarded hops are its first rows
  (:meth:`HopPlane.intern_rows` — each is a delivered row one step on, so
  they are distinct by construction and interning them is a gather), each
  band's launches one block after them (:meth:`HopPlane.append`); only
  hand-filed hops (:meth:`HopPlane.send`) are looked up, by ``(key, step)``;
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
Rows are numbered per round, so the segments due together — a delayed one
from an earlier round beside this round's undisturbed copies — are first
:meth:`~FrozenHopRound.merged`: concatenated oldest first with their rows
re-interned on the ``(launch key, step)`` pair, so a delayed copy still
deduplicates against a fresh copy of the same logical hop: a receiver sees
each ``(message, step)`` at most once per round, whenever its copies were
sent.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

__all__ = ["HopRows", "HopPlane", "FrozenHopRound", "HopDelivery"]


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


#: The array columns of :class:`HopRows` (``msgs`` is a list).
_ARRAYS = ("keys", "steps", "fsteps", "cls", "srank", "target", "traj")


class HopRows:
    """A message table: one entry per plane row (one logical hop).

    ``msgs`` is the list of payload carriers (the routed messages) and every
    other column an array: ``keys`` (``int64`` launch key), ``steps``,
    ``fsteps`` (final step) and ``srank`` (sample rank, ``-1`` for none) as
    ``int32``, ``cls`` (payload class) as ``int8``, ``target`` as ``float64``
    and ``traj``, the ``(rows, lam + 2)`` ``float64`` trajectory matrix (a
    hand-built message with a shorter trajectory is ``NaN``-padded).
    """

    __slots__ = ("keys", "steps", "msgs", "fsteps", "cls", "srank", "target", "traj")

    def __init__(
        self,
        keys: np.ndarray,
        steps: np.ndarray,
        msgs: list[Any],
        fsteps: np.ndarray,
        cls: np.ndarray,
        srank: np.ndarray,
        target: np.ndarray,
        traj: np.ndarray,
    ) -> None:
        self.keys = keys
        self.steps = steps
        self.msgs = msgs
        self.fsteps = fsteps
        self.cls = cls
        self.srank = srank
        self.target = target
        self.traj = traj

    def __len__(self) -> int:
        return len(self.msgs)

    @classmethod
    def of(cls, msgs: Sequence, steps: Sequence[int]) -> "HopRows":
        """The rows of the hops ``(msgs[i], steps[i])``, each message's
        columns read off the object (``key``, ``final_step``,
        ``payload_class``, ``sample_rank``, ``target``, ``trajectory``)."""
        width = max((len(m.trajectory) for m in msgs), default=0)
        traj = np.full((len(msgs), width), np.nan)
        for i, m in enumerate(msgs):
            traj[i, : len(m.trajectory)] = m.trajectory
        return cls(
            np.array([m.key for m in msgs], dtype=np.int64),
            np.array(steps, dtype=np.int32),
            list(msgs),
            np.array([m.final_step for m in msgs], dtype=np.int32),
            np.array([m.payload_class for m in msgs], dtype=np.int8),
            np.array(
                [-1 if m.sample_rank is None else m.sample_rank for m in msgs],
                dtype=np.int32,
            ),
            np.array([m.target for m in msgs], dtype=np.float64),
            traj,
        )

    def take(self, idx: np.ndarray, steps: np.ndarray | None = None) -> "HopRows":
        """Rows ``idx`` (at ``steps``, if given) as a new table."""
        msgs = self.msgs
        return HopRows(
            self.keys[idx],
            self.steps[idx] if steps is None else steps.astype(np.int32, copy=False),
            [msgs[i] for i in idx.tolist()],
            self.fsteps[idx],
            self.cls[idx],
            self.srank[idx],
            self.target[idx],
            self.traj[idx],
        )

    @classmethod
    def concat(cls, parts: Sequence["HopRows"]) -> "HopRows":
        """The tables ``parts`` one after another (a single part as it is;
        every non-empty part has the same trajectory width)."""
        full = [p for p in parts if len(p)]
        if len(full) <= 1:
            return full[0] if full else parts[0]
        arrays = {
            name: np.concatenate([getattr(p, name) for p in full]) for name in _ARRAYS
        }
        return cls(msgs=[m for p in full for m in p.msgs], **arrays)

    @classmethod
    def interned(cls, parts: Sequence["HopRows"]) -> tuple["HopRows", list[np.ndarray]]:
        """The rows of ``parts`` interned on ``(launch key, step)``.

        Returns one table holding each pair once, numbered by first
        occurrence (part after part, row after row), and for every part the
        row id each of its rows became.  One ``np.unique`` over the pairs.
        """
        table = cls.concat(parts)
        if not len(table):
            return table, [np.empty(0, dtype=np.int32) for _ in parts]
        pairs = np.stack([table.keys, table.steps.astype(np.int64)], axis=1)
        _, first, inverse = np.unique(
            pairs, axis=0, return_index=True, return_inverse=True
        )
        order = np.argsort(first)
        rank = np.empty(order.size, dtype=np.int32)
        rank[order] = np.arange(order.size, dtype=np.int32)
        ids = rank[inverse.reshape(-1)]
        bounds = np.cumsum([0] + [len(p) for p in parts]).tolist()
        return table.take(first[order]), [ids[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


#: The empty message table.
_NO_ROWS = HopRows.of([], [])


class HopDelivery:
    """One round's hop arrivals, grouped by receiver.

    ``table`` is the shared message table (row id -> logical hop; ``msgs``
    and ``steps`` are two of its columns); ``rows`` maps each surviving
    receiver to its row-id array in arrival order, already deduplicated to
    the first occurrence of each row (one vectorised pass at delivery).
    ``counts`` keeps the pre-dedup copy count per receiver — what the
    congestion metrics count as received.  ``cache`` is scratch space where
    the protocol layer memoises derived per-row columns so classification
    runs once per round, not once per receiver.
    """

    __slots__ = ("table", "rows", "counts", "total", "cache")

    def __init__(
        self,
        table: HopRows,
        rows: dict[int, np.ndarray],
        counts: dict[int, int],
        total: int,
    ) -> None:
        self.table = table
        self.rows = rows
        self.counts = counts
        self.total = total
        self.cache: dict[object, object] = {}

    @property
    def msgs(self) -> list[Any]:
        return self.table.msgs

    @property
    def steps(self) -> np.ndarray:
        return self.table.steps


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

    __slots__ = ("table", "srcs", "send_rows", "lens", "flat")

    def __init__(
        self,
        table: HopRows,
        srcs: np.ndarray | None,
        send_rows: np.ndarray,
        lens: np.ndarray | None,
        flat: np.ndarray,
    ) -> None:
        self.table = table
        self.srcs = srcs
        self.send_rows = send_rows
        self.lens = lens
        self.flat = flat

    @property
    def msgs(self) -> list[Any]:
        return self.table.msgs

    @property
    def steps(self) -> np.ndarray:
        return self.table.steps

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
        repeated index is a duplicated copy).  Shares the message table."""
        return FrozenHopRound(
            self.table, None, self.copy_rows()[copies], None, self.flat[copies]
        )

    @classmethod
    def merged(cls, segments: Sequence["FrozenHopRound"]) -> "FrozenHopRound":
        """One delivery round out of the segments due together, oldest first.

        Each segment numbers its rows within the round that sent it; the
        rows a segment still uses are re-interned here on their ``(launch
        key, step)`` pair (:meth:`HopRows.interned`), so copies of one logical hop
        sent in different rounds share a row and deduplicate per receiver.
        """
        seg_rows = [seg.copy_rows() for seg in segments]
        used = []
        for seg, rows in zip(segments, seg_rows):
            mark = np.zeros(len(seg.table), dtype=bool)
            mark[rows] = True
            used.append(np.flatnonzero(mark))
        table, ids = HopRows.interned(
            [seg.table.take(u) for seg, u in zip(segments, used)]
        )
        send_rows = []
        for seg, rows, u, new in zip(segments, seg_rows, used, ids):
            remap = np.zeros(len(seg.table), dtype=np.int32)
            remap[u] = new
            send_rows.append(remap[rows])
        return cls(
            table,
            None,
            np.concatenate(send_rows),
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
        return HopDelivery(self.table, by_dst, counts, total=total)


class HopPlane:
    """Per-round columnar collector of hop sends (see module docstring).

    The message table comes in blocks (:class:`HopRows`); hand-filed rows
    wait in two lists until the next block or the close.  The send columns
    are chunks of ``int32`` arrays, one chunk per :meth:`file` call in global
    send order: a chunk is one sender's run of multicasts (``rows`` /
    ``lens``, one entry each) and their receivers (``flat``, one entry per
    copy).
    """

    __slots__ = (
        "_blocks", "_count", "_reg", "_hand_msgs", "_hand_steps",
        "_srcs", "_rows", "_lens", "_flat", "sends",
    )

    def __init__(self) -> None:
        self._reset()

    def _reset(self) -> None:
        self._blocks: list[HopRows] = []
        self._count = 0  # rows so far, hand-filed ones included
        self._reg: dict[tuple[int, int], int] = {}  # hand-filed (key, step) -> row
        self._hand_msgs: list[object] = []
        self._hand_steps: list[int] = []
        self._srcs: list[int] = []  # one sender id per chunk
        self._rows: list[np.ndarray] = []
        self._lens: list[np.ndarray] = []
        self._flat: list[np.ndarray] = []
        #: Multicasts filed so far this round (the length of the frozen
        #: ``srcs`` / ``send_rows`` / ``lens`` columns to come).
        self.sends = 0

    def intern(self, msg: Any, step: int) -> int:
        """The row id of the hand-filed hop ``(msg, step)``, assigned on first
        use and keyed on ``(msg.key, step)`` — the message's launch key.

        Blocks (:meth:`intern_rows`, :meth:`append`) are never looked up
        here: a round's forwards and launches are distinct by construction.
        """
        reg_key = (msg.key, step)
        row = self._reg.get(reg_key)
        if row is None:
            row = self._reg[reg_key] = self._count
            self._count += 1
            self._hand_msgs.append(msg)
            self._hand_steps.append(step)
        return row

    def _flush(self) -> None:
        """Move the hand-filed rows into a block of their own."""
        if self._hand_msgs:
            self._blocks.append(HopRows.of(self._hand_msgs, self._hand_steps))
            self._hand_msgs = []
            self._hand_steps = []

    def intern_rows(
        self, table: HopRows, rows: np.ndarray, steps: np.ndarray
    ) -> np.ndarray:
        """File rows ``rows`` of ``table``, at ``steps``, as rows ``0 … F−1``.

        These are a round's forwarded hops: each is a distinct delivered row
        handed on at one step, so they need no lookup — interning them is a
        gather, provided they come first.  Raises :class:`RuntimeError`
        when the plane already holds a row.  Returns an ``int32`` array as
        long as ``table`` holding the assigned row id at each listed
        position and ``-1`` elsewhere — the gather table every node's
        forwarding pass looks its outgoing rows up in.  Rows are opaque
        labels into the message table, arrival order comes from the send
        sequence, and a row no copy ends up using never reaches a receiver.
        """
        if self._count:
            raise RuntimeError(
                "a round's forwarded hops must be its first plane rows; "
                f"{self._count} rows were filed before them"
            )
        out = np.full(len(table), -1, dtype=np.int32)
        out[rows] = np.arange(rows.size, dtype=np.int32)
        self.append(table.take(rows, steps))
        return out

    def append(self, table: HopRows) -> int:
        """Add ``table``'s rows — hops the plane holds no row of — after the
        current ones; returns the row id of the first."""
        self._flush()
        first = self._count
        if len(table):
            self._blocks.append(table)
            self._count += len(table)
        return first

    def file(
        self, src: int, rows: np.ndarray, lens: np.ndarray, flat: np.ndarray
    ) -> int:
        """File one sender's run of multicasts; returns the copies created.

        ``rows[i]`` (a row id) goes to the ``lens[i]`` receivers that follow
        each other in ``flat``; all three are ``int32`` arrays in send order,
        every ``lens[i]`` positive.  The plane keeps the arrays themselves
        until the round closes.
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
        """File many hand-built hop multicasts from one sender as one chunk.

        ``(msg, step, dsts)`` items are filed in order; empty receiver lists
        are skipped.  The protocol's own hops go through :meth:`file`.
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

    def _table(self) -> HopRows:
        """The message table so far as one :class:`HopRows`."""
        self._flush()
        return HopRows.concat(self._blocks) if self._blocks else _NO_ROWS

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

    def pack(self) -> tuple[HopRows, np.ndarray, np.ndarray, np.ndarray]:
        """The live round as ``(table, rows, lens, flat)``.

        This is the shard uplink's transport tuple: the message table's
        columns and the ``int32`` send columns ride the shared uplink slab
        as arrays (:mod:`repro.sim.exchange`).  The source column is dropped
        because the master replays each node's plane segment under that
        node's own id while splicing (:mod:`repro.sim.shard`).
        """
        return (self._table(), *self._send_columns())

    def close_round(self) -> FrozenHopRound | None:
        """Freeze this round's hop sends; ``None`` when there were none.

        Rows are numbered per round: copies that fault fates spread over
        several delivery rounds are re-interned when their segments meet
        (:meth:`FrozenHopRound.merged`).
        """
        if not self._rows:
            self._reset()
            return None
        table = self._table()
        rows, lens, flat = self._send_columns()
        srcs = np.repeat(
            np.array(self._srcs, dtype=np.int32),
            [chunk.size for chunk in self._rows],
        )
        frozen = FrozenHopRound(table, srcs, rows, lens, flat)
        self._reset()
        return frozen
