"""Message transport with the paper's delivery semantics.

* A message sent in round ``t`` is received at the start of round ``t+1`` —
  if and only if the receiver is still in the network (churned-out nodes
  "do not receive any messages and leave immediately", while messages *they*
  sent in ``t-1`` are still delivered).
* Sending a message implicitly creates the directed edge ``(src, dst)`` in
  ``G_t``; the per-round edge sets are what the ``a``-late adversary observes.

The round boundary is split in two to honour these semantics:
``close_send_phase`` (end of round ``t``) freezes ``E_t`` while the messages
stay pending; ``deliver`` (start of round ``t+1``, *after* churn is applied)
hands each surviving receiver its inbox.

**Two lanes, one order.**  Message objects travel the *object lane*: three
parallel columns ``(srcs, dsts, msgs)``, one entry per receiver copy, in
global issue order — :meth:`Network.send` and
:meth:`Network.send_singles_batch` both append to them, so an inbox lists
its entries in the order they were issued whatever call issued them (one
payload object sent to several receivers is shared by its copies, not
copied).  **Routed hops** — the bulk of all traffic — travel the *hop
lane*: nodes file them through :meth:`Network.file_hops` into the network's
:class:`~repro.sim.hopplane.HopPlane` and receive them as shared row arrays
(:attr:`Network.hop_delivery`), never in an inbox.  Copies of both
lanes are counted alike, so edges, congestion and ``has_pending`` cover both.

**One** ``E_t``.  ``close_send_phase`` freezes the round's edges once, as an
:class:`EdgeLog`: the ``(src, dst)`` of every copy as two ``int32`` columns
in send order — the object lane, then the hop copies.  That pair is what the
fault hook draws fates over.  The graph trace retains the same log
*reduced* (:meth:`EdgeLog.reduced`: one row per distinct pair in
first-occurrence order, with its copy count), and every reader (adversary
view, health monitor, fingerprints) queries that; the per-copy columns die
with the round.

**Fault hook.**  An optional :attr:`Network.fault_hook` (duck-typed to
:class:`repro.faults.injector.FaultInjector`) is consulted once per round at
``close_send_phase``: it gets the frozen round as the edge log's columns and
returns the round's *fates* as ``(copy, latency)`` columns, one entry per
pending copy (a dropped message has none, a duplicated one several,
``latency`` is 1 for normal delivery and ``1 + k`` for a delayed copy).  The
pending queues are latency buckets holding one segment per round and lane —
an object-lane column triple, a :meth:`~repro.sim.hopplane.FrozenHopRound.cut`
of the hop copies — and ``deliver`` merges the hop segments due together so a
delayed copy deduplicates against a fresh one of the same logical hop.
Churn is still checked at delivery time, so a node that leaves while a
delayed message is in flight never receives it.  Edges are frozen *before*
the hook runs — a dropped message still created its edge (the adversary
observes send attempts, the environment eats payloads).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator, Protocol

import numpy as np

from repro.sim.hopplane import FrozenHopRound, HopDelivery, HopPlane

__all__ = ["Network", "Inbox", "FaultHook", "EdgeLog"]

# An inbox is a list of (sender id, message object) pairs.
Inbox = list[tuple[int, object]]

# One round's object-lane traffic (or the part of it sharing a latency):
# parallel ``(srcs, dsts, msgs)`` lists, one entry per receiver copy.
ObjectSegment = tuple[list[int], list[int], list[object]]


def _pop_due(buckets: dict[int, list]) -> tuple[list, dict[int, list]]:
    """Take bucket 1 out of latency ``buckets``; the rest move one step closer."""
    due = buckets.pop(1, [])
    return due, {k - 1: v for k, v in buckets.items()} if buckets else buckets


class FaultHook(Protocol):  # pragma: no cover - typing aid only
    """What the network needs from a fault injector."""

    @property
    def message_faults_active(self) -> bool: ...

    def message_fates_batch(
        self, t: int, srcs: np.ndarray, dsts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]: ...


#: Floor of the dense-table budget in :meth:`EdgeLog.reduced`: a round may
#: always spend this many cells, however few copies it has.
_TABLE_FLOOR = 1 << 16
#: Copies keyed per pass over the table (1 MB of keys): the temporaries of a
#: pass then come out of the allocator's warm pool instead of fresh pages.
_CHUNK = 1 << 17


class EdgeLog:
    """The edge set ``E_t`` of one round as frozen ``int32`` columns.

    A log comes in one of two shapes of the same layout.  Fresh from
    :meth:`Network.close_send_phase` it holds one ``(src, dst)`` row per
    *copy*, in send order — what the fault hook draws fates over.
    :meth:`reduced` is what the graph trace retains: one row per *distinct*
    pair, in order of first occurrence, plus an ``int32`` multiplicity
    column — a round has far more copies than edges (Lemma 24 puts
    Θ(log³ n) copies on every node; 45 : 1 at n=128).

    This class is the only place that knows the layout, and both shapes read
    alike: an immutable list of plain-``int`` pairs that speaks in *copies*
    (``len`` is the copy count and iteration yields a pair once per copy —
    a reduced log groups the copies of a pair at its first occurrence;
    indexing, ``in``, ``==`` against a list or another log; each computed
    from the columns on demand and never cached: the trace retains several
    rounds, and a list of pair tuples per round would dominate peak RSS at
    scale), and the readers' questions are array operations over the rows.
    Node ids are non-negative.
    """

    __slots__ = ("_srcs", "_dsts", "_counts")

    def __init__(
        self, srcs: np.ndarray, dsts: np.ndarray, counts: np.ndarray | None = None
    ) -> None:
        self._srcs = srcs
        self._dsts = dsts
        self._counts = counts  # copies per row; ``None``: one copy each

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "EdgeLog":
        """The per-copy log of a hand-written ``(src, dst)`` sequence."""
        arr = np.array(list(pairs), dtype=np.int32).reshape(-1, 2)
        return cls(np.ascontiguousarray(arr[:, 0]), np.ascontiguousarray(arr[:, 1]))

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(srcs, dsts)`` rows as stored: one per copy in send order,
        or one per distinct pair in first-occurrence order once reduced."""
        return self._srcs, self._dsts

    @property
    def counts(self) -> np.ndarray | None:
        """Copies per row of a reduced log; ``None`` on a per-copy log."""
        return self._counts

    def reduced(self) -> "EdgeLog":
        """This log as distinct pairs with multiplicities (``self`` if it
        already is one).

        O(copies), no sort over them: the pairs are counted in a dense
        ``m × m`` table (``m`` = largest id + 1) with ``bincount``; the
        columns are keyed back to front, so the plain scatter of positions
        leaves each pair's *first* occurrence standing, and only the
        occupied cells are sorted by it.  The table is used while it stays
        within a small multiple of the copy count — read off the columns,
        not a setting.  Ids far above the number of distinct ones (a long
        churn run keeps minting) are ranked first; ids too sparse even for
        the rank table fall back to ``np.unique`` over a 64-bit key, so the
        transient memory is O(copies) for any non-negative ``int32`` ids.
        """
        if self._counts is not None:
            return self
        srcs, dsts = self._srcs, self._dsts
        if not srcs.size:
            return EdgeLog(srcs, dsts, np.empty(0, dtype=np.int32))
        budget = max(4 * srcs.size, _TABLE_FLOOR)
        m = int(max(srcs.max(), dsts.max())) + 1
        ids = None
        if m * m > budget and m <= budget:
            present = np.zeros(m, dtype=bool)
            present[srcs] = True
            present[dsts] = True
            ids = np.flatnonzero(present)
            rank = np.empty(m, dtype=np.int32)
            rank[ids] = np.arange(ids.size, dtype=np.int32)
            srcs, dsts = rank.take(srcs), rank.take(dsts)
            m = ids.size
        if m * m <= budget:
            table = np.zeros(m * m, dtype=np.intp)
            first = np.empty(m * m, dtype=np.int32)
            # Back to front in chunks at least as long as the table, so the
            # key and position temporaries stay small and an earlier chunk
            # overwrites a later one's positions.
            step = max(m * m, _CHUNK)
            for hi in range(srcs.size, 0, -step):
                lo = max(hi - step, 0)
                key = np.multiply(srcs[lo:hi][::-1], m, dtype=np.intp)
                key += dsts[lo:hi][::-1]
                table += np.bincount(key, minlength=table.size)
                first[key] = np.arange(hi - 1, lo - 1, -1, dtype=np.int32)
            cells = np.flatnonzero(table)
            cells = cells[np.argsort(first[cells])]
            counts = table[cells]
            srcs, dsts = np.divmod(cells, m)
        else:
            key = (srcs.astype(np.int64) << 32) | dsts
            key, first, counts = np.unique(key, return_index=True, return_counts=True)
            order = np.argsort(first)
            key, counts = key[order], counts[order]
            srcs, dsts = key >> 32, key & 0xFFFFFFFF
        if ids is not None:
            srcs, dsts = ids[srcs], ids[dsts]
        return EdgeLog(
            srcs.astype(np.int32), dsts.astype(np.int32), counts.astype(np.int32)
        )

    def _copies(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-copy ``(srcs, dsts)``: the rows, each repeated by its count."""
        if self._counts is None:
            return self._srcs, self._dsts
        return np.repeat(self._srcs, self._counts), np.repeat(self._dsts, self._counts)

    # Queries ----------------------------------------------------------

    def out_neighbors(self, v: int) -> set[int]:
        """Nodes ``v`` sent to."""
        return set(self._dsts[self._srcs == v].tolist())

    def contacts_of(self, v: int) -> set[int]:
        """Nodes that sent to ``v`` or were sent to by ``v``."""
        return self.out_neighbors(v) | set(self._srcs[self._dsts == v].tolist())

    def degrees(self) -> dict[int, int]:
        """Copies sent plus copies addressed, per node that has any.

        Keys come in order of first appearance in the interleaved
        ``src, dst, src, dst, ...`` stream — a stable sort over the table
        breaks ties by it, so the order is behaviour.  (An id first appears
        at the first occurrence of the first pair containing it, so the
        order is the same over the rows of either shape.)
        """
        srcs, dsts = self._srcs, self._dsts
        if not srcs.size:
            return {}
        stream = np.empty(2 * srcs.size, dtype=np.int32)
        stream[0::2] = srcs
        stream[1::2] = dsts
        if self._counts is None:
            counts = np.bincount(stream)
        else:
            # Float weights are exact far past any copy count (2**53).
            weights = np.repeat(self._counts, 2)
            counts = np.bincount(stream, weights=weights).astype(np.int64)
        # Scattering positions in reverse leaves each id's first one standing.
        first = np.empty(counts.size, dtype=np.int64)
        first[stream[::-1]] = np.arange(stream.size - 1, -1, -1)
        ids = np.flatnonzero(counts)
        ids = ids[np.argsort(first[ids])]
        return dict(zip(ids.tolist(), counts[ids].tolist()))

    def pairs_among(self, ids: Iterable[int]) -> list[tuple[int, int]]:
        """The distinct ``(src, dst)`` pairs with both ends in ``ids``, sorted."""
        srcs, dsts = self._srcs, self._dsts
        wanted = np.fromiter(ids, dtype=np.int64)
        keep = np.isin(srcs, wanted) & np.isin(dsts, wanted)
        keys = np.unique((srcs[keep].astype(np.int64) << 32) | dsts[keep])
        return list(zip((keys >> 32).tolist(), (keys & 0xFFFFFFFF).tolist()))

    # Read-only sequence of plain-int pairs, one per copy ---------------

    def __iter__(self) -> Iterator[tuple[int, int]]:
        srcs, dsts = self._copies()
        return zip(srcs.tolist(), dsts.tolist())

    def __len__(self) -> int:
        counts = self._counts
        return int(self._srcs.size if counts is None else counts.sum())

    def __getitem__(self, i):
        return list(self)[i]

    def __contains__(self, edge) -> bool:
        src, dst = edge
        return bool(np.any((self._srcs == src) & (self._dsts == dst)))

    def __eq__(self, other) -> bool:
        if isinstance(other, EdgeLog):
            (srcs, dsts), (o_srcs, o_dsts) = self._copies(), other._copies()
            return np.array_equal(srcs, o_srcs) and np.array_equal(dsts, o_dsts)
        return list(self) == other

    def __repr__(self) -> str:
        return f"EdgeLog({list(self)!r})"


class Network:
    """Collects sends during a round and delivers them the next round(s)."""

    def __init__(self) -> None:
        # The open round's object lane: parallel columns in issue order.
        self._srcs: list[int] = []
        self._dsts: list[int] = []
        self._msgs: list[object] = []
        # Pending queues, bucketed by delivery countdown: bucket ``k`` is
        # delivered at the ``k``-th next ``deliver`` call (normal traffic
        # lives in bucket 1; only faults populate higher buckets).  A bucket
        # lists one segment per round that filed into it, oldest first.
        self._pending: dict[int, list[ObjectSegment]] = {}
        self._pending_hops: dict[int, list[FrozenHopRound]] = {}
        self._sent_counts: defaultdict[int, int] = defaultdict(int)
        # Running count of undelivered receiver-copies across the open round
        # and every bucket; ``has_pending`` is O(1) because of it.
        self._pending_count = 0
        #: Optional fault injector (see module docstring); ``None`` = the
        #: paper's perfectly reliable synchronous network.
        self.fault_hook: FaultHook | None = None
        #: Columnar transport for routed hops (:mod:`repro.sim.hopplane`):
        #: protocols file hops via :meth:`file_hops` and receive them as
        #: shared row arrays (:attr:`hop_delivery`), never in an inbox.
        self.plane = HopPlane()
        #: The hop arrivals of the latest :meth:`deliver` call (or ``None``).
        self.hop_delivery: HopDelivery | None = None
        self._round = 0  # rounds closed so far (the ``t`` passed to the hook)

    # ------------------------------------------------------------------
    # Sending (called by nodes during their compute phase)
    # ------------------------------------------------------------------

    def send(self, src: int, dst: int, msg: object) -> None:
        """Send one message; creates edge ``(src, dst)`` this round."""
        self._srcs.append(src)
        self._dsts.append(int(dst))
        self._msgs.append(msg)
        self._count(src, 1)

    def send_singles_batch(
        self, src: int, items: list[tuple[int, object]]
    ) -> None:
        """File many single-receiver sends from one sender in one call.

        Equivalent to :meth:`send` per ``(dst, msg)`` item in order;
        receivers must already be plain ints.  The matchmaking and join-
        rebroadcast paths send one *distinct* payload per receiver — tens of
        thousands of singles per round at scale — so the per-call counter
        updates are worth folding away.
        """
        self._srcs.extend([src] * len(items))
        self._dsts.extend([dst for dst, _ in items])
        self._msgs.extend([msg for _, msg in items])
        self._count(src, len(items))

    def file_hops(
        self, src: int, rows: np.ndarray, lens: np.ndarray, flat: np.ndarray
    ) -> None:
        """File one sender's hops as a chunk of ``int32`` arrays (see
        :meth:`HopPlane.file`).  Copies count exactly like the object lane's
        (edges, congestion and ``has_pending`` cover both lanes)."""
        self._count(src, self.plane.file(src, rows, lens, flat))

    def _count(self, src: int, copies: int) -> None:
        """Book ``copies`` receiver copies just filed by ``src`` (either lane)."""
        if copies:
            self._sent_counts[src] += copies
            self._pending_count += copies

    def open_sends(self) -> ObjectSegment:
        """The open round's object lane as ``(srcs, dsts, msgs)`` columns, one
        entry per receiver copy in issue order (read-only)."""
        return self._srcs, self._dsts, self._msgs

    @property
    def has_pending(self) -> bool:
        """Whether any messages are awaiting delivery (any bucket)."""
        return self._pending_count > 0

    # ------------------------------------------------------------------
    # Round boundary (called by the engine)
    # ------------------------------------------------------------------

    def close_send_phase(self) -> tuple[EdgeLog, dict[int, int]]:
        """Freeze this round's sends: returns ``(E_t, sent_counts)``.

        ``E_t`` lists the object lane, then the hop copies, each in send
        order.  The messages move to the pending buckets for later delivery;
        the fault hook (if any) assigns each receiver its fates here.
        """
        hop_round = self.plane.close_round()
        segment = (self._srcs, self._dsts, self._msgs)
        srcs = np.array(self._srcs, dtype=np.int32)
        dsts = np.array(self._dsts, dtype=np.int32)
        if hop_round is not None:
            hop_srcs, hop_dsts = hop_round.edge_columns()
            srcs = np.concatenate((srcs, hop_srcs))
            dsts = np.concatenate((dsts, hop_dsts))
        edges = EdgeLog(srcs, dsts)
        sent = dict(self._sent_counts)
        hook = self.fault_hook
        if hook is None or not hook.message_faults_active:
            if self._msgs:
                self._pending.setdefault(1, []).append(segment)
            if hop_round is not None:
                self._pending_hops.setdefault(1, []).append(hop_round)
        else:
            self._apply_faults(hook, edges, segment, hop_round)
        self._srcs, self._dsts, self._msgs = [], [], []
        self._sent_counts = defaultdict(int)
        self._round += 1
        return edges, sent

    def _apply_faults(
        self,
        hook: FaultHook,
        edges: EdgeLog,
        segment: ObjectSegment,
        hop_round: FrozenHopRound | None,
    ) -> None:
        """File the frozen round into its fate buckets, one latency at a time.

        Each bucket gets the copies that share its latency as one segment
        per lane, gathered out of the round's columns in send order
        (duplicated copies adjacent).
        """
        srcs, dsts = edges.columns()
        copy, latency = hook.message_fates_batch(self._round, srcs, dsts)
        hops_from = len(segment[0])
        for lat in np.flatnonzero(np.bincount(latency)).tolist():
            due = copy[latency == lat]  # ascending, duplicates adjacent
            split = int(np.searchsorted(due, hops_from))
            if split:
                picks = due[:split].tolist()
                self._pending.setdefault(lat, []).append(
                    tuple([col[i] for i in picks] for col in segment)
                )
            if split < due.size:
                self._pending_hops.setdefault(lat, []).append(
                    hop_round.cut(due[split:] - hops_from)
                )
        # Drops and duplicates change the copy count; re-base the counter on
        # what actually reached the buckets this round.
        self._pending_count += copy.size - srcs.size

    def deliver(
        self, alive: frozenset[int] | set[int]
    ) -> tuple[dict[int, Inbox], dict[int, int]]:
        """Deliver due pending messages to surviving receivers.

        Returns ``(inboxes, received_counts)``.  Must be called after the
        round's churn has been applied so that churned-out nodes receive
        nothing.  Higher buckets shift down one step per call.
        """
        due, self._pending = _pop_due(self._pending)
        due_hops, self._pending_hops = _pop_due(self._pending_hops)
        inboxes: defaultdict[int, Inbox] = defaultdict(list)
        inbox_of = inboxes.__getitem__
        for srcs, dsts, msgs in due:
            self._pending_count -= len(dsts)
            for src, dst, msg in zip(srcs, dsts, msgs):
                if dst in alive:
                    inbox_of(dst).append((src, msg))
        # Every delivery appended exactly one inbox entry, so the received
        # counts are the inbox lengths — no per-message counter updates.
        received = {dst: len(entries) for dst, entries in inboxes.items()}
        self.hop_delivery = None
        if due_hops:
            # Segments sent in different rounds number their rows apart;
            # merging re-interns them so the one-argsort delivery dedups a
            # delayed copy against a fresh one of the same logical hop.
            hop_round = (
                due_hops[0] if len(due_hops) == 1 else FrozenHopRound.merged(due_hops)
            )
            delivery = hop_round.deliver(alive)
            self._pending_count -= delivery.total
            for dst, count in delivery.counts.items():
                received[dst] = received.get(dst, 0) + count
            self.hop_delivery = delivery
        return dict(inboxes), received
