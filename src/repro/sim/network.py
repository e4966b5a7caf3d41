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

Multicasts (one payload to many receivers) are first-class: the payload object
is shared, not copied, which keeps the ``O(log^3 n)``-messages-per-node
protocol affordable in pure Python while message/edge counts stay exact.

**Routed hops** — the bulk of all traffic — do not travel as objects: nodes
file them through :meth:`Network.send_hops` into the network's
:class:`~repro.sim.hopplane.HopPlane` and receive them as shared row arrays
(:attr:`Network.hop_delivery`).  Copies are counted exactly like object
sends, so edges, congestion and ``has_pending`` cover both.

**Hot path.**  ``deliver`` avoids per-element Python churn: delivery shares
one ``(sender, payload)`` pair across all receivers of a multicast, and
``has_pending`` reads a running counter instead of scanning the buckets.

**Fault hook.**  An optional :attr:`Network.fault_hook` (duck-typed to
:class:`repro.faults.injector.FaultInjector`) is consulted once per round at
``close_send_phase``: it gets the frozen round as ``(src, dst)`` columns —
singles, then multicasts, then hop-plane copies, each in send order — and
returns the round's *fates* as ``(copy, latency)`` columns, one entry per
pending copy (a dropped message has none, a duplicated one several,
``latency`` is 1 for normal delivery and ``1 + k`` for a delayed copy).  The
pending queues are latency buckets: object messages are filed per bucket,
hop copies as one :meth:`~repro.sim.hopplane.FrozenHopRound.cut` segment
per bucket, and ``deliver`` merges the hop segments due together so a
delayed copy deduplicates against a fresh one of the same logical hop.
Churn is still checked at delivery time, so a node that leaves while a
delayed message is in flight never receives it.  Edges are frozen *before*
the hook runs — a dropped message still created its edge (the adversary
observes send attempts, the environment eats payloads).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Protocol, Sequence

import numpy as np

from repro.sim.hopplane import FrozenHopRound, HopDelivery, HopPlane

__all__ = ["Network", "Inbox", "FaultHook", "EdgeLog"]

# An inbox is a list of (sender id, message object) pairs.
Inbox = list[tuple[int, object]]

#: Receiver-slot sentinel marking a batched-singles entry in the frozen send
#: list: ``(src, _BATCH, items)`` stands for one ``(src, dst, msg)`` triple
#: per ``(dst, msg)`` in ``items``, *in place* — expansion at delivery/edge
#: time keeps global send order (and therefore inbox and edge order) exactly
#: as if each single had been appended individually.
_BATCH = object()


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


class EdgeLog:
    """The edge set ``E_t`` of one round, materialized lazily.

    ``close_send_phase`` hands the frozen send lists to this wrapper instead
    of expanding every multicast into ``(src, dst)`` tuples eagerly — in runs
    without an adversary, health monitor, or trace query the expansion never
    happens at all.  Behaves like a read-only list of ``(src, dst)`` pairs.

    :meth:`compact` collapses the log into two machine-int id arrays, which
    drops every payload/receiver-tuple reference the frozen send lists were
    keeping alive.  The graph trace compacts each round it records — without
    that, one retained round of multicast tuples and batch payloads costs
    tens of MB at n=512, multiplied by the trace depth.
    """

    __slots__ = ("_singles", "_multis", "_hops", "_flat", "_srcs", "_dsts")

    def __init__(
        self,
        singles: list[tuple[int, int, object]],
        multis: list[tuple[int, Sequence[int], object]],
        hops: FrozenHopRound | None = None,
    ) -> None:
        self._singles: list | None = singles
        self._multis: list | None = multis
        self._hops: FrozenHopRound | None = hops
        self._flat: list[tuple[int, int]] | None = None
        self._srcs: np.ndarray | None = None
        self._dsts: np.ndarray | None = None

    def compact(self) -> None:
        """Collapse to ``(srcs, dsts)`` int32 arrays, freeing payload refs."""
        if self._srcs is not None:
            return
        if self._flat is not None:
            flat = self._flat
            arr = np.array(flat, dtype=np.int32).reshape(len(flat), 2)
            self._srcs = np.ascontiguousarray(arr[:, 0])
            self._dsts = np.ascontiguousarray(arr[:, 1])
            self._flat = None
            return
        src_parts: list[np.ndarray] = []
        dst_parts: list[np.ndarray] = []
        singles = self._singles
        if singles:
            s_ids: list[int] = []
            d_ids: list[int] = []
            for s, d, m in singles:
                if d is _BATCH:
                    s_ids.extend([s] * len(m))
                    d_ids.extend([dst for dst, _ in m])
                else:
                    s_ids.append(s)
                    d_ids.append(d)
            src_parts.append(np.array(s_ids, dtype=np.int32))
            dst_parts.append(np.array(d_ids, dtype=np.int32))
        multis = self._multis
        if multis:
            k = len(multis)
            src_parts.append(
                np.repeat(
                    np.fromiter((s for s, _, _ in multis), np.int32, k),
                    np.fromiter((len(d) for _, d, _ in multis), np.int64, k),
                )
            )
            mflat: list[int] = []
            for _, dsts, _ in multis:
                mflat.extend(dsts)
            dst_parts.append(np.array(mflat, dtype=np.int32))
        if self._hops is not None:
            hsrcs, hdsts = self._hops.edge_columns()
            src_parts.append(np.asarray(hsrcs, dtype=np.int32))
            dst_parts.append(np.asarray(hdsts, dtype=np.int32))
        if src_parts:
            self._srcs = np.concatenate(src_parts)
            self._dsts = np.concatenate(dst_parts)
        else:
            self._srcs = np.empty(0, dtype=np.int32)
            self._dsts = np.empty(0, dtype=np.int32)
        self._singles = None  # drop payload references
        self._multis = None
        self._hops = None

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """``(srcs, dsts)`` id arrays in send order (compacts the log)."""
        self.compact()
        return self._srcs, self._dsts

    def _materialize(self) -> list[tuple[int, int]]:
        if self._srcs is not None:
            # Compacted: rebuild pairs on demand, never cache them (the whole
            # point is not holding tuple objects for the trace's lifetime).
            return list(zip(self._srcs.tolist(), self._dsts.tolist()))
        flat = self._flat
        if flat is None:
            flat = []
            for src, dst, m in self._singles:
                if dst is _BATCH:
                    flat.extend((src, d2) for d2, _ in m)
                else:
                    flat.append((src, dst))
            for src, dsts, _ in self._multis:
                flat.extend((src, dst) for dst in dsts)
            if self._hops is not None:
                flat.extend(self._hops.iter_edges())
            self._flat = flat
            self._singles = None  # drop payload references
            self._multis = None
            self._hops = None
        return flat

    def __iter__(self):
        if self._srcs is not None:
            return zip(self._srcs.tolist(), self._dsts.tolist())
        return iter(self._materialize())

    def __len__(self) -> int:
        if self._srcs is not None:
            return int(self._srcs.size)
        return len(self._materialize())

    def __getitem__(self, i):
        return self._materialize()[i]

    def __contains__(self, edge) -> bool:
        return edge in self._materialize()

    def __eq__(self, other) -> bool:
        if isinstance(other, EdgeLog):
            return self._materialize() == other._materialize()
        return self._materialize() == other

    def __repr__(self) -> str:
        return f"EdgeLog({self._materialize()!r})"


class Network:
    """Collects sends during a round and delivers them the next round(s)."""

    def __init__(self) -> None:
        self._sending: list[tuple[int, int, object]] = []
        self._sending_multi: list[tuple[int, tuple[int, ...], object]] = []
        # Pending queues, bucketed by delivery countdown: bucket ``k`` is
        # delivered at the ``k``-th next ``deliver`` call (normal traffic
        # lives in bucket 1; only faults populate higher buckets).  Every
        # bucket is in chronological send order.
        self._pending: dict[int, list[tuple[int, int, object]]] = {}
        self._pending_multi: dict[int, list[tuple[int, Sequence[int], object]]] = {}
        self._pending_hops: dict[int, list[FrozenHopRound]] = {}
        self._sent_counts: defaultdict[int, int] = defaultdict(int)
        # Running count of undelivered receiver-copies across the sending
        # lists and every bucket; ``has_pending`` is O(1) because of it.
        self._pending_count = 0
        #: Optional fault injector (see module docstring); ``None`` = the
        #: paper's perfectly reliable synchronous network.
        self.fault_hook: FaultHook | None = None
        #: Columnar transport for routed hops (:mod:`repro.sim.hopplane`):
        #: protocols send hops via :meth:`send_hops` and receive them as
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
        self._sending.append((src, int(dst), msg))
        self._sent_counts[src] += 1
        self._pending_count += 1

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
        if not items:
            return
        self._sending.append((src, _BATCH, items))
        self._sent_counts[src] += len(items)
        self._pending_count += len(items)

    def send_many(
        self, src: int, dsts: Sequence[int] | Iterable[int], msg: object
    ) -> None:
        """Multicast the same payload to several receivers (one edge each).

        ``dsts`` may be any iterable, including a NumPy id array; receiver
        ids are coerced to plain ``int`` exactly like :meth:`send` so trace
        edges and inbox keys stay type-consistent across both paths.
        """
        if isinstance(dsts, np.ndarray):
            dsts = tuple(dsts.tolist())
        else:
            dsts = tuple(map(int, dsts))
        if not dsts:
            return
        self._sending_multi.append((src, dsts, msg))
        self._sent_counts[src] += len(dsts)
        self._pending_count += len(dsts)

    def send_hops(
        self, src: int, msg: object, step: int, dsts: Sequence[int]
    ) -> None:
        """Multicast one routed hop through the columnar plane.

        Counts copies exactly like :meth:`send_many` (edges, congestion and
        ``has_pending`` stay consistent across both transports).
        """
        n = self.plane.send(src, msg, step, dsts)
        if n:
            self._sent_counts[src] += n
            self._pending_count += n

    def send_hops_batch(
        self, src: int, items: list[tuple[object, int, Sequence[int]]]
    ) -> None:
        """File many hop multicasts from one sender through the plane."""
        n = self.plane.send_batch(src, items)
        if n:
            self._sent_counts[src] += n
            self._pending_count += n

    def file_hops(
        self, src: int, rows: np.ndarray, lens: np.ndarray, flat: np.ndarray
    ) -> None:
        """File one sender's forwarded hops as a chunk of ``int32`` arrays
        (see :meth:`HopPlane.file`); copies count like :meth:`send_hops`."""
        n = self.plane.file(src, rows, lens, flat)
        if n:
            self._sent_counts[src] += n
            self._pending_count += n

    @property
    def has_pending(self) -> bool:
        """Whether any messages are awaiting delivery (any bucket)."""
        return self._pending_count > 0

    # ------------------------------------------------------------------
    # Round boundary (called by the engine)
    # ------------------------------------------------------------------

    def close_send_phase(self) -> tuple[EdgeLog, dict[int, int]]:
        """Freeze this round's sends: returns ``(E_t, sent_counts)``.

        ``E_t`` is a lazily-expanded :class:`EdgeLog` over the frozen send
        lists.  The messages move to the pending buckets for later delivery;
        the fault hook (if any) assigns each receiver its fates here.
        """
        hop_round = self.plane.close_round()
        edges = EdgeLog(self._sending, self._sending_multi, hop_round)
        sent = dict(self._sent_counts)
        hook = self.fault_hook
        if hook is None or not hook.message_faults_active:
            self._pending.setdefault(1, []).extend(self._sending)
            self._pending_multi.setdefault(1, []).extend(self._sending_multi)
            if hop_round is not None:
                self._pending_hops.setdefault(1, []).append(hop_round)
        else:
            self._apply_faults(hook, edges, hop_round)
        self._sending = []
        self._sending_multi = []
        self._sent_counts = defaultdict(int)
        self._round += 1
        return edges, sent

    def _apply_faults(
        self, hook: FaultHook, edges: EdgeLog, hop_round: FrozenHopRound | None
    ) -> None:
        """File the frozen round into its fate buckets, one latency at a time.

        The hook sees the round as the edge log's columns — singles (batches
        expanded in place), multicasts, hop copies — and every bucket keeps
        that order: a multicast stays one shared-payload entry per latency
        its receivers were given, hop copies one plane segment.
        """
        srcs, dsts = edges.columns()
        copy, latency = hook.message_fates_batch(self._round, srcs, dsts)
        singles: list[tuple[int, int, object]] = []
        for entry in self._sending:
            if entry[1] is _BATCH:
                src = entry[0]
                singles.extend([(src, dst, msg) for dst, msg in entry[2]])
            else:
                singles.append(entry)
        multis = self._sending_multi
        hops_from = srcs.size - (hop_round.copies() if hop_round is not None else 0)
        # Which multicast each multicast copy belongs to.
        owner = np.repeat(
            np.arange(len(multis)),
            np.fromiter((len(d) for _, d, _ in multis), np.int64, len(multis)),
        )
        for lat in np.flatnonzero(np.bincount(latency)).tolist():
            due = copy[latency == lat]  # ascending, duplicates adjacent
            a, b = np.searchsorted(due, (len(singles), hops_from)).tolist()
            if a:
                self._pending.setdefault(lat, []).extend(
                    [singles[i] for i in due[:a].tolist()]
                )
            if b > a:
                own = owner[due[a:b] - len(singles)]
                receivers = dsts[due[a:b]].tolist()
                cuts = [0, *(np.flatnonzero(own[1:] != own[:-1]) + 1).tolist(), b - a]
                bucket = self._pending_multi.setdefault(lat, [])
                for lo, hi in zip(cuts, cuts[1:]):
                    src, _, msg = multis[own[lo]]
                    bucket.append((src, receivers[lo:hi], msg))
            if b < due.size:
                self._pending_hops.setdefault(lat, []).append(
                    hop_round.cut(due[b:] - hops_from)
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

        Receivers are grouped without per-message tuple churn: all copies of
        one multicast share a single ``(sender, payload)`` pair, and the
        no-fault fast path (everything in bucket 1) skips the bucket shift.
        """
        due, self._pending = _pop_due(self._pending)
        due_multi, self._pending_multi = _pop_due(self._pending_multi)
        due_hops, self._pending_hops = _pop_due(self._pending_hops)
        inboxes: defaultdict[int, Inbox] = defaultdict(list)
        inbox_of = inboxes.__getitem__
        delivered = len(due)
        for src, dst, msg in due:
            if dst is _BATCH:
                items = msg
                delivered += len(items) - 1
                for d2, m2 in items:
                    if d2 in alive:
                        inbox_of(d2).append((src, m2))
            elif dst in alive:
                inbox_of(dst).append((src, msg))
        for src, dsts, msg in due_multi:
            entry = (src, msg)
            delivered += len(dsts)
            for dst in dsts:
                if dst in alive:
                    inbox_of(dst).append(entry)
        self._pending_count -= delivered
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
