"""Deterministic fault oracle — turns a :class:`FaultPlan` into decisions.

The injector sits at the :meth:`Network.close_send_phase` boundary (the
network hands :meth:`message_fates_batch` the whole frozen round as
``(src, dst)`` columns) and answers the engine's per-node :meth:`stalled`
queries during the compute phase.  :meth:`message_fates` is the one-copy
oracle of the same schedule: tests compare the batch against it, production
code calls only the batch.

Every decision is a keyed-BLAKE2b coin over ``(kind, round, sequence, src,
dst, rule index)`` — the same construction as the position hash in
:mod:`repro.util.rngs`.  Because decisions are *hash-derived* rather than
drawn from a shared RNG stream, the schedule depends only on the plan seed
and the (deterministic) order of sends: the same seed and plan always
reproduce the identical fault schedule, and a plan whose rules never fire
consumes no entropy, never alters delivery order, and never perturbs any
protocol RNG — the zero-overhead-when-off property the experiments rely on.

Send-time edges are *not* affected by faults: a dropped or delayed message
still created the edge ``(src, dst)`` in ``E_t`` (the adversary observes the
send attempt; the environment eats the payload afterwards).

Hot path: one 24-byte digest yields the drop/delay/duplicate coins of one
(message, rule) pair — the batch draws them in one tight loop and does
everything else (position cuts, latency bands, duplicate expansion, rate-cap
running counts) as array operations — and rounds where no message rule is
active skip the PRF entirely (``message_faults_active`` lets the network
queue such a round whole, without a fates call).
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from repro.faults.plan import (
    AsymmetricPartition,
    FaultPlan,
    LatencyMatrix,
    MessageFaults,
    NodeStall,
    RateCap,
    RingPartition,
)
from repro.sim.metrics import FaultRoundStats
from repro.util.rngs import PositionHash

__all__ = ["FaultInjector"]

_U64 = float(1 << 64)

#: Fate of an undisturbed message: one copy, one round of latency.
_CLEAN_FATE = (1,)

#: Copies per block of the batch coin loop (bounds its transient memory).
_COIN_BLOCK = 8192


class FaultInjector:
    """Per-run fault schedule: message fates, node stalls, round accounting."""

    def __init__(
        self, plan: FaultPlan, position_hash: PositionHash | None = None
    ) -> None:
        self.plan = plan
        self._hash = position_hash
        if plan.needs_positions and position_hash is None:
            raise ValueError(
                "partition/latency-matrix/asymmetric rules require a position hash"
            )
        self._key = (plan.seed & ((1 << 128) - 1)).to_bytes(16, "little")
        # Pre-keyed, domain-separated hash states; per-event coins clone
        # these and append the packed scope (much faster than re-keying).
        self._msg_base = hashlib.blake2b(b"msg", key=self._key, digest_size=24)
        self._stall_base = hashlib.blake2b(b"stall", key=self._key, digest_size=24)
        self._round = -1
        self._seq = 0
        self._dropped = 0
        self._delayed = 0
        self._duplicated = 0
        self._stalled = 0
        self._deferred = 0
        # Per-round rule activity (refreshed by begin_round).
        self._msg_rules: list[tuple[int, MessageFaults]] = []
        self._stall_rules: list[tuple[int, NodeStall]] = []
        self._partitions: list[RingPartition] = []
        self._ratecaps: list[tuple[int, RateCap]] = []
        self._latencies: list[LatencyMatrix] = []
        self._asymmetric: list[AsymmetricPartition] = []
        # Copies sent so far this round per (rate-cap rule index, src node).
        self._cap_counts: dict[tuple[int, int], int] = {}
        # Position cache for position-keyed rules, keyed per epoch.
        self._pos_epoch = -1
        self._pos_cache: dict[int, float] = {}

    # ------------------------------------------------------------------
    # PRF coins
    # ------------------------------------------------------------------

    def _coins3(
        self, base: "hashlib.blake2b", a: int, b: int, c: int, d: int, e: int
    ) -> tuple[float, float, float]:
        """Three uniform [0, 1) coins from the seed and the packed scope."""
        h = base.copy()
        h.update(struct.pack("<qqqqq", a, b, c, d, e))
        x, y, z = struct.unpack("<QQQ", h.digest())
        return x / _U64, y / _U64, z / _U64

    def _coins3_batch(
        self, t: int, seqs: np.ndarray, srcs: np.ndarray, dsts: np.ndarray, rule: int
    ) -> np.ndarray:
        """:meth:`_coins3` of the message base over scope columns: ``(m, 3)``.

        Digests are drawn a block at a time so the packed scopes and the
        digest bytes of a whole round never sit in memory together.
        """
        coins = np.empty((seqs.size, 3))
        clone = self._msg_base.copy

        def digest(off: int) -> bytes:
            h = clone()
            h.update(raw[off:off + 40])
            return h.digest()

        for lo in range(0, seqs.size, _COIN_BLOCK):
            hi = lo + _COIN_BLOCK
            scope = np.empty((seqs[lo:hi].size, 5), dtype="<i8")
            scope[:, 0] = t
            scope[:, 1] = seqs[lo:hi]
            scope[:, 2] = srcs[lo:hi]
            scope[:, 3] = dsts[lo:hi]
            scope[:, 4] = rule
            raw = scope.tobytes()
            digests = b"".join(map(digest, range(0, len(raw), 40)))
            coins[lo:hi] = np.frombuffer(digests, dtype="<u8").reshape(-1, 3) / _U64
        return coins

    # ------------------------------------------------------------------
    # Round lifecycle
    # ------------------------------------------------------------------

    def begin_round(self, t: int) -> None:
        """Reset per-round counters and rule activity (engine, round start)."""
        self._round = t
        self._seq = 0
        self._dropped = 0
        self._delayed = 0
        self._duplicated = 0
        self._stalled = 0
        self._deferred = 0
        self._msg_rules = [
            (i, r)
            for i, r in enumerate(self.plan.messages)
            if not r.is_trivial and r.active(t)
        ]
        self._stall_rules = [
            (i, r)
            for i, r in enumerate(self.plan.stalls)
            if r.stall_p and r.active(t)
        ]
        self._partitions = [r for r in self.plan.partitions if r.active(t)]
        self._ratecaps = [
            (i, r)
            for i, r in enumerate(self.plan.ratecaps)
            if not r.is_trivial and r.active(t)
        ]
        self._latencies = [
            r for r in self.plan.latencies if not r.is_trivial and r.active(t)
        ]
        self._asymmetric = [r for r in self.plan.asymmetric if r.active(t)]
        self._cap_counts = {}
        needs_pos = self._partitions or self._latencies or self._asymmetric
        if needs_pos and t // 2 != self._pos_epoch:
            self._pos_epoch = t // 2
            self._pos_cache = {}

    def round_stats(self) -> FaultRoundStats | None:
        """This round's injected-fault counts, or ``None`` if nothing fired."""
        if not (
            self._dropped
            or self._delayed
            or self._duplicated
            or self._stalled
            or self._deferred
        ):
            return None
        return FaultRoundStats(
            dropped=self._dropped,
            delayed=self._delayed,
            duplicated=self._duplicated,
            stalled=self._stalled,
            deferred=self._deferred,
        )

    # ------------------------------------------------------------------
    # Node-level faults (queried by the engine during the compute phase)
    # ------------------------------------------------------------------

    def stalled(self, t: int, v: int) -> bool:
        """Whether node ``v`` skips its compute phase this round."""
        for i, rule in self._stall_rules:
            if (
                rule.eligible(v)
                and self._coins3(self._stall_base, t, v, i, 0, 0)[0] < rule.stall_p
            ):
                self._stalled += 1
                return True
        return False

    # ------------------------------------------------------------------
    # Message-level faults (the Network hook)
    # ------------------------------------------------------------------

    @property
    def message_faults_active(self) -> bool:
        """Whether any message rule or partition can fire this round.

        The network uses this to keep the fast, un-exploded multicast path
        on rounds where the plan is quiet (e.g. before a fault window opens).
        """
        return bool(
            self._msg_rules
            or self._partitions
            or self._ratecaps
            or self._latencies
            or self._asymmetric
        )

    def _position(self, v: int) -> float:
        p = self._pos_cache.get(v)
        if p is None:
            p = self._hash.position(v, self._pos_epoch)
            self._pos_cache[v] = p
        return p

    def _crosses_partition(self, src: int, dst: int) -> bool:
        p_src = self._position(src)
        p_dst = self._position(dst)
        return any(r.inside(p_src) != r.inside(p_dst) for r in self._partitions)

    def message_fates(self, t: int, src: int, dst: int) -> tuple[int, ...]:
        """Delivery fates for one frozen (src, dst) message of round ``t``.

        Returns a tuple of latencies in rounds — ``(1,)`` for an undisturbed
        message, ``()`` for a dropped one, ``(1 + k,)`` for a delayed one,
        and one extra entry per duplicate.  The network files one pending
        copy per entry.  Rate caps may give each copy its own deferral, so
        entries need not be equal.
        """
        if self._partitions and self._crosses_partition(src, dst):
            self._dropped += 1
            return ()
        if self._asymmetric:
            p_src = self._position(src)
            p_dst = self._position(dst)
            if any(r.blocks(p_src, p_dst) for r in self._asymmetric):
                self._dropped += 1
                return ()
        extra = 0
        duplicates = 0
        if self._msg_rules:
            seq = self._seq
            self._seq += 1
            for i, rule in self._msg_rules:
                drop_u, delay_u, dup_u = self._coins3(
                    self._msg_base, t, seq, src, dst, i
                )
                if drop_u < rule.drop_p:
                    self._dropped += 1
                    return ()
                if delay_u < rule.delay_p:
                    extra += rule.delay_rounds
                if dup_u < rule.duplicate_p:
                    duplicates += 1
        if self._latencies:
            p_src = self._position(src)
            p_dst = self._position(dst)
            extra += sum(r.delay_between(p_src, p_dst) for r in self._latencies)
        if extra:
            self._delayed += 1
        if duplicates:
            self._duplicated += duplicates
        base = 1 + extra
        if not self._ratecaps:
            if extra == 0 and duplicates == 0:
                return _CLEAN_FATE
            return tuple([base] * (1 + duplicates))
        # Rate caps: every copy consumes one unit of the source's budget;
        # the i-th copy over the limit is deferred ceil(i / limit) budget
        # periods of ``defer_rounds`` rounds — deferred, never dropped.
        fates = []
        for _ in range(1 + duplicates):
            defer = 0
            for i, rule in self._ratecaps:
                limit = rule.limit
                if limit is None or not rule.eligible(src):
                    continue
                key = (i, src)
                count = self._cap_counts.get(key, 0) + 1
                self._cap_counts[key] = count
                over = count - limit
                if over > 0:
                    d = ((over - 1) // limit + 1) * rule.defer_rounds
                    defer = max(defer, d)
            if defer:
                self._deferred += 1
            fates.append(base + defer)
        if fates == [1]:
            return _CLEAN_FATE
        return tuple(fates)

    def message_fates_batch(
        self, t: int, srcs: np.ndarray, dsts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fates of one whole frozen round, as ``(copy, latency)`` columns.

        Equivalent to :meth:`message_fates` per ``(srcs[i], dsts[i])`` in
        order — same coins over the same ``(t, seq, src, dst, rule)`` scope,
        same counters, same ``_seq`` afterwards.  Entry ``j`` of the result
        is one pending copy: ``copy[j]`` indexes the message it came from
        (ascending; a dropped message is absent, a duplicated one repeats
        adjacently) and ``latency[j]`` is its delivery latency in rounds.
        """
        m = srcs.size
        keep = np.ones(m, dtype=bool)
        extra = np.zeros(m, dtype=np.int64)
        dups = np.zeros(m, dtype=np.int64)
        if self._partitions or self._asymmetric or self._latencies:
            # Rules read positions through their own scalar predicates, once
            # per distinct node; each copy then gathers its endpoints' values.
            ids, at = np.unique(np.concatenate((srcs, dsts)), return_inverse=True)
            pos = [self._position(v) for v in ids.tolist()]
            s_at, d_at = at[:m], at[m:]
            for cut in self._partitions:
                inside = np.array([cut.inside(p) for p in pos], dtype=bool)
                keep &= inside[s_at] == inside[d_at]
            for cut in self._asymmetric:
                inside = np.array([cut.inside(p) for p in pos], dtype=bool)
                keep &= ~inside[s_at] | inside[d_at]
            for matrix in self._latencies:
                band = np.array([matrix.band_of(p) for p in pos], dtype=np.int64)
                extra += np.array(matrix.delays)[band[s_at], band[d_at]]
        if self._msg_rules:
            live = np.flatnonzero(keep)
            seqs = np.arange(self._seq, self._seq + live.size)
            self._seq += live.size
            for i, rule in self._msg_rules:
                coins = self._coins3_batch(t, seqs, srcs[live], dsts[live], i)
                extra[live[coins[:, 1] < rule.delay_p]] += rule.delay_rounds
                dups[live[coins[:, 2] < rule.duplicate_p]] += 1
                passed = coins[:, 0] >= rule.drop_p
                keep[live[~passed]] = False
                live = live[passed]
                seqs = seqs[passed]
        kept = np.flatnonzero(keep)
        extra = extra[kept]
        dups = dups[kept]
        self._dropped += m - kept.size
        self._delayed += int(np.count_nonzero(extra))
        self._duplicated += int(dups.sum())
        copy = np.repeat(kept, 1 + dups)
        latency = np.repeat(1 + extra, 1 + dups)
        if self._ratecaps and copy.size:
            latency += self._rate_deferrals(srcs[copy])
        return copy, latency

    def _rate_deferrals(self, srcs: np.ndarray) -> np.ndarray:
        """Rate-cap deferral per copy: a running count per (rule, source)."""
        defer = np.zeros(srcs.size, dtype=np.int64)
        for i, rule in self._ratecaps:
            if rule.nodes is None:
                capped = np.arange(srcs.size)
            else:
                capped = np.flatnonzero(np.isin(srcs, sorted(rule.nodes)))
            if not capped.size:
                continue
            # Stable sort by source: a copy's rank within its source's run is
            # how many of that source's copies were filed before it.
            order = np.argsort(srcs[capped], kind="stable")
            run = srcs[capped][order]
            starts = np.flatnonzero(np.r_[True, run[1:] != run[:-1]])
            sizes = np.diff(np.r_[starts, run.size])
            nodes = run[starts].tolist()
            before = [self._cap_counts.get((i, v), 0) for v in nodes]
            for v, count, size in zip(nodes, before, sizes.tolist()):
                self._cap_counts[(i, v)] = count + size
            over = (
                np.arange(1, run.size + 1)
                + np.repeat(np.array(before) - starts, sizes)
                - rule.limit
            )
            periods = np.where(over > 0, (over - 1) // rule.limit + 1, 0)
            at = capped[order]
            defer[at] = np.maximum(defer[at], periods * rule.defer_rounds)
        self._deferred += int(np.count_nonzero(defer))
        return defer
