"""Distributed construction of the initial overlay ``D_0`` (bootstrap phase).

The paper builds ``D_0`` in the churn-free bootstrap phase with the
deterministic overlay-construction machinery of Gmyr et al. [14]
(``O(log^2 n)`` rounds) and omits the details.  We implement a concrete
construction appropriate to our setting: starting from a **sorted ring**
(every node knows its clockwise successor by position — the canonical
starting point of the self-stabilizing De Bruijn literature [9, 10]), the
Definition-5 neighbourhoods are built in ``O(log n)`` synchronous rounds
with polylogarithmic congestion:

1. **Pointer doubling** (``2L`` rounds, ``L = ceil(log2(kappa n))``): node
   ``u`` learns its ``2^k``-th clockwise successor for every level ``k`` by
   repeatedly asking its ``2^k``-th successor for *its* ``2^k``-th successor.
2. **Range doubling** (``2K`` rounds, ``K = ceil(log2(4 c lam)) + 1``): the
   same trick on successor *lists* gives every node its first ``2^K >=
   4*c*lam`` successors with positions — covering the clockwise half of its
   list arc.  One **push** round then mirrors the knowledge: ``u`` announces
   itself to every collected successor inside the list radius, giving them
   their counter-clockwise halves.
3. **Anchor-greedy FINDs** (``<= L + 2`` rounds): ``u`` issues ``FIND(q)``
   for ``q ∈ {u/2, (u+1)/2}``.  Each holder forwards the request to its
   farthest level-anchor that does not overshoot ``q`` clockwise; the node
   closest below ``q`` answers with every neighbour it knows inside the
   De Bruijn radius of ``q``.

The schedule is round-number driven (all nodes know ``kappa*n``), so the
phase boundaries are deterministic.  The result is audited against the
ground-truth :class:`LDSGraph` — see ``build_initial_overlay_distributed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.config import ProtocolParams
from repro.overlay.lds import LDSGraph
from repro.overlay.positions import PositionIndex
from repro.sim.engine import Engine, EngineServices, NodeContext, NodeProtocol
from repro.util.intervals import wrap

__all__ = [
    "AnchorRequest",
    "AnchorReply",
    "RangeRequest",
    "RangeReply",
    "SelfAnnounce",
    "Find",
    "FoundReply",
    "ConstructionNode",
    "construction_schedule",
    "build_initial_overlay_distributed",
]


# ----------------------------------------------------------------------
# Messages
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AnchorRequest:
    """"Send me your level-``k`` anchor" (pointer doubling)."""

    level: int


@dataclass(frozen=True)
class AnchorReply:
    level: int
    anchor_id: int
    anchor_pos: float


@dataclass(frozen=True)
class RangeRequest:
    """"Send me your level-``j`` successor range" (range doubling)."""

    level: int


@dataclass(frozen=True)
class RangeReply:
    level: int
    entries: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class SelfAnnounce:
    """"I am at ``pos`` and you are within my list radius" (the push round)."""

    node: int
    pos: float


@dataclass(frozen=True)
class Find:
    """Locate the region around point ``q`` on behalf of ``origin``."""

    q: float
    origin: int
    kind: int  # 0 for u/2, 1 for (u+1)/2


@dataclass(frozen=True)
class FoundReply:
    kind: int
    entries: tuple[tuple[int, float], ...]


# ----------------------------------------------------------------------
# Round schedule
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ConstructionSchedule:
    """Deterministic phase boundaries derived from the public parameters."""

    levels: int  # L: pointer-doubling levels
    range_levels: int  # K: range-doubling levels
    find_hops: int  # bound on FIND relay hops

    @property
    def doubling_end(self) -> int:
        return 2 * self.levels

    @property
    def range_end(self) -> int:
        return self.doubling_end + 2 * self.range_levels

    @property
    def push_round(self) -> int:
        return self.range_end

    @property
    def find_start(self) -> int:
        return self.push_round + 1

    @property
    def total_rounds(self) -> int:
        # FINDs relay for <= find_hops rounds, plus the reply round and the
        # round the reply is consumed.
        return self.find_start + self.find_hops + 2


def construction_schedule(params: ProtocolParams) -> ConstructionSchedule:
    levels = max(1, math.ceil(math.log2(params.max_nodes)))
    needed = max(2.0, 4.0 * params.c * params.lam)
    range_levels = max(1, math.ceil(math.log2(needed)))
    return ConstructionSchedule(
        levels=levels, range_levels=range_levels, find_hops=levels + 2
    )


# ----------------------------------------------------------------------
# The protocol
# ----------------------------------------------------------------------


class ConstructionNode(NodeProtocol):
    """One node of the bootstrap construction."""

    def __init__(self, node_id: int, services: EngineServices) -> None:
        self.id = node_id
        self.params = services.params
        self.schedule = construction_schedule(services.params)
        self.pos = services.position_hash.position(node_id, 0)
        # anchors[k] = (id, pos) of the 2^k-th clockwise successor.
        self.anchors: list[tuple[int, float] | None] = [None] * (
            self.schedule.levels + 1
        )
        # Collected successor ranges (id -> pos), grows by doubling.
        self.range_entries: dict[int, float] = {}
        # Final neighbourhood knowledge (id -> pos).
        self.known: dict[int, float] = {}
        self.find_results: dict[int, dict[int, float]] = {0: {}, 1: {}}
        self.done = False

    # -- setup ----------------------------------------------------------

    def seed_successor(self, succ_id: int, succ_pos: float) -> None:
        """Install the initial ring pointer (the construction's only input)."""
        self.anchors[0] = (succ_id, succ_pos)
        self.range_entries[succ_id] = succ_pos

    # -- helpers --------------------------------------------------------

    def _clockwise(self, frm: float, to: float) -> float:
        return wrap(to - frm)

    def _best_anchor_towards(self, q: float) -> tuple[int, float] | None:
        """The farthest known anchor that does not overshoot ``q`` clockwise."""
        gap = self._clockwise(self.pos, q)
        best: tuple[int, float] | None = None
        best_adv = 0.0
        for anchor in self.anchors:
            if anchor is None:
                continue
            adv = self._clockwise(self.pos, anchor[1])
            if adv < gap - 1e-15 and adv > best_adv:
                best_adv = adv
                best = anchor
        return best

    def _i_am_closest_below(self, q: float) -> bool:
        """No known successor lies strictly between me and ``q``."""
        succ = self.anchors[0]
        if succ is None:
            return True
        return self._clockwise(self.pos, succ[1]) >= self._clockwise(self.pos, q)

    # -- round handler ---------------------------------------------------

    def on_round(self, ctx: NodeContext) -> None:
        t = ctx.round
        sched = self.schedule
        params = self.params

        # Serve incoming traffic regardless of the phase (replies may lag).
        for src, msg in ctx.inbox:
            if isinstance(msg, AnchorRequest):
                anchor = self.anchors[msg.level]
                if anchor is not None:
                    ctx.send(src, AnchorReply(msg.level, anchor[0], anchor[1]))
            elif isinstance(msg, AnchorReply):
                if msg.anchor_id != self.id:
                    self.anchors[msg.level + 1] = (msg.anchor_id, msg.anchor_pos)
            elif isinstance(msg, RangeRequest):
                entries = tuple(self.range_entries.items())
                ctx.send(src, RangeReply(msg.level, entries))
            elif isinstance(msg, RangeReply):
                for node, pos in msg.entries:
                    if node != self.id:
                        self.range_entries[node] = pos
            elif isinstance(msg, SelfAnnounce):
                self.known[msg.node] = msg.pos
            elif isinstance(msg, Find):
                self._handle_find(ctx, msg)
            elif isinstance(msg, FoundReply):
                self.find_results[msg.kind].update(
                    {node: pos for node, pos in msg.entries}
                )

        # Phase-scheduled actions.
        if t < sched.doubling_end and t % 2 == 0:
            level = t // 2
            anchor = self.anchors[level]
            if anchor is not None and level + 1 <= sched.levels:
                ctx.send(anchor[0], AnchorRequest(level))
        elif sched.doubling_end <= t < sched.range_end and (t - sched.doubling_end) % 2 == 0:
            level = (t - sched.doubling_end) // 2
            anchor = self.anchors[level]
            if anchor is not None:
                ctx.send(anchor[0], RangeRequest(level))
        elif t == sched.push_round:
            # Mirror knowledge: announce myself to successors in my list arc.
            for node, pos in self.range_entries.items():
                if self._clockwise(self.pos, pos) <= params.list_radius:
                    ctx.send(node, SelfAnnounce(self.id, self.pos))
            # My clockwise range inside the list radius is also mine to keep.
            for node, pos in self.range_entries.items():
                if self._clockwise(self.pos, pos) <= params.list_radius:
                    self.known[node] = pos
        elif t == sched.find_start:
            for kind in (0, 1):
                q = wrap((self.pos + kind) / 2.0)
                self._route_find(ctx, Find(q, self.id, kind))
        elif t == sched.total_rounds - 1:
            self._finalize()

    # -- FIND machinery ---------------------------------------------------

    def _route_find(self, ctx: NodeContext, find: Find) -> None:
        if self._i_am_closest_below(find.q):
            self._answer_find(ctx, find)
            return
        anchor = self._best_anchor_towards(find.q)
        if anchor is None:
            self._answer_find(ctx, find)  # best effort
            return
        ctx.send(anchor[0], find)

    def _handle_find(self, ctx: NodeContext, find: Find) -> None:
        self._route_find(ctx, find)

    def _answer_find(self, ctx: NodeContext, find: Find) -> None:
        radius = self.params.debruijn_radius
        entries = [
            (node, pos)
            for node, pos in {**self.known, **self.range_entries, self.id: self.pos}.items()
            if min(abs(pos - find.q), 1.0 - abs(pos - find.q)) <= radius
        ]
        if find.origin == self.id:
            self.find_results[find.kind].update({n: p for n, p in entries})
        else:
            ctx.send(find.origin, FoundReply(find.kind, tuple(entries)))

    def _finalize(self) -> None:
        radius_list = self.params.list_radius
        neighborhood: dict[int, float] = {}
        for node, pos in self.known.items():
            gap = abs(pos - self.pos)
            if min(gap, 1.0 - gap) <= radius_list:
                neighborhood[node] = pos
        for kind in (0, 1):
            neighborhood.update(self.find_results[kind])
        neighborhood.pop(self.id, None)
        self.known = neighborhood
        self.done = True


def build_initial_overlay_distributed(
    params: ProtocolParams,
) -> tuple[dict[int, dict[int, float]], int]:
    """Run the construction end to end; returns ``(neighbourhoods, rounds)``.

    The result is audited against the ground-truth :class:`LDSGraph`: every
    Definition-5 edge must be present (supersets are fine — extra knowledge
    never hurts).  Raises ``RuntimeError`` on gaps.
    """
    engine = Engine(params, lambda v, s: ConstructionNode(v, s))
    engine.seed_nodes(range(params.n))
    # Input: the sorted ring.
    positions = {
        v: engine.services.position_hash.position(v, 0) for v in range(params.n)
    }
    order = sorted(positions, key=positions.__getitem__)
    for i, v in enumerate(order):
        succ = order[(i + 1) % len(order)]
        node = engine.protocol_of(v)
        assert isinstance(node, ConstructionNode)
        node.seed_successor(succ, positions[succ])

    schedule = construction_schedule(params)
    engine.run(schedule.total_rounds)

    neighborhoods = {}
    for v in range(params.n):
        node = engine.protocol_of(v)
        assert isinstance(node, ConstructionNode)
        if not node.done:
            raise RuntimeError(f"node {v} did not finalize")
        neighborhoods[v] = dict(node.known)

    truth = LDSGraph(PositionIndex(positions), params)
    missing = truth.audit_claimed_adjacency(neighborhoods)
    if missing:
        raise RuntimeError(
            f"construction left {sum(len(m) for m in missing.values())} "
            f"Definition-5 edges missing at {len(missing)} nodes "
            f"(e.g. {next(iter(missing.items()))})"
        )
    return neighborhoods, schedule.total_rounds
