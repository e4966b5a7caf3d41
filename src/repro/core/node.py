"""The full maintenance protocol node: A_LDS ∥ A_RANDOM ∥ A_ROUTING.

Every node runs this state machine on the synchronous engine.  The protocol
rebuilds the entire overlay every two rounds (Section 5); the choreography —
reconstructed from Listings 1, 3 and 4 plus the analysis, with the paper's
indexing slips normalised (see DESIGN.md §5) — is:

**Epochs.**  Overlay ``D_e`` is current during rounds ``2e`` and ``2e+1``.
A node's position in ``D_e`` is ``h(v, e)`` for the shared keyed hash ``h``
the adversary cannot evaluate.

**Join pipeline.**  At every even round ``2s`` each established node launches
(for itself and, as a sponsor, for each fresh node registered in its slots) a
routed ``JOIN`` carrying the position for epoch ``s + lam + 2``:

    launch (even 2s) → initial multicast (odd) → lam+1 forwarding steps
    interleaved with handovers → arrival at the target region at even round
    ``2s + 2lam + 2`` → **rebroadcast** of the record to the current holders
    of the three Definition-5 arcs (JoinBatch, arrives odd) → **matchmaking**
    (CreateBatch introductions, sent odd, arrive even) → **cutover**: at round
    ``2(s + lam + 2)`` every node of ``D_{s+lam+2}`` knows its neighbourhood.

**Round parities.**
* *Even rounds*: cutover (CreateBatch → new ``D`` neighbourhood); forwarding
  of in-flight hops (handover outputs received this round) one trajectory
  step; ``k = lam`` join hops are rebroadcast, other ``k = lam`` hops become
  the full-target-swarm delivery multicast; launch of joins and tokens;
  fresh nodes spend tokens on ``CONNECT``s; slots are then reset.
* *Odd rounds*: JoinBatches are stored as handover records ``H``; in-flight
  hops (forwarding outputs) are handed over to the next overlay's swarms
  using ``H``; initial multicasts of newly launched messages; matchmaking
  CreateBatches; final deliveries (hops at step ``lam+1``) are consumed —
  probes are recorded, tokens pass the A_SAMPLING rank test and are then
  kept or forwarded to a random slot-registered fresh node.

**Stages.**  A round runs over all of the engine's nodes at once
(:meth:`MaintenanceNode.on_rounds`; ``on_round`` is the batch of one):
every node *prepares* (inbox, handover records — no sends), at even rounds
one kernel cuts every node over, one array kernel *plans* the forwarding of
every held hop
(:mod:`repro.core.forwarding`), a second the rebroadcast of every arrived
join record (:mod:`repro.core.joinplan`) and, at odd rounds, a third the
initial multicast of every pending launch, then every node *acts* in id
order (deliveries and rng draws in row order, filing, rebroadcast, joins,
tokens, matchmaking).

**Matchmaking and cutover.**  The handover records ``H`` a node stores at an
odd round are interned as one position index per distinct member set.  A
CREATE names its introductions by reference: :class:`CreateBatch` carries
the sender's interned ``H``, and means "the members of ``H`` in your
Definition-5 arcs".  Each node builds one and sends it to every record it
holds, in its ``h_records`` arrival order.  At the even round every node of
the band first buckets its batches; then one bitset pass over the epoch slab
(:func:`repro.core.cutover.introductions`) resolves every receiver's new
``d_nbrs`` — the introduced ids in inbox order, then arc order, each id at
its first occurrence — and each node installs or demotes
(:meth:`MaintenanceNode._cutover`).

**Bootstrap.**  Before the first join wave lands (epochs ``< lam+2``) there
are no handover records; nodes stay in the primed ``D_0`` and hand hops over
within it.  This matches the paper's "nodes perform nothing in the odd
rounds" bootstrap behaviour while keeping the copy-refresh redundancy.

**Failure recovery** (beyond the paper): an established node whose cutover
records fail to arrive demotes itself to FRESH and re-joins through the
token machinery instead of silently falling out of the overlay.
"""

from __future__ import annotations

import enum
from collections import Counter
from typing import Callable, Sequence

import numpy as np

from repro.config import ProtocolParams
from repro.core.messages import (
    ConnectMsg,
    CreateBatch,
    JoinBatch,
    JoinRecord,
    TokenGrant,
    TokenMsg,
)
from repro.core.cutover import introductions
from repro.core.forwarding import HopPlan, Launch, NodePlan, hop_columns, launch_chunks
from repro.core.joinplan import JoinPlan, JoinShare
from repro.overlay.positions import PositionIndex
from repro.routing.messages import RoutedMessage
from repro.sim.engine import EngineServices, JoinNotice, NodeContext, NodeProtocol

__all__ = ["Phase", "MaintenanceNode"]


class Phase(enum.Enum):
    """Lifecycle phase of a protocol node."""

    NEW = "new"  # just joined; waiting for the bootstrap token grant
    FRESH = "fresh"  # connects to mature sponsors every cycle
    ESTABLISHED = "established"  # member of the current overlay


#: Hop rows one forwarding plan covers at most (see
#: :meth:`MaintenanceNode.on_rounds`): caps the plan's transient columns — a
#: few dozen bytes per row plus one ``int32`` per final-multicast copy —
#: below what delivery's sort temporaries cost for the same round.  Large on
#: purpose: a round of n=512 (0.97 M rows) is one band.  Measured peak RSS
#: *rises* with smaller bands (n=512: 348 MiB as one band, 382 MiB in 2¹⁶-row
#: bands; n=128: 98.5 vs 102.5 MB) — whole-round columns are mapped and
#: returned to the OS, mid-sized ones fragment the heap.
_BAND_PAIRS = 1 << 20


class _Step:
    """What a node's prepare stage hands to the plan and to its act stage."""

    __slots__ = (
        "notices", "creates", "h_index", "hop_index", "fin_index", "plan", "joins",
        "launch",
    )

    def __init__(self, notices: list[JoinNotice], creates: list[CreateBatch]) -> None:
        self.notices = notices
        #: The CREATE batches of the inbox, in arrival order (even rounds).
        self.creates = creates
        #: Interned handover index ``H`` (odd rounds, once joins arrive).
        self.h_index: PositionIndex | None = None
        #: The index this round's hops and launches are forwarded in.
        self.hop_index: PositionIndex | None = None
        #: The index finals are ranked in; set iff the node forwards hops.
        self.fin_index: PositionIndex | None = None
        #: The node's share of its band's forwarding plan (plan stage).
        self.plan: NodePlan | None = None
        #: Its share of the band's rebroadcast plan, if join records arrived.
        self.joins: JoinShare | None = None
        #: Its initial-multicast chunk, if it files launches (odd rounds).
        self.launch: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


# How many rounds a token stays usable.  The paper discards unused tokens
# every round; we keep them for two 2-round cycles so the pipeline tolerates
# parity offsets (a constant-factor relaxation, see DESIGN.md §5).
TOKEN_TTL = 4


class MaintenanceNode(NodeProtocol):
    """Per-node state machine of the maintenance protocol."""

    def __init__(self, node_id: int, services: EngineServices) -> None:
        self.id = node_id
        self.params: ProtocolParams = services.params
        self.hash = services.position_hash
        # Engine-shared epoch cache; ``_pos_of`` is the position hash with
        # per-epoch memoisation (pure memoisation: same values as the hash).
        self._epoch_cache = services.epoch_cache
        self._pos_of = self._epoch_cache.position
        # Hot-path caches (property lookups dominate otherwise: the derived
        # radii recompute ``lam`` on every access).
        self._swarm_radius = services.params.swarm_radius
        self._list_radius = services.params.list_radius
        self._db_radius = services.params.debruijn_radius
        self._r = services.params.r
        self._lam = services.params.lam
        self.phase = Phase.NEW
        # --- A_LDS state -------------------------------------------------
        self.epoch: int | None = None
        self.pos: float | None = None
        self.d_nbrs: dict[int, float] = {}
        self._d_index: PositionIndex | None = None
        self.h_records: dict[int, JoinRecord] = {}
        self._pending_launch: list[Launch] = []
        # --- A_RANDOM state ----------------------------------------------
        self.tokens: list[tuple[int, int]] = []  # (expiry round, owner id)
        self.slots: list[int | None] = [None] * (2 * self.params.delta_eff)
        # --- Application-level deliveries and diagnostics -----------------
        self.delivered: list[tuple[object, int]] = []  # (payload, round)
        self.sampled_tokens_seen = 0
        self.connects_received = 0
        self.connects_dropped = 0
        self.max_connects_in_round = 0
        self.demotions = 0
        self.joins_launched = 0
        self._queued_probes: list[tuple[object, float]] = []
        # Epoch at which this node (re-)entered the overlay; sponsors must
        # keep launching joins for it until its own pipeline fills (lam+2
        # epochs later), so it keeps CONNECTing until then.
        self._first_epoch: int | None = None
        # Newcomers whose token grant is still owed (token pool was dry).
        self._pending_grants: dict[int, int] = {}  # node id -> expiry round

    def fold_counters(self, totals: Counter[str]) -> None:
        totals.update(
            demotions=self.demotions,
            connects_received=self.connects_received,
            connects_dropped=self.connects_dropped,
        )
        peak = totals["max_connects_in_round"]
        totals["max_connects_in_round"] = max(peak, self.max_connects_in_round)

    # ------------------------------------------------------------------
    # Priming (bootstrap phase, Section 5: D_0 built churn-free via [14])
    # ------------------------------------------------------------------

    def prime(self, epoch: int, pos: float, neighbors: dict[int, float]) -> None:
        """Install the bootstrap overlay neighbourhood directly."""
        self.phase = Phase.ESTABLISHED
        self.epoch = epoch
        self.pos = pos
        self.d_nbrs = dict(neighbors)
        self._d_index = None
        # Primed nodes have no pipeline gap (the bootstrap phase is
        # churn-free, so the missing early epochs never cut over).
        self._first_epoch = -(10**6)

    # ------------------------------------------------------------------
    # Public API used by the runner
    # ------------------------------------------------------------------

    def queue_probe(self, probe_id: object, target: float) -> None:
        """Ask this node to route a probe to ``S(target)`` (audit traffic)."""
        self._queued_probes.append((probe_id, target))

    def publish_state(self, *_args) -> None:
        """No-op with no callers.

        Kept because ``benchmarks/e2e/layers.py`` resolves its traced
        methods through the class ``__dict__`` and names this one
        (``tests/test_bench_targets.py`` guards that table).
        """

    @property
    def is_established(self) -> bool:
        return self.phase is Phase.ESTABLISHED

    # ------------------------------------------------------------------
    # Lazy neighbourhood indexes
    # ------------------------------------------------------------------

    def _d_members(self) -> PositionIndex:
        """Current-overlay neighbourhood (self included) as a position index.

        For an established node the index is an interned copy-on-write view
        over the epoch cache's shared epoch-sorted slab — element-identical
        to a fresh build (record positions are hash-derived by construction),
        and *object*-identical across nodes with equal neighbourhoods.
        """
        if self._d_index is None:
            table = dict(self.d_nbrs)
            if self.pos is not None:
                table[self.id] = self.pos
            if self.epoch is not None and self.pos is not None:
                self._d_index = self._epoch_cache.index_for(
                    self.epoch, frozenset(table), table
                )
            else:
                self._d_index = PositionIndex(table)
        return self._d_index

    def _swarm_from(self, index: PositionIndex, point: float):
        """Member ids of ``S(point)`` in the given index (ndarray view)."""
        return index.ids_within(point, self._swarm_radius)

    # ------------------------------------------------------------------
    # Round dispatch
    # ------------------------------------------------------------------

    def on_round(self, ctx: NodeContext) -> None:
        """One node's round: :meth:`on_rounds` over a batch of one."""
        type(self).on_rounds([(self, ctx)])

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "on_round" in cls.__dict__ and "on_rounds" not in cls.__dict__:
            raise TypeError(
                f"{cls.__name__} overrides on_round, which the engine's batch "
                "entry bypasses; extend _prepare / _act instead"
            )

    @classmethod
    def on_rounds(
        cls,
        batch: Sequence[tuple["MaintenanceNode", NodeContext]],
        mark: Callable[[str], None] | None = None,
    ) -> None:
        """The round of every node of ``batch`` (sorted-id order), staged.

        **prepare** — each node absorbs its inbox (:meth:`_prepare`: tokens,
        slots, handover records); it may draw from its own stream, it sends
        nothing.  At even rounds one :func:`introductions` pass then gives
        every node its new neighbourhood, and each cuts over
        (:meth:`_cutover_band`).  **plan** — per band of consecutive
        nodes, one :class:`HopPlan` does everything rng-free about their
        forwarding step, one :class:`JoinPlan` their join rebroadcast and,
        at odd rounds, one :func:`launch_chunks` pass their pending
        launches, as array passes.  **act** — each node, in order, does
        what is order-bound (:meth:`_act`: delivery events and draws in row
        order, filing, then rebroadcast, joins, tokens, matchmaking).

        Preparing every node before any acts is unobservable: nodes interact
        only through next-round delivery, prepare files nothing, and each
        node's draw order and each sender's chunk order are those of the
        node-at-a-time loop.  Bands bound the plan's transient memory.
        With a ``mark``, each stage reports its end: ``"prepare"`` once, then
        ``"plan"`` and ``"act"`` per band (a band's plan closes after its act).
        """
        steps = [node._prepare(ctx) for node, ctx in batch]
        odd = bool(batch) and batch[0][1].round % 2 == 1
        if batch and not odd:
            cls._cutover_band(batch, steps)
        if mark is not None:
            mark("prepare")
        start = pairs = 0
        holders: list[int] = []
        launchers: list[int] = []
        for k, step in enumerate(steps):
            if step.fin_index is not None:
                holders.append(k)
                pairs += batch[k][1].hops.size
            if odd and step.hop_index is not None and batch[k][0]._pending_launch:
                launchers.append(k)
            if pairs < _BAND_PAIRS and k + 1 < len(steps):
                continue
            plan = None
            if holders or launchers:
                if holders:
                    plan = cls._plan_band(batch, steps, holders)
                if launchers:
                    cls._plan_launches(batch, steps, launchers)
                if mark is not None:
                    mark("plan")
            for j in range(start, k + 1):
                node, ctx = batch[j]
                node._act(ctx, steps[j])
            if mark is not None:
                mark("act")
            if plan is not None:
                plan.close()
                if mark is not None:
                    mark("plan")
            start = k + 1
            pairs = 0
            holders = []
            launchers = []

    @staticmethod
    def _cutover_band(
        batch: Sequence[tuple["MaintenanceNode", NodeContext]],
        steps: Sequence["_Step"],
    ) -> None:
        """Stage 1, even rounds, once the whole batch has prepared: one
        :func:`introductions` pass resolves every node's CREATE batches, then
        each node installs or demotes (:meth:`_cutover`) and picks the index
        it forwards this round's hops in."""
        node, ctx = batch[0]
        e = ctx.round // 2
        records = introductions(
            [(node.id, step.creates) for (node, _), step in zip(batch, steps)],
            e,
            node._epoch_cache,
            list_radius=node._list_radius,
            db_radius=node._db_radius,
        )
        for (node, ctx), step, recs in zip(batch, steps, records):
            node._cutover(ctx, e, recs)
            if node.phase is Phase.ESTABLISHED and ctx.hops is not None:
                step.hop_index = step.fin_index = node._d_members()

    @staticmethod
    def _plan_band(
        batch: Sequence[tuple["MaintenanceNode", NodeContext]],
        steps: Sequence["_Step"],
        holders: Sequence[int],
    ) -> HopPlan:
        """Stage 2 of the round for the hop-holding nodes ``holders`` of
        ``batch``: one forwarding plan and, over the holders it hands
        arrived join records, one rebroadcast plan; each holder's shares are
        left on its step."""
        node, ctx = batch[holders[0]]
        plan = HopPlan(
            ctx.hop_delivery,
            [
                (
                    batch[h][1].hops,
                    steps[h].hop_index,
                    steps[h].fin_index,
                    batch[h][0].id,
                    batch[h][0].pos,
                )
                for h in holders
            ],
            even=ctx.round % 2 == 0,
            rho=node._swarm_radius,
            r=node._r,
            intern=ctx.intern_hops,
            reference=node._epoch_cache.reference,
        )
        joining = []
        for h, share in zip(holders, plan.nodes):
            steps[h].plan = share
            if share[0]:
                joining.append((h, share[0]))
        if joining:
            joins = JoinPlan(
                [(recs, steps[h].fin_index, batch[h][0].id) for h, recs in joining],
                list_radius=node._list_radius,
                db_radius=node._db_radius,
                reference=node._epoch_cache.reference,
            )
            for (h, _), share in zip(joining, joins.nodes):
                steps[h].joins = share
        return plan

    @staticmethod
    def _plan_launches(
        batch: Sequence[tuple["MaintenanceNode", NodeContext]],
        steps: Sequence["_Step"],
        launchers: Sequence[int],
    ) -> None:
        """Stage 2 at odd rounds: the initial multicasts of the pending
        launches of ``launchers`` (nodes of ``batch``), as plane rows and one
        chunk per launcher, left on its step.  The round's forwarded hops
        are its first plane rows, so they are interned before the launches
        are appended (a no-op once this round's forwarding plan did it)."""
        node, ctx = batch[launchers[0]]
        if ctx.hop_delivery is not None:
            hop_columns(ctx.hop_delivery, False, ctx.intern_hops)
        chunks = launch_chunks(
            [
                (batch[j][0].id, batch[j][0]._pending_launch, steps[j].hop_index)
                for j in launchers
            ],
            step=0,
            lam=node._lam,
            rho=node._swarm_radius,
            append=ctx.append_hops,
        )
        for j, chunk in zip(launchers, chunks):
            steps[j].launch = chunk

    def _prepare(self, ctx: NodeContext) -> "_Step":
        """Stage 1 of the round: absorb the inbox.  Sends nothing.  At even
        rounds the CREATE batches are left on the step for the cutover."""
        creates: list[CreateBatch] = []
        join_batches: list[JoinBatch] = []
        token_msgs: list[TokenMsg] = []
        connects: list[ConnectMsg] = []
        grants: list[TokenGrant] = []
        notices: list[JoinNotice] = []
        # Exact-type dispatch: one dict probe per message instead of an
        # isinstance chain (all message classes are final).  Routed hops are
        # not in the inbox: they arrive as ``ctx.hops`` rows of the hop plane.
        buckets: dict[type, list] = {
            CreateBatch: creates,
            JoinBatch: join_batches,
            TokenMsg: token_msgs,
            ConnectMsg: connects,
            TokenGrant: grants,
            JoinNotice: notices,
        }
        for _, msg in ctx.inbox:
            bucket = buckets.get(msg.__class__)
            if bucket is not None:
                bucket.append(msg)

        self._absorb_tokens(ctx, token_msgs, grants)
        self._fill_slots(ctx, connects)

        step = _Step(notices, creates)
        if ctx.round % 2 == 1:
            self._store_handover(ctx, join_batches, step)
        return step

    def _act(self, ctx: NodeContext, step: "_Step") -> None:
        """Stage 3 of the round: everything order-bound, sends included."""
        if ctx.round % 2 == 0:
            self._even_act(ctx, step)
        elif self.phase is Phase.ESTABLISHED:
            self._odd_act(ctx, step)

        # Bootstrap duties are parity-independent: the notice arrives in the
        # join round and must be answered as soon as tokens allow (the
        # newcomer knows nobody until the grant lands).
        for notice in step.notices:
            self._handle_join_notice(ctx, notice)
        if not step.notices:
            self._serve_pending_grants(ctx)

        self._expire_tokens(ctx.round)

    def _forward(self, ctx: NodeContext, plan: NodePlan) -> list[JoinRecord]:
        """This node's share of the round's forwarding plan, in row order.

        The plan knows which final deliveries can touch this node and how
        many uniforms the mid-route picks before each of them consume;
        drawing them in those runs is stream-identical to one draw per
        pick, so a delivery that draws (a rank-matching token) interleaves
        with the picks around it exactly as row by row.  The filed ``flat``
        is a view the plan completes when the band closes.  Returns the
        arrived join records (arrival order).
        """
        join_recs, events, u, rows, lens, flat = plan
        random = ctx.rng.random
        msgs = ctx.hop_delivery.msgs
        drawn = 0
        for row, due in events:
            if due > drawn:
                random(out=u[drawn:due])
                drawn = due
            self._deliver(ctx, msgs[row])
        if drawn < u.size:
            random(out=u[drawn:])
        ctx.file_hops(rows, lens, flat)
        return join_recs

    # ------------------------------------------------------------------
    # A_RANDOM plumbing shared by both parities
    # ------------------------------------------------------------------

    def _absorb_tokens(
        self, ctx: NodeContext, token_msgs: list[TokenMsg], grants: list[TokenGrant]
    ) -> None:
        expiry = ctx.round + TOKEN_TTL
        for tm in token_msgs:
            self.tokens.append((expiry, tm.owner))
        for grant in grants:
            for owner in grant.tokens:
                self.tokens.append((expiry, owner))
            if self.phase is Phase.NEW:
                self.phase = Phase.FRESH

    def _fill_slots(self, ctx: NodeContext, connects: list[ConnectMsg]) -> None:
        if len(connects) > self.max_connects_in_round:
            self.max_connects_in_round = len(connects)
        for cm in connects:
            self.connects_received += 1
            if cm.node in self.slots:
                continue  # already registered this cycle
            empty = [i for i, s in enumerate(self.slots) if s is None]
            if not empty:
                self.connects_dropped += 1
                continue
            i = int(ctx.rng.choice(empty))
            self.slots[i] = cm.node

    def _expire_tokens(self, t: int) -> None:
        self.tokens = [(exp, owner) for exp, owner in self.tokens if exp > t]
        cap = 6 * self.params.delta_eff
        if len(self.tokens) > cap:
            self.tokens = self.tokens[-cap:]

    def _take_tokens(self, ctx: NodeContext, count: int) -> list[int]:
        """Up to ``count`` distinct token owners, u.a.r.

        Tokens are sampled, not consumed — they expire via their TTL instead.
        (The paper discards tokens after one round but also assumes a
        Theta(log n) token flow with generous constants; reuse inside the
        short TTL window keeps small-n runs supplied without changing what
        the adversary can learn.)
        """
        owners = list({owner for _, owner in self.tokens if owner != self.id})
        if not owners:
            return []
        ctx.rng.shuffle(owners)
        return owners[:count]

    def _handle_join_notice(self, ctx: NodeContext, notice: JoinNotice) -> None:
        """Bootstrap duty (Listing 4, "Upon v joining")."""
        self._pending_grants[notice.new_id] = ctx.round + 4 * self.params.lam
        self._serve_pending_grants(ctx)

    def _serve_pending_grants(self, ctx: NodeContext) -> None:
        """Supply owed newcomers with tokens + CONNECTs (retry while dry)."""
        if not self._pending_grants:
            return
        delta = self.params.delta_eff
        served: list[int] = []
        for v, expiry in self._pending_grants.items():
            if ctx.round > expiry:
                served.append(v)  # newcomer churned or hopeless; give up
                continue
            connect_targets = self._take_tokens(ctx, delta)
            grant_tokens = self._take_tokens(ctx, delta)
            if len(grant_tokens) < delta:
                # Fall back to current-overlay neighbours (mature by
                # construction).  Documented deviation — keeps joins during
                # token droughts alive.
                backup = [w for w in self.d_nbrs if w != v]
                ctx.rng.shuffle(backup)
                while len(connect_targets) < delta and backup:
                    connect_targets.append(backup.pop())
                while len(grant_tokens) < delta and backup:
                    grant_tokens.append(backup.pop())
            if not grant_tokens:
                continue  # still dry; retry next round
            for w in connect_targets:
                ctx.send(w, ConnectMsg(v))
            ctx.send(v, TokenGrant(tuple(grant_tokens)))
            served.append(v)
        for v in served:
            self._pending_grants.pop(v, None)

    # ------------------------------------------------------------------
    # Even rounds
    # ------------------------------------------------------------------

    def _even_act(self, ctx: NodeContext, step: "_Step") -> None:
        e = ctx.round // 2
        if self.phase is Phase.ESTABLISHED:
            if step.plan is not None:
                join_recs = self._forward(ctx, step.plan)
                if step.joins is not None:
                    self._rebroadcast_joins(ctx, join_recs, step.joins)
            self._launch_joins(ctx, e)
            self._emit_tokens(ctx)
            self._launch_queued_probes(ctx)
        if self.phase is Phase.FRESH or (
            self.phase is Phase.ESTABLISHED
            and self._first_epoch is not None
            and e < self._first_epoch + self.params.lam + 2
        ):
            self._fresh_connect(ctx)
        # Slots served this cycle's join launches and token forwards; reset.
        self.slots = [None] * (2 * self.params.delta_eff)

    def _cutover(self, ctx: NodeContext, e: int, records: dict[int, float]) -> None:
        """Install the epoch-``e`` neighbourhood ``records`` its CREATE
        batches introduced (:func:`introductions`, in first-occurrence
        order — the order is observable: ``_serve_pending_grants`` shuffles
        it).  When nobody is introduced — no batch, or only empty or stale
        ones — nothing is installed: the node keeps its state
        during bootstrap and demotes itself once cutovers are due.
        """
        if records:
            if self.phase is not Phase.ESTABLISHED or self.epoch is None:
                self._first_epoch = e
                self.phase = Phase.ESTABLISHED
            self.epoch = e
            self.pos = self._pos_of(self.id, e)
            self.d_nbrs = records
            self._d_index = None
        elif (
            self.phase is Phase.ESTABLISHED
            and e >= self.params.lam + 2
            and (self.epoch is None or self.epoch < e)
        ):
            # Expected cutover records never arrived: we fell out of the
            # overlay.  Demote and recover through the token machinery.
            self.phase = Phase.FRESH
            self.epoch = None
            self.pos = None
            self.d_nbrs = {}
            self._d_index = None
            self.demotions += 1

    def _rebroadcast_joins(
        self, ctx: NodeContext, join_recs: list[JoinRecord], share: JoinShare
    ) -> None:
        """Rebroadcast the arrived join records to the current holders of
        their three Definition-5 arcs (Listing 3 line 10), as planned by the
        band's :class:`JoinPlan`: each receiver gets one :class:`JoinBatch`
        of its records in arrival order, receivers in first-touch order.
        Receivers whose record sequences are equal share one batch object.
        """
        receivers, seq_of, seq_off, seq_rec = share
        if not receivers.size:
            return
        recs = seq_rec.tolist()
        offs = seq_off.tolist()
        batches = [
            JoinBatch(tuple([join_recs[j] for j in recs[lo:hi]]))
            for lo, hi in zip(offs, offs[1:])
        ]
        ctx.send_singles_batch(
            list(zip(receivers.tolist(), [batches[s] for s in seq_of.tolist()]))
        )

    def _in_swarm(self, point):
        """Whether ``point`` (a scalar or an array of points) lies within
        this node's swarm radius on the ring."""
        if self.pos is None:
            return False
        gap = np.abs(self.pos - point)
        return np.minimum(gap, 1.0 - gap) <= self._swarm_radius

    def _launch_routed(
        self,
        ctx: NodeContext,
        msg_id: object,
        target: float,
        payload: object,
        sample_rank: int | None = None,
    ) -> None:
        """Launch a routed request from this node's position: recorded as a
        :class:`Launch`, multicast at the next odd round (the band's
        :func:`launch_chunks` pass builds its message and trajectory)."""
        pending = self._pending_launch
        pending.append(
            Launch(msg_id, ctx.round, len(pending), self.pos, target, sample_rank, payload)
        )

    def _launch_joins(self, ctx: NodeContext, e: int) -> None:
        """Launch this cycle's JOIN requests (self + sponsored fresh nodes)."""
        target_epoch = e + self.params.lam + 2
        candidates = [self.id] + [v for v in self.slots if v is not None]
        for v in dict.fromkeys(candidates):
            pos = self._pos_of(v, target_epoch)
            rec = JoinRecord(v, pos, target_epoch)
            self._launch_routed(
                ctx, ("join", v, target_epoch, self.id), pos, payload=("join", rec)
            )
            self.joins_launched += 1

    def _emit_tokens(self, ctx: NodeContext) -> None:
        """A_RANDOM step 1: send tau tokens to random nodes via A_SAMPLING."""
        params = self.params
        for i in range(params.tau_eff):
            target = float(ctx.rng.random())
            delta = int(ctx.rng.integers(0, params.sampling_rank_range))
            self._launch_routed(
                ctx,
                ("token", self.id, ctx.round, i),
                target,
                payload=("token", self.id),
                sample_rank=delta,
            )

    def _launch_queued_probes(self, ctx: NodeContext) -> None:
        for probe_id, target in self._queued_probes:
            self._launch_routed(
                ctx, ("probe", probe_id, self.id), target, payload=("probe", probe_id)
            )
        self._queued_probes.clear()

    def _fresh_connect(self, ctx: NodeContext) -> None:
        """Fresh-node duty: register with delta random mature nodes."""
        for owner in self._take_tokens(ctx, self.params.delta_eff):
            ctx.send(owner, ConnectMsg(self.id))

    # ------------------------------------------------------------------
    # Odd rounds
    # ------------------------------------------------------------------

    def _store_handover(
        self, ctx: NodeContext, join_batches: list[JoinBatch], step: "_Step"
    ) -> None:
        """Store the handover records ``H`` for the next overlay and pick the
        index in-flight hops are handed over in (``H`` once the join
        pipeline has filled, the current overlay before)."""
        e_next = ctx.round // 2 + 1
        self.h_records = {}
        for jb in join_batches:
            for rec in jb.records:
                if rec.epoch == e_next:
                    self.h_records[rec.node] = rec
        if self.phase is not Phase.ESTABLISHED:
            return
        if self.h_records:
            table = {v: r.pos for v, r in self.h_records.items()}
            step.h_index = self._epoch_cache.index_for(e_next, frozenset(table), table)
        step.hop_index = (
            step.h_index if step.h_index is not None else self._d_members()
        )
        if ctx.hops is not None:
            # Finals are rank-tested in the *current* overlay.
            step.fin_index = self._d_members()

    def _odd_act(self, ctx: NodeContext, step: "_Step") -> None:
        # Handover of in-flight hops + final deliveries.
        if step.plan is not None:
            self._forward(ctx, step.plan)

        # Initial multicasts of this cycle's launches (this sender's forward
        # chunk is filed before its launch chunk).
        if step.launch is not None:
            ctx.file_hops(*step.launch)
            self._pending_launch.clear()

        # Matchmaking: introduce next-overlay neighbours to each other.
        if step.h_index is not None:
            self._matchmake(ctx, step.h_index, ctx.round // 2 + 1)

    def _matchmake(self, ctx: NodeContext, h_index: PositionIndex, e_next: int) -> None:
        """Send each next-overlay node its Definition-5 neighbours (CREATE).

        One :class:`CreateBatch` naming the interned ``h_index``, sent to
        each record held, in ``h_records`` arrival order: each receiver's
        cutover resolves which members of ``h_index`` that introduces to it.
        A target alone in its arcs is introduced to nobody.
        """
        batch = CreateBatch(h_index, e_next)
        ctx.send_singles_batch([(v, batch) for v in self.h_records])

    # ------------------------------------------------------------------
    # Final deliveries
    # ------------------------------------------------------------------

    def _deliver(self, ctx: NodeContext, msg: RoutedMessage) -> None:
        payload = msg.payload
        tag = payload[0] if isinstance(payload, tuple) else None
        if tag == "probe":
            self.delivered.append((payload, ctx.round))
            return
        if tag == "token":
            # A_SAMPLING rank rule: only the node at rank Delta accepts.
            if msg.sample_rank is None:
                return
            rank = self._my_rank(msg.target)
            if rank is None or rank != msg.sample_rank:
                return
            self.sampled_tokens_seen += 1
            owner = payload[1]
            # Step 3 of token distribution: keep or forward to a random slot.
            if ctx.rng.random() < 0.5:
                self.tokens.append((ctx.round + TOKEN_TTL, owner))
            else:
                filled = [s for s in self.slots if s is not None]
                if filled:
                    target = filled[int(ctx.rng.random() * len(filled))]
                    ctx.send(target, TokenMsg(owner))
                else:
                    self.tokens.append((ctx.round + TOKEN_TTL, owner))
            return
        # Unknown payloads are recorded for diagnosis.
        self.delivered.append((payload, ctx.round))

    def _my_rank(self, point: float) -> int | None:
        # O(1) via the index's lazy slot map — same value as the documented
        # ``ids_within_list(point, rho).index(self.id)`` rank rule.
        return self._d_members().rank_within(point, self._swarm_radius, self.id)
