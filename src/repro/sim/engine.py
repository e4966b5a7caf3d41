"""The synchronous round engine — the paper's execution model.

Each round ``t`` unfolds exactly as in Section 1.1:

1. **Adversary phase** — before any message is received, the adversary picks
   a set ``O_t ⊆ V_{t-1}`` of leaving nodes (they receive nothing and vanish
   immediately) and a set of joining nodes, each with a bootstrap node from
   ``V_t ∩ V_{t-2}`` that receives the newcomer's reference this round.  The
   decision is validated against the churn budget (:class:`ChurnLedger`).
2. **Receive phase** — messages sent in round ``t-1`` are delivered to the
   surviving receivers.
3. **Compute + send phase** — every alive node runs its protocol step; sends
   become the edge set ``E_t`` and are delivered next round.

The engine records the graph trace (what the ``a``-late adversary sees),
collects congestion metrics, and hands each node only its own context — no
protocol can peek at global state.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from itertools import groupby
from operator import add
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.adversary.base import Adversary, ChurnDecision
from repro.adversary.budget import ChurnLedger, ChurnViolation
from repro.adversary.view import AdversaryView
from repro.config import ProtocolParams
from repro.faults.health import DegradationEvent, HealthMonitor
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.sim.epochs import EpochCache
from repro.sim.hopplane import HopDelivery, HopRows
from repro.sim.identity import Lifecycle
from repro.sim.metrics import MetricsCollector, RoundMetrics
from repro.sim.network import Inbox, Network
from repro.sim.profile import PhaseProfiler, PhaseTimings
from repro.sim.trace import GraphTrace
from repro.util.gctune import deferred_gc
from repro.util.rngs import PositionHash, RngService

__all__ = [
    "JoinNotice",
    "EngineServices",
    "NodeContext",
    "NodeProtocol",
    "RoundReport",
    "Engine",
]


@dataclass(frozen=True)
class JoinNotice:
    """Delivered to a bootstrap node when a new node joins via it (round t)."""

    __protocol__ = True

    new_id: int


@dataclass(frozen=True)
class EngineServices:
    """Engine-level services available to protocol instances.

    ``position_hash`` is the paper's uniform hash ``h(v, epoch)`` known to all
    nodes (but not to the adversary); ``rng`` hands out per-node protocol
    randomness streams.  ``epoch_cache`` shares memoised hash evaluations
    and interned position indexes across nodes — pure memoisation, so
    protocols may use it freely without changing what any node could have
    computed alone.
    """

    params: ProtocolParams
    rng: RngService
    position_hash: PositionHash
    epoch_cache: EpochCache


class NodeContext:
    """One node's window onto a single round.

    Routed hops are not in ``inbox``: they arrive as ``hops`` (this node's
    row-id array into the shared ``hop_delivery`` columns, ``None`` when no
    hop reached it this round) and are sent via :meth:`send_hops`.
    """

    __slots__ = (
        "node_id",
        "round",
        "inbox",
        "rng",
        "params",
        "joined_round",
        "_network",
        "hops",
        "hop_delivery",
    )

    def __init__(
        self,
        node_id: int,
        t: int,
        inbox: Inbox,
        rng: np.random.Generator,
        params: ProtocolParams,
        joined_round: int,
        network: Network,
        hops: "np.ndarray | None" = None,
        hop_delivery: HopDelivery | None = None,
    ) -> None:
        self.node_id = node_id
        self.round = t
        self.inbox = inbox
        self.rng = rng
        self.params = params
        self.joined_round = joined_round
        self._network = network
        self.hops = hops
        self.hop_delivery = hop_delivery

    @property
    def age(self) -> int:
        """Rounds since this node joined (0 during its join round)."""
        return self.round - self.joined_round

    def send(self, dst: int, msg: object) -> None:
        """Send ``msg`` to node ``dst`` (delivered next round)."""
        self._network.send(self.node_id, dst, msg)

    def send_singles_batch(self, items: list[tuple[int, object]]) -> None:
        """Send many single-receiver messages at once (plain-``int`` dsts).

        Order-equivalent to calling :meth:`send` per ``(dst, msg)`` item.
        Hot-path helper for the matchmaking and join-rebroadcast loops,
        which send one distinct payload per receiver.
        """
        self._network.send_singles_batch(self.node_id, items)

    def send_many(self, dsts: Sequence[int] | Iterable[int], msg: object) -> None:
        """Send the same message to several nodes."""
        self._network.send_many(self.node_id, dsts, msg)

    def send_hops(self, msg: object, step: int, dsts: Sequence[int]) -> None:
        """Multicast one routed hop via the columnar plane (plain-int dsts)."""
        self._network.send_hops(self.node_id, msg, step, dsts)

    def intern_hops(
        self, table: HopRows, rows: np.ndarray, steps: np.ndarray
    ) -> np.ndarray:
        """Plane rows for a whole round's forwarded hops, filed once as the
        round's first rows (see :meth:`HopPlane.intern_rows`)."""
        return self._network.plane.intern_rows(table, rows, steps)

    def append_hops(self, table: HopRows) -> int:
        """Add freshly launched hops to the plane; returns the first row id
        (see :meth:`HopPlane.append`)."""
        return self._network.plane.append(table)

    def file_hops(self, rows: np.ndarray, lens: np.ndarray, flat: np.ndarray) -> None:
        """File one chunk of this node's hops as ``int32`` arrays.

        ``rows[i]`` (a row from :meth:`intern_hops` or :meth:`append_hops`)
        is multicast to the next ``lens[i]`` receivers of ``flat`` — see
        :meth:`HopPlane.file`.
        """
        self._network.file_hops(self.node_id, rows, lens, flat)


class NodeProtocol(abc.ABC):
    """Per-node protocol state machine."""

    @abc.abstractmethod
    def on_round(self, ctx: NodeContext) -> None:
        """Handle one round: read ``ctx.inbox``, update state, send messages."""

    @classmethod
    def on_rounds(
        cls,
        batch: Sequence[tuple["NodeProtocol", NodeContext]],
        clock: Callable[[], float] | None = None,
    ) -> tuple[float, ...]:
        """Handle one round for every ``(node, ctx)`` of ``batch``.

        The engine's entry to a round's compute phase: the non-stalled nodes
        of one class, in sorted-id order.  The default is the
        node-at-a-time loop.  A protocol whose step has a part that batches
        across nodes overrides this — its sends must come out exactly as the
        loop would file them — and makes :meth:`on_round` the batch of one.
        With a ``clock`` an override may return the seconds it spent per
        stage (``PhaseTimings.compute_parts``); the default reports none.
        """
        for node, ctx in batch:
            node.on_round(ctx)
        return ()


ProtocolFactory = Callable[[int, EngineServices], NodeProtocol]


def _protocol_class(item: tuple[NodeProtocol, NodeContext]) -> type[NodeProtocol]:
    return type(item[0])


@dataclass(frozen=True)
class RoundReport:
    """What happened in one engine round.

    ``health`` carries the degradation events the attached
    :class:`~repro.faults.health.HealthMonitor` (if any) emitted this round.
    """

    round: int
    decision: ChurnDecision
    rejected: str | None
    metrics: RoundMetrics
    health: tuple[DegradationEvent, ...] = ()

    @property
    def alive(self) -> int:
        return self.metrics.alive


class Engine:
    """Drives the synchronous execution of a protocol under an adversary."""

    def __init__(
        self,
        params: ProtocolParams,
        protocol_factory: ProtocolFactory,
        adversary: Adversary | None = None,
        *,
        strict_budget: bool = True,
        join_min_age: int = 2,
        faults: FaultPlan | None = None,
        health: HealthMonitor | None = None,
        profiler: PhaseProfiler | None = None,
        workers: int = 1,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if workers > 1 and health is not None:
            # HealthMonitor probes protocol objects every round; under
            # sharding that would force a full gather per round, silently
            # erasing the decomposition.  Keep the combination an explicit
            # error instead of a 10x slowdown.
            raise ValueError("health monitoring requires workers=1")
        self.params = params
        self.rng_service = RngService(params.seed)
        position_hash = self.rng_service.position_hash()
        self.services = EngineServices(
            params=params,
            rng=self.rng_service,
            position_hash=position_hash,
            epoch_cache=EpochCache(position_hash),
        )
        self.protocol_factory = protocol_factory
        self.adversary = adversary
        self.strict_budget = strict_budget
        self.lifecycle = Lifecycle()
        self.network = Network()
        self.fault_plan = faults
        self.faults = (
            FaultInjector(faults, position_hash=self.services.position_hash)
            if faults is not None
            else None
        )
        if self.faults is not None:
            self.network.fault_hook = self.faults
        self.health = health
        #: Optional per-phase wall-time profiler; ``None`` (the default)
        #: skips every timing statement in :meth:`run_round`.
        self.profiler = profiler
        self.trace = GraphTrace()
        self.metrics = MetricsCollector()
        self.ledger = ChurnLedger(params, join_min_age=join_min_age)
        self.round = 0
        # Cached ``sorted(alive)`` for the compute phase; rebuilt only when a
        # round's churn decision actually changes the population.
        self._sorted_alive: list[int] | None = None
        self._protocols: dict[int, NodeProtocol] = {}
        self._rngs: dict[int, np.random.Generator] = {}
        self.reports: list[RoundReport] = []
        self.workers = workers
        self._shard = None  # built lazily at the first sharded run_round
        self._exchange_stats = None  # retained snapshot after close()
        self._shard_bands: dict[int, int] = {}
        self._gathered_round = -1
        self._pending_node_calls: list[tuple[int, str, tuple]] = []

    # ------------------------------------------------------------------
    # Population management
    # ------------------------------------------------------------------

    def seed_nodes(self, node_ids: Iterable[int]) -> None:
        """Create the initial population ``V_0`` (before the first round).

        Seeded nodes are treated as having joined "long ago" (negative join
        round) so age-based maturity predicates hold from round 0 — the paper
        assumes the bootstrap phase starts from an already-connected network.
        """
        if self.round != 0 or self.lifecycle.records:
            raise RuntimeError("seed_nodes must be called once, before running")
        for v in node_ids:
            self.lifecycle.add(int(v), joined_round=-(10**6))
            self._spawn(int(v))

    def _spawn(self, v: int) -> None:
        self._protocols[v] = self.protocol_factory(v, self.services)
        self._rngs[v] = self.rng_service.node_stream(v)

    def protocol_of(self, v: int) -> NodeProtocol:
        """The protocol instance of an alive node (for audits and tests).

        Under sharding the returned object is the master's snapshot of the
        worker-owned instance: the first access per round gathers every
        node's state from the owning workers (lazy, cached until the next
        sharded compute phase), so audits and fingerprints read exactly
        what the workers hold without any per-round cost on runs that
        never look.
        """
        if self._shard is not None and self._gathered_round != self.round:
            self._shard.sync_protocols()
            self._gathered_round = self.round
        return self._protocols[v]

    def forward_node_call(self, v: int, name: str, args: tuple = ()) -> None:
        """Mirror an out-of-band mutation of node ``v`` to its owning shard.

        Harness helpers (e.g. probe queueing) mutate protocol objects
        between rounds.  At ``workers == 1`` the caller already touched the
        live object and this is a no-op; under sharding the call is queued
        and replayed by the owning worker at the start of the next round's
        compute phase, before any ``on_round``.
        """
        if self._shard is not None:
            self._shard.forward_call(v, name, args)

    def close(self) -> None:
        """Shut down shard workers and release shared slabs (W=1: no-op)."""
        if self._shard is not None:
            self._exchange_stats = self._shard.stats
            self._shard.close()
            self._shard = None

    def exchange_stats(self):
        """Cumulative shard-exchange byte counters, or ``None`` at W=1.

        Returns the live :class:`~repro.sim.exchange.ExchangeStats` while
        the shard runner is up, and the retained final snapshot after
        :meth:`close` — so post-run assertions (CI's pipe-share gate) work
        either way.
        """
        if self._shard is not None:
            return self._shard.stats
        return self._exchange_stats

    @property
    def alive(self) -> frozenset[int]:
        return self.lifecycle.alive

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------

    def run_round(self) -> RoundReport:
        t = self.round
        prof = self.profiler
        clock = prof.clock if prof is not None else None
        if clock is not None:
            _t0 = clock()
        if self.faults is not None:
            self.faults.begin_round(t)
        self.services.epoch_cache.begin_round(t)

        # 1. Adversary phase.
        decision = ChurnDecision.none()
        rejected: str | None = None
        if self.adversary is not None and t >= self.adversary.active_from:
            view = AdversaryView(
                t,
                self.trace,
                self.lifecycle,
                topology_lateness=self.adversary.topology_lateness,
                state_lateness=self.adversary.state_lateness,
                budget_remaining=self.ledger.remaining(t),
            )
            proposed = self.adversary.decide(view)
            try:
                self.ledger.validate(t, proposed, self.lifecycle)
                decision = proposed
            except ChurnViolation as exc:
                if self.strict_budget:
                    raise
                rejected = str(exc)
                self.adversary.notify_rejected(proposed, rejected)

        for v in decision.leaves:
            self.lifecycle.remove(v, t)
            self._protocols.pop(v, None)
            self._rngs.pop(v, None)
        join_notices: dict[int, list[JoinNotice]] = {}
        for j in decision.joins:
            self.lifecycle.add(j.new_id, t)
            self._spawn(j.new_id)
            join_notices.setdefault(j.bootstrap_id, []).append(JoinNotice(j.new_id))
        self.ledger.commit(t, decision)
        if clock is not None:
            _t1 = clock()

        # 2. Receive phase (post-churn survivors only).  A node joining this
        # round receives nothing this round: everything due now was sent
        # before it existed, so its id cannot legitimately be addressed yet
        # (and a delayed copy must never leak into a join round).
        alive = self.lifecycle.alive
        receivers = (
            alive.difference(j.new_id for j in decision.joins)
            if decision.joins
            else alive
        )
        inboxes, received = self.network.deliver(receivers)
        hop_delivery = self.network.hop_delivery
        for w, notices in join_notices.items():
            # The reference arrives out of band (handed over by the adversary);
            # it is knowledge, not a message, so it adds no edge.
            inboxes.setdefault(w, []).extend((-1, n) for n in notices)
        if clock is not None:
            _t2 = clock()

        # 3. Compute + send phase, deterministic node order (the sorted list
        # is cached across rounds and rebuilt only on actual churn).  A
        # stalled node skips its compute phase entirely: its inbox for this
        # round is lost and it sends nothing (a transient omission fault — it
        # stays alive and messages already in flight to it are unaffected).
        ordered = self._sorted_alive
        if ordered is None or decision.leaves or decision.joins:
            ordered = self._sorted_alive = sorted(alive)
        compute_parts: tuple[float, ...] = ()
        if self.workers > 1:
            if self._shard is None:
                from repro.sim.shard import ShardRunner

                self._shard = ShardRunner(self, self.workers)
            self._shard.run_compute(t, decision, inboxes, hop_delivery, ordered)
        else:
            hop_rows = hop_delivery.rows if hop_delivery is not None else None
            batch = [
                (
                    self._protocols[v],
                    NodeContext(
                        node_id=v,
                        t=t,
                        inbox=inboxes.get(v, []),
                        rng=self._rngs[v],
                        params=self.params,
                        joined_round=self.lifecycle.joined_round(v),
                        network=self.network,
                        hops=hop_rows.get(v) if hop_rows is not None else None,
                        hop_delivery=hop_delivery,
                    ),
                )
                for v in ordered
                if self.faults is None or not self.faults.stalled(t, v)
            ]
            # One batch entry per run of nodes of one class (in practice:
            # one per round).
            for cls, run in groupby(batch, key=_protocol_class):
                parts = cls.on_rounds(list(run), clock)
                if parts:
                    compute_parts = (
                        tuple(map(add, compute_parts, parts)) if compute_parts else parts
                    )
        if clock is not None:
            _t3 = clock()

        edges, sent = self.network.close_send_phase()
        self.trace.record(
            t,
            edges,
            alive,
            joins=tuple(j.new_id for j in decision.joins),
            leaves=tuple(decision.leaves),
        )
        fault_stats = self.faults.round_stats() if self.faults is not None else None
        phases: PhaseTimings | None = None
        if clock is not None:
            _t4 = clock()
            shard_secs: tuple[float, ...] = ()
            xch_pipe = xch_shm = 0
            if self._shard is not None:
                shard_secs = self._shard.last_shard_seconds
                xch_pipe, xch_shm = self._shard.last_round_bytes
            phases = prof.record(
                _t1 - _t0,
                _t2 - _t1,
                _t3 - _t2,
                _t4 - _t3,
                shards=shard_secs,
                exchange_bytes_pipe=xch_pipe,
                exchange_bytes_shm=xch_shm,
                compute_parts=compute_parts,
            )
        metrics = self.metrics.record_round(
            t, sent, received, len(alive), faults=fault_stats, phases=phases
        )
        health_events: tuple[DegradationEvent, ...] = ()
        if self.health is not None:
            health_events = self.health.observe(self, t)
        report = RoundReport(
            round=t,
            decision=decision,
            rejected=rejected,
            metrics=metrics,
            health=health_events,
        )
        self.reports.append(report)
        self.round += 1
        return report

    def run(self, rounds: int) -> list[RoundReport]:
        """Run ``rounds`` consecutive rounds and return their reports.

        The loop runs under :func:`~repro.util.gctune.deferred_gc`: the
        round allocates tracked containers far faster than it creates
        cycles, and default-cadence full-heap collections cost ~30% of round
        time at n=512 while reclaiming nothing (the protocol object graph
        is acyclic).  Single ``run_round`` calls are left untouched.
        """
        with deferred_gc():
            return [self.run_round() for _ in range(rounds)]
