"""End-to-end maintenance simulation with invariant audits (Theorem 14).

:class:`MaintenanceSimulation` wires the :class:`MaintenanceNode` protocol
into the synchronous engine, primes the bootstrap overlay, runs rounds under
an adversary, and provides the audits the evaluation needs:

* **overlay audit** — compares the claimed neighbourhoods of the current
  epoch's established nodes against the ground-truth Definition-5 edges over
  the true epoch positions (edge coverage, membership, swarm sizes); the
  epoch, the edge gap and the swarm sizes come from :mod:`repro.overlay`;
* **probe traffic** — end-to-end routed probes whose delivery rate is the
  operational definition of "routable" (Definition 8), read from one scan
  of the alive nodes' deliveries (:meth:`MaintenanceSimulation.probe_arrivals`);
* **health summary** — established fraction, demotions, congestion.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.adversary.base import Adversary
from repro.config import ProtocolParams
from repro.core.bootstrap import prime_initial_overlay
from repro.faults.plan import FaultPlan
from repro.core.node import MaintenanceNode, Phase
from repro.overlay.lds import LDSGraph, current_epoch
from repro.overlay.swarm import audit_goodness
from repro.sim.engine import Engine, EngineServices
from repro.sim.profile import PhaseProfiler

__all__ = ["OverlayAudit", "ProbeReport", "MaintenanceSimulation"]


@dataclass(frozen=True)
class OverlayAudit:
    """Structural health of the current overlay epoch."""

    epoch: int
    members: int
    alive: int
    established_fraction: float
    missing_edges: int
    required_edges: int
    min_swarm_size: int
    mean_swarm_size: float

    @property
    def edge_coverage(self) -> float:
        """Fraction of required Definition-5 edges the nodes actually hold."""
        if self.required_edges == 0:
            return 1.0
        return 1.0 - self.missing_edges / self.required_edges


@dataclass(frozen=True)
class ProbeReport:
    """Delivery statistics of audit probes."""

    launched: int
    delivered: int
    mean_receivers: float

    @property
    def delivery_rate(self) -> float:
        return self.delivered / self.launched if self.launched else 1.0


class MaintenanceSimulation:
    """Run the full protocol of Section 5 and audit its invariants.

    The audits are pure reads composed of :mod:`repro.overlay` functions;
    none runs inside a round.
    """

    def __init__(
        self,
        params: ProtocolParams,
        adversary: Adversary | None = None,
        *,
        strict_budget: bool = True,
        distributed_bootstrap: bool = False,
        node_cls: type[MaintenanceNode] = MaintenanceNode,
        faults: FaultPlan | None = None,
        profiler: PhaseProfiler | None = None,
        workers: int = 1,
    ) -> None:
        self.params = params
        self.engine = Engine(
            params,
            lambda v, services: node_cls(v, services),
            adversary=adversary,
            strict_budget=strict_budget,
            faults=faults,
            observers=[profiler] if profiler is not None else [],
            workers=workers,
        )
        self.engine.seed_nodes(range(params.n))
        if distributed_bootstrap:
            # Build D_0 with the message-level construction of
            # repro.core.construction instead of the oracle priming; the
            # construction verifies itself against Definition 5 and its
            # (position-hash-seeded) result is installed on the nodes.
            self.initial_graph = prime_initial_overlay(
                self.engine, constructed=True
            )
        else:
            self.initial_graph = prime_initial_overlay(self.engine)
        self._probe_counter = 0
        self.probe_origins: dict[object, int] = {}

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, rounds: int) -> None:
        self.engine.run(rounds)

    def close(self) -> None:
        """Release engine resources (shard workers / shared slabs)."""
        self.engine.close()

    def exchange_stats(self):
        """Shard-exchange byte counters (``None`` on single-process runs).

        See :meth:`repro.sim.engine.Engine.exchange_stats`; usable both
        mid-run and after :meth:`close`.
        """
        return self.engine.exchange_stats()

    def __enter__(self) -> "MaintenanceSimulation":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def round(self) -> int:
        return self.engine.round

    @property
    def services(self) -> EngineServices:
        return self.engine.services

    def node(self, v: int) -> MaintenanceNode:
        proto = self.engine.protocol_of(v)
        assert isinstance(proto, MaintenanceNode)
        return proto

    def alive_nodes(self) -> list[MaintenanceNode]:
        return [self.node(v) for v in sorted(self.engine.alive)]

    def established_nodes(self) -> dict[int, MaintenanceNode]:
        return {
            v: self.node(v)
            for v in sorted(self.engine.alive)
            if self.node(v).phase is Phase.ESTABLISHED
        }

    # ------------------------------------------------------------------
    # Probe traffic (the operational routability check)
    # ------------------------------------------------------------------

    def send_probes(self, count: int, rng: np.random.Generator) -> list[object]:
        """Queue ``count`` probes at random established nodes.

        Probes launch at the origin's next even round, enter the network
        with the origin's multicast in the odd round after it, and are
        delivered to their target swarm ``2*lam + 2`` rounds after that.
        """
        established = sorted(self.established_nodes())
        if not established:
            raise RuntimeError("no established nodes to probe from")
        ids: list[object] = []
        for _ in range(count):
            origin = int(rng.choice(established))
            target = float(rng.random())
            probe_id = ("p", self._probe_counter)
            self._probe_counter += 1
            self.node(origin).queue_probe(probe_id, target)
            # Under sharding the live instance is worker-owned; replay the
            # mutation there before the next compute phase.
            self.engine.forward_node_call(
                origin, "queue_probe", (probe_id, target)
            )
            self.probe_origins[probe_id] = origin
            ids.append(probe_id)
        return ids

    def probe_arrivals(self, probe_ids: Iterable[object] | None = None) -> dict[object, list[int]]:
        """Delivery rounds of each probe (default: all ever sent), one entry
        per delivery recorded at a currently alive node."""
        wanted = self.probe_origins if probe_ids is None else probe_ids
        arrivals: dict[object, list[int]] = {p: [] for p in wanted}
        for node in self.alive_nodes():
            for payload, t in node.delivered:
                if isinstance(payload, tuple) and payload[0] == "probe":
                    rounds = arrivals.get(payload[1])
                    if rounds is not None:
                        rounds.append(t)
        return arrivals

    def probe_report(self, probe_ids: Iterable[object] | None = None) -> ProbeReport:
        """Delivery statistics for the given probes (default: all ever sent)."""
        arrivals = self.probe_arrivals(probe_ids)
        counts = [len(rounds) for rounds in arrivals.values() if rounds]
        return ProbeReport(
            launched=len(arrivals),
            delivered=len(counts),
            mean_receivers=float(np.mean(counts)) if counts else 0.0,
        )

    # ------------------------------------------------------------------
    # Structural audit
    # ------------------------------------------------------------------

    def audit_overlay(self) -> OverlayAudit:
        """Check the current overlay against ground-truth Definition-5 edges.

        The audited epoch is :func:`~repro.overlay.lds.current_epoch` of the
        established nodes; its members' claimed ``d_nbrs`` are compared with
        :meth:`LDSGraph.audit_claimed_adjacency`, and swarm sizes are taken
        by :func:`~repro.overlay.swarm.audit_goodness` at every member.
        """
        alive = len(self.engine.alive)
        established = self.established_nodes()
        epoch = current_epoch(n.epoch for n in established.values() if n.epoch is not None)
        if epoch is None:
            return OverlayAudit(-1, 0, alive, 0.0, 0, 0, 0, 0.0)
        members = {v: n for v, n in established.items() if n.epoch == epoch}
        positions = {v: n.pos for v, n in members.items()}
        # Share the epoch cache's interned index (same elements — node
        # positions are hash-derived — without a re-sort).
        index = self.engine.services.epoch_cache.index_for(
            epoch, frozenset(positions), positions
        )
        truth = LDSGraph(index, self.params)
        missing = truth.audit_claimed_adjacency({v: n.d_nbrs for v, n in members.items()})
        swarms = audit_goodness(index, self.params, centers=index.sorted_positions)
        return OverlayAudit(
            epoch=epoch,
            members=len(members),
            alive=alive,
            established_fraction=len(established) / max(1, alive),
            missing_edges=sum(len(gap) for gap in missing.values()),
            required_edges=truth.edge_count(),
            min_swarm_size=swarms.min_size,
            mean_swarm_size=swarms.mean_size,
        )

    def health_summary(self) -> dict[str, float]:
        """One-line health metrics for long-run monitoring.

        The node counters cover every node that ran, departed ones too, so
        the summary needs ``workers=1``: under sharding the departed nodes'
        counters stay in the workers.
        """
        if self.engine.workers > 1:
            raise ValueError("health summary requires workers=1")
        alive = self.alive_nodes()
        totals = Counter(self.engine.metrics.departed)
        for node in alive:
            node.fold_counters(totals)
        established = sum(1 for n in alive if n.phase is Phase.ESTABLISHED)
        return {
            "round": float(self.round),
            "alive": float(len(alive)),
            "established_fraction": established / max(1, len(alive)),
            "total_demotions": float(totals["demotions"]),
            "max_connects_in_round": float(totals["max_connects_in_round"]),
            "connects_received": float(totals["connects_received"]),
            "connects_dropped": float(totals["connects_dropped"]),
            "peak_congestion": float(self.engine.metrics.peak_congestion()),
            "mean_congestion": float(self.engine.metrics.mean_congestion()),
        }
