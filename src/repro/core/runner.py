"""End-to-end maintenance simulation with invariant audits (Theorem 14).

:class:`MaintenanceSimulation` wires the :class:`MaintenanceNode` protocol
into the synchronous engine, primes the bootstrap overlay, runs rounds under
an adversary, and provides the audits the evaluation needs:

* **overlay audit** — compares every established node's claimed neighbourhood
  against the ground-truth Definition-5 edges over the true epoch positions
  (edge coverage, membership, swarm goodness);
* **probe traffic** — end-to-end routed probes whose delivery rate is the
  operational definition of "routable" (Definition 8);
* **health summary** — established fraction, demotions, congestion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.adversary.base import Adversary
from repro.config import ProtocolParams
from repro.core.bootstrap import prime_initial_overlay
from repro.faults.health import HealthMonitor
from repro.faults.plan import FaultPlan
from repro.core.node import MaintenanceNode, Phase
from repro.overlay.lds import LDSGraph
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
    """Run the full protocol of Section 5 and audit its invariants."""

    def __init__(
        self,
        params: ProtocolParams,
        adversary: Adversary | None = None,
        *,
        strict_budget: bool = True,
        distributed_bootstrap: bool = False,
        node_cls: type[MaintenanceNode] = MaintenanceNode,
        faults: FaultPlan | None = None,
        health: HealthMonitor | None = None,
        profiler: PhaseProfiler | None = None,
        workers: int = 1,
    ) -> None:
        self.params = params
        self.health = health
        self.profiler = profiler
        self.engine = Engine(
            params,
            lambda v, services: node_cls(v, services),
            adversary=adversary,
            strict_budget=strict_budget,
            faults=faults,
            health=health,
            profiler=profiler,
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
        self._probe_targets: dict[object, float] = {}

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

        Probes launch at the origin's next even round and are delivered to
        their target swarm ``2*lam + 2`` rounds after entering the network.
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
            self._probe_targets[probe_id] = target
            ids.append(probe_id)
        return ids

    def probe_report(self, probe_ids: list[object] | None = None) -> ProbeReport:
        """Delivery statistics for the given probes (default: all ever sent)."""
        wanted = set(probe_ids) if probe_ids is not None else set(self._probe_targets)
        receivers: dict[object, int] = {p: 0 for p in wanted}
        for node in self.alive_nodes():
            for payload, _round in node.delivered:
                if isinstance(payload, tuple) and payload[0] == "probe":
                    pid = payload[1]
                    if pid in receivers:
                        receivers[pid] += 1
        delivered = sum(1 for c in receivers.values() if c > 0)
        counts = [c for c in receivers.values() if c > 0]
        return ProbeReport(
            launched=len(wanted),
            delivered=delivered,
            mean_receivers=float(np.mean(counts)) if counts else 0.0,
        )

    # ------------------------------------------------------------------
    # Structural audit
    # ------------------------------------------------------------------

    def audit_overlay(self) -> OverlayAudit:
        """Check the current overlay against ground-truth Definition-5 edges."""
        alive = sorted(self.engine.alive)
        established = self.established_nodes()
        if not established:
            return OverlayAudit(
                epoch=-1,
                members=0,
                alive=len(alive),
                established_fraction=0.0,
                missing_edges=0,
                required_edges=0,
                min_swarm_size=0,
                mean_swarm_size=0.0,
            )
        # The current epoch is the newest one a majority of nodes are in.
        epochs = [n.epoch for n in established.values() if n.epoch is not None]
        epoch = int(np.bincount(np.array(epochs)).argmax())
        members = {
            v: n for v, n in established.items() if n.epoch == epoch
        }
        positions = {v: n.pos for v, n in members.items()}
        # Share the epoch cache's interned index (same elements — node
        # positions are hash-derived — without a re-sort).
        index = self.engine.services.epoch_cache.index_for(
            epoch, frozenset(positions), positions
        )
        truth = LDSGraph(index, self.params)
        missing = 0
        required = 0
        for v, node in members.items():
            req = {int(w) for w in truth.neighbors(v)}
            have = set(node.d_nbrs)
            required += len(req)
            missing += len(req - have)
        # Swarm statistics over the true member positions.
        sizes = [
            truth.index.count_within(p, self.params.swarm_radius)
            for p in list(positions.values())
        ]
        return OverlayAudit(
            epoch=epoch,
            members=len(members),
            alive=len(alive),
            established_fraction=len(established) / max(1, len(alive)),
            missing_edges=missing,
            required_edges=required,
            min_swarm_size=int(min(sizes)) if sizes else 0,
            mean_swarm_size=float(np.mean(sizes)) if sizes else 0.0,
        )

    def health_summary(self) -> dict[str, float]:
        """One-line health metrics for long-run monitoring."""
        alive = self.alive_nodes()
        established = sum(1 for n in alive if n.phase is Phase.ESTABLISHED)
        summary = {
            "round": float(self.round),
            "alive": float(len(alive)),
            "established_fraction": established / max(1, len(alive)),
            "total_demotions": float(sum(n.demotions for n in alive)),
            "peak_congestion": float(self.engine.metrics.peak_congestion()),
            "mean_congestion": float(self.engine.metrics.mean_congestion()),
        }
        if self.engine.faults is not None:
            totals = self.engine.metrics.fault_totals()
            summary["faults_injected"] = float(totals.injected)
        if self.health is not None:
            summary["degradation_events"] = float(len(self.health.events))
        return summary
