"""Full-simulation fingerprints for bit-for-bit equivalence tests.

A *fingerprint* condenses everything observable about a maintenance run into
one digest: per-round metrics (sent/received/alive), the exact edge multiset
``E_t`` of every round, the churn decisions, every node's final protocol
state, the structural audit and the probe report.  Two runs with the same
fingerprint behaved identically at the message level — the digest is the
contract every change to the round path must honour.

The golden digests recorded in ``test_equivalence.py`` were captured from
the pre-epoch-cache code, so any optimisation that changes behaviour (one
extra RNG draw, one reordered send) flips the digest.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.adversary.oblivious import RandomChurnAdversary
from repro.config import ProtocolParams
from repro.core.runner import MaintenanceSimulation
from repro.faults.plan import FaultPlan, MessageFaults, NodeStall

__all__ = ["round_snapshot", "node_snapshot", "sim_fingerprint", "run_scenario", "SCENARIOS"]


def round_snapshot(sim: MaintenanceSimulation, t: int) -> tuple:
    """Everything observable about round ``t`` (call right after the round)."""
    report = sim.engine.reports[t]
    metrics = report.metrics
    edges = sim.engine.trace.edges_at(t)
    faults = metrics.faults
    return (
        t,
        (metrics.total_sent, metrics.max_sent, metrics.mean_sent),
        (metrics.max_received, metrics.mean_received),
        metrics.alive,
        (faults.dropped, faults.delayed, faults.duplicated, faults.stalled)
        if faults is not None
        else None,
        tuple(sorted(report.decision.leaves)),
        tuple(sorted((j.new_id, j.bootstrap_id) for j in report.decision.joins)),
        tuple(sorted(edges)) if edges is not None else None,
    )


def node_snapshot(sim: MaintenanceSimulation, v: int) -> tuple:
    """One node's complete protocol state, in canonical order."""
    node = sim.node(v)
    return (
        v,
        node.phase.value,
        node.epoch,
        node.pos,
        tuple(sorted(node.d_nbrs.items())),
        tuple(sorted((w, rec.pos, rec.epoch) for w, rec in node.h_records.items())),
        tuple(node.tokens),
        tuple(node.slots),
        tuple((repr(payload), t) for payload, t in node.delivered),
        tuple(sorted(node._pending_grants.items())),
        tuple(msg.msg_id for msg in node._pending_launch),
        (
            node.sampled_tokens_seen,
            node.connects_received,
            node.connects_dropped,
            node.max_connects_in_round,
            node.demotions,
            node.joins_launched,
        ),
    )


def sim_fingerprint(sim: MaintenanceSimulation, rounds: list[tuple]) -> str:
    """Digest of per-round snapshots + final node states + audits."""
    audit = sim.audit_overlay()
    parts = [
        tuple(rounds),
        tuple(node_snapshot(sim, v) for v in sorted(sim.engine.alive)),
        (
            audit.epoch,
            audit.members,
            audit.alive,
            audit.established_fraction,
            audit.missing_edges,
            audit.required_edges,
            audit.min_swarm_size,
            audit.mean_swarm_size,
        ),
    ]
    if sim._probe_targets:
        probe = sim.probe_report()
        parts.append((probe.launched, probe.delivered, probe.mean_receivers))
    return hashlib.blake2b(repr(parts).encode(), digest_size=16).hexdigest()


def _scenario_steady(**sim_kwargs) -> MaintenanceSimulation:
    params = ProtocolParams(n=48, c=1.2, r=2, delta=3, tau=8, seed=1)
    return MaintenanceSimulation(params, **sim_kwargs)


def _scenario_churn(**sim_kwargs) -> MaintenanceSimulation:
    params = ProtocolParams(n=48, c=1.2, r=2, delta=3, tau=8, seed=3)
    adversary = RandomChurnAdversary(params, seed=5, intensity=1.0)
    return MaintenanceSimulation(params, adversary, **sim_kwargs)


def _scenario_faults(**sim_kwargs) -> MaintenanceSimulation:
    params = ProtocolParams(n=32, c=1.2, r=2, delta=3, tau=8, seed=7)
    plan = FaultPlan(
        seed=11,
        messages=(MessageFaults(drop_p=0.04, delay_p=0.05, delay_rounds=2, duplicate_p=0.03),),
        stalls=(NodeStall(stall_p=0.02),),
    )
    return MaintenanceSimulation(params, faults=plan, **sim_kwargs)


def _scenario_churn_faults(**sim_kwargs) -> MaintenanceSimulation:
    params = ProtocolParams(n=32, c=1.2, r=2, delta=3, tau=8, seed=9)
    adversary = RandomChurnAdversary(params, seed=13, intensity=0.8)
    plan = FaultPlan(
        seed=17,
        messages=(MessageFaults(drop_p=0.03, delay_p=0.04, delay_rounds=1, duplicate_p=0.02),),
        stalls=(NodeStall(stall_p=0.02),),
    )
    return MaintenanceSimulation(params, adversary, faults=plan, **sim_kwargs)


#: scenario name -> (builder, rounds to run).  Rounds reach past the first
#: cutover wave (2 * (lam + 3)) so the full join pipeline is exercised.
SCENARIOS = {
    "steady": (_scenario_steady, 24),
    "churn": (_scenario_churn, 30),
    "faults": (_scenario_faults, 24),
    "churn_faults": (_scenario_churn_faults, 28),
}


def run_scenario(name: str, **sim_kwargs) -> str:
    """Run one named scenario round by round; returns its fingerprint.

    Probes are queued mid-run so final-delivery paths contribute to the
    digest.  ``sim_kwargs`` forward to :class:`MaintenanceSimulation`
    (``faults=``, ``workers=``).
    """
    builder, total = SCENARIOS[name]
    sim = builder(**sim_kwargs)
    try:
        probe_rng = np.random.default_rng(99)
        rounds: list[tuple] = []
        for t in range(total):
            if t == 4:  # early enough that deliveries (2*lam + 2 later) land in-run
                sim.send_probes(6, probe_rng)
            sim.engine.run_round()
            rounds.append(round_snapshot(sim, t))
        return sim_fingerprint(sim, rounds)
    finally:
        # Release shard workers / shared slabs on sharded runs (W=1: no-op).
        sim.close()
