"""E-X4 (extension) — storage durability on the moving overlay.

The DHT layer replicates each item on the swarm responsible for its key and
hands the data over at every 2-round reconfiguration.  This experiment
measures durability: many items stored, then a long budget-maximal churn
phase with dozens of complete overlay rebuilds, then a full readback.
Expected shape: zero lost items, replica counts tracking the swarm size.

It stays a hand loop rather than a scenario cell: it runs ``DHTNode``s,
issues PUTs and GETs mid-run and reads replica stores, none of which a
cell's record carries.
"""

from __future__ import annotations

import numpy as np

from repro.adversary.oblivious import RandomChurnAdversary
from repro.core.dht import DHTNode
from repro.core.runner import MaintenanceSimulation
from repro.experiments.registry import ExperimentResult, register
from repro.scenarios.spec import build_params

__all__ = ["run_dht_durability"]


@register("E-X4")
def run_dht_durability(quick: bool = True, seed: int = 23) -> ExperimentResult:
    n = 48 if quick else 64
    n_items = 8 if quick else 24
    churn_rounds = 40 if quick else 120
    params = build_params(n, seed)
    adv = RandomChurnAdversary(params, seed=seed + 1)
    sim = MaintenanceSimulation(params, adversary=adv, node_cls=DHTNode)
    rng = np.random.default_rng(seed)

    sim.run(4)
    items = {f"item-{i}": f"payload-{i}" for i in range(n_items)}
    for i, (key, value) in enumerate(items.items()):
        sim.node(int(rng.integers(0, n))).queue_put(key, value)
    sim.run(2 * params.dilation + 6)

    def replicas(key: str) -> int:
        return sum(1 for v in sim.engine.alive if key in sim.node(v).store)

    reps_before = [replicas(k) for k in items]
    epoch_before = sim.audit_overlay().epoch
    sim.run(churn_rounds)
    epoch_after = sim.audit_overlay().epoch
    reps_after = [replicas(k) for k in items]

    reader = int(sorted(sim.established_nodes())[0])
    rids = {k: sim.node(reader).queue_get(k) for k in items}
    sim.run(2 * params.dilation + 6)
    recovered = 0
    for key, rid in rids.items():
        resp = sim.node(reader).responses.get(rid)
        if resp is not None and resp.found and resp.value == items[key]:
            recovered += 1

    header = ["metric", "value", "expectation", "ok"]
    rebuilds = epoch_after - epoch_before
    min_reps_after = min(reps_after)
    rows = [
        ["items stored", n_items, "-", True],
        ["overlay rebuilds survived", rebuilds, f">= {churn_rounds // 2 - 2}", rebuilds >= churn_rounds // 2 - 2],
        ["mean replicas after PUT", float(np.mean(reps_before)), "~ swarm size", min(reps_before) > 0],
        [
            "min replicas after churn",
            min_reps_after,
            f">= {params.expected_swarm_size / 3:.0f}",
            min_reps_after >= params.expected_swarm_size / 3,
        ],
        ["items recovered by GET", f"{recovered}/{n_items}", "all", recovered == n_items],
    ]
    passed = all(bool(r[-1]) for r in rows)
    return ExperimentResult(
        experiment_id="E-X4",
        title="Extension — DHT durability across reconfigurations",
        claim="Data replicated on key-responsible swarms survives arbitrarily "
        "many 2-round overlay rebuilds under budget-maximal churn.",
        header=header,
        rows=rows,
        passed=passed,
        notes=[f"n={n}, {churn_rounds} churn rounds, reader node {reader}"],
    )
