"""E-L17, E-L22 and E-T14 — the maintenance algorithm under churn.

* **E-L17 (Lemma 17, good swarms)**: under budget-maximal churn, every swarm
  of the maintained overlay keeps at least a 3/4 fraction of members that
  survive two more rounds (the goodness invariant of Definition 8).  A hand
  loop: its mid-run overlay snapshots are not in a cell's record.
* **E-L22 (Lemma 22, bounded connects)**: no mature node ever receives more
  than ``2*delta`` CONNECTs in a round (slot overflow stays negligible).
* **E-T14 (Theorem 14, the main result)**: the mature nodes form a routable
  series of overlays for the whole run — measured as structural edge
  coverage, end-to-end probe delivery, and zero overlay fallout — under the
  strongest adversaries the model admits.

E-T14's (adversary, n) pairs are generated scenario cells
(:func:`theorem14_scenario`) judged by
:func:`~repro.scenarios.runner.cell_ok`; E-L22 reads the CONNECT counters of
the ``random`` cell.
"""

from __future__ import annotations

from repro.adversary.oblivious import RandomChurnAdversary
from repro.core.runner import MaintenanceSimulation
from repro.experiments.registry import ExperimentResult, register
from repro.overlay.positions import PositionIndex
from repro.overlay.swarm import audit_goodness
from repro.scenarios.runner import cell_ok, run_matrix, run_scenario_cell
from repro.scenarios.spec import AdversarySpec, Scenario, build_params

__all__ = ["run_lemma17", "run_lemma22", "run_theorem14", "theorem14_scenario"]

#: E-T14's budget-maximal 2-late strategies.
ADVERSARIES: dict[str, AdversarySpec] = {
    "random": AdversarySpec("random"),
    "contact-trace": AdversarySpec("contact-trace", victim=0),
    "degree-target": AdversarySpec("degree-target", top=6),
}


def theorem14_scenario(kind: str, n: int) -> Scenario:
    """E-T14's cell: one of :data:`ADVERSARIES` on a reliable network.

    It runs three dilations plus 12 rounds past bootstrap (73 rounds in all
    at n=40), room for both probe waves to land.
    """
    return Scenario(
        name=f"t14-{kind}-n{n}",
        description=f"E-T14 cell: {kind} adversary at n={n}",
        adversaries=(ADVERSARIES[kind],),
        rounds=3 * build_params(n, 0).dilation + 12,
        n=n,
    )


@register("E-L17")
def run_lemma17(quick: bool = True, seed: int = 7) -> ExperimentResult:
    n = 40 if quick else 64
    params = build_params(n, seed)
    adv = RandomChurnAdversary(params, seed=seed + 1)
    sim = MaintenanceSimulation(params, adversary=adv)
    sim.run(params.bootstrap_rounds + 4)

    audits = 6 if quick else 15
    header = ["audit round", "overlay members", "min swarm size", "min good fraction"]
    rows = []
    min_overall = 1.0
    for _ in range(audits):
        # Snapshot the current overlay, run two rounds, measure survivors.
        snapshot_round = sim.round
        members = {
            v: node.pos
            for v, node in sim.established_nodes().items()
            if node.pos is not None
        }
        index = PositionIndex(members)
        sim.run(2)
        swarms = audit_goodness(index, params, sim.engine.alive)
        min_overall = min(min_overall, swarms.min_good_fraction)
        rows.append([snapshot_round, len(members), swarms.min_size, swarms.min_good_fraction])
        sim.run(2)
    passed = min_overall >= params.goodness
    return ExperimentResult(
        experiment_id="E-L17",
        title="Lemma 17 — swarms stay good under maximal churn",
        claim="Every swarm of every maintained overlay keeps >= 3/4 of its "
        "members alive two rounds later.",
        header=header,
        rows=rows,
        passed=passed,
        notes=[f"goodness threshold {params.goodness}; worst observed {min_overall:.3f}"],
    )


@register("E-L22")
def run_lemma22(quick: bool = True, seed: int = 8) -> ExperimentResult:
    scenario = theorem14_scenario("random", 40 if quick else 64)
    record = run_scenario_cell((scenario, seed))
    c = record["connects"]
    return ExperimentResult(
        experiment_id="E-L22",
        title="Lemma 22 — mature nodes receive at most 2*delta connects",
        claim="Fresh-node CONNECT load spreads so evenly that the 2*delta "
        "slot bound is (essentially) never exceeded.",
        header=["metric", "value", "bound"],
        rows=[
            ["max CONNECTs at one node in one round", c["max_in_round"], f"<= {c['bound']}"],
            ["total CONNECTs received", c["received"], "-"],
            ["CONNECTs dropped (slot overflow)", c["dropped"], "<= 2% of received"],
        ],
        passed=cell_ok(scenario, record),
        notes=[
            f"E-T14's random cell, n={record['n']}, {record['rounds']} rounds; counters "
            "include departed nodes; verdict: cell_ok (these bounds, delivery, "
            "edge coverage, demotions)"
        ],
    )


@register("E-T14")
def run_theorem14(quick: bool = True, seed: int = 9) -> ExperimentResult:
    sizes = [40] if quick else [48, 64]
    grid = [(kind, theorem14_scenario(kind, n)) for n in sizes for kind in ADVERSARIES]
    records = {r["scenario"]: r for r in run_matrix([s for _, s in grid], (seed,))}
    rows = []
    for kind, scenario in grid:
        r = records[scenario.name]
        p = r["probes"]
        rows.append([
            kind, r["n"], r["rounds"], r["established_fraction"], r["edge_coverage"],
            p["delivery_rate"], p["origin_left"], r["demotions"], r["peak_congestion"],
            cell_ok(scenario, r),
        ])
    return ExperimentResult(
        experiment_id="E-T14",
        title="Theorem 14 — a routable overlay under a (2, O(log n))-late adversary",
        claim="The mature nodes form a routable series of overlays (full "
        "Definition-5 edge coverage + end-to-end delivery) against every "
        "budget-maximal 2-late strategy.",
        header=[
            "adversary", "n", "rounds", "established frac", "edge coverage",
            "probe delivery", "origin left", "demotions", "peak congestion", "ok",
        ],
        rows=rows,
        passed=all(row[-1] for row in rows),
        notes=[
            f"one scenario cell per row, seed {seed}: two 6-probe waves, one audit at "
            "the end; ok = cell_ok (delivery >= 0.95, edge coverage >= 0.99, "
            "demotions <= 1, Lemma 22's bounds)",
            "origin left = probes whose origin left before multicasting them "
            "(never sent, so outside the delivery rate)",
        ],
    )
