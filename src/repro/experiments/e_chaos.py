"""E-CH — chaos sweep: graceful degradation under environmental faults.

The paper proves its guarantees on a perfectly reliable synchronous network.
This experiment measures how far they degrade when the environment itself is
faulty: a drop-rate x delay x stall sweep of deterministic
:class:`~repro.faults.plan.FaultPlan`s (injected *outside* the adversary's
churn budget) against the two operational guarantees —

* **routing success** — end-to-end probe delivery rate (Theorem 14's
  routability criterion), and
* **maintenance survival** — established fraction, demotions, and the
  first degradation the :class:`~repro.sim.audit.Auditor` records (when
  swarm occupancy, edge symmetry, or connectivity first broke).

Each grid cell is a generated :class:`~repro.scenarios.spec.Scenario` with
no churn and no attack, run and judged by the scenario runner.  Expected
shape: the fault-free cell reproduces the paper's guarantees exactly, and
faults bend the overlay gracefully — the run *reports* the collapse as
degradations (events, demotions) rather than crashing, and never as a
contract violation, which fails the cell.
"""

from __future__ import annotations

from repro.experiments.registry import ExperimentResult, register
from repro.faults.plan import FaultPlan
from repro.scenarios.report import ROW_HEADER, cell_row
from repro.scenarios.runner import run_matrix
from repro.scenarios.spec import Scenario, build_params

__all__ = ["run_chaos", "chaos_scenario", "default_cells"]

#: One sweep cell: (drop probability, delay probability, stall probability).
Cell = tuple[float, float, float]

#: Extra rounds a delayed message waits (the sweep's fixed delay magnitude).
DELAY_ROUNDS = 1


def default_cells(quick: bool) -> list[Cell]:
    """The sweep grid: sparse axes screening (quick) or the full cross."""
    if quick:
        return [
            (0.0, 0.0, 0.0),  # baseline: the paper's reliable network
            (0.15, 0.0, 0.0),  # drop only
            (0.0, 0.3, 0.0),  # delay only
            (0.0, 0.0, 0.1),  # stall only
            (0.3, 0.3, 0.1),  # combined stress
        ]
    drops = (0.0, 0.15, 0.35)
    delays = (0.0, 0.3)
    stalls = (0.0, 0.1)
    return [(d, y, s) for d in drops for y in delays for s in stalls]


def chaos_scenario(cell: Cell, n: int) -> Scenario:
    """One sweep cell as a scenario, named e.g. ``chaos-d0.15-y0-s0``.

    The name spells each probability in its shortest round-trip form, so
    distinct cells always get distinct names.  The faults open when
    bootstrap ends and never close.  The run lasts a dilation plus 6 rounds
    past bootstrap: the probe wave launches 2 rounds in and gets a full
    dilation plus 4 rounds to land.
    """
    drop, delay, stall = (str(p).removesuffix(".0") for p in cell)
    drop_p, delay_p, stall_p = cell
    return Scenario(
        name=f"chaos-d{drop}-y{delay}-s{stall}",
        description=f"E-CH cell: drop {drop}, delay {delay}, stall {stall}",
        plan=FaultPlan.simple(
            drop_p=drop_p, delay_p=delay_p, delay_rounds=DELAY_ROUNDS, stall_p=stall_p
        ),
        rounds=build_params(n, 0).dilation + 6,
        n=n,
    )


@register("E-CH")
def run_chaos(quick: bool = True, seed: int = 11) -> ExperimentResult:
    """Chaos sweep — routing and maintenance under injected faults."""
    n = 40 if quick else 48
    sweep = default_cells(quick)
    scenarios = [chaos_scenario(cell, n) for cell in sweep]
    records = {r["scenario"]: r for r in run_matrix(scenarios, (seed,))}
    rows = [[*cell, *cell_row(s, records[s.name])[2:]] for cell, s in zip(sweep, scenarios)]
    return ExperimentResult(
        experiment_id="E-CH",
        title="Chaos — graceful degradation under drop x delay x stall faults",
        claim="On a reliable network the guarantees hold exactly; injected "
        "environmental faults degrade routing and maintenance gracefully, "
        "with health monitoring reporting when and how the LDS breaks "
        "instead of crashing.",
        header=["drop", "delay", "stall", *ROW_HEADER[2:]],
        rows=rows,
        passed=all(row[-1] for row in rows),
        notes=[
            f"n={n}, one generated scenario per cell; faults open after bootstrap "
            f"(round {build_params(n, seed).bootstrap_rounds}) and stay "
            f"open; delay adds {DELAY_ROUNDS} round(s); first degradation counts "
            "rounds after the faults open",
            "the zero cell gates on the paper's thresholds; the others gate "
            "on their faults firing",
        ],
    )
