"""The protocol contract on live rounds (see ``contract.py``).

A steady, a churned and a faulted n=24 ``MaintenanceSimulation`` keep every
clause through the first cutover and the join wave after it, and between
them send every node-to-node message type of the spec.  Each clause is
shown to fail: on a spec that narrows a producer phase or declares a
message nothing sends, and on runs whose code is broken on purpose — a
launch filed past its final step, a decreased epoch, a cutover that
neither installs nor demotes, a token stamped with too long a TTL.
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest

import repro.core.node as node_mod
from repro.adversary.oblivious import RandomChurnAdversary
from repro.analysis.proto.spec import ProtocolSpec, load_spec
from repro.config import ProtocolParams
from repro.core.runner import MaintenanceSimulation
from repro.faults.plan import FaultPlan, MessageFaults, NodeStall

from .contract import SPEC_PATH, ContractMonitor, ContractViolation, uncovered

PARAMS = ProtocolParams(n=24, c=1.2, r=2, delta=3, tau=8, seed=5, alpha=0.25, kappa=1.25)
#: Past the first cutover, 2(lam + 2), and one join wave (2 lam + 2) beyond.
ROUNDS = 2 * (PARAMS.lam + 2) + 2 * PARAMS.lam + 2
#: The round right after the first cutover round.
AFTER_CUTOVER = 2 * (PARAMS.lam + 2) + 1
CELLS = ("steady", "churned", "faulted")


def _sim(cell: str) -> MaintenanceSimulation:
    if cell == "churned":
        return MaintenanceSimulation(PARAMS, RandomChurnAdversary(PARAMS, seed=3, active_from=2))
    if cell == "faulted":
        plan = FaultPlan(
            seed=11,
            messages=(MessageFaults(drop_p=0.04, delay_p=0.05, delay_rounds=2, duplicate_p=0.03),),
            stalls=(NodeStall(stall_p=0.02),),
        )
        return MaintenanceSimulation(PARAMS, faults=plan)
    sim = MaintenanceSimulation(PARAMS)
    sim.send_probes(6, np.random.default_rng(99))
    return sim


def _spec(edit) -> ProtocolSpec:
    raw = json.loads(SPEC_PATH.read_text())
    edit(raw)
    return ProtocolSpec.from_dict(raw)


@pytest.fixture(scope="module")
def runs():
    """Each cell's monitor after :data:`ROUNDS` rounds, and what it raised."""
    out = {}
    for cell in CELLS:
        with _sim(cell) as sim:
            monitor = ContractMonitor(sim)
            try:
                monitor.run(ROUNDS)
                out[cell] = (monitor, None)
            except ContractViolation as exc:
                out[cell] = (monitor, exc)
    return out


@pytest.mark.parametrize("cell", CELLS)
def test_live_cell_keeps_the_contract(runs, cell):
    monitor, error = runs[cell]
    assert error is None, str(error)
    assert monitor.launched["join"] and monitor.launched["token"]


def test_cells_send_every_spec_message(runs):
    sent = sum((monitor.sent for monitor, _ in runs.values()), Counter())
    assert uncovered(load_spec(SPEC_PATH), sent) == []
    assert runs["steady"][0].launched["probe"]
    # The epoch clause saw demotions (to None) as well as cutovers.
    assert sum(m.sim.node(v).demotions for m, _ in runs.values() for v in m.sim.engine.alive)


def test_spec_message_that_nothing_sends_fails_coverage(runs):
    ghost = {"anchor": "test: declared, never sent", "kind": "message", "fields": []}
    spec = _spec(lambda raw: raw["messages"].update(GhostMsg=ghost))
    sent = sum((monitor.sent for monitor, _ in runs.values()), Counter())
    assert uncovered(spec, sent) == ["GhostMsg"]


def test_narrowed_token_producer_phases_fail():
    spec = _spec(lambda raw: raw["messages"]["TokenMsg"].update(producer_phases=["new"]))
    narrowed = "sent `TokenMsg` in phase established"
    with _sim("churned") as sim, pytest.raises(ContractViolation, match=narrowed):
        ContractMonitor(sim, spec).run(ROUNDS)


def test_hop_row_past_final_step_fails(monkeypatch):
    launch_chunks = node_mod.launch_chunks

    def overshooting(launchers, *, step, lam, **kwargs):
        return launch_chunks(launchers, step=lam + 2, lam=lam, **kwargs)

    monkeypatch.setattr(node_mod, "launch_chunks", overshooting)
    overshot = "at step 7 with final_step 6"
    with _sim("steady") as sim, pytest.raises(ContractViolation, match=overshot):
        ContractMonitor(sim).run(2)


def test_decreasing_epoch_fails():
    with _sim("steady") as sim:
        monitor = ContractMonitor(sim)
        monitor.run(AFTER_CUTOVER)
        node = sim.node(0)
        assert node.epoch == 7
        node.epoch = 6
        with pytest.raises(ContractViolation, match="epoch 7 -> 6; an epoch changes only"):
            monitor.run(1)


def test_cutover_that_neither_installs_nor_demotes_fails(monkeypatch):
    cutover = node_mod.MaintenanceNode._cutover

    def stuck(self, ctx, e, creates):
        if self.id != 0:
            cutover(self, ctx, e, creates)

    monkeypatch.setattr(node_mod.MaintenanceNode, "_cutover", stuck)
    with _sim("steady") as sim, pytest.raises(
        ContractViolation, match="node 0 is established in epoch 0 .* must cut over or demote"
    ):
        ContractMonitor(sim).run(AFTER_CUTOVER)


def test_longer_token_ttl_fails(monkeypatch):
    monkeypatch.setattr(node_mod, "TOKEN_TTL", 5)
    with _sim("steady") as sim, pytest.raises(ContractViolation, match="pools token of"):
        ContractMonitor(sim).run(ROUNDS)
