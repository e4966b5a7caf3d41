"""The protocol contract (see ``contract.py``) and the spec it reads.

The code's message declarations match the committed spec.  A steady, a
churned, a faulted and a DHT n=24 ``MaintenanceSimulation`` keep every
clause through the first cutover and the join wave after it, and between
them send every node-to-node message type and launch every payload tag of
the spec.  Each clause is shown to fail: on a spec whose fields drift, that
misses a marked class or a launched tag, or that declares a class, a
message or a tag nothing implements, sends or launches; on a stray
dataclass in a message module; on a spec that narrows a producer phase;
and on runs whose code is broken on purpose — a launch filed past its
final step, a decreased epoch, a cutover that neither installs nor
demotes, a token stamped with too long a TTL.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

import repro.core.messages as messages_mod
import repro.core.node as node_mod
from repro.adversary.oblivious import RandomChurnAdversary
from repro.config import ProtocolParams
from repro.core.dht import DHTNode
from repro.core.runner import MaintenanceSimulation
from repro.faults.plan import FaultPlan, MessageFaults, NodeStall

from .contract import (
    SPEC_PATH,
    ContractMonitor,
    ContractViolation,
    declaration_drift,
    uncovered,
)
from .spec import PHASES, ProtocolSpec, SpecError, contract_markdown, load_spec

PARAMS = ProtocolParams(n=24, c=1.2, r=2, delta=3, tau=8, seed=5, alpha=0.25, kappa=1.25)
#: Past the first cutover, 2(lam + 2), and one join wave (2 lam + 2) beyond.
ROUNDS = 2 * (PARAMS.lam + 2) + 2 * PARAMS.lam + 2
#: The round right after the first cutover round.
AFTER_CUTOVER = 2 * (PARAMS.lam + 2) + 1
CELLS = ("steady", "churned", "faulted", "dht")
REPO_ROOT = SPEC_PATH.parent


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
    if cell == "dht":
        sim = MaintenanceSimulation(PARAMS, node_cls=DHTNode)
        sim.node(0).queue_put("key", "value")
        sim.node(1).queue_get("key")
        return sim
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


def _coverage(runs) -> tuple[Counter, Counter]:
    """Copies sent per type and launches per tag, over every cell."""
    monitors = [monitor for monitor, _ in runs.values()]
    sent = sum((m.sent for m in monitors), Counter())
    return sent, sum((m.launched for m in monitors), Counter())


def test_cells_send_every_spec_message(runs):
    assert uncovered(load_spec(SPEC_PATH), *_coverage(runs)) == []
    assert runs["steady"][0].launched["probe"]
    assert runs["dht"][0].sent["DhtResponse"] and runs["dht"][0].sent["StashTransfer"]
    # The epoch clause saw demotions (to None) as well as cutovers.
    assert sum(m.sim.node(v).demotions for m, _ in runs.values() for v in m.sim.engine.alive)


def test_spec_message_that_nothing_sends_fails_coverage(runs):
    ghost = {"anchor": "test: declared, never sent", "kind": "message", "fields": []}
    spec = _spec(lambda raw: raw["messages"].update(GhostMsg=ghost))
    assert uncovered(spec, *_coverage(runs)) == ["GhostMsg"]


def test_spec_payload_tag_that_nothing_launches_fails(runs):
    ghost = {"anchor": "test: declared, never launched"}
    spec = _spec(lambda raw: raw["payloads"].update(ghost=ghost))
    assert uncovered(spec, *_coverage(runs)) == ["ghost"]


def test_launched_tag_missing_from_the_spec_fails():
    spec = _spec(lambda raw: raw["payloads"].pop("probe"))
    missing = "'probe' is not in the spec"
    with _sim("steady") as sim, pytest.raises(ContractViolation, match=missing):
        ContractMonitor(sim, spec).run(ROUNDS)


# ----------------------------------------------------------------------
# The declaration clause
# ----------------------------------------------------------------------


def test_declarations_match_the_spec():
    spec = load_spec(SPEC_PATH)
    assert declaration_drift(spec) == []
    assert spec.message_modules == ("repro.core.messages", "repro.core.dht")
    assert len(spec.messages) == 9


def test_spec_field_drift_fails():
    spec = _spec(lambda raw: raw["messages"]["JoinRecord"].update(fields=["node", "pos"]))
    (drift,) = declaration_drift(spec)
    assert drift.startswith("`JoinRecord` fields ['node', 'pos', 'epoch'] differ from the spec's")


def test_marked_class_missing_from_the_spec_fails():
    spec = _spec(lambda raw: raw["messages"].pop("JoinBatch"))
    assert declaration_drift(spec) == [
        "`repro.core.messages.JoinBatch` is marked __protocol__ but the spec does not cover it"
    ]


def test_spec_message_without_a_class_fails():
    ghost = {"anchor": "test: declared, never implemented", "fields": []}
    spec = _spec(lambda raw: raw["messages"].update(GhostMsg=ghost))
    assert declaration_drift(spec) == [
        "spec message `GhostMsg` has no __protocol__ class [test: declared, never implemented]"
    ]


def test_unmarked_message_module_dataclass_fails(monkeypatch):
    @dataclass(frozen=True)
    class Stray:
        value: int

    Stray.__module__ = messages_mod.__name__
    monkeypatch.setattr(messages_mod, "Stray", Stray, raising=False)
    assert declaration_drift(load_spec(SPEC_PATH)) == [
        "dataclass `repro.core.messages.Stray` lacks the __protocol__ marker"
    ]


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


# ----------------------------------------------------------------------
# The spec file: validation and the PROTOCOL.md table
# ----------------------------------------------------------------------

MINIMAL = {
    "schema": 1,
    "messages": {"Ping": {"anchor": "test anchor", "fields": ["data"]}},
}

FULL = {
    "schema": 1,
    "message_modules": ["protofix.msgs"],
    "messages": {
        "Ping": {
            "anchor": "a1",
            "kind": "message",
            "fields": ["data"],
            "producer_phases": ["established"],
            "consumer_phases": ["fresh", "established"],
        },
        "Rec": {"anchor": "a2", "kind": "record", "fields": ["node", "epoch"]},
    },
    "payloads": {"probe": {"anchor": "a3", "producer_phases": ["established"]}},
}


def test_minimal_spec_defaults():
    spec = ProtocolSpec.from_dict(MINIMAL)
    (ping,) = spec.messages
    assert ping.kind == "message" and ping.dispatched
    assert ping.producer_phases == ping.consumer_phases == PHASES  # null -> all phases
    assert spec.message("Ping") is ping and spec.message("Nope") is None
    assert spec.payloads == spec.message_modules == ()


def test_record_kind_is_not_dispatched():
    spec = ProtocolSpec.from_dict(FULL)
    assert not spec.message("Rec").dispatched
    assert spec.payload("probe").producer_phases == ("established",)
    assert spec.payload("nope") is None


def test_phase_lists_are_normalised_to_protocol_order():
    ping = {"anchor": "a", "producer_phases": ["established", "new"]}
    raw = {"schema": 1, "messages": {"Ping": ping}}
    assert ProtocolSpec.from_dict(raw).message("Ping").producer_phases == ("new", "established")


@pytest.mark.parametrize(
    ("mutate", "match"),
    [
        (lambda d: d.pop("schema"), "schema must be 1"),
        (lambda d: d.update(schema=2), "schema must be 1"),
        (lambda d: d.update(messages={}), "non-empty object"),
        (lambda d: d.update(messages={"X": {}}), "needs a non-empty `anchor`"),
        (
            lambda d: d.update(messages={"X": {"anchor": "a", "kind": "weird"}}),
            "kind must be one of",
        ),
        (
            lambda d: d.update(messages={"X": {"anchor": "a", "fields": [1]}}),
            "must be a list of strings",
        ),
        (
            lambda d: d.update(messages={"X": {"anchor": "a", "producer_phases": ["later"]}}),
            "unknown phases",
        ),
    ],
)
def test_validation_errors(mutate, match):
    raw = json.loads(json.dumps(MINIMAL))
    mutate(raw)
    with pytest.raises(SpecError, match=match):
        ProtocolSpec.from_dict(raw)


def test_load_spec_missing_file_and_bad_json(tmp_path):
    with pytest.raises(SpecError, match="no protocol spec at"):
        load_spec(tmp_path / "absent.json")
    bad = tmp_path / "spec.json"
    bad.write_text("{not json")
    with pytest.raises(SpecError, match="not valid JSON"):
        load_spec(bad)


def test_contract_markdown_rows_cover_messages_and_payloads():
    spec = ProtocolSpec.from_dict(FULL)
    lines = contract_markdown(spec).splitlines()
    assert lines[0].startswith("| message | kind |")
    assert len(lines) == 2 + len(spec.messages) + len(spec.payloads)
    assert any("`Ping` | message" in line for line in lines)
    # Records are never dispatched: the consumer cell is a dash.
    assert "| — |" in next(line for line in lines if "`Rec`" in line)
    assert any('payload `("probe", …)` | routed' in line for line in lines)


def test_protocol_md_embeds_the_generated_contract_table():
    table = contract_markdown(load_spec(SPEC_PATH))
    assert table in (REPO_ROOT / "docs" / "PROTOCOL.md").read_text()
