"""The protocol contract: ``protocol-spec.json`` held to the code.

The live clauses are :class:`repro.sim.audit.Auditor`'s violations; the
ones no single run can check are here: :func:`declaration_drift`,
:func:`uncovered` (over several runs) and :func:`contract_markdown`.

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
demotes, a token stamped with too long a TTL, a phase changed after the
prepare stage, live engine state stored on the adversary.  Every shipped
adversary keeps the wall.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import pkgutil
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

import repro
import repro.core.messages as messages_mod
import repro.core.node as node_mod
from repro.adversary import (
    Adversary,
    ChurnDecision,
    ComposedAdversary,
    ContactTraceAdversary,
    ContentLateAdversary,
    DegreeTargetAdversary,
    IsolateJoinAdversary,
    JoinChainAdversary,
    RandomChurnAdversary,
)
from repro.config import ProtocolParams
from repro.core.dht import DHTNode
from repro.core.runner import MaintenanceSimulation
from repro.faults.plan import FaultPlan, MessageFaults, NodeStall
from repro.sim.audit import (
    LIFECYCLE_PHASES,
    SPEC_PATH,
    Auditor,
    ProtocolSpec,
    SpecError,
    adversary_reach,
    load_spec,
)


class ContractViolation(AssertionError):
    """A live round broke a clause of the protocol contract."""


def run_audited(
    sim: MaintenanceSimulation,
    rounds: int,
    auditor: Auditor | None = None,
    spec: ProtocolSpec | None = None,
) -> Auditor:
    """Run ``rounds`` rounds of ``sim`` under ``auditor`` (default: a new one
    on ``spec``, attached here); raise :class:`ContractViolation` after the
    first round that broke a clause."""
    if auditor is None:
        auditor = Auditor(spec)
        sim.engine.attach(auditor)
    for _ in range(rounds):
        sim.engine.run_round()
        violations = auditor.violations
        if violations:
            raise ContractViolation("\n".join(f"round {v.round}: {v.detail}" for v in violations))
    return auditor


def uncovered(spec: ProtocolSpec, sent: Counter[str], launched: Counter[str]) -> list[str]:
    """The spec's node-to-node message types that ``sent`` never saw, then
    its payload tags that ``launched`` never saw."""
    return [m.name for m in spec.messages if m.kind == "message" and not sent[m.name]] + [
        p.tag for p in spec.payloads if not launched[p.tag]
    ]


def _classes(module: str) -> list[type]:
    """The classes ``module`` defines (not the ones it imports)."""
    found = vars(importlib.import_module(module)).values()
    return [obj for obj in found if isinstance(obj, type) and obj.__module__ == module]


def declaration_drift(spec: ProtocolSpec) -> list[str]:
    """Where the code's message declarations and the spec disagree."""
    registry = {
        cls.__name__: cls
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.name != "repro.__main__"  # importing it runs the CLI
        for cls in _classes(info.name)
        if "__protocol__" in vars(cls)
    }
    drift = [
        f"`{cls.__module__}.{name}` is marked __protocol__ but the spec does not cover it"
        for name, cls in registry.items()
        if spec.message(name) is None
    ]
    for entry in spec.messages:
        cls = registry.get(entry.name)
        if cls is None:
            drift.append(f"spec message `{entry.name}` has no __protocol__ class [{entry.anchor}]")
            continue
        fields = tuple(f.name for f in dataclasses.fields(cls))
        if fields != entry.fields:
            drift.append(
                f"`{entry.name}` fields {list(fields)} differ from the spec's "
                f"{list(entry.fields)} [{entry.anchor}]"
            )
    for module in spec.message_modules:
        drift += [
            f"dataclass `{module}.{cls.__name__}` lacks the __protocol__ marker"
            for cls in _classes(module)
            if dataclasses.is_dataclass(cls) and "__protocol__" not in vars(cls)
        ]
    return drift


def _cell(phases: tuple[str, ...]) -> str:
    return "any" if tuple(phases) == LIFECYCLE_PHASES else ", ".join(phases) or "—"


def contract_markdown(spec: ProtocolSpec) -> str:
    """The "message contract" table embedded in docs/PROTOCOL.md.

    Generated from the spec so docs cannot drift silently: a test renders
    this from the shipped ``protocol-spec.json`` and asserts PROTOCOL.md
    contains it verbatim.
    """
    lines = [
        "| message | kind | fields | producer phases | consumer phases | anchor |",
        "|---|---|---|---|---|---|",
    ]
    for m in spec.messages:
        lines.append(
            f"| `{m.name}` | {m.kind} | "
            + ", ".join(f"`{f}`" for f in m.fields)
            + f" | {_cell(m.producer_phases)}"
            + f" | {_cell(m.consumer_phases) if m.dispatched else '—'}"
            + f" | {m.anchor} |"
        )
    for p in spec.payloads:
        lines.append(
            f"| payload `(\"{p.tag}\", …)` | routed | — "
            f"| {_cell(p.producer_phases)} | target swarm | {p.anchor} |"
        )
    return "\n".join(lines)


PARAMS = ProtocolParams.calibrated(24, seed=5, alpha=0.25, kappa=1.25)
#: Past the first cutover, 2(lam + 2), and one join wave (2 lam + 2) beyond.
ROUNDS = 2 * (PARAMS.lam + 2) + 2 * PARAMS.lam + 2
#: The round right after the first cutover round.
AFTER_CUTOVER = 2 * (PARAMS.lam + 2) + 1
CELLS = ("steady", "churned", "faulted", "dht")
REPO_ROOT = SPEC_PATH.parents[2]


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
    """Each cell's simulation and auditor after :data:`ROUNDS` rounds, and
    what the run raised."""
    out = {}
    for cell in CELLS:
        with _sim(cell) as sim:
            auditor = Auditor()
            sim.engine.attach(auditor)
            try:
                run_audited(sim, ROUNDS, auditor)
                out[cell] = (sim, auditor, None)
            except ContractViolation as exc:
                out[cell] = (sim, auditor, exc)
    return out


@pytest.mark.parametrize("cell", CELLS)
def test_live_cell_keeps_the_contract(runs, cell):
    _, auditor, error = runs[cell]
    assert error is None, str(error)
    assert auditor.launched["join"] and auditor.launched["token"]


def _coverage(runs) -> tuple[Counter, Counter]:
    """Copies sent per type and launches per tag, over every cell."""
    auditors = [auditor for _, auditor, _ in runs.values()]
    sent = sum((a.sent for a in auditors), Counter())
    return sent, sum((a.launched for a in auditors), Counter())


def test_cells_send_every_spec_message(runs):
    assert uncovered(load_spec(SPEC_PATH), *_coverage(runs)) == []
    assert runs["steady"][1].launched["probe"]
    assert runs["dht"][1].sent["DhtResponse"] and runs["dht"][1].sent["StashTransfer"]
    # The epoch clause saw demotions (to None) as well as cutovers.
    assert sum(sim.node(v).demotions for sim, _, _ in runs.values() for v in sim.engine.alive)


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
        run_audited(sim, ROUNDS, spec=spec)


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
        run_audited(sim, ROUNDS, spec=spec)


def test_hop_row_past_final_step_fails(monkeypatch):
    launch_chunks = node_mod.launch_chunks

    def overshooting(launchers, *, step, lam, **kwargs):
        return launch_chunks(launchers, step=lam + 2, lam=lam, **kwargs)

    monkeypatch.setattr(node_mod, "launch_chunks", overshooting)
    overshot = "at step 7 with final_step 6"
    with _sim("steady") as sim, pytest.raises(ContractViolation, match=overshot):
        run_audited(sim, 2)


def test_decreasing_epoch_fails():
    with _sim("steady") as sim:
        auditor = run_audited(sim, AFTER_CUTOVER)
        node = sim.node(0)
        assert node.epoch == 7
        node.epoch = 6
        with pytest.raises(ContractViolation, match="epoch 7 -> 6; an epoch changes only"):
            run_audited(sim, 1, auditor)


def test_cutover_that_neither_installs_nor_demotes_fails(monkeypatch):
    cutover = node_mod.MaintenanceNode._cutover

    def stuck(self, ctx, e, records):
        if self.id != 0:
            cutover(self, ctx, e, records)

    monkeypatch.setattr(node_mod.MaintenanceNode, "_cutover", stuck)
    with _sim("steady") as sim, pytest.raises(
        ContractViolation, match="node 0 is established in epoch 0 .* must cut over or demote"
    ):
        run_audited(sim, AFTER_CUTOVER)


def test_phase_change_after_prepare_fails(monkeypatch):
    act = node_mod.MaintenanceNode._act

    def demoting(self, ctx, step):
        act(self, ctx, step)
        if self.id == 0 and ctx.round == 3:
            self.phase = node_mod.Phase.FRESH

    monkeypatch.setattr(node_mod.MaintenanceNode, "_act", demoting)
    changed = "round 3: node 0 phase established -> fresh after the prepare stage"
    with _sim("steady") as sim, pytest.raises(ContractViolation, match=changed):
        run_audited(sim, 4)


def test_longer_token_ttl_fails(monkeypatch):
    monkeypatch.setattr(node_mod, "TOKEN_TTL", 5)
    with _sim("steady") as sim, pytest.raises(ContractViolation, match="pools token of"):
        run_audited(sim, ROUNDS)


# ----------------------------------------------------------------------
# The wall clause
# ----------------------------------------------------------------------


class Hoarder(Adversary):
    """Keeps every ``decide`` argument; in a run these are only views."""

    def __init__(self) -> None:
        super().__init__(active_from=0)
        self.kept: list = []

    def decide(self, view):
        self.kept.append(view)
        return ChurnDecision.none()


def _hand(adversary, payload) -> None:
    adversary.decide(payload)


def test_stored_views_keep_the_wall():
    adversary = Hoarder()
    with MaintenanceSimulation(PARAMS, adversary) as sim:
        run_audited(sim, 4)
    assert len(adversary.kept) == 4


def test_alias_leak_is_flagged_at_the_next_round_end():
    adversary = Hoarder()
    with MaintenanceSimulation(PARAMS, adversary) as sim:
        auditor = run_audited(sim, 2)
        snap = sim.engine.trace
        adversary.snap = snap
        leak = r"round 2: .* adversary\.snap -> engine\.trace"
        with pytest.raises(ContractViolation, match=leak):
            run_audited(sim, 1, auditor)


def test_helper_leak_is_flagged_at_the_next_round_end():
    adversary = Hoarder()
    with MaintenanceSimulation(PARAMS, adversary) as sim:
        auditor = run_audited(sim, 2)
        _hand(adversary, sim.engine.network)
        with pytest.raises(ContractViolation, match=r"adversary\.kept\[2\] -> engine\.network"):
            run_audited(sim, 1, auditor)


@pytest.mark.parametrize(
    ("leak", "hit"),
    [
        (lambda e: e, "adversary.notes[0]['x'] -> engine"),
        (lambda e: e.ledger, "adversary.notes[0]['x'] -> engine.ledger"),
        (lambda e: e._protocols[3], "adversary.notes[0]['x'] -> engine._protocols[3]"),
        (lambda e: e._rngs[3], "adversary.notes[0]['x'] -> engine._rngs[3]"),
    ],
    ids=["engine", "ledger", "protocol", "rng"],
)
def test_reach_names_the_path_to_each_live_object(leak, hit):
    adversary = Hoarder()
    with MaintenanceSimulation(PARAMS, adversary) as sim:
        assert adversary_reach(sim.engine) == []
        adversary.notes = [{"x": leak(sim.engine)}]
        assert adversary_reach(sim.engine) == [hit]
        # Past the depth bound the walk stops looking.
        adversary.notes = [[[[[[{"x": leak(sim.engine)}]]]]]]
        assert adversary_reach(sim.engine) == []


def _shipped(kind: str, params: ProtocolParams, position_hash) -> Adversary:
    if kind == "random":
        return RandomChurnAdversary(params, seed=3, active_from=2)
    if kind == "isolate-join":
        return IsolateJoinAdversary(params, seed=3)
    if kind == "join-chain":
        return JoinChainAdversary(params, seed=3)
    if kind == "content-late":
        return ContentLateAdversary(params, position_hash, seed=3, state_lateness=2)
    if kind == "contact-trace":
        return ContactTraceAdversary(params, victim=0, seed=3, active_from=4)
    if kind == "degree-target":
        return DegreeTargetAdversary(params, seed=3, active_from=4)
    return ComposedAdversary(
        RandomChurnAdversary(params, seed=3, active_from=2),
        DegreeTargetAdversary(params, seed=4, active_from=4),
    )


@pytest.mark.parametrize(
    "kind",
    ["random", "isolate-join", "join-chain", "content-late", "contact-trace",
     "degree-target", "composed"],
)
def test_every_shipped_adversary_keeps_the_wall(kind):
    params = ProtocolParams.calibrated(24, seed=5, alpha=0.25, kappa=1.25)
    with MaintenanceSimulation(params, strict_budget=False) as sim:
        sim.engine.adversary = _shipped(kind, params, sim.services.position_hash)
        run_audited(sim, 40)  # the wall clause, with every other clause, each round
        # Every attack but the content-late one (which waits for readable
        # JOIN payloads) has spent budget by then.
        churned = sum(r.decision.churn_count for r in sim.engine.reports)
        assert churned or kind == "content-late"


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
    assert ping.producer_phases == ping.consumer_phases == LIFECYCLE_PHASES  # null -> all
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
