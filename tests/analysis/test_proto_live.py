"""The live gate: P3 and P6 are clean on this repository, and each rule
demonstrably fires when the committed spec is perturbed.

The injection tests work by *mutating the spec*, not the source: if the
paper's contract said something slightly different, the analyzer must
notice the code no longer matches.  That proves every rule is live
against the real tree, not just against fixture-shaped code.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.analysis.check import resolve_rules, run_check
from repro.analysis.proto.spec import ProtocolSpec, contract_markdown, load_spec

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def shared(live_cache):
    """The session's one parse, plus the committed spec for mutation."""
    raw = json.loads((ROOT / "protocol-spec.json").read_text())
    return live_cache, raw


def _run(shared, spec_raw, rules=None):
    cache, _ = shared
    return run_check(
        None,
        root=ROOT,
        rules=rules if rules is not None else resolve_rules("P,W2"),
        baseline=None,
        cache=cache,
        spec=ProtocolSpec.from_dict(spec_raw),
    )


def test_live_tree_is_clean_under_committed_spec(shared):
    _, raw = shared
    report = _run(shared, raw)
    assert report.ok, [f.format() for f in report.findings]
    # The committed spec covers the full implemented protocol (the counts
    # themselves are pinned once, in test_check_engine's live verdict).
    assert len(report.context.spec.messages) == report.facts["protocol"]["messages"]


def test_spec_covers_every_core_messages_class(shared):
    """100% coverage of core/messages.py, enforced structurally."""
    _, raw = shared
    assert "repro.core.messages" in raw["message_modules"]
    import ast

    tree = ast.parse((ROOT / "src" / "repro" / "core" / "messages.py").read_text())
    class_names = {
        n.name for n in tree.body if isinstance(n, ast.ClassDef)
    }
    assert class_names <= set(raw["messages"])


def test_p3_fires_when_spec_fields_drift(shared):
    _, raw = shared
    mutated = copy.deepcopy(raw)
    mutated["messages"]["JoinRecord"]["fields"] = ["node", "pos"]
    report = _run(shared, mutated, rules=resolve_rules("P3"))
    hits = [f for f in report.findings if f.rule == "protocol-field-drift"]
    assert any("drift from the spec" in f.message for f in hits)


def test_p6_fires_in_both_directions(shared):
    _, raw = shared
    mutated = copy.deepcopy(raw)
    entry = mutated["messages"].pop("JoinBatch")
    mutated["messages"]["GhostMsg"] = entry
    report = _run(shared, mutated, rules=resolve_rules("P6"))
    messages = [f.message for f in report.findings]
    assert any("`GhostMsg`" in m and "no __protocol__-marked" in m for m in messages)
    assert any("`JoinBatch` is not covered" in m for m in messages)
    # The missing-implementation finding anchors to the spec file itself.
    assert any(f.path == "protocol-spec.json" for f in report.findings)


def test_protocol_md_embeds_the_generated_contract_table():
    spec = load_spec(ROOT / "protocol-spec.json")
    table = contract_markdown(spec)
    assert table in (ROOT / "docs" / "PROTOCOL.md").read_text()
