"""Corpus driver: every proto rule has a passing and a failing fixture.

Each rule directory carries its own minimal ``spec.json`` next to the
``ok.py``/``bad.py`` pair, so the corpus doubles as documentation of
what the declarative spec can say: the ``ok`` fixture fully satisfies
its spec under both rules, the ``bad`` fixture injects exactly the
defect shapes its rule exists to catch.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.check import resolve_rules, run_check

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "proto"
PROTO = resolve_rules("P,W2")
RULE_IDS = [rule.id for rule in resolve_rules("P")]


def _run(rule_id, name):
    return run_check(
        [FIXTURES / rule_id / name],
        root=FIXTURES,
        rules=PROTO,
        baseline=None,
        spec=FIXTURES / rule_id / "spec.json",
    )


def test_every_rule_has_a_fixture_pair():
    for rule_id in RULE_IDS:
        assert (FIXTURES / rule_id / "ok.py").exists(), rule_id
        assert (FIXTURES / rule_id / "bad.py").exists(), rule_id
        assert (FIXTURES / rule_id / "spec.json").exists(), rule_id
    # And nothing in the corpus is orphaned from a real rule.
    assert sorted(d.name for d in FIXTURES.iterdir() if d.is_dir()) == sorted(
        RULE_IDS
    )


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_fixture_spec_is_valid(rule_id):
    from repro.analysis.proto.spec import ProtocolSpec

    raw = json.loads((FIXTURES / rule_id / "spec.json").read_text())
    spec = ProtocolSpec.from_dict(raw)
    assert spec.messages  # every fixture spec names at least one message
    assert all(m.anchor for m in spec.messages)


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_ok_fixture_is_clean(rule_id):
    report = _run(rule_id, "ok.py")
    assert report.ok, [f.format() for f in report.findings]


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_bad_fixture_triggers_its_rule(rule_id):
    report = _run(rule_id, "bad.py")
    hits = [f for f in report.findings if f.rule == rule_id]
    assert hits, f"no {rule_id} finding in {[f.format() for f in report.findings]}"
    for f in hits:
        assert f.message and f.fix_hint
        # Spec-side findings (unimplemented message/payload) anchor to the
        # spec file at line 0; everything else points at real code.
        assert f.line > 0 or f.path == "spec.json"


def test_field_drift_bad_names_all_five_shapes():
    report = _run("protocol-field-drift", "bad.py")
    messages = [f.message for f in report.findings]
    assert any("drift from the spec" in m for m in messages)
    assert any("3 positional args but it has 2 fields" in m for m in messages)
    assert any("unknown field `pos`" in m for m in messages)
    assert any("without required field `position`" in m for m in messages)


def test_spec_coverage_bad_names_all_five_shapes():
    report = _run("protocol-spec-coverage", "bad.py")
    messages = [f.message for f in report.findings]
    assert any("no __protocol__-marked" in m and "`Ping`" in m for m in messages)
    assert any("`Rogue` is not covered by the protocol" in m for m in messages)
    assert any("`Stray` in message module protofix.p6_bad" in m for m in messages)
    assert any('tag "mystery" is not covered' in m for m in messages)
    assert any('payload "probe" but nothing emits' in m for m in messages)
    # The spec-side findings land on the spec file itself, always active.
    spec_side = [f for f in report.findings if f.path == "spec.json"]
    assert len(spec_side) == 2
