"""Corpus driver: every D/L/X/W rule has a passing and a failing fixture."""

from pathlib import Path

import pytest

from repro.analysis.check import resolve_rules, run_check

from .paths import fixture_variant

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"
LINT = resolve_rules("D,L,X,W")
RULE_IDS = [rule.id for rule in LINT]


def _variant(rule_id: str, kind: str) -> Path:
    return fixture_variant("lint", rule_id, kind)


def test_every_rule_has_a_fixture_pair():
    for rule_id in RULE_IDS:
        assert _variant(rule_id, "ok").exists(), f"missing ok fixture for {rule_id}"
        assert _variant(rule_id, "bad").exists(), f"missing bad fixture for {rule_id}"
    # And nothing in the corpus is orphaned from a real rule.
    assert sorted(d.name for d in FIXTURES.iterdir() if d.is_dir()) == sorted(RULE_IDS)


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_ok_fixture_is_clean(rule_id):
    report = run_check([_variant(rule_id, "ok")], root=FIXTURES, rules=LINT, baseline=None)
    assert report.ok, [f.format() for f in report.findings]


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_bad_fixture_triggers_its_rule(rule_id):
    report = run_check([_variant(rule_id, "bad")], root=FIXTURES, rules=LINT, baseline=None)
    hits = [f for f in report.findings if f.rule == rule_id]
    assert hits, f"no {rule_id} finding in {[f.format() for f in report.findings]}"
    for f in hits:
        assert f.line > 0 and f.message


def test_all_drift_bad_package_exercises_all_four_checks():
    report = run_check([_variant("all-drift", "bad")], root=FIXTURES, rules=LINT, baseline=None)
    messages = " | ".join(f.message for f in report.findings)
    assert "`hidden` from `one`, which does not declare it" in messages
    assert "declares `beta`, which is not re-exported" in messages
    assert "omits it from __all__" in messages
    assert "__all__ names `ghost`" in messages


def test_waived_findings_are_reported_separately():
    report = run_check(
        [FIXTURES / "unused-waiver" / "ok.py"], root=FIXTURES, rules=LINT, baseline=None
    )
    assert report.ok
    assert [f.rule for f in report.waived] == ["wallclock"]
