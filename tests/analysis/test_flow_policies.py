"""Corpus driver: every flow policy has a passing and a failing fixture.

The bad fixtures are chosen to be *invisible to the syntactic linter* —
aliasing, helper indirection, ``getattr`` smuggling — so this file also
pins down the headline capability: the F rules catch what the per-module
D/L rules structurally cannot.
"""

from pathlib import Path

import pytest

from repro.analysis.check import resolve_rules, run_check

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "flow"
FLOW = resolve_rules("F,W2")
POLICY_IDS = [policy.id for policy in resolve_rules("F")]


def check_flow(paths, **kwargs):
    return run_check(paths, rules=FLOW, **kwargs)


def test_every_policy_has_a_fixture_pair():
    for policy_id in POLICY_IDS:
        assert (FIXTURES / policy_id / "ok.py").exists(), policy_id
        assert (FIXTURES / policy_id / "bad.py").exists(), policy_id
    # And nothing in the corpus is orphaned from a real policy.
    assert sorted(d.name for d in FIXTURES.iterdir() if d.is_dir()) == sorted(
        POLICY_IDS
    )


@pytest.mark.parametrize("policy_id", POLICY_IDS)
def test_ok_fixture_is_clean(policy_id):
    report = check_flow([FIXTURES / policy_id / "ok.py"], root=FIXTURES, baseline=None)
    assert report.ok, [f.format() for f in report.findings]


@pytest.mark.parametrize("policy_id", POLICY_IDS)
def test_bad_fixture_triggers_its_policy(policy_id):
    report = check_flow([FIXTURES / policy_id / "bad.py"], root=FIXTURES, baseline=None)
    hits = [f for f in report.findings if f.rule == policy_id]
    assert hits, f"no {policy_id} finding in {[f.format() for f in report.findings]}"
    for f in hits:
        assert f.line > 0 and f.message and f.fix_hint


def test_lateness_bad_fixture_catches_alias_and_helper_indirection():
    report = check_flow(
        [FIXTURES / "flow-lateness" / "bad.py"], root=FIXTURES, baseline=None
    )
    messages = [f.message for f in report.findings]
    # The aliased snapshot (snap = self.trace; decide(snap)).
    assert any("`self.trace`" in m and "decide() argument `snap`" in m for m in messages)
    # The helper hand-off (_hand(adv, payload) -> adv.decide(payload)).
    assert any(
        "`self.network`" in m and "flows into" in m and "`_hand`" in m
        for m in messages
    )


def test_determinism_bad_fixture_catches_getattr_smuggle():
    report = check_flow(
        [FIXTURES / "flow-determinism" / "bad.py"], root=FIXTURES, baseline=None
    )
    assert len(report.findings) == 1
    f = report.findings[0]
    assert f.rule == "flow-determinism"
    assert "`time.perf_counter`" in f.message
    assert "`self.started_at`" in f.message


@pytest.mark.parametrize("policy_id", POLICY_IDS)
def test_syntactic_linter_is_blind_to_the_flow_bad_fixtures(policy_id):
    # The whole point of the interprocedural pass: these leaks produce no
    # lint finding at all.
    report = run_check(
        [FIXTURES / policy_id / "bad.py"],
        root=FIXTURES,
        rules=resolve_rules("D,L,X,W"),
        baseline=None,
    )
    assert report.ok, [f.format() for f in report.findings]
