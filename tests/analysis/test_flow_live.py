"""The flow rules (F1/F2) gate the live tree: clean with the committed baseline."""

import pytest

from repro.analysis.check import resolve_rules, run_check
from repro.cli import main

from .paths import BASELINE, FIXTURES, REPO_ROOT, SRC

FLOW = resolve_rules("F,W2")


def test_live_tree_is_clean_under_committed_baseline(live_cache):
    report = run_check([SRC], root=REPO_ROOT, rules=FLOW, baseline=BASELINE, cache=live_cache)
    assert report.ok, "\n" + "\n".join(f.format() for f in report.findings)
    assert not report.stale_baseline, report.stale_baseline
    # The engine actually looked at the tree.
    assert report.files > 50 and report.facts["functions"] > 300
    assert report.facts["passes"] >= 2


def test_cli_gate_passes_on_live_tree():
    assert main(["check", "--rules", "F,W2"]) == 0


@pytest.mark.parametrize("policy_id", [p.id for p in resolve_rules("F")])
def test_injected_bad_fixture_fails_the_gate(policy_id, live_cache):
    bad = FIXTURES / "flow" / policy_id / "bad.py"
    report = run_check(
        [SRC, bad], root=REPO_ROOT, rules=FLOW, baseline=BASELINE, cache=live_cache
    )
    assert not report.ok
    assert any(f.rule == policy_id for f in report.findings)


def test_injected_bad_fixture_fails_the_cli_gate():
    bad = str(FIXTURES / "flow" / "flow-lateness" / "bad.py")
    assert main(["check", "--rules", "F,W2", "--paths", bad, "--no-baseline"]) == 1
