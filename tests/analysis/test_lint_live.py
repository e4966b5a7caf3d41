"""The per-module rules (D/L/X/W) gate the live tree: clean with the committed baseline."""

import pytest

from repro.analysis.check import resolve_rules, run_check
from repro.cli import main

from .paths import BASELINE, REPO_ROOT, SRC, fixture_variant

LINT = resolve_rules("D,L,X,W")


def test_live_tree_is_clean_under_committed_baseline(live_cache):
    report = run_check([SRC], root=REPO_ROOT, rules=LINT, baseline=BASELINE, cache=live_cache)
    assert report.ok, "\n" + "\n".join(f.format() for f in report.findings)
    # The baseline only ever shrinks: every committed entry still matches.
    assert not report.stale_baseline, report.stale_baseline
    # The committed waivers are all live (none went stale silently).
    assert report.waived, "expected the documented inline waivers to be in use"


def test_cli_gate_passes_on_live_tree():
    assert main(["check", "--rules", "D,L,X,W"]) == 0


@pytest.mark.parametrize("rule_id", [r.id for r in LINT])
def test_injected_bad_fixture_fails_the_gate(rule_id, live_cache):
    bad = fixture_variant("lint", rule_id, "bad")
    report = run_check(
        [SRC, bad], root=REPO_ROOT, rules=LINT, baseline=BASELINE, cache=live_cache
    )
    assert not report.ok
    assert any(f.rule == rule_id for f in report.findings)


def test_injected_bad_fixture_fails_the_cli_gate():
    bad = str(fixture_variant("lint", "id-ordering", "bad"))
    assert main(["check", "--rules", "D,L,X,W", "--paths", bad, "--no-baseline"]) == 1
