"""``repro check`` gates the live tree: the full rule set, clean with the committed baseline.

The whole tree goes through the CLI once per output format (text, JSON,
SARIF).  The injection tests put each rule's failing fixture next to the
live tree and run the full rule set off the session's one parse of
``src/repro``.
"""

import json
from collections import Counter

import pytest

from repro.analysis.check import ALL_RULES, run_check
from repro.analysis.sarif import validate_sarif
from repro.cli import main

from .paths import BASELINE, REPO_ROOT, SRC, fixture_variant


def test_cli_gate_passes_on_live_tree(capsys):
    assert main(["check"]) == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    verdict = f" file(s), {len(ALL_RULES)} rule(s): 0 finding(s), 5 waived, 1 baselined"
    assert summary.endswith(verdict)


def test_live_tree_is_clean_under_committed_baseline(capsys):
    assert main(["check", "--format=json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["files"] > 50
    assert payload["version"] == 3 and payload["ok"] is True and payload["findings"] == []
    assert payload["rules"] == [r.id for r in ALL_RULES]
    # The committed waivers are all live, and the baseline only ever
    # shrinks: every committed entry still matches.
    assert Counter(f["rule"] for f in payload["waived"]) == {
        "id-ordering": 1,
        "unordered-iteration": 3,
        "wallclock": 1,
    }
    assert [f["rule"] for f in payload["baselined"]] == ["wallclock"]
    assert payload["stale_baseline"] == []


def test_cli_sarif_gate_on_live_tree(capsys):
    assert main(["check", "--format=sarif"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert validate_sarif(doc) == []
    (run,) = doc["runs"]
    assert run["tool"]["driver"]["name"] == "repro-check"
    assert [r["id"] for r in run["tool"]["driver"]["rules"]] == [r.id for r in ALL_RULES]
    assert run["results"] == []


@pytest.mark.parametrize("rule_id", [r.id for r in ALL_RULES])
def test_injected_bad_fixture_fails_the_gate(rule_id, live_cache):
    bad = fixture_variant("lint", rule_id, "bad")
    report = run_check([SRC, bad], root=REPO_ROOT, baseline=BASELINE, cache=live_cache)
    assert not report.ok
    assert any(f.rule == rule_id for f in report.findings)


def test_injected_bad_fixture_fails_the_cli_gate():
    bad = str(fixture_variant("lint", "live-state-to-adversary", "bad"))
    assert main(["check", "--paths", bad, "--no-baseline"]) == 1
