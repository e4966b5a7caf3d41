"""``repro check`` gates the live tree: the full rule set, clean with the committed baseline.

The whole tree goes through the CLI once per output format (text, JSON,
SARIF).  The injection tests put each rule's failing fixture next to the
live tree and run its family off the session's one parse of ``src/repro``.
"""

import json
from collections import Counter

import pytest

from repro.analysis.check import ALL_RULES, resolve_rules, run_check
from repro.analysis.flow.summaries import MAX_DEPTH
from repro.analysis.sarif import validate_sarif
from repro.cli import main

from .paths import BASELINE, REPO_ROOT, SRC, fixture_variant

#: The rules each fixture family is injected under (W2 audits the waivers).
FAMILIES = {"lint": resolve_rules("D,L,X,W"), "flow": resolve_rules("F,W2")}


def test_cli_gate_passes_on_live_tree(capsys):
    assert main(["check"]) == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    assert f", {len(ALL_RULES)} rule(s), " in summary
    assert summary.endswith(": 0 finding(s), 5 waived, 1 baselined")


def test_live_tree_is_clean_under_committed_baseline(capsys, index_builds):
    assert main(["check", "--format=json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 2 and payload["ok"] is True and payload["findings"] == []
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
    # One call graph for the whole run, and the engine actually looked.
    assert index_builds == [payload["files"]]
    facts = payload["facts"]
    assert set(facts) == {"functions", "passes"}
    assert payload["files"] > 50 and facts["functions"] > 300
    assert 2 <= facts["passes"] < MAX_DEPTH  # converged, not cut off


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
    family = "flow" if rule_id.startswith("flow-") else "lint"
    bad = fixture_variant(family, rule_id, "bad")
    report = run_check(
        [SRC, bad], root=REPO_ROOT, rules=FAMILIES[family], baseline=BASELINE, cache=live_cache
    )
    assert not report.ok
    assert any(f.rule == rule_id for f in report.findings)


def test_injected_bad_fixture_fails_the_cli_gate():
    bad = str(fixture_variant("flow", "flow-lateness", "bad"))
    assert main(["check", "--paths", bad, "--no-baseline"]) == 1
