"""SARIF 2.1.0 emission: one emitter for every rule family, structurally validated."""

import json
from pathlib import Path

from repro.analysis.check import ALL_RULES, resolve_rules, run_check
from repro.analysis.lint.findings import Finding
from repro.analysis.sarif import (
    SARIF_SCHEMA_URI,
    SARIF_VERSION,
    sarif_report,
    validate_sarif,
)
from repro.cli import main

LINT_FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"


def test_lint_findings_render_as_valid_sarif():
    report = run_check(
        [LINT_FIXTURES / "wallclock" / "bad.py"],
        root=LINT_FIXTURES,
        rules=resolve_rules("D,L,X,W"),
        baseline=None,
    )
    assert report.findings
    meta = {r.id: {"description": r.description, "help": r.fix_hint} for r in ALL_RULES}
    doc = sarif_report(
        report.findings, tool_name="repro-lint", rule_meta=meta, root=LINT_FIXTURES
    )
    assert validate_sarif(doc) == []
    assert doc["$schema"] == SARIF_SCHEMA_URI
    assert doc["version"] == SARIF_VERSION
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert {res["ruleId"] for res in run["results"]} <= rule_ids
    # ruleIndex actually points at the named rule.
    for res in run["results"]:
        assert run["tool"]["driver"]["rules"][res["ruleIndex"]]["id"] == res["ruleId"]


def test_lateness_findings_render_as_valid_sarif():
    report = run_check(
        [LINT_FIXTURES / "live-state-to-adversary" / "bad.py"],
        root=LINT_FIXTURES,
        rules=resolve_rules("L"),
        baseline=None,
    )
    assert report.findings
    doc = sarif_report(report.findings, tool_name="repro-check", root=LINT_FIXTURES)
    assert validate_sarif(doc) == []
    for res in doc["runs"][0]["results"]:
        uri = res["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
        assert "\\" not in uri


def test_whole_file_findings_clamp_to_line_one():
    finding = Finding(path="pkg/mod.py", line=0, rule="parse-error", message="boom")
    doc = sarif_report([finding], tool_name="t")
    region = doc["runs"][0]["results"][0]["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 1
    assert validate_sarif(doc) == []


def test_rules_without_metadata_get_stub_entries():
    finding = Finding(path="a.py", line=3, rule="mystery", message="m", fix_hint="h")
    doc = sarif_report([finding], tool_name="t", rule_meta={})
    rules = doc["runs"][0]["tool"]["driver"]["rules"]
    assert [r["id"] for r in rules] == ["mystery"]
    assert rules[0]["help"]["text"] == "h"


def test_validator_rejects_broken_documents():
    assert validate_sarif([]) == ["document is not an object"]
    assert "version" in validate_sarif({"version": "1.0.0", "runs": []})[0]
    good = sarif_report(
        [Finding(path="a.py", line=2, rule="r", message="m")], tool_name="t"
    )
    # Unknown ruleId.
    broken = json.loads(json.dumps(good))
    broken["runs"][0]["results"][0]["ruleId"] = "ghost"
    assert any("ghost" in p for p in validate_sarif(broken))
    # 0-based region.
    broken = json.loads(json.dumps(good))
    broken["runs"][0]["results"][0]["locations"][0]["physicalLocation"]["region"][
        "startLine"
    ] = 0
    assert any("startLine" in p for p in validate_sarif(broken))
    # Backslash path.
    broken = json.loads(json.dumps(good))
    broken["runs"][0]["results"][0]["locations"][0]["physicalLocation"][
        "artifactLocation"
    ]["uri"] = "a\\b.py"
    assert any("forward-slash" in p for p in validate_sarif(broken))
    # Missing message text.
    broken = json.loads(json.dumps(good))
    del broken["runs"][0]["results"][0]["message"]
    assert any("message.text" in p for p in validate_sarif(broken))


def test_cli_sarif_output_carries_findings_on_failure(tmp_path, capsys):
    bad = LINT_FIXTURES / "wallclock" / "bad.py"
    args = ["check", "--rules", "D2", "--paths", str(bad), "--no-baseline", "--format=sarif"]
    assert main(args) == 1
    doc = json.loads(capsys.readouterr().out)
    assert validate_sarif(doc) == []
    assert {r["ruleId"] for r in doc["runs"][0]["results"]} == {"wallclock"}
