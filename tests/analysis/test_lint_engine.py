"""Directives, the finding/baseline value types, and the D/L/X/W rules on the CLI."""

import json
from pathlib import Path

import pytest

from repro.analysis.check import ALL_RULES, resolve_rules, run_check
from repro.analysis.lint.baseline import Baseline, write_baseline
from repro.analysis.lint.engine import LintError
from repro.analysis.lint.findings import Finding
from repro.analysis.lint.waivers import scan_directives
from repro.cli import main

#: The per-module families (what `repro lint` ran before `repro check`).
LINT = resolve_rules("D,L,X,W")


# ----------------------------------------------------------------------
# Directive parsing
# ----------------------------------------------------------------------


def test_trailing_waiver_targets_its_own_line():
    waivers, module = scan_directives(
        ["x = clock()  # repro: allow(wallclock): metadata only"]
    )
    assert module is None
    (w,) = waivers
    assert (w.rule, w.comment_line, w.target_line) == ("wallclock", 1, 1)
    assert w.justified and w.justification == "metadata only"


def test_standalone_waiver_targets_next_code_line():
    waivers, _ = scan_directives(
        [
            "# repro: allow(wallclock): metadata only",
            "",
            "# an unrelated comment",
            "x = clock()",
        ]
    )
    (w,) = waivers
    assert (w.comment_line, w.target_line) == (1, 4)


def test_unjustified_waiver_is_parsed_but_not_justified():
    for text in ["# repro: allow(wallclock)", "# repro: allow(wallclock):   "]:
        (w,), _ = scan_directives([text])
        assert not w.justified


def test_module_directive_overrides_module_identity():
    _, module = scan_directives(["# repro: module(repro.sim.example)", "x = 1"])
    assert module == "repro.sim.example"


def test_directives_inside_string_literals_are_ignored():
    waivers, module = scan_directives(
        [
            'HINT = "waive with `# repro: allow(wallclock): why`"',
            "DOC = '# repro: module(repro.sim.fake)'",
        ]
    )
    assert waivers == [] and module is None


# ----------------------------------------------------------------------
# Finding model and baseline
# ----------------------------------------------------------------------


def _finding(message="msg", path="src/repro/x.py", rule="wallclock", line=3):
    return Finding(path=path, line=line, rule=rule, message=message)


def test_finding_format_and_dict():
    f = _finding()
    assert f.format() == "src/repro/x.py:3: [wallclock] msg"
    assert f.baseline_key() == ("src/repro/x.py", "wallclock", "msg")
    assert f.to_dict()["severity"] == "error"


def test_baseline_roundtrip_and_multiset(tmp_path):
    path = tmp_path / "base.json"
    write_baseline(path, [_finding(), _finding()])
    base = Baseline.load(path)
    assert len(base.entries) == 2
    # Two entries absorb two findings; a third of the same key stays active.
    active, baselined, stale = base.partition([_finding()] * 3)
    assert (len(active), len(baselined), len(stale)) == (1, 2, 0)


def test_baseline_line_numbers_do_not_matter(tmp_path):
    path = tmp_path / "base.json"
    write_baseline(path, [_finding(line=3)])
    active, baselined, stale = Baseline.load(path).partition([_finding(line=99)])
    assert not active and len(baselined) == 1 and not stale


def test_baseline_stale_entries_are_reported(tmp_path):
    path = tmp_path / "base.json"
    write_baseline(path, [_finding(message="gone")])
    active, baselined, stale = Baseline.load(path).partition([])
    assert not active and not baselined and len(stale) == 1


def test_missing_baseline_file_is_empty():
    assert Baseline.load("/nonexistent/lint-baseline.json").entries == []


def test_write_baseline_attaches_notes(tmp_path):
    f = _finding()
    path = write_baseline(tmp_path / "b.json", [f], notes={f.baseline_key(): "why"})
    assert json.loads(path.read_text())["findings"][0]["note"] == "why"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


def test_resolve_rules_by_id_code_and_default():
    assert resolve_rules(None) == ALL_RULES
    assert [r.id for r in resolve_rules("wallclock")] == ["wallclock"]
    assert [r.code for r in resolve_rules("d2, L1")] == ["D2", "L1"]
    with pytest.raises(LintError):
        resolve_rules("no-such-rule")


def test_rule_metadata_is_complete_and_unique():
    ids = [r.id for r in ALL_RULES]
    codes = [r.code for r in ALL_RULES]
    assert len(set(ids)) == len(ids) and len(set(codes)) == len(codes)
    for rule in ALL_RULES:
        assert rule.id and rule.code and rule.description and rule.fix_hint


# ----------------------------------------------------------------------
# Engine behaviour
# ----------------------------------------------------------------------


def test_waiver_cannot_waive_the_waiver_rules(tmp_path):
    target = tmp_path / "snippet.py"
    target.write_text(
        "# repro: module(repro.sim.example)\n"
        "# repro: allow(waiver-justification): nice try\n"
        "# repro: allow(wallclock)\n"
        "x = 1\n"
    )
    report = run_check([target], root=tmp_path, rules=LINT, baseline=None)
    rules = sorted(f.rule for f in report.findings)
    # The bare waiver is reported and the meta-waiver absorbing it is itself
    # stale (it matched nothing), so both waiver rules fire.
    assert "waiver-justification" in rules and "unused-waiver" in rules


def test_syntax_error_becomes_parse_error_finding(tmp_path):
    target = tmp_path / "broken.py"
    target.write_text("def f(:\n")
    report = run_check([target], root=tmp_path, rules=LINT, baseline=None)
    assert [f.rule for f in report.findings] == ["parse-error"]
    assert not report.ok


def test_run_check_rejects_missing_paths(tmp_path):
    with pytest.raises(LintError):
        run_check([tmp_path / "nope"], root=tmp_path, rules=LINT, baseline=None)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

BAD_FIXTURE = str(
    Path(__file__).resolve().parent / "fixtures" / "lint" / "wallclock" / "bad.py"
)
LINT_BAD = ["check", "--rules", "D,L,X,W", "--paths", BAD_FIXTURE, "--no-baseline"]


def test_cli_list_rules(capsys):
    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ALL_RULES:
        assert rule.id in out


def test_cli_json_output_on_bad_fixture(capsys):
    code = main(LINT_BAD + ["--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["counts"]["active"] == len(payload["findings"]) > 0
    assert all(f["rule"] == "wallclock" for f in payload["findings"])


def test_cli_text_output_mentions_fix_hint(capsys):
    assert main(LINT_BAD) == 1
    assert "fix:" in capsys.readouterr().out


def test_cli_rule_filter_can_mask_findings(capsys):
    # Filtering to an unrelated rule hides the wallclock findings.
    assert main(["check", "--paths", BAD_FIXTURE, "--no-baseline", "--rules", "D4"]) == 0


def test_cli_unknown_rule_is_usage_error(capsys):
    assert main(["check", "--rules", "bogus"]) == 2
