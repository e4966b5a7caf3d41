"""The one engine behind ``repro check``: waivers, baseline, facts, CLI.

Behaviour that depends on the rule family is parametrised over one bad
snippet of the whole-project family F and one of a per-module rule, so the
single waiver pass, the single staleness audit and the single baseline are
pinned for both kinds of rule at once.  The live tree's verdict is in
``test_lint_live.py``.
"""

import json
import re
from dataclasses import dataclass

import pytest

from repro.analysis.check import ALL_RULES, resolve_rules, rule_table, run_check
from repro.analysis.lint.baseline import Baseline, write_baseline
from repro.analysis.lint.engine import LintError
from repro.analysis.sarif import validate_sarif
from repro.analysis.source_cache import SourceCache, collect_py_files
from repro.cli import main

from .paths import REPO_ROOT


@dataclass(frozen=True)
class Case:
    """One defect: ``head`` + ``bad`` line (or its ``good`` replacement)."""

    rule: str
    head: str
    bad: str
    good: str

    @property
    def line(self) -> int:
        return self.head.count("\n") + 1

    def source(self, *, waiver: str | None = None, fixed: bool = False) -> str:
        body = self.good if fixed else self.bad
        indent = body[: len(body) - len(body.lstrip())]
        comment = f"{indent}# repro: allow({self.rule}){waiver}\n" if waiver is not None else ""
        return self.head + comment + body


CASES = [
    Case(
        rule="id-ordering",
        head="# repro: module(repro.sim.enginetest)\n\n\ndef key_of(thing):\n",
        bad="    return id(thing)\n",
        good="    return thing.node_id\n",
    ),
    Case(
        rule="flow-lateness",
        head=(
            "# repro: module(repro.sim.enginetest)\n\n\n"
            "class D:\n    def consult(self):\n        snap = self.trace\n"
        ),
        bad="        return self.adversary.decide(snap)\n",
        good="        return self.adversary.decide(None)\n",
    ),
]

per_family = pytest.mark.parametrize("case", CASES, ids=[c.rule for c in CASES])

WHY = ": exercised by the engine tests"


def _write(tmp_path, case, **kwargs):
    """The case's file under ``tmp_path``."""
    path = tmp_path / "w.py"
    path.write_text(case.source(**kwargs))
    return path


def _run(tmp_path, case, rules=None, baseline=None):
    return run_check(
        [tmp_path / "w.py"],
        root=tmp_path,
        rules=resolve_rules(rules or f"{case.rule},W"),
        baseline=baseline,
    )


@pytest.fixture
def cli_root(tmp_path, monkeypatch):
    """Point the CLI's repo root (baseline lookup) at ``tmp_path``."""
    monkeypatch.setattr("repro.cli._repo_root", lambda: tmp_path)
    return tmp_path


# ----------------------------------------------------------------------
# One waiver pass, one audit — for every family
# ----------------------------------------------------------------------


@per_family
def test_finding_has_location_and_hint(tmp_path, case):
    _write(tmp_path, case)
    report = _run(tmp_path, case)
    assert not report.ok
    (finding,) = report.findings
    assert (finding.rule, finding.path, finding.line) == (case.rule, "w.py", case.line)
    assert finding.message and finding.fix_hint
    assert "fix:" in report.format_text()


@per_family
def test_justified_waiver_absorbs_and_counts(tmp_path, case):
    _write(tmp_path, case, waiver=WHY)
    report = _run(tmp_path, case)
    assert report.ok, report.format_text()
    assert [f.rule for f in report.waived] == [case.rule]


@per_family
def test_bare_waiver_is_inert_and_w1_reports_it(tmp_path, case):
    _write(tmp_path, case, waiver="")
    report = _run(tmp_path, case)
    assert sorted(f.rule for f in report.findings) == sorted(
        [case.rule, "waiver-justification"]
    )
    assert not report.waived


@per_family
def test_stale_waiver_is_reported_when_its_rule_ran(tmp_path, case):
    _write(tmp_path, case, waiver=WHY, fixed=True)
    report = _run(tmp_path, case)
    (finding,) = report.findings
    assert finding.rule == "unused-waiver"
    assert f"`{case.rule}`" in finding.message
    assert "delete the waiver comment" in finding.fix_hint
    # W2 is the audit: without it nothing looks for stale waivers.
    assert _run(tmp_path, case, rules=case.rule).ok


@per_family
def test_deselected_rule_cannot_prove_its_waiver_stale(tmp_path, case):
    # The parent's `repro lint --rules D1,W2` flagged every live waiver of
    # the rules it did not run (and `--fix` then deleted them).
    _write(tmp_path, case, waiver=WHY)
    report = _run(tmp_path, case, rules="D1,W2")
    assert report.ok, report.format_text()
    assert not report.waived  # the waiver's rule never ran, so nothing to absorb


@per_family
def test_fix_with_a_rule_subset_leaves_live_waivers_byte_identical(cli_root, capsys, case):
    path = _write(cli_root, case, waiver=WHY)
    before = path.read_bytes()
    args = ["check", "--rules", "D1,W2", "--fix", "--paths", str(path), "--no-baseline"]
    assert main(args) == 0
    assert "nothing to fix" in capsys.readouterr().out
    assert path.read_bytes() == before


@per_family
def test_fix_removes_the_stale_waiver_of_any_family(cli_root, capsys, case):
    path = _write(cli_root, case, waiver=WHY, fixed=True)
    args = ["check", "--rules", f"{case.rule},W", "--paths", str(path), "--no-baseline"]
    assert main(args) == 1
    assert "unused-waiver" in capsys.readouterr().out
    assert main(args + ["--fix"]) == 0
    assert "removed 1 stale waiver(s)" in capsys.readouterr().out
    assert path.read_text() == case.source(fixed=True)


def test_waiver_naming_no_shipped_rule_is_always_stale(tmp_path):
    (tmp_path / "w.py").write_text("X = 1  # repro: allow(wallclok): typo'd rule id\n")
    report = run_check([tmp_path], root=tmp_path, rules=resolve_rules("W2"))
    assert [f.rule for f in report.findings] == ["unused-waiver"]


def test_parse_error_is_a_finding_no_waiver_can_absorb(tmp_path):
    (tmp_path / "broken.py").write_text(
        "# repro: allow(parse-error): nice try\ndef broken(:\n"
    )
    report = run_check([tmp_path], root=tmp_path, rules=resolve_rules("D"))
    assert [(f.rule, f.path, f.line) for f in report.findings] == [
        ("parse-error", "broken.py", 2)
    ]


# ----------------------------------------------------------------------
# One baseline
# ----------------------------------------------------------------------


@per_family
def test_baseline_round_trip_and_stale_entry(tmp_path, case):
    _write(tmp_path, case)
    first = _run(tmp_path, case)
    baseline = tmp_path / "base.json"
    write_baseline(baseline, first.findings)

    second = _run(tmp_path, case, baseline=baseline)
    assert second.ok and len(second.baselined) == 1 and not second.stale_baseline

    _write(tmp_path, case, fixed=True)
    third = _run(tmp_path, case, baseline=baseline)
    assert third.ok
    assert [e["rule"] for e in third.stale_baseline] == [case.rule]
    assert "stale baseline entry" in third.format_text()


@per_family
def test_baseline_entry_of_a_deselected_rule_is_not_stale(tmp_path, case):
    _write(tmp_path, case, fixed=True)
    base = Baseline([{"path": "w.py", "rule": case.rule, "message": "long gone"}])
    assert not _run(tmp_path, case, rules="D1,W2", baseline=base).stale_baseline
    assert _run(tmp_path, case, baseline=base).stale_baseline == base.entries


def test_update_baseline_keeps_entries_of_rules_that_did_not_run(cli_root, capsys):
    case = CASES[0]
    path = _write(cli_root, case)
    baseline = cli_root / "check-baseline.json"
    kept = {"path": "w.py", "rule": "flow-lateness", "message": "m", "note": "why"}
    baseline.write_text(json.dumps({"schema": 1, "findings": [kept]}))
    args = ["check", "--rules", "D", "--paths", str(path)]
    assert main(args + ["--update-baseline"]) == 0
    assert "(2 entries)" in capsys.readouterr().out
    entries = json.loads(baseline.read_text())["findings"]
    assert kept in entries and {e["rule"] for e in entries} == {"flow-lateness", "id-ordering"}
    assert main(args) == 0
    assert "1 baselined" in capsys.readouterr().out


@pytest.mark.parametrize(
    "content",
    [
        "not json at all",
        '{"schema": 99, "findings": []}',
        '{"schema": 1, "findings": {}}',
        '{"schema": 1, "findings": ["not an object"]}',
        '{"schema": 1, "findings": [{"path": "w.py", "rule": "wallclock"}]}',
        None,  # a directory: unreadable
    ],
)
def test_broken_baseline_is_a_one_line_usage_error(cli_root, capsys, content):
    path = _write(cli_root, CASES[0], fixed=True)
    baseline = cli_root / "bad.json"
    if content is None:
        baseline.mkdir()
    else:
        baseline.write_text(content)
    code = main(["check", "--rules", "D", "--paths", str(path), "--baseline", str(baseline)])
    out = capsys.readouterr().out
    assert code == 2
    assert out.startswith("check: baseline ") and out.count("\n") == 1
    with pytest.raises(LintError, match="baseline"):
        run_check([path], root=cli_root, rules=resolve_rules("D"), baseline=baseline)


# ----------------------------------------------------------------------
# Selection, registry, usage errors
# ----------------------------------------------------------------------


def test_registry_is_unique_and_complete():
    assert len(ALL_RULES) == 13
    assert [r.code for r in ALL_RULES] == "D1 D2 D3 D4 D5 L1 L2 L3 X1 W1 W2 F1 F2".split()
    assert len({r.id for r in ALL_RULES}) == 13
    for rule in ALL_RULES:
        assert rule.description and rule.fix_hint and rule.severity == "error"


def test_analysis_doc_rule_tables_list_exactly_the_registry():
    text = (REPO_ROOT / "docs" / "ANALYSIS.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| ([A-Z]\d+) \| `([a-z-]+)` \|", text, flags=re.MULTILINE)
    assert rows == [(r.code, r.id) for r in ALL_RULES]


def test_resolve_rules_by_id_code_and_family():
    assert resolve_rules(None) == resolve_rules("") == ALL_RULES
    assert [r.code for r in resolve_rules("wallclock")] == ["D2"]
    assert [r.code for r in resolve_rules("f2, all-drift")] == ["X1", "F2"]
    assert [r.code for r in resolve_rules("F")] == ["F1", "F2"]
    # Registry order, whatever the spelling order; overlaps collapse.
    assert [r.code for r in resolve_rules(["W2", "D", "D1"])] == [
        "D1", "D2", "D3", "D4", "D5", "W2",
    ]
    assert resolve_rules("D,L,X,W,F") == ALL_RULES
    with pytest.raises(LintError, match="unknown rule 'q9'"):
        resolve_rules("D,Q9")
    # The protocol contract is checked by the test suite, and the sharded
    # engine at runtime, not by `repro check`.
    for retired in ("P", "S", "S3"):
        with pytest.raises(LintError, match=f"unknown rule '{retired.lower()}'"):
            resolve_rules(retired)


def test_cli_list_rules_prints_the_table_and_honours_the_filter(capsys):
    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert out.rstrip("\n") == rule_table() and len(out.splitlines()) == 13
    for family, codes in (("L", ["L1", "L2", "L3"]), ("F", ["F1", "F2"])):
        assert main(["check", "--list-rules", "--rules", family]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert [row.split()[0] for row in rows] == codes


def test_cli_unknown_rule_and_missing_path_are_usage_errors(tmp_path, capsys):
    for unknown in ("bogus", "S", "S3"):
        assert main(["check", "--rules", unknown]) == 2
        out = capsys.readouterr().out
        assert out.startswith(f"check: unknown rule '{unknown.lower()}'")
        assert out.count("\n") == 1
    assert main(["check", "--rules", "D", "--paths", str(tmp_path / "nope.py")]) == 2
    assert "no such path" in capsys.readouterr().out
    with pytest.raises(LintError, match="no such path"):
        run_check([tmp_path / "nope"], root=tmp_path)


@pytest.mark.parametrize(
    "gone",
    [["lint"], ["flow"], ["shard-check"], ["proto-check"], ["check", "--policies", "F1"],
     ["check", "--list-policies"], ["check", "--max-depth", "2"], ["check", "--spec", "x"]],
)
def test_removed_subcommands_and_flags_leave_no_alias(gone, capsys):
    with pytest.raises(SystemExit) as exc:
        main(gone)
    assert exc.value.code == 2


# ----------------------------------------------------------------------
# Facts are shared and lazy; reports
# ----------------------------------------------------------------------


def _tiny_tree(tmp_path):
    (tmp_path / "a.py").write_text(
        "def helper(x):\n    return x + 1\n\n\n"
        "def main(engine):\n    return helper(engine.params)\n"
    )
    (tmp_path / "b.py").write_text("VALUE = 3\n")
    (tmp_path / "c.py").write_text(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\nclass Ping:\n    '''A test message.'''\n\n"
        "    value: int\n"
    )


def test_full_set_parses_each_file_once_and_builds_one_call_graph(tmp_path, index_builds):
    _tiny_tree(tmp_path)
    cache = SourceCache(tmp_path)
    report = run_check([tmp_path], root=tmp_path, cache=cache)
    assert report.ok, report.format_text()
    assert report.rules == ALL_RULES
    assert cache.parses == len(collect_py_files([tmp_path])) == report.files == 3
    assert index_builds == [3]
    assert report.facts == {"functions": 2, "passes": report.context.flow.passes}
    # A second run over the same cache parses nothing again.
    run_check([tmp_path], root=tmp_path, cache=cache)
    assert cache.parses == 3


def test_per_module_families_build_no_project_facts(tmp_path, index_builds):
    _tiny_tree(tmp_path)
    report = run_check([tmp_path], root=tmp_path, rules=resolve_rules("D,L,X,W"))
    assert report.ok
    assert index_builds == [] and report.facts == {}
    assert report.format_text() == "3 file(s), 11 rule(s): 0 finding(s), 0 waived, 0 baselined"


def test_each_family_builds_only_the_facts_it_reads(tmp_path, index_builds):
    _tiny_tree(tmp_path)

    def facts(rules):
        return set(run_check([tmp_path], root=tmp_path, rules=resolve_rules(rules)).facts)

    assert facts("F") == {"functions", "passes"}
    assert facts("W2") == facts("D,L,X,W") == set()
    assert index_builds == [3]


def test_json_report_is_version_2_and_flat(cli_root, capsys):
    case = CASES[1]
    path = _write(cli_root, case)
    args = ["check", "--rules", "F", "--paths", str(path), "--no-baseline", "--format=json"]
    assert main(args) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 2 and payload["ok"] is False and payload["files"] == 1
    assert payload["rules"] == [r.id for r in resolve_rules("F")]
    assert set(payload["facts"]) == {"functions", "passes"}
    assert payload["facts"]["functions"] == 1
    assert payload["counts"] == {"active": 1, "waived": 0, "baselined": 0, "stale_baseline": 0}
    assert [f["rule"] for f in payload["findings"]] == [case.rule]
    assert payload["waived"] == payload["baselined"] == payload["stale_baseline"] == []


def test_sarif_is_one_run_carrying_the_selected_rules(cli_root, capsys):
    case = CASES[1]
    path = _write(cli_root, case)
    args = ["check", "--rules", "F,W", "--paths", str(path), "--no-baseline", "--format=sarif"]
    assert main(args) == 1
    doc = json.loads(capsys.readouterr().out)
    assert validate_sarif(doc) == []
    (run,) = doc["runs"]
    assert run["tool"]["driver"]["name"] == "repro-check"
    assert [r["id"] for r in run["tool"]["driver"]["rules"]] == [
        r.id for r in resolve_rules("F,W")
    ]
    assert [res["ruleId"] for res in run["results"]] == [case.rule]
