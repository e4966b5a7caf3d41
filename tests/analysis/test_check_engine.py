"""The one engine behind ``repro check``: directives, waivers, baseline, CLI.

The waiver pass, the staleness audit and the baseline are parametrised
over one bad snippet of a determinism rule and one of a lateness rule, so
each is pinned for two families at once.  The live tree's verdict is in
``test_lint_live.py``.
"""

import json
import re
from dataclasses import dataclass

import pytest

from repro.analysis.check import ALL_RULES, resolve_rules, rule_table, run_check
from repro.analysis.lint.baseline import Baseline, write_baseline
from repro.analysis.lint.engine import LintError
from repro.analysis.lint.findings import Finding
from repro.analysis.lint.waivers import scan_directives
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
        rule="live-state-to-adversary",
        head="# repro: module(repro.sim.enginetest)\n\n\nclass D:\n    def consult(self):\n",
        bad="        return self.adversary.decide(self.trace)\n",
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


def test_waiver_cannot_waive_the_waiver_rules(tmp_path):
    (tmp_path / "w.py").write_text(
        "# repro: allow(waiver-justification): nice try\n# repro: allow(wallclock)\nx = 1\n"
    )
    report = run_check([tmp_path], root=tmp_path, rules=resolve_rules("W"))
    # The bare waiver is reported and the meta-waiver absorbing it is itself
    # stale (it matched nothing), so both waiver rules fire.
    assert sorted(f.rule for f in report.findings) == ["unused-waiver", "waiver-justification"]


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


def _finding(message="msg", line=3):
    return Finding(path="src/repro/x.py", line=line, rule="wallclock", message=message)


def test_finding_format_and_dict():
    f = _finding()
    assert f.format() == "src/repro/x.py:3: [wallclock] msg"
    assert f.baseline_key() == ("src/repro/x.py", "wallclock", "msg")
    assert f.to_dict()["severity"] == "error"


def test_baseline_roundtrip_and_multiset(tmp_path):
    path = write_baseline(tmp_path / "base.json", [_finding(), _finding()])
    base = Baseline.load(path)
    assert len(base.entries) == 2
    # Two entries absorb two findings; a third of the same key stays active.
    active, baselined, stale = base.partition([_finding()] * 3)
    assert (len(active), len(baselined), len(stale)) == (1, 2, 0)


def test_baseline_line_numbers_do_not_matter(tmp_path):
    path = write_baseline(tmp_path / "base.json", [_finding(line=3)])
    active, baselined, stale = Baseline.load(path).partition([_finding(line=99)])
    assert not active and len(baselined) == 1 and not stale


def test_baseline_stale_entries_are_reported(tmp_path):
    path = write_baseline(tmp_path / "base.json", [_finding(message="gone")])
    active, baselined, stale = Baseline.load(path).partition([])
    assert not active and not baselined and len(stale) == 1


def test_missing_baseline_file_is_empty(tmp_path):
    assert Baseline.load(tmp_path / "nope.json").entries == []


def test_write_baseline_attaches_notes(tmp_path):
    f = _finding()
    path = write_baseline(tmp_path / "b.json", [f], notes={f.baseline_key(): "why"})
    assert json.loads(path.read_text())["findings"][0]["note"] == "why"


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
    kept = {"path": "w.py", "rule": "view-internals", "message": "m", "note": "why"}
    baseline.write_text(json.dumps({"schema": 1, "findings": [kept]}))
    args = ["check", "--rules", "D", "--paths", str(path)]
    assert main(args + ["--update-baseline"]) == 0
    assert "(2 entries)" in capsys.readouterr().out
    entries = json.loads(baseline.read_text())["findings"]
    assert kept in entries and {e["rule"] for e in entries} == {"view-internals", "id-ordering"}
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
    assert len(ALL_RULES) == 11
    assert [r.code for r in ALL_RULES] == "D1 D2 D3 D4 D5 L1 L2 L3 X1 W1 W2".split()
    assert len({r.id for r in ALL_RULES}) == 11
    for rule in ALL_RULES:
        assert rule.description and rule.fix_hint and rule.severity == "error"


def test_analysis_doc_rule_tables_list_exactly_the_registry():
    text = (REPO_ROOT / "docs" / "ANALYSIS.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| ([A-Z]\d+) \| `([a-z-]+)` \|", text, flags=re.MULTILINE)
    assert rows == [(r.code, r.id) for r in ALL_RULES]


def test_resolve_rules_by_id_code_and_family():
    assert resolve_rules(None) == resolve_rules("") == ALL_RULES
    assert [r.code for r in resolve_rules("wallclock")] == ["D2"]
    assert [r.code for r in resolve_rules("w2, all-drift")] == ["X1", "W2"]
    assert [r.code for r in resolve_rules("L")] == ["L1", "L2", "L3"]
    # Registry order, whatever the spelling order; overlaps collapse.
    assert [r.code for r in resolve_rules(["W2", "D", "D1"])] == [
        "D1", "D2", "D3", "D4", "D5", "W2",
    ]
    assert resolve_rules("D,L,X,W") == ALL_RULES
    with pytest.raises(LintError, match="unknown rule 'q9'"):
        resolve_rules("D,Q9")
    # The protocol contract and the two information-flow walls are checked
    # by the test suite, and the sharded engine at runtime, not by
    # `repro check`.
    for retired in ("P", "S", "S3", "F", "F1", "flow-lateness"):
        with pytest.raises(LintError, match=f"unknown rule '{retired.lower()}'"):
            resolve_rules(retired)


def test_cli_list_rules_prints_the_table_and_honours_the_filter(capsys):
    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert out.rstrip("\n") == rule_table() and len(out.splitlines()) == 11
    for family, codes in (("L", ["L1", "L2", "L3"]), ("W", ["W1", "W2"])):
        assert main(["check", "--list-rules", "--rules", family]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert [row.split()[0] for row in rows] == codes


def test_cli_unknown_rule_and_missing_path_are_usage_errors(tmp_path, capsys):
    for unknown in ("bogus", "S", "S3", "F", "F1", "flow-lateness"):
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
# One parse; reports
# ----------------------------------------------------------------------


def test_full_set_parses_each_file_once(tmp_path):
    (tmp_path / "a.py").write_text("def main(engine):\n    return engine.params\n")
    (tmp_path / "b.py").write_text("VALUE = 3\n")
    cache = SourceCache(tmp_path)
    report = run_check([tmp_path], root=tmp_path, cache=cache)
    assert report.ok and report.rules == ALL_RULES
    assert cache.parses == len(collect_py_files([tmp_path])) == report.files == 2
    assert report.format_text() == "2 file(s), 11 rule(s): 0 finding(s), 0 waived, 0 baselined"
    # A second run over the same cache parses nothing again.
    run_check([tmp_path], root=tmp_path, cache=cache)
    assert cache.parses == 2


def test_json_report_is_version_3_and_flat(cli_root, capsys):
    case = CASES[1]
    path = _write(cli_root, case)
    args = ["check", "--rules", "L", "--paths", str(path), "--no-baseline", "--format=json"]
    assert main(args) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 3 and payload["ok"] is False and payload["files"] == 1
    assert payload["rules"] == [r.id for r in resolve_rules("L")]
    assert "facts" not in payload
    assert payload["counts"] == {"active": 1, "waived": 0, "baselined": 0, "stale_baseline": 0}
    assert [f["rule"] for f in payload["findings"]] == [case.rule]
    assert payload["waived"] == payload["baselined"] == payload["stale_baseline"] == []


def test_sarif_is_one_run_carrying_the_selected_rules(cli_root, capsys):
    case = CASES[1]
    path = _write(cli_root, case)
    args = ["check", "--rules", "L,W", "--paths", str(path), "--no-baseline", "--format=sarif"]
    assert main(args) == 1
    doc = json.loads(capsys.readouterr().out)
    assert validate_sarif(doc) == []
    (run,) = doc["runs"]
    assert run["tool"]["driver"]["name"] == "repro-check"
    assert [r["id"] for r in run["tool"]["driver"]["rules"]] == [
        r.id for r in resolve_rules("L,W")
    ]
    assert [res["ruleId"] for res in run["results"]] == [case.rule]
