"""The shard rules (S1–S5) through ``repro check``: waivers, baseline, SARIF, CLI."""

import json
import textwrap

import pytest

from repro.analysis.check import resolve_rules, rule_table, run_check
from repro.analysis.lint.baseline import Baseline, write_baseline
from repro.analysis.lint.engine import LintError
from repro.analysis.sarif import validate_sarif

ALL_SHARD_RULES = resolve_rules("S")
#: S1–S5 plus the stale-waiver audit (what `repro shard-check` ran).
SHARD = resolve_rules("S,W2")
SHARD_ARGS = ["check", "--rules", "S,W2"]


def check_shard(paths, **kwargs):
    kwargs.setdefault("rules", SHARD)
    return run_check(paths, **kwargs)

BAD_WORKER = """
def _worker_main(engine, band, conn):
    engine.trace.record(band)
"""


def _write(tmp_path, source, name="w.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return path


def test_finding_reported_with_location_and_hint(tmp_path):
    _write(tmp_path, BAD_WORKER)
    report = check_shard([tmp_path], root=tmp_path, baseline=None)
    assert not report.ok
    (finding,) = report.findings
    assert finding.rule == "shard-master-state"
    assert finding.path == "w.py"
    assert finding.line == 3
    assert "`.trace`" in finding.message
    assert report.facts["roles"]["worker"] == 1


def test_justified_waiver_suppresses_and_counts(tmp_path):
    _write(
        tmp_path,
        """
        def _worker_main(engine, band, conn):
            # repro: allow(shard-master-state): fork-time snapshot, test double
            engine.trace.record(band)
        """,
    )
    report = check_shard([tmp_path], root=tmp_path, baseline=None)
    assert report.ok
    assert len(report.waived) == 1
    assert report.waived[0].rule == "shard-master-state"


def test_unjustified_waiver_is_inert(tmp_path):
    _write(
        tmp_path,
        """
        def _worker_main(engine, band, conn):
            # repro: allow(shard-master-state)
            engine.trace.record(band)
        """,
    )
    report = check_shard([tmp_path], root=tmp_path, baseline=None)
    assert not report.ok  # the finding survives; W1 reports the bare waiver


def test_stale_shard_waiver_is_reported_here_not_by_lint(tmp_path):
    path = _write(
        tmp_path,
        """
        def _worker_main(engine, band, conn):
            # repro: allow(shard-master-state): nothing here anymore
            return band
        """,
    )
    report = check_shard([tmp_path], root=tmp_path, baseline=None)
    stale = [f for f in report.findings if f.rule == "unused-waiver"]
    assert len(stale) == 1
    assert "shard-master-state" in stale[0].message

    lint_report = run_check(
        [path], root=tmp_path, rules=resolve_rules("D,L,X,W"), baseline=None
    )
    assert not any(f.rule == "unused-waiver" for f in lint_report.findings)


def test_stale_waiver_not_flagged_when_its_rule_is_deselected(tmp_path):
    _write(
        tmp_path,
        """
        def _worker_main(engine, band, conn):
            # repro: allow(shard-master-state): nothing here anymore
            return band
        """,
    )
    report = check_shard(
        [tmp_path],
        root=tmp_path,
        rules=resolve_rules("S4,W2"),
        baseline=None,
    )
    assert report.ok  # S3 did not run, so its waiver cannot be proven stale


def test_baseline_round_trip_and_staleness(tmp_path):
    _write(tmp_path, BAD_WORKER)
    first = check_shard([tmp_path], root=tmp_path, baseline=None)
    baseline_path = tmp_path / "shard-baseline.json"
    write_baseline(baseline_path, first.findings)

    second = check_shard([tmp_path], root=tmp_path, baseline=baseline_path)
    assert second.ok
    assert len(second.baselined) == 1

    # Fix the code: the baseline entry must surface as stale.
    _write(
        tmp_path,
        """
        def _worker_main(engine, band, conn):
            return band
        """,
    )
    third = check_shard([tmp_path], root=tmp_path, baseline=baseline_path)
    assert third.ok
    assert len(third.stale_baseline) == 1
    assert third.stale_baseline[0]["rule"] == "shard-master-state"


def test_baseline_object_accepted(tmp_path):
    _write(tmp_path, BAD_WORKER)
    report = check_shard([tmp_path], root=tmp_path, baseline=Baseline([]))
    assert not report.ok


def test_parse_error_becomes_finding(tmp_path):
    _write(tmp_path, "def broken(:\n", name="broken.py")
    report = check_shard([tmp_path], root=tmp_path, baseline=None)
    assert any(f.rule == "parse-error" for f in report.findings)


def test_missing_path_raises_lint_error(tmp_path):
    with pytest.raises(LintError, match="no such path"):
        check_shard([tmp_path / "absent"], root=tmp_path, baseline=None)


def test_resolve_rules_by_id_code_and_rejection():
    assert [r.code for r in ALL_SHARD_RULES] == ["S1", "S2", "S3", "S4", "S5"]
    (s3,) = resolve_rules("S3")
    assert s3.id == "shard-master-state"
    pair = resolve_rules("shard-band-ownership,S5")
    assert tuple(r.code for r in pair) == ("S1", "S5")
    with pytest.raises(LintError, match="unknown rule"):
        resolve_rules("S9")


def test_rule_table_lists_every_rule():
    table = rule_table(ALL_SHARD_RULES)
    for rule in ALL_SHARD_RULES:
        assert rule.code in table and rule.id in table


def test_report_dict_and_text_expose_roles(tmp_path):
    _write(tmp_path, BAD_WORKER)
    report = check_shard([tmp_path], root=tmp_path, baseline=None)
    payload = report.to_dict()
    assert payload["facts"]["roles"] == {"master": 0, "worker": 1, "shared": 0}
    assert payload["counts"]["active"] == 1
    text = report.format_text()
    assert "0 master / 1 worker / 0 shared" in text
    assert "1 finding(s)" in text


def test_findings_serialize_to_valid_sarif(tmp_path):
    _write(tmp_path, BAD_WORKER)
    report = check_shard([tmp_path], root=tmp_path, baseline=None)
    doc = report.to_sarif()
    assert validate_sarif(doc) == []
    (run,) = doc["runs"]
    assert run["tool"]["driver"]["name"] == "repro-check"
    assert [r["id"] for r in run["tool"]["driver"]["rules"]] == [r.id for r in SHARD]
    assert run["results"][0]["ruleId"] == "shard-master-state"


def test_cli_shard_check_list_rules_and_json(tmp_path, capsys, monkeypatch):
    from repro.cli import main

    assert main(["check", "--list-rules", "--rules", "S"]) == 0
    out = capsys.readouterr().out
    assert "shard-band-ownership" in out

    monkeypatch.chdir(tmp_path)
    _write(tmp_path, BAD_WORKER)
    code = main(
        [*SHARD_ARGS, "--paths", str(tmp_path / "w.py"), "--no-baseline",
         "--format", "json"]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["active"] == 1
    assert payload["findings"][0]["rule"] == "shard-master-state"


def test_cli_update_baseline_then_clean(tmp_path, capsys):
    from repro.cli import main

    _write(tmp_path, BAD_WORKER)
    baseline = tmp_path / "shard-baseline.json"
    assert (
        main(
            [*SHARD_ARGS, "--paths", str(tmp_path / "w.py"),
             "--baseline", str(baseline), "--update-baseline"]
        )
        == 0
    )
    capsys.readouterr()
    assert (
        main(
            [*SHARD_ARGS, "--paths", str(tmp_path / "w.py"),
             "--baseline", str(baseline)]
        )
        == 0
    )
    assert "1 baselined" in capsys.readouterr().out
