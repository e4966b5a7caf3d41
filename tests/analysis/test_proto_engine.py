"""The protocol rules (P3, P6) through ``repro check``: waivers, baseline, SARIF, CLI."""

import json
import textwrap

import pytest

from repro.analysis.check import resolve_rules, rule_table, run_check
from repro.analysis.lint.baseline import Baseline, write_baseline
from repro.analysis.lint.engine import LintError
from repro.analysis.sarif import validate_sarif

ALL_PROTO_RULES = resolve_rules("P")
#: P3, P6 plus the stale-waiver audit.
PROTO = resolve_rules("P,W2")
PROTO_ARGS = ["check", "--rules", "P,W2"]


def check_proto(paths, **kwargs):
    kwargs.setdefault("rules", PROTO)
    return run_check(paths, **kwargs)

SPEC = {
    "schema": 1,
    "messages": {
        "Ping": {"anchor": "engine fixture contract", "fields": ["data"]},
    },
}

# Ping is constructed with a field neither the spec nor the dataclass
# declares: exactly one P3 finding.
BAD_SRC = """
from dataclasses import dataclass


@dataclass(frozen=True)
class Ping:
    __protocol__ = True

    data: int


def emit(ctx):
    ctx.send(0, Ping(data=1, seq=2))
"""

PING_HEAD = """
from dataclasses import dataclass


@dataclass(frozen=True)
class Ping:
    __protocol__ = True

    data: int
"""


def _write(tmp_path, source, name="w.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return path


def _emit(*body):
    """`PING_HEAD` plus an `emit(ctx)` whose body is ``body``."""
    return PING_HEAD + "\n\ndef emit(ctx):\n" + "".join(f"    {line}\n" for line in body)


@pytest.fixture
def cli_root(tmp_path, monkeypatch):
    """The CLI reads `<root>/protocol-spec.json`; make ``tmp_path`` that root."""
    monkeypatch.setattr("repro.cli._repo_root", lambda: tmp_path)
    (tmp_path / "protocol-spec.json").write_text(json.dumps(SPEC))
    return tmp_path


def test_finding_reported_with_location_and_hint(tmp_path):
    _write(tmp_path, BAD_SRC)
    report = check_proto([tmp_path], root=tmp_path, baseline=None, spec=SPEC)
    assert not report.ok
    (finding,) = report.findings
    assert finding.rule == "protocol-field-drift"
    assert finding.path == "w.py"
    assert finding.line == 13
    assert "`Ping`" in finding.message and "unknown field `seq`" in finding.message
    assert finding.fix_hint
    assert report.facts["protocol"]["messages"] == 1
    assert report.facts["protocol"]["constructions"] == 1


def test_justified_waiver_suppresses_and_counts(tmp_path):
    _write(
        tmp_path,
        _emit(
            "# repro: allow(protocol-field-drift): seq lands with the next spec",
            "ctx.send(0, Ping(data=1, seq=2))",
        ),
    )
    report = check_proto([tmp_path], root=tmp_path, baseline=None, spec=SPEC)
    assert report.ok
    assert len(report.waived) == 1
    assert report.waived[0].rule == "protocol-field-drift"


def test_unjustified_waiver_is_inert(tmp_path):
    _write(
        tmp_path,
        _emit(
            "# repro: allow(protocol-field-drift)",
            "ctx.send(0, Ping(data=1, seq=2))",
        ),
    )
    report = check_proto([tmp_path], root=tmp_path, baseline=None, spec=SPEC)
    assert not report.ok  # the finding survives; W1 reports the bare waiver
    assert "protocol-field-drift" in {f.rule for f in report.findings}


def test_stale_proto_waiver_is_reported_here_not_by_lint(tmp_path):
    path = _write(
        tmp_path,
        _emit("# repro: allow(protocol-field-drift): nothing here anymore", "return ctx"),
    )
    report = check_proto([tmp_path], root=tmp_path, baseline=None, spec=SPEC)
    stale = [f for f in report.findings if f.rule == "unused-waiver"]
    assert len(stale) == 1
    assert "protocol-field-drift" in stale[0].message

    lint_report = run_check(
        [path], root=tmp_path, rules=resolve_rules("D,L,X,W"), baseline=None
    )
    assert not any(f.rule == "unused-waiver" for f in lint_report.findings)


def test_stale_waiver_not_flagged_when_its_rule_is_deselected(tmp_path):
    _write(
        tmp_path,
        _emit("# repro: allow(protocol-field-drift): nothing here anymore", "return ctx"),
    )
    report = check_proto(
        [tmp_path],
        root=tmp_path,
        rules=resolve_rules("P6,W2"),
        baseline=None,
        spec=SPEC,
    )
    assert report.ok  # P3 did not run, so its waiver cannot be proven stale


def test_baseline_round_trip_and_staleness(tmp_path):
    _write(tmp_path, BAD_SRC)
    first = check_proto([tmp_path], root=tmp_path, baseline=None, spec=SPEC)
    baseline_path = tmp_path / "proto-baseline.json"
    write_baseline(baseline_path, first.findings)

    second = check_proto(
        [tmp_path], root=tmp_path, baseline=baseline_path, spec=SPEC
    )
    assert second.ok
    assert len(second.baselined) == 1

    # Fix the code: the baseline entry must surface as stale.
    _write(tmp_path, _emit("ctx.send(0, Ping(data=1))"))
    third = check_proto(
        [tmp_path], root=tmp_path, baseline=baseline_path, spec=SPEC
    )
    assert third.ok
    assert len(third.stale_baseline) == 1
    assert third.stale_baseline[0]["rule"] == "protocol-field-drift"


def test_baseline_object_accepted(tmp_path):
    _write(tmp_path, BAD_SRC)
    report = check_proto(
        [tmp_path], root=tmp_path, baseline=Baseline([]), spec=SPEC
    )
    assert not report.ok


def test_parse_error_becomes_finding(tmp_path):
    _write(tmp_path, "def broken(:\n", name="broken.py")
    report = check_proto([tmp_path], root=tmp_path, baseline=None, spec=SPEC)
    assert any(f.rule == "parse-error" for f in report.findings)


def test_missing_path_raises_lint_error(tmp_path):
    with pytest.raises(LintError, match="no such path"):
        check_proto(
            [tmp_path / "absent"], root=tmp_path, baseline=None, spec=SPEC
        )


def test_missing_default_spec_raises_lint_error(tmp_path):
    _write(tmp_path, BAD_SRC)
    with pytest.raises(LintError, match="no protocol spec at"):
        check_proto([tmp_path], root=tmp_path, baseline=None)


def test_resolve_rules_by_id_code_and_rejection():
    assert [r.code for r in ALL_PROTO_RULES] == ["P3", "P6"]
    (p3,) = resolve_rules("P3")
    assert p3.id == "protocol-field-drift"
    pair = resolve_rules("protocol-spec-coverage,P3")
    assert tuple(r.code for r in pair) == ("P3", "P6")
    for gone in ("P1", "P2", "P4", "P5", "protocol-phase-violation"):
        with pytest.raises(LintError, match="unknown rule"):
            resolve_rules(gone)


def test_rule_table_lists_every_rule():
    table = rule_table(ALL_PROTO_RULES)
    for rule in ALL_PROTO_RULES:
        assert rule.code in table and rule.id in table


def test_report_dict_and_text_expose_protocol_counts(tmp_path):
    _write(tmp_path, BAD_SRC)
    report = check_proto([tmp_path], root=tmp_path, baseline=None, spec=SPEC)
    payload = report.to_dict()
    assert payload["facts"]["spec"] == {
        "relpath": "protocol-spec.json",
        "messages": 1,
        "payloads": 0,
    }
    assert payload["facts"]["protocol"]["messages"] == 1
    assert payload["counts"]["active"] == 1
    text = report.format_text()
    assert "1 message type(s)" in text
    assert "1 finding(s)" in text


def test_findings_serialize_to_valid_sarif(tmp_path):
    _write(tmp_path, BAD_SRC)
    report = check_proto([tmp_path], root=tmp_path, baseline=None, spec=SPEC)
    doc = report.to_sarif()
    assert validate_sarif(doc) == []
    (run,) = doc["runs"]
    assert run["tool"]["driver"]["name"] == "repro-check"
    assert [r["id"] for r in run["tool"]["driver"]["rules"]] == [r.id for r in PROTO]
    assert run["results"][0]["ruleId"] == "protocol-field-drift"


def test_cli_proto_check_list_rules_and_json(cli_root, capsys):
    from repro.cli import main

    assert main(["check", "--list-rules", "--rules", "P"]) == 0
    out = capsys.readouterr().out
    assert "protocol-field-drift" in out and "protocol-spec-coverage" in out

    _write(cli_root, BAD_SRC)
    code = main(
        [*PROTO_ARGS, "--paths", str(cli_root / "w.py"), "--no-baseline",
         "--format", "json"]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"]["active"] == 1
    assert payload["findings"][0]["rule"] == "protocol-field-drift"


def test_cli_bad_spec_is_a_usage_error(cli_root, capsys):
    from repro.cli import main

    _write(cli_root, BAD_SRC)
    (cli_root / "protocol-spec.json").unlink()
    code = main([*PROTO_ARGS, "--paths", str(cli_root / "w.py"), "--no-baseline"])
    assert code == 2
    assert "no protocol spec at" in capsys.readouterr().out


def test_cli_update_baseline_then_clean(cli_root, capsys):
    from repro.cli import main

    _write(cli_root, BAD_SRC)
    baseline = cli_root / "proto-baseline.json"
    assert (
        main(
            [*PROTO_ARGS, "--paths", str(cli_root / "w.py"),
             "--baseline", str(baseline), "--update-baseline"]
        )
        == 0
    )
    capsys.readouterr()
    assert (
        main(
            [*PROTO_ARGS, "--paths", str(cli_root / "w.py"),
             "--baseline", str(baseline)]
        )
        == 0
    )
    assert "1 baselined" in capsys.readouterr().out
