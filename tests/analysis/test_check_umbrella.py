"""``repro check`` on the live tree: one report, one SARIF run, one exit code."""

import json
import textwrap

from repro.analysis.check import ALL_RULES, run_check
from repro.analysis.sarif import validate_sarif
from repro.analysis.source_cache import SourceCache, collect_py_files


def test_four_engines_share_one_parse_and_one_graph(tmp_path):
    (tmp_path / "a.py").write_text(
        textwrap.dedent(
            """
            def helper(x):
                return x + 1

            def _worker_main(engine):
                return helper(engine.params)
            """
        )
    )
    (tmp_path / "b.py").write_text("VALUE = 3\n")
    (tmp_path / "c.py").write_text(
        textwrap.dedent(
            """
            from dataclasses import dataclass


            @dataclass(frozen=True)
            class Ping:
                '''A test message.'''

                value: int
            """
        )
    )
    cache = SourceCache(tmp_path)
    files = collect_py_files([tmp_path])
    report = run_check([tmp_path], root=tmp_path, baseline=None, cache=cache)
    # All six families ran off one parse per file and one call graph
    # (the build count itself is pinned in test_check_engine).
    assert cache.parses == len(files)
    assert report.ok and report.rules == ALL_RULES
    assert report.context.roles.worker_only("a._worker_main")


def test_cli_check_emits_one_merged_sarif_document(capsys):
    from repro.cli import main

    code = main(["check", "--format", "sarif"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert validate_sarif(doc) == []
    (run,) = doc["runs"]
    assert run["tool"]["driver"]["name"] == "repro-check"
    assert [r["id"] for r in run["tool"]["driver"]["rules"]] == [r.id for r in ALL_RULES]


def test_cli_check_json_combines_all_four_reports(capsys):
    from repro.cli import main

    code = main(["check", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["version"] == 2 and payload["ok"] is True
    assert payload["counts"]["active"] == 0 and payload["findings"] == []
    assert payload["rules"] == [r.id for r in ALL_RULES]
    # One facts block where there were four reports (the live counts are
    # pinned once, in test_check_engine's live verdict).
    assert set(payload["facts"]) == {"functions", "passes", "roles"}


def test_cli_check_fails_on_injected_defect(tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "w.py"
    bad.write_text(
        textwrap.dedent(
            """
            def _worker_main(engine, band, conn):
                engine.trace.record(band)
            """
        )
    )
    code = main(["check", "--paths", str(bad)])
    out = capsys.readouterr().out
    assert code == 1
    assert "w.py:3: [shard-master-state]" in out
