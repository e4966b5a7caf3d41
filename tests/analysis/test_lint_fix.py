"""``repro check --fix``: stale waivers are deleted, everything else is kept."""

import textwrap

from repro.analysis.check import resolve_rules, run_check
from repro.analysis.lint.fix import fix_unused_waivers
from repro.cli import main

#: The view-internals waiver in CONTENT belongs to a rule these runs leave
#: out, so nothing here may judge (or delete) it.
LINT = resolve_rules("D,X,W")

CONTENT = textwrap.dedent(
    """\
    # repro: module(repro.sim.fixme)
    import time

    t0 = time.perf_counter()  # repro: allow(wallclock): measured on purpose
    y = 1  # repro: allow(wallclock): stale trailing waiver
    # repro: allow(id-ordering): stale standalone waiver
    z = 2
    q = 3  # repro: allow(view-internals): its rule is not selected here
    s = "# repro: allow(wallclock): waiver-shaped string, not a comment"
    """
)

EXPECTED = textwrap.dedent(
    """\
    # repro: module(repro.sim.fixme)
    import time

    t0 = time.perf_counter()  # repro: allow(wallclock): measured on purpose
    y = 1
    z = 2
    q = 3  # repro: allow(view-internals): its rule is not selected here
    s = "# repro: allow(wallclock): waiver-shaped string, not a comment"
    """
)


def test_fix_deletes_exactly_the_stale_waivers(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(CONTENT)
    fixed = fix_unused_waivers([path], root=tmp_path, rules=LINT)
    assert fixed == {"mod.py": 2}
    assert path.read_text() == EXPECTED


def test_fix_round_trip_leaves_no_w2_findings(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(CONTENT)
    before = run_check([path], root=tmp_path, rules=LINT, baseline=None)
    assert [f.rule for f in before.findings] == ["unused-waiver", "unused-waiver"]
    fix_unused_waivers([path], root=tmp_path, rules=LINT)
    after = run_check([path], root=tmp_path, rules=LINT, baseline=None)
    assert after.ok, [f.format() for f in after.findings]
    # The used waiver still absorbs its finding.
    assert [f.rule for f in after.waived] == ["wallclock"]


def test_fix_is_idempotent_and_reports_nothing_on_clean_trees(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(CONTENT)
    assert fix_unused_waivers([path], root=tmp_path, rules=LINT)
    assert fix_unused_waivers([path], root=tmp_path, rules=LINT) == {}
    assert path.read_text() == EXPECTED


def test_fix_invalidates_a_shared_cache(tmp_path):
    from repro.analysis.source_cache import SourceCache

    path = tmp_path / "mod.py"
    path.write_text(CONTENT)
    cache = SourceCache(tmp_path)
    fix_unused_waivers([path], root=tmp_path, rules=LINT, cache=cache)
    # A fresh parse through the same cache sees the rewritten file.
    assert len(cache.module(path).waivers) == 2


def test_cli_fix_flag(tmp_path, capsys):
    path = tmp_path / "mod.py"
    path.write_text(CONTENT)
    fix = ["check", "--rules", "D,X,W", "--fix", "--paths", str(path), "--no-baseline"]
    assert main(fix) == 0
    out = capsys.readouterr().out
    assert "removed 2 stale waiver(s)" in out
    assert path.read_text() == EXPECTED
    assert main(fix) == 0
    assert "nothing to fix" in capsys.readouterr().out
