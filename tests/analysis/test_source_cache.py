"""The shared parse cache: one parse per file, across rule families and runs."""

import pytest

from repro.analysis.check import resolve_rules, run_check
from repro.analysis.source_cache import SourceCache, collect_py_files

ARM = "# repro: module(repro.sim.cached)\n"
LINT = resolve_rules("D,L,X,W")
FLOW = resolve_rules("F")


def _populate(tmp_path, n=3):
    for i in range(n):
        (tmp_path / f"m{i}.py").write_text(ARM + f"X{i} = {i}\n")
    return tmp_path


def test_lint_and_flow_share_one_parse_per_file(tmp_path):
    _populate(tmp_path)
    cache = SourceCache(tmp_path)
    lint = run_check([tmp_path], root=tmp_path, rules=LINT, baseline=None, cache=cache)
    flow = run_check([tmp_path], root=tmp_path, rules=FLOW, baseline=None, cache=cache)
    assert lint.files == flow.files == 3
    assert cache.parses == 3


def test_unshared_runs_parse_twice(tmp_path):
    _populate(tmp_path)
    c1, c2 = SourceCache(tmp_path), SourceCache(tmp_path)
    run_check([tmp_path], root=tmp_path, rules=LINT, baseline=None, cache=c1)
    run_check([tmp_path], root=tmp_path, rules=FLOW, baseline=None, cache=c2)
    assert c1.parses == 3 and c2.parses == 3


def test_x1_sibling_lookups_reuse_the_main_loop_parses(tmp_path):
    # A package whose __init__ re-exports from a sibling: the X1 rule reads
    # the sibling's __all__, which must not trigger a second parse.
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "one.py").write_text('__all__ = ["alpha"]\nalpha = 1\n')
    (pkg / "__init__.py").write_text(
        'from pkg.one import alpha\n\n__all__ = ["alpha"]\n'
    )
    cache = SourceCache(tmp_path)
    report = run_check([pkg], root=tmp_path, rules=LINT, baseline=None, cache=cache)
    assert report.ok, [f.format() for f in report.findings]
    assert cache.parses == 2


def test_syntax_errors_are_memoized(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def broken(:\n")
    cache = SourceCache(tmp_path)
    assert cache.try_module(path) is None
    with pytest.raises(SyntaxError):
        cache.module(path)
    assert cache.try_module(path) is None
    assert cache.parses == 1


def test_invalidate_forces_a_reparse(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("X = 1\n")
    cache = SourceCache(tmp_path)
    assert cache.module(path).tree is cache.module(path).tree
    assert cache.parses == 1
    path.write_text("X = 2\n")
    cache.invalidate(path)
    assert cache.module(path).source == "X = 2\n"
    assert cache.parses == 2


def test_collect_py_files_dedupes_and_rejects_missing(tmp_path):
    _populate(tmp_path, n=2)
    files = collect_py_files([tmp_path, tmp_path / "m0.py"])
    assert len(files) == 2
    with pytest.raises(FileNotFoundError):
        collect_py_files([tmp_path / "ghost"])
