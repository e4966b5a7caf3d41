"""The flow rules (F1/F2) through ``repro check``: summaries, sanitizer, waivers, CLI."""

import json
import textwrap

import pytest

from repro.analysis.check import resolve_rules, run_check
from repro.analysis.flow import summaries
from repro.analysis.flow.policies import ALL_POLICIES, LATENESS
from repro.analysis.lint.baseline import Baseline, write_baseline
from repro.analysis.lint.engine import LintError
from repro.cli import main

#: F1 + F2, plus the stale-waiver audit (what `repro flow` ran).
FLOW = resolve_rules("F,W2")
FLOW_ARGS = ["check", "--rules", "F,W2"]


def check_flow(paths, **kwargs):
    kwargs.setdefault("rules", FLOW)
    return run_check(paths, **kwargs)

ARM = "# repro: module(repro.sim.flowtest)\n"


def _tree(tmp_path, text, name="mod.py", header=ARM):
    path = tmp_path / name
    path.write_text(header + textwrap.dedent(text))
    return path


# -- interprocedural propagation ---------------------------------------


CHAIN = """
    import time


    def a():
        return b()


    def b():
        return c()


    def c():
        return time.perf_counter()


    class R:
        def mark(self):
            self.x = a()
"""


def test_taint_tracks_through_a_helper_chain(tmp_path):
    _tree(tmp_path, CHAIN)
    report = check_flow([tmp_path], root=tmp_path, baseline=None)
    assert [f.rule for f in report.findings] == ["flow-determinism"]
    assert "`time.perf_counter`" in report.findings[0].message
    # Converged before the depth bound.
    assert report.facts["passes"] < summaries.MAX_DEPTH
    assert report.facts["functions"] == 4


def test_max_depth_bounds_the_chain_length(tmp_path, monkeypatch):
    # Two passes are not enough to push the clock through a -> b -> c.
    _tree(tmp_path, CHAIN)
    monkeypatch.setattr(summaries, "MAX_DEPTH", 2)
    report = check_flow([tmp_path], root=tmp_path, baseline=None)
    assert report.ok
    assert report.facts["passes"] == 2


def test_max_depth_must_be_positive(tmp_path):
    # The bound is a module constant now, not an argument anyone can get wrong.
    assert summaries.MAX_DEPTH >= 1
    with pytest.raises(TypeError):
        run_check([tmp_path], root=tmp_path, max_depth=0)


# -- the sanitizer ------------------------------------------------------


def test_view_without_both_lateness_keywords_is_not_a_sanitizer(tmp_path):
    _tree(
        tmp_path,
        """
        from repro.adversary.view import AdversaryView


        class D:
            def consult(self, t):
                view = AdversaryView(t, self.trace, self.lifecycle,
                                     topology_lateness=2)
                return self.adversary.decide(view)
        """,
    )
    report = check_flow([tmp_path], root=tmp_path, baseline=None)
    assert [f.rule for f in report.findings] == ["flow-lateness"]


def test_view_with_both_lateness_keywords_launders_live_state(tmp_path):
    _tree(
        tmp_path,
        """
        from repro.adversary.view import AdversaryView


        class D:
            def consult(self, t):
                view = AdversaryView(t, self.trace, self.lifecycle,
                                     topology_lateness=2, state_lateness=8)
                return self.adversary.decide(view)
        """,
    )
    report = check_flow([tmp_path], root=tmp_path, baseline=None)
    assert report.ok, [f.format() for f in report.findings]


# -- sinks beyond decide() ----------------------------------------------


def test_store_onto_adversary_handle_is_a_sink(tmp_path):
    _tree(
        tmp_path,
        """
        class D:
            def leak(self):
                adv = self.adversary
                adv.hint = self.trace
        """,
    )
    report = check_flow([tmp_path], root=tmp_path, baseline=None)
    assert [f.rule for f in report.findings] == ["flow-lateness"]
    assert "adversary object state `adv.hint`" in report.findings[0].message


def test_getattr_on_self_is_a_live_state_source(tmp_path):
    _tree(
        tmp_path,
        """
        class D:
            def consult(self):
                snap = getattr(self, "trace")
                return self.adversary.decide(snap)
        """,
    )
    report = check_flow([tmp_path], root=tmp_path, baseline=None)
    assert [f.rule for f in report.findings] == ["flow-lateness"]


def test_property_loads_resolve_to_the_property_function(tmp_path):
    _tree(
        tmp_path,
        """
        class D:
            @property
            def snapshot(self):
                return self.trace

            def consult(self):
                return self.adversary.decide(self.snapshot)
        """,
    )
    report = check_flow([tmp_path], root=tmp_path, baseline=None)
    assert [f.rule for f in report.findings] == ["flow-lateness"]


def test_unarmed_module_reports_nothing(tmp_path):
    _tree(
        tmp_path,
        """
        class D:
            def consult(self):
                snap = self.trace
                return self.adversary.decide(snap)
        """,
        header="# repro: module(elsewhere.tool)\n",
    )
    report = check_flow([tmp_path], root=tmp_path, baseline=None)
    assert report.ok


# -- waivers ------------------------------------------------------------


LEAK = """
    class D:
        def consult(self):
            snap = self.trace
            return self.adversary.decide(snap){trailer}
"""


def test_flow_waiver_absorbs_its_finding(tmp_path):
    _tree(
        tmp_path,
        LEAK.format(trailer="  # repro: allow(flow-lateness): exercised by tests"),
    )
    report = check_flow([tmp_path], root=tmp_path, baseline=None)
    assert report.ok
    assert [f.rule for f in report.waived] == ["flow-lateness"]


def test_stale_flow_waiver_is_reported_by_flow_not_lint(tmp_path):
    path = _tree(
        tmp_path,
        """
        X = 1  # repro: allow(flow-lateness): nothing here any more
        """,
    )
    flow = check_flow([path], root=tmp_path, baseline=None)
    assert [f.rule for f in flow.findings] == ["unused-waiver"]
    # A run without the flow rules leaves flow-* waivers alone: only a run
    # that produced the flow findings can know whether they match one.
    lint = run_check([path], root=tmp_path, rules=resolve_rules("D,L,X,W"), baseline=None)
    assert lint.ok, [f.format() for f in lint.findings]


def test_unjustified_flow_waiver_is_inert(tmp_path):
    _tree(tmp_path, LEAK.format(trailer="  # repro: allow(flow-lateness)"))
    report = check_flow([tmp_path], root=tmp_path, baseline=None)
    assert [f.rule for f in report.findings] == ["flow-lateness"]


# -- baseline -----------------------------------------------------------


def test_baseline_round_trip(tmp_path):
    _tree(tmp_path, LEAK.format(trailer=""))
    first = check_flow([tmp_path], root=tmp_path, baseline=None)
    assert not first.ok
    baseline_path = tmp_path / "flow-baseline.json"
    write_baseline(baseline_path, first.findings)
    second = check_flow([tmp_path], root=tmp_path, baseline=baseline_path)
    assert second.ok
    assert len(second.baselined) == len(first.findings)
    assert not second.stale_baseline


def test_stale_baseline_entries_are_reported(tmp_path):
    _tree(tmp_path, "X = 1\n")
    base = Baseline(
        [{"path": "mod.py", "rule": "flow-lateness", "message": "long gone"}]
    )
    report = check_flow([tmp_path], root=tmp_path, baseline=base)
    assert report.ok
    assert report.stale_baseline == [
        {"path": "mod.py", "rule": "flow-lateness", "message": "long gone"}
    ]


# -- errors and selection -----------------------------------------------


def test_unparsable_file_is_a_parse_error_finding(tmp_path):
    _tree(tmp_path, "def broken(:\n")
    report = check_flow([tmp_path], root=tmp_path, baseline=None)
    assert [f.rule for f in report.findings] == ["parse-error"]


def test_missing_path_raises(tmp_path):
    with pytest.raises(LintError):
        check_flow([tmp_path / "nope"], root=tmp_path)


def test_resolve_flow_rules_by_id_code_and_error():
    assert resolve_rules("F") == ALL_POLICIES
    assert resolve_rules("F1") == (LATENESS,)
    assert resolve_rules("flow-lateness,f1") == (LATENESS,)
    with pytest.raises(LintError):
        resolve_rules("F9")


def test_policy_selection_limits_findings(tmp_path):
    _tree(
        tmp_path,
        """
        import time


        class D:
            def both(self):
                self.t0 = time.perf_counter()
                return self.adversary.decide(self.trace.edges)
        """,
    )
    full = check_flow([tmp_path], root=tmp_path, baseline=None)
    assert sorted({f.rule for f in full.findings}) == [
        "flow-determinism",
        "flow-lateness",
    ]
    only_f1 = check_flow(
        [tmp_path], root=tmp_path, baseline=None, rules=resolve_rules("F1")
    )
    assert {f.rule for f in only_f1.findings} == {"flow-lateness"}


# -- CLI ----------------------------------------------------------------


def test_cli_list_policies(capsys):
    assert main(["check", "--list-rules", "--rules", "F"]) == 0
    out = capsys.readouterr().out
    assert "flow-lateness" in out and "flow-determinism" in out
    assert len(out.splitlines()) == 2


def test_cli_exit_codes(tmp_path, capsys):
    bad = _tree(tmp_path, LEAK.format(trailer=""))
    assert main(FLOW_ARGS + ["--paths", str(bad), "--no-baseline"]) == 1
    capsys.readouterr()
    ok = _tree(tmp_path, "X = 1\n", name="ok.py")
    assert main(FLOW_ARGS + ["--paths", str(ok), "--no-baseline"]) == 0
    capsys.readouterr()
    assert main(FLOW_ARGS + ["--paths", str(tmp_path / "missing.py")]) == 2
    capsys.readouterr()
    assert main(["check", "--rules", "F9"]) == 2


def test_cli_json_format(tmp_path, capsys):
    bad = _tree(tmp_path, LEAK.format(trailer=""))
    args = ["check", "--rules", "F", "--paths", str(bad), "--no-baseline", "--format=json"]
    assert main(args) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["counts"]["active"] == 1
    assert data["findings"][0]["rule"] == "flow-lateness"
    assert data["rules"] == ["flow-lateness", "flow-determinism"]


def test_cli_update_baseline(tmp_path, capsys):
    bad = _tree(tmp_path, LEAK.format(trailer=""))
    baseline = tmp_path / "fb.json"
    assert (
        main(
            [
                *FLOW_ARGS,
                "--paths",
                str(bad),
                "--baseline",
                str(baseline),
                "--update-baseline",
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert baseline.exists()
    assert main(FLOW_ARGS + ["--paths", str(bad), "--baseline", str(baseline)]) == 0


def test_cli_max_depth(tmp_path, capsys, monkeypatch):
    _tree(tmp_path, CHAIN)
    args = FLOW_ARGS + ["--paths", str(tmp_path), "--no-baseline"]
    assert main(args) == 1
    capsys.readouterr()
    # The bound is not a flag any more ...
    with pytest.raises(SystemExit):
        main(args + ["--max-depth", "2"])
    # ... but it still bounds: two passes lose the three-helper chain.
    monkeypatch.setattr(summaries, "MAX_DEPTH", 2)
    assert main(args) == 0
