"""The shard rules (S1–S5) gate the live tree: clean with the committed baseline.

The injection tests run each bad fixture *alongside* the real ``src/repro``
tree, proving every rule still fires inside the full project call graph —
the role seeds, import maps and class hierarchies of the live code must not
drown out a planted defect.
"""

import pytest

from repro.analysis.check import resolve_rules, run_check
from repro.cli import main

from .paths import BASELINE, FIXTURES, REPO_ROOT, SRC

SHARD = resolve_rules("S,W2")


def test_live_tree_is_clean_under_committed_baseline(live_cache):
    report = run_check([SRC], root=REPO_ROOT, rules=SHARD, baseline=BASELINE, cache=live_cache)
    assert report.ok, "\n" + "\n".join(f.format() for f in report.findings)
    assert not report.stale_baseline, report.stale_baseline
    # The engine actually looked at the tree and found the real partition.
    assert report.files > 50 and report.facts["functions"] > 300
    counts = report.context.roles.counts()
    assert counts == report.facts["roles"]
    assert counts["worker"] >= 5  # _worker_main and its exchange helpers
    assert counts["master"] >= 10  # ShardRunner methods + engine drivers
    # The sanctioned fork-time snapshot read in _worker_main is waived.
    assert len(report.waived) >= 1


def test_live_worker_partition_names_the_real_entry_points(live_cache):
    report = run_check([SRC], root=REPO_ROOT, rules=SHARD, baseline=BASELINE, cache=live_cache)
    roles = report.context.roles
    assert roles.worker_seeds == ("repro.sim.shard._worker_main",)
    worker_only = {q for q, r in roles.roles.items() if r == "worker"}
    assert "repro.sim.exchange.encode_uplink" in worker_only
    assert "repro.util.arena.attach_segment" in worker_only


def test_cli_gate_passes_on_live_tree():
    assert main(["check", "--rules", "S,W2"]) == 0


def test_umbrella_cli_gate_passes_on_live_tree():
    assert main(["check"]) == 0


@pytest.mark.parametrize("rule_id", [r.id for r in resolve_rules("S")])
def test_injected_bad_fixture_fails_the_gate(rule_id, live_cache):
    bad = FIXTURES / "shard" / rule_id / "bad.py"
    report = run_check(
        [SRC, bad], root=REPO_ROOT, rules=SHARD, baseline=BASELINE, cache=live_cache
    )
    assert not report.ok
    assert any(f.rule == rule_id for f in report.findings)


def test_injected_bad_fixture_fails_the_cli_gate():
    bad = str(FIXTURES / "shard" / "shard-master-state" / "bad.py")
    assert main(["check", "--rules", "S,W2", "--paths", bad, "--no-baseline"]) == 1
