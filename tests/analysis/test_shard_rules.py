"""Corpus driver: every shard rule has a passing and a failing fixture.

The bad fixtures are shaped like real :mod:`repro.sim.shard` /
:mod:`repro.sim.exchange` code — worker bodies named ``_worker_main`` /
``_worker_loop`` so role inference seeds them, slab-owning classes, pipe
sends — so the corpus doubles as documentation of what each rule means
by "worker code" and "the boundary".
"""

from pathlib import Path

import pytest

from repro.analysis.check import resolve_rules, run_check

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "shard"
SHARD = resolve_rules("S,W2")
RULE_IDS = [rule.id for rule in resolve_rules("S")]


def check_shard(paths, **kwargs):
    return run_check(paths, rules=SHARD, **kwargs)


def test_every_rule_has_a_fixture_pair():
    for rule_id in RULE_IDS:
        assert (FIXTURES / rule_id / "ok.py").exists(), rule_id
        assert (FIXTURES / rule_id / "bad.py").exists(), rule_id
    # And nothing in the corpus is orphaned from a real rule.
    assert sorted(d.name for d in FIXTURES.iterdir() if d.is_dir()) == sorted(
        RULE_IDS
    )


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_ok_fixture_is_clean(rule_id):
    report = check_shard(
        [FIXTURES / rule_id / "ok.py"], root=FIXTURES, baseline=None
    )
    assert report.ok, [f.format() for f in report.findings]


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_bad_fixture_triggers_its_rule(rule_id):
    report = check_shard(
        [FIXTURES / rule_id / "bad.py"], root=FIXTURES, baseline=None
    )
    hits = [f for f in report.findings if f.rule == rule_id]
    assert hits, f"no {rule_id} finding in {[f.format() for f in report.findings]}"
    for f in hits:
        assert f.line > 0 and f.message and f.fix_hint


def test_boundary_types_bad_catches_lambda_and_buffer_view():
    report = check_shard(
        [FIXTURES / "shard-boundary-types" / "bad.py"],
        root=FIXTURES,
        baseline=None,
    )
    messages = [f.message for f in report.findings]
    assert any("a lambda" in m for m in messages)
    assert any("buffer view" in m for m in messages)


def test_segment_lifecycle_bad_flags_local_and_class_leak():
    report = check_shard(
        [FIXTURES / "shard-segment-lifecycle" / "bad.py"],
        root=FIXTURES,
        baseline=None,
    )
    messages = [f.message for f in report.findings]
    assert any("segment `shm` acquired" in m for m in messages)
    assert any("`self.shm`" in m and "`Slab`" in m for m in messages)


def test_fork_hygiene_bad_flags_global_rng_and_write():
    report = check_shard(
        [FIXTURES / "shard-fork-hygiene" / "bad.py"],
        root=FIXTURES,
        baseline=None,
    )
    messages = [f.message for f in report.findings]
    assert any("_ROUND" in m for m in messages)
    assert any("default_rng()" in m for m in messages)
    assert any("`_SEEN`" in m for m in messages)
