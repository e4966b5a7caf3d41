"""Self-tests of the benchmark harness (tiny n; not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import numpy as np
import pytest

# pytest puts this directory on sys.path (rootdir-relative test file, no package).
from harness import percentile50, percentile80, run_pass, summarise, timed_rounds
from layers import TARGETS, Tracer, tracing
from workloads import WORKLOADS, build, quick_variant

STEADY = quick_variant(WORKLOADS["steady-n128"])


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_is_span_minus_child_spans():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 1.0

    def mid():
        clock.now += 2.0
        folded_leaf()
        folded_leaf()
        clock.now += 3.0

    def top():
        clock.now += 5.0
        span_mid()
        clock.now += 7.0
        folded_leaf()

    folded_leaf = tracer.wrap("leaf", leaf, fold=True)
    span_mid = tracer.wrap("mid", mid)
    span_top = tracer.wrap("top", top)
    tracer.begin_round(4)
    span_top()

    top_span, mid_span = tracer.spans
    assert (top_span.name, top_span.start, top_span.end, top_span.parent) == ("top", 0.0, 20.0, -1)
    assert (mid_span.name, mid_span.start, mid_span.end, mid_span.parent) == ("mid", 5.0, 12.0, 0)
    # top: 20 s minus mid (7 s) and one direct leaf call (1 s).
    assert tracer.seconds("top") == {4: 12.0}
    # mid: 7 s minus its two leaf calls.
    assert tracer.seconds("mid") == {4: 5.0}
    assert tracer.seconds("mid", self_time=False) == {4: 7.0}
    assert tracer.seconds("leaf") == {4: 3.0}
    assert tracer.calls("leaf") == {4: 3}
    assert tracer.folds[(4, "leaf")] == [3, 3.0, 0.0]
    # Self times partition the outermost span.
    assert sum(tracer.seconds(n)[4] for n in tracer.names()) == top_span.end - top_span.start


def test_wrappers_are_removed_after_a_traced_run():
    before = [cls.__dict__[method] for _, cls, method, _, _ in TARGETS]
    with tracing(Tracer()):
        during = [cls.__dict__[method] for _, cls, method, _, _ in TARGETS]
    assert all(d is not b and d.__wrapped__ is b for d, b in zip(during, before))
    result = run_pass(STEADY, seed=1, seconds=0.0, mode="traced")
    assert result["errors"] == [] and result["failed_ops"] == 0
    assert result["per_layer"]["trace_coverage_pct"] > 90.0
    after = [cls.__dict__[method] for _, cls, method, _, _ in TARGETS]
    assert all(a is b for a, b in zip(after, before))


def test_wrappers_are_removed_when_the_traced_body_raises():
    before = [cls.__dict__[method] for _, cls, method, _, _ in TARGETS]
    with pytest.raises(RuntimeError):
        with tracing(Tracer()):
            raise RuntimeError("boom")
    assert all(cls.__dict__[m] is b for (_, cls, m, _, _), b in zip(TARGETS, before))


def test_p80_refuses_fewer_than_50_samples():
    with pytest.raises(ValueError, match="needs >= 50 samples"):
        percentile80([1.0] * 49, list(range(49)))
    # Even rounds cost 1..25, odd rounds 101..125: the 80th percentile of each
    # parity (20 and 120) leaves five samples beyond it, ten in all.
    samples = [float(i // 2 + 1 + 100 * (i % 2)) for i in range(50)]
    assert percentile80(samples, list(range(50))) == 70.0
    assert percentile50(samples, list(range(50))) == 63.0  # (13 + 113) / 2, not a value in the gap


class RaisesAt:
    """A simulation whose ``k``-th timed round raises."""

    def __init__(self, sim, k: int) -> None:
        self._sim, self._left = sim, k

    def __getattr__(self, name):
        return getattr(self._sim, name)

    def run(self, rounds: int) -> None:
        if self._left == 0:
            raise RuntimeError("injected round failure")
        self._left -= 1
        self._sim.run(rounds)


def test_a_round_that_raises_fails_itself_and_every_later_round():
    with build(STEADY, seed=1) as sim:
        sim.run(2 * (sim.params.lam + 3))
        timed = timed_rounds(RaisesAt(sim, 5), STEADY, 0.0, np.random.default_rng(18))
        out = summarise(sim, STEADY, timed, expected=None)
    assert out["samples"] == 5
    assert "injected round failure" in out["errors"][0]
    # Rounds 5..rounds-1 never completed, and none of the 24 probes could be reported.
    assert out["ops"] == STEADY.rounds + 24
    assert out["failed_ops"] == (STEADY.rounds - 5) + 24
    assert "sim_digest" not in out


def test_digest_is_a_function_of_the_seed():
    first = run_pass(STEADY, seed=1, seconds=0.0, mode="untraced")
    again = run_pass(STEADY, seed=1, seconds=0.0, mode="untraced")
    other = run_pass(STEADY, seed=2, seconds=0.0, mode="untraced")
    assert first["failed_ops"] == again["failed_ops"] == other["failed_ops"] == 0
    assert first["sim_digest"] == again["sim_digest"]
    assert first["counts"] == again["counts"]
    assert first["sim_digest"] != other["sim_digest"]
    assert "round_ms_p80" not in first  # 20 samples: refused, not printed


def test_a_wrong_expectation_fails_every_op():
    wrong = {"sim_digest": "0" * 32, "counts": {}}
    out = run_pass(STEADY, seed=1, seconds=0.0, mode="untraced", expected=wrong)
    assert len(out["errors"]) == 2
    assert out["failed_ops"] == out["ops"]
