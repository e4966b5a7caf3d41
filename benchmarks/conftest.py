"""Shared benchmark plumbing.

Each benchmark regenerates one paper artefact via the experiment registry,
times it with pytest-benchmark (single round — these are simulations, not
microseconds-level kernels), asserts the experiment's PASS verdict, and
writes the rendered table to ``benchmarks/results/<id>.txt`` so the numbers
behind EXPERIMENTS.md can be re-diffed at any time.

Every benchmark additionally appends a tracked performance record to
``benchmarks/results/BENCH_<id>.json`` (see :mod:`repro.util.benchrec`):
workload size ``n``, simulated ``rounds`` per iteration, mean wall-time per
round and the process peak RSS.  Experiment benchmarks record automatically
through :func:`run_experiment`; hand-rolled benchmarks call the
``record_bench`` fixture after the timed section.

Run everything with:  pytest benchmarks/ --benchmark-only
Full (slow) sizes:    pytest benchmarks/ --benchmark-only --full
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.util.benchrec import append_entry, make_entry, recording_enabled

RESULTS_DIR = Path(__file__).parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--full",
        action="store_true",
        default=False,
        help="run full-size experiment sweeps instead of quick ones",
    )


@pytest.fixture
def quick(request) -> bool:
    return not request.config.getoption("--full")


@pytest.fixture
def record_bench(quick):
    """Append one ``BENCH_<id>.json`` entry under ``benchmarks/results/``.

    ``record_bench(benchmark, "my_bench", n=48, rounds=2)`` reads the mean
    iteration time off the pytest-benchmark fixture (call it *after* the
    timed section) and files ``seconds_per_round = mean / rounds``.  ``n``
    is the workload's network size (0 where no single size applies) and
    ``rounds`` the simulated rounds per timed iteration.

    BENCH files are committed history, so nothing is persisted unless the
    run opts in: pass an explicit ``label`` describing the measurement, or
    set ``REPRO_BENCH_RECORD=1`` in the environment (entries then carry the
    mode label ``quick``/``full``).  Plain measurement runs return ``None``.
    """

    def _record(
        benchmark,
        bench_id: str,
        *,
        n: int = 0,
        rounds: int = 1,
        label: str | None = None,
        workers: int | None = None,
        exchange_bytes_pipe: int | None = None,
        exchange_bytes_shm: int | None = None,
        msgs_per_round: int | None = None,
        repro_calls_per_round: int | None = None,
    ):
        meta = getattr(benchmark, "stats", None)
        if meta is None:  # --benchmark-disable: nothing was timed
            return None
        if not recording_enabled(label):
            return None
        entry = make_entry(
            n=n,
            rounds=rounds,
            seconds_per_round=meta.stats.mean / max(1, rounds),
            label=label if label is not None else ("quick" if quick else "full"),
            workers=workers,
            exchange_bytes_pipe=exchange_bytes_pipe,
            exchange_bytes_shm=exchange_bytes_shm,
            msgs_per_round=msgs_per_round,
            repro_calls_per_round=repro_calls_per_round,
        )
        return append_entry(RESULTS_DIR, bench_id, entry)

    return _record


@pytest.fixture
def run_experiment(benchmark, quick, record_bench):
    """Run a registered experiment under the benchmark timer.

    Returns the ExperimentResult; fails the test if the experiment's own
    verdict is FAIL.  The rendered table is persisted under results/ and a
    BENCH record is appended for the experiment id.
    """

    def _run(experiment_id: str, **kwargs):
        from repro.experiments import get_experiment

        fn = get_experiment(experiment_id)
        result = benchmark.pedantic(
            lambda: fn(quick=quick, **kwargs), rounds=1, iterations=1
        )
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{experiment_id}.txt"
        path.write_text(result.to_table() + "\n")
        record_bench(benchmark, experiment_id)
        assert result.passed, f"{experiment_id} failed:\n{result.to_table()}"
        return result

    return _run
