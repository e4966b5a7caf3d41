"""Gate + wall-time record for ``repro check`` (full rule set, one process).

The gate sits on the inner loop (pre-commit, CI), so its cost is a perf
budget like any simulation phase and its history is tracked in the same
committed BENCH format that guards the round engine
(``benchmarks/results/BENCH_check_umbrella.json`` — the id predates the
single engine and is kept so the history stays in one file).  ``n`` is the
number of analysed source files, ``rounds`` is 1 (one whole-tree pass), and
``seconds_per_round`` is the wall-time of one ``python -m repro check``
process: interpreter start, one parse, all 18 rules.

Usage::

    PYTHONPATH=src python benchmarks/record_check_bench.py [--label TAG]

The exit code of ``repro check`` is propagated, so this doubles as the gate.
Following :mod:`repro.util.benchrec` convention, the entry is persisted
only on explicit intent — a ``--label`` or ``REPRO_BENCH_RECORD=1`` —
so casual local runs never grow the committed history.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).parent / "results"
BENCH_ID = "check_umbrella"


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(REPO / "src"))
    from repro.analysis.source_cache import collect_py_files
    from repro.util.benchrec import append_entry, make_entry, recording_enabled

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--label",
        default=None,
        help="free-form tag; providing one persists the entry",
    )
    args = parser.parse_args(argv)

    n_files = len(collect_py_files([REPO / "src" / "repro"]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "check"],
        cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    elapsed = time.perf_counter() - start

    print(f"repro check: {n_files} files, {elapsed:.2f}s, exit {proc.returncode}")
    if proc.returncode != 0:
        return proc.returncode

    entry = make_entry(
        n=n_files, rounds=1, seconds_per_round=elapsed, label=args.label
    )
    if recording_enabled(args.label):
        path = append_entry(RESULTS_DIR, BENCH_ID, entry)
        print(f"recorded -> {path}")
    else:
        print("not recorded (pass --label or REPRO_BENCH_RECORD=1)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
