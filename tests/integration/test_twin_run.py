"""Twin-process determinism: a run is a pure function of its seed.

Each check starts two interpreters at once, one with ``PYTHONHASHSEED=0``
and one with ``PYTHONHASHSEED=1``, and compares what they report.  Two
processes differ in everything a run must not read: the wall clock, the
global NumPy and ``random`` state, the environment and the string-hash
order of sets and dicts.

Every cell of the quick scenario registry has one fingerprint in both
twins.  Three small adversaries that each let one such source pick their
victims (a clock read smuggled through ``getattr``, a global ``np.random``
draw, the iteration order of a set of strings) give twin digests that
differ; the same adversary without the leak gives equal ones.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from repro.adversary import RandomChurnAdversary
from repro.config import ProtocolParams
from repro.core.runner import MaintenanceSimulation

from .simfp import round_snapshot, sim_fingerprint

REPO_ROOT = Path(__file__).resolve().parents[2]
PYTHONPATH = os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)])


def twin(argv: Callable[[str], list[str]], timeout: float) -> list[str]:
    """Stdout of ``python *argv(hashseed)`` for hash seeds 0 and 1, run at once."""
    procs = [
        subprocess.Popen(
            [sys.executable, *argv(seed)],
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": PYTHONPATH},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed in ("0", "1")
    ]
    outs = [proc.communicate(timeout=timeout) for proc in procs]
    for proc, (_, err) in zip(procs, outs):
        assert proc.returncode == 0, err
    return [out for out, _ in outs]


def test_registry_fingerprints_match_across_processes(tmp_path):
    def matrix(seed: str) -> list[str]:
        return ["-m", "repro", "scenario", "--out", str(tmp_path / f"{seed}.json")]

    twin(matrix, timeout=600)
    reports = [json.loads((tmp_path / f"{seed}.json").read_text()) for seed in ("0", "1")]
    cells = [{(c["scenario"], c["seed"]): c["fingerprint"] for c in r["cells"]} for r in reports]
    assert len(cells[0]) == 11
    assert cells[0] == cells[1]


# ----------------------------------------------------------------------
# Defects the twins tell apart
# ----------------------------------------------------------------------

#: What re-seeds the leaky adversary's stream each round.
LEAKS: dict[str, Callable] = {
    "none": lambda view: view.round,
    "clock": lambda view: getattr(time, "perf_counter_ns")(),
    "global-rng": lambda view: np.random.randint(1 << 30),
    "set-order": lambda view: int(next(iter({str(v) for v in view.alive}))),
}


class LeakyChurn(RandomChurnAdversary):
    """Random churn whose stream is re-seeded from ``leak(view)`` every round."""

    def __init__(self, params: ProtocolParams, leak: Callable) -> None:
        super().__init__(params, seed=3, active_from=2)
        self.leak = leak

    def decide(self, view):
        self.rng = np.random.default_rng(self.leak(view))
        return super().decide(view)


def digests(rounds: int = 40) -> dict[str, str]:
    """One n=24 run per leak, each condensed to its fingerprint."""
    params = ProtocolParams.calibrated(24, seed=5, alpha=0.25, kappa=1.25)
    out = {}
    for name, leak in LEAKS.items():
        with MaintenanceSimulation(params, LeakyChurn(params, leak)) as sim:
            snaps = [round_snapshot(sim, sim.engine.run_round().round) for _ in range(rounds)]
            out[name] = sim_fingerprint(sim, snaps)
    return out


@pytest.fixture(scope="module")
def twin_digests() -> list[dict[str, str]]:
    code = (
        "import json; from tests.integration.test_twin_run import digests; "
        "print(json.dumps(digests()))"
    )
    return [json.loads(out) for out in twin(lambda _: ["-c", code], timeout=300)]


def test_run_without_a_leak_is_the_same_in_both_twins(twin_digests):
    first, second = twin_digests
    assert first["none"] == second["none"]


@pytest.mark.parametrize("leak", ["clock", "global-rng", "set-order"])
def test_each_leak_makes_the_twins_differ(twin_digests, leak):
    first, second = twin_digests
    assert first[leak] != second[leak]
