"""Every method the end-to-end benchmark traces still exists on its class,
and its profiled build still yields the timing fields it reads.

``benchmarks/e2e/layers.py`` wraps each ``TARGETS`` entry through
``cls.__dict__[method]``, so deleting or moving a traced method would only
surface as a ``KeyError`` in the benchmark's traced pass.  These guards
import the same modules (never modified) and fail in the test suite instead.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


def _e2e_module(monkeypatch, name: str):
    monkeypatch.syspath_prepend(str(E2E))
    monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module(name)


def test_every_traced_target_is_defined_on_its_class(monkeypatch):
    layers = _e2e_module(monkeypatch, "layers")
    missing = [
        f"{name}: {cls.__qualname__}.{method}"
        for name, cls, method, _fold, _count in layers.TARGETS
        if method not in cls.__dict__
    ]
    assert layers.TARGETS and not missing, missing


def test_profiled_workload_build_fills_every_timing_field_layers_reads(monkeypatch):
    from repro.sim.profile import PhaseProfiler

    workloads, profiler = _e2e_module(monkeypatch, "workloads"), PhaseProfiler()
    steady = workloads.quick_variant(workloads.WORKLOADS["steady-n128"])
    with workloads.build(steady, workloads.DEFAULT_SEED, profiler=profiler) as sim:
        sim.run(1)
    last = profiler.history[-1]
    assert min(last.adversary, last.receive, last.compute, last.close) > 0.0
    assert (last.shards, last.exchange_bytes_pipe, last.exchange_bytes_shm) == ((), 0, 0)
