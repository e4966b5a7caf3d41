"""Every method the end-to-end benchmark traces still exists on its class.

``benchmarks/e2e/layers.py`` wraps each ``TARGETS`` entry through
``cls.__dict__[method]``, so deleting or moving a traced method would only
surface as a ``KeyError`` in the benchmark's traced pass.  This guard reads
the same table (imported, never modified) and fails in the test suite
instead.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


def test_every_traced_target_is_defined_on_its_class(monkeypatch):
    monkeypatch.syspath_prepend(str(E2E))
    monkeypatch.delitem(sys.modules, "layers", raising=False)
    layers = importlib.import_module("layers")
    missing = [
        f"{name}: {cls.__qualname__}.{method}"
        for name, cls, method, _fold, _count in layers.TARGETS
        if method not in cls.__dict__
    ]
    assert layers.TARGETS and not missing, missing
