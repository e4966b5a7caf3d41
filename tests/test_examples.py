"""Smoke test: the sub-second scripts under ``examples/`` run to exit 0.

Each runs as its own subprocess, the way a reader runs it
(``python examples/<name>.py`` with ``src`` on the path), so an example
that calls a renamed or deleted API fails here rather than in a reader's
hands.  The slower examples (``churn_survival``, ``dht_storage``,
``peer_sampling_service``) are left out to keep tier-1 fast.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "name", ["quickstart", "overlay_anatomy", "two_steps_ahead", "impossibility_attacks"]
)
def test_example_exits_zero(name):
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / f"{name}.py")],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip()
