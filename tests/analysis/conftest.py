"""Shared fixtures for the ``repro check`` tests."""

from __future__ import annotations

import pytest

from repro.analysis import check as check_mod
from repro.analysis.source_cache import SourceCache

from .paths import REPO_ROOT


@pytest.fixture(scope="session")
def live_cache() -> SourceCache:
    """One parse of ``src/repro`` for every live-tree run in the session."""
    return SourceCache(REPO_ROOT)


@pytest.fixture
def index_builds(monkeypatch) -> list[int]:
    """Count call-graph builds (one entry per build: its module count)."""
    builds: list[int] = []
    real = check_mod.ProjectIndex

    def counting(modules):
        builds.append(len(modules))
        return real(modules)

    monkeypatch.setattr(check_mod, "ProjectIndex", counting)
    return builds
