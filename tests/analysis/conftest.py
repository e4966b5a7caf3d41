"""Shared fixtures for the ``repro check`` tests."""

from __future__ import annotations

import pytest

from repro.analysis.source_cache import SourceCache

from .paths import REPO_ROOT


@pytest.fixture(scope="session")
def live_cache() -> SourceCache:
    """One parse of ``src/repro`` for every live-tree run in the session."""
    return SourceCache(REPO_ROOT)
