"""Tests for seeded RNG streams and the keyed position hash."""

from __future__ import annotations

import numpy as np
import pytest

from repro.util.rngs import PositionHash, RngService


class TestPositionHash:
    def test_deterministic(self):
        h = PositionHash(42)
        assert h.position(7, 3) == h.position(7, 3)

    def test_varies_with_node(self):
        h = PositionHash(42)
        assert h.position(7, 3) != h.position(8, 3)

    def test_varies_with_epoch(self):
        h = PositionHash(42)
        assert h.position(7, 3) != h.position(7, 4)

    def test_varies_with_key(self):
        assert PositionHash(1).position(7, 3) != PositionHash(2).position(7, 3)

    def test_range(self):
        h = PositionHash(42)
        for v in range(50):
            for e in range(5):
                assert 0.0 <= h.position(v, e) < 1.0

    def test_roughly_uniform(self):
        """Mean of many hash outputs should be ~0.5 (coarse sanity check)."""
        h = PositionHash(42)
        vals = [h.position(v, 0) for v in range(2000)]
        assert abs(np.mean(vals) - 0.5) < 0.02

    def test_positions_vectorised(self):
        h = PositionHash(42)
        ids = [3, 1, 4, 1, 5]
        arr = h.positions(ids, 2)
        assert arr.shape == (5,)
        for i, v in enumerate(ids):
            assert arr[i] == h.position(v, 2)


class TestRngService:
    def test_streams_reproducible(self):
        a = RngService(1).stream("x").random(5)
        b = RngService(1).stream("x").random(5)
        np.testing.assert_array_equal(a, b)

    def test_streams_independent_by_scope(self):
        svc = RngService(1)
        a = svc.stream("x").random(5)
        b = svc.stream("y").random(5)
        assert not np.array_equal(a, b)

    def test_seed_changes_everything(self):
        a = RngService(1).stream("x").random(5)
        b = RngService(2).stream("x").random(5)
        assert not np.array_equal(a, b)

    def test_position_hash_reproducible(self):
        a = RngService(5).position_hash().position(1, 1)
        b = RngService(5).position_hash().position(1, 1)
        assert a == b

    def test_seed_property(self):
        assert RngService(9).seed == 9
