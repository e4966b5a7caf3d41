"""Tests for node lifecycle bookkeeping."""

from __future__ import annotations

import pytest

from repro.sim.identity import Lifecycle, NodeRecord


class TestNodeRecord:
    def test_alive_interval(self):
        rec = NodeRecord(1, joined_round=3)
        assert not rec.alive_at(2)
        assert rec.alive_at(3)
        assert rec.alive_at(100)
        rec.left_round = 7
        assert rec.alive_at(6)
        assert not rec.alive_at(7)

    def test_age(self):
        rec = NodeRecord(1, joined_round=3)
        assert rec.age_at(3) == 0
        assert rec.age_at(10) == 7


class TestLifecycle:
    def test_add_remove(self):
        lc = Lifecycle()
        lc.add(1, 0)
        lc.add(2, 0)
        assert len(lc) == 2
        assert 1 in lc
        lc.remove(1, 5)
        assert 1 not in lc
        assert len(lc) == 1

    def test_alive_is_one_object_until_the_population_changes(self):
        lc = Lifecycle()
        lc.add(1, 0)
        lc.add(2, 0)
        first = lc.alive
        assert first == frozenset({1, 2}) and lc.alive is first
        lc.add(3, 1)
        grown = lc.alive
        assert grown == frozenset({1, 2, 3}) and grown is not first
        assert first == frozenset({1, 2})  # an earlier read is a snapshot
        lc.remove(1, 2)
        assert lc.alive == frozenset({2, 3}) and lc.alive is not grown
        assert lc.alive is lc.alive
        with pytest.raises(KeyError):
            lc.remove(1, 3)  # a rejected change leaves the population alone
        assert lc.alive == frozenset({2, 3})

    def test_ids_immutable(self):
        lc = Lifecycle()
        lc.add(1, 0)
        lc.remove(1, 2)
        with pytest.raises(ValueError):
            lc.add(1, 5)

    def test_remove_dead_raises(self):
        lc = Lifecycle()
        with pytest.raises(KeyError):
            lc.remove(1, 0)

    def test_alive_at_reconstruction(self):
        lc = Lifecycle()
        lc.add(1, 0)
        lc.add(2, 3)
        lc.remove(1, 5)
        assert lc.alive_at(0) == {1}
        assert lc.alive_at(3) == {1, 2}
        assert lc.alive_at(5) == {2}

    def test_alive_since(self):
        lc = Lifecycle()
        lc.add(1, 0)
        lc.add(2, 9)
        assert lc.alive_since(10, 2) == {1}
        assert lc.alive_since(11, 2) == {1, 2}

    def test_next_id(self):
        lc = Lifecycle()
        assert lc.next_id() == 0
        lc.add(5, 0)
        assert lc.next_id() == 6
        lc.remove(5, 1)
        assert lc.next_id() == 6  # ids never reused

    def test_age_and_joined_round(self):
        lc = Lifecycle()
        lc.add(4, 2)
        assert lc.joined_round(4) == 2
        assert lc.age(4, 7) == 5
