"""EpochCache: interned indexes must equal freshly built ones — always.

The cache's contract is pure memoisation: ``index_for`` over any member set
returns a :class:`PositionIndex` indistinguishable from
``PositionIndex({v: h(v, e) for v in members})``, while identical member
sets share one object.  The property fuzz drives the cache through random
churn sequences (joins surfacing new ids, leaves shrinking member sets,
epoch advances pruning state) and compares against fresh builds at every
step.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.overlay.positions import PositionIndex
from repro.sim.epochs import EpochCache
from repro.util.rngs import PositionHash


@pytest.fixture
def phash() -> PositionHash:
    return PositionHash(key=0xDEADBEEF)


def assert_same_index(cached: PositionIndex, fresh: PositionIndex) -> None:
    assert np.array_equal(cached.ids, fresh.ids)
    assert np.array_equal(cached.sorted_positions, fresh.sorted_positions)


def test_position_memoised(phash):
    cache = EpochCache(phash)
    p = cache.position(7, 3)
    assert p == phash.position(7, 3)
    assert cache.position(7, 3) == p
    assert cache.table(3)[7] == p


def test_index_for_matches_fresh_build(phash):
    cache = EpochCache(phash)
    members = frozenset(range(20))
    pos = {v: phash.position(v, 1) for v in members}
    idx = cache.index_for(1, members, pos)
    assert_same_index(idx, PositionIndex(pos))


def test_same_members_share_one_object(phash):
    """Two same-epoch nodes with equal member sets share arrays outright."""
    cache = EpochCache(phash)
    members = frozenset(range(16))
    pos = {v: phash.position(v, 2) for v in members}
    a = cache.index_for(2, members, pos)
    b = cache.index_for(2, frozenset(members), dict(pos))
    assert a is b
    assert a.ids is b.ids and a.sorted_positions is b.sorted_positions


def test_subsets_carve_the_shared_slab(phash):
    """Sub-member-sets are views of the slab, not re-sorted copies."""
    cache = EpochCache(phash)
    full = frozenset(range(30))
    pos = {v: phash.position(v, 4) for v in full}
    whole = cache.index_for(4, full, pos)
    assert whole is cache.slab(4)
    small = full - {3, 17}  # small complement: the without() path
    idx_small = cache.index_for(4, frozenset(small), pos)
    assert_same_index(idx_small, PositionIndex({v: pos[v] for v in small}))
    large_cut = frozenset(list(sorted(full))[:10])  # restricted() path
    idx_large = cache.index_for(4, large_cut, pos)
    assert_same_index(idx_large, PositionIndex({v: pos[v] for v in large_cut}))


def test_begin_round_prunes_old_epochs(phash):
    cache = EpochCache(phash)
    for e in (0, 1, 2):
        members = frozenset(range(8))
        cache.index_for(e, members, {v: phash.position(v, e) for v in members})
    assert cache.stats()["epochs"] == 3
    cache.begin_round(4)  # engine enters epoch 2: epochs 0 and 1 die
    assert cache.stats()["epochs"] == 1
    assert cache.slab(2) is not None
    assert cache.slab(1) is None


def test_property_fuzz_churn_sequences(phash):
    """Cached indexes equal fresh builds across random churn histories."""
    rng = np.random.default_rng(1234)
    for trial in range(8):
        cache = EpochCache(phash)
        population = list(range(200))
        alive = set(rng.choice(population, size=40, replace=False).tolist())
        for step in range(25):
            t = step
            cache.begin_round(t)
            epoch = t // 2
            # Churn: some leaves, some joins (fresh ids surface mid-epoch).
            leaves = {
                v for v in alive if rng.random() < 0.1
            } if rng.random() < 0.7 else set()
            alive -= leaves
            joins = rng.choice(population, size=rng.integers(0, 4), replace=False)
            alive |= {int(v) for v in joins}
            # A few nodes build indexes over random neighbourhood subsets.
            for _ in range(3):
                k = int(rng.integers(2, len(alive) + 1))
                members = frozenset(
                    int(v) for v in rng.choice(sorted(alive), size=k, replace=False)
                )
                pos = {v: cache.position(v, epoch) for v in members}
                cached = cache.index_for(epoch, members, pos)
                assert_same_index(cached, PositionIndex(pos))
                # Interning: an immediate rebuild is the same object.
                assert cache.index_for(epoch, members, pos) is cached


def test_drop_ids_forgets_and_rebuilds(phash):
    cache = EpochCache(phash)
    members = frozenset(range(12))
    pos = {v: phash.position(v, 5) for v in members}
    cache.index_for(5, members, pos)
    cache.drop_ids(5, [0, 1])
    remaining = frozenset(range(2, 12))
    idx = cache.index_for(5, remaining, pos)
    assert_same_index(idx, PositionIndex({v: pos[v] for v in remaining}))
    assert 0 not in cache.table(5)


def test_round_memo_is_shared_per_index_and_purpose_and_dropped_each_round(phash):
    """The per-round scratch: one dict per (interned index, purpose), the
    same object for every holder within a round, gone at ``begin_round`` —
    whether or not that call also prunes an epoch."""
    cache = EpochCache(phash)
    members = frozenset(range(8))
    pos = {v: phash.position(v, 3) for v in members}
    idx = cache.index_for(3, members, pos)
    other = cache.index_for(3, frozenset(range(4)), pos)
    memo = cache.round_memo(idx, "plan")
    assert memo == {} and cache.round_memo(idx, "plan") is memo
    memo["x"] = 1
    assert cache.round_memo(idx, "targets") is not memo
    assert cache.round_memo(other, "plan") == {}
    assert "plan" not in idx.scratch  # nothing leaks onto the index itself
    cache.begin_round(6)  # same epoch as before: no pruning, scratch dropped
    assert cache.round_memo(idx, "plan") == {}
    cache.round_memo(idx, "plan")["y"] = 2
    cache.begin_round(7)
    assert cache.round_memo(idx, "plan") == {}
