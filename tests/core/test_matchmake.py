"""Matchmaking end to end: what a :class:`CreateBatch` introduces, resolved
by the cutover kernel (:func:`repro.core.cutover.introductions`), against a
scalar oracle — per batch, and merged over whole inboxes of stale, empty,
repeated, private-index and pickled batches."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ProtocolParams
from repro.core.cutover import introductions
from repro.core.messages import CreateBatch, JoinBatch, JoinRecord
from repro.core.node import MaintenanceNode, Phase
from repro.overlay.positions import PositionIndex
from repro.sim.epochs import EpochCache
from repro.sim.network import Network
from repro.util.intervals import wrap

from .nodectx import make_ctx, make_services

PARAMS = ProtocolParams(n=48, c=1.2, r=2, delta=3, tau=6, seed=13)
EPOCH = PARAMS.lam + 5


@pytest.fixture
def services():
    return make_services(PARAMS)


unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)
#: Positions: anywhere, hugging 0/1 (where the list arc and the De Bruijn arc
#: around pos/2 resp. (pos+1)/2 overlap), and a small pool for exact ties.
position = st.one_of(
    unit,
    st.floats(min_value=0.0, max_value=0.03),
    st.floats(min_value=0.97, max_value=1.0, exclude_max=True),
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0 - 2.0**-53]),
)
#: Radii on both sides of the full-ring threshold 0.5, drawn independently.
radius = st.one_of(
    st.floats(min_value=0.0, max_value=0.7),
    st.sampled_from([0.0, 0.25, 0.5, np.nextafter(0.5, 0.0)]),
)


def oracle_batch(index: PositionIndex, target: int, p: float, r_list: float, r_db: float):
    """``(ids, positions)`` a batch of ``index`` introduces to ``target`` (at
    ``p``), arc by arc, scalar window by window."""
    ids = (
        index.ids_within(p, r_list).tolist()
        + index.ids_within(wrap(p / 2.0), r_db).tolist()
        + index.ids_within(wrap((p + 1.0) / 2.0), r_db).tolist()
    )
    ids = [w for w in dict.fromkeys(ids) if w != target]
    return ids, [index.position(w) for w in ids]


def resolve(cache, inboxes, epoch, r_list, r_db):
    return introductions(inboxes, epoch, cache, list_radius=r_list, db_radius=r_db)


# ----------------------------------------------------------------------
# One batch
# ----------------------------------------------------------------------


@settings(deadline=None, max_examples=150)
@given(
    positions=st.lists(position, min_size=1, max_size=200),
    r_list=radius,
    r_db=radius,
    id_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_create_plan_equals_scalar_oracle(positions, r_list, r_db, id_seed):
    # Every member of one private index, each sent its own batch: what the
    # kernel resolves is the oracle's list, ids and positions, in order.
    ids = np.random.default_rng(id_seed).permutation(100_000)[: len(positions)]
    index = PositionIndex(dict(zip(ids.tolist(), positions)))
    batch = CreateBatch(index, 7)
    inboxes = [(v, [batch]) for v in index.ids_list]
    got = resolve(EpochCache(make_services(PARAMS).position_hash), inboxes, 7, r_list, r_db)
    for (v, _), nbrs in zip(inboxes, got):
        want_ids, want_poses = oracle_batch(index, v, index.position(v), r_list, r_db)
        assert list(nbrs) == want_ids
        assert list(nbrs.values()) == want_poses


def handover_round(services, holders, members, e_next, net):
    """Run the odd round before epoch ``e_next`` at each of ``holders``, all
    holding the records of ``members``; return each member's CREATE inbox."""
    recs = tuple(
        JoinRecord(v, services.position_hash.position(v, e_next), e_next)
        for v in members
    )
    for node_id in holders:
        node = MaintenanceNode(node_id, services)
        node.prime(epoch=e_next - 1, pos=0.5, neighbors={2: 0.51})
        ctx, _ = make_ctx(
            node, services, 2 * e_next - 1, [(2, JoinBatch(recs))], network=net
        )
        node.on_round(ctx)
    net.close_send_phase()
    inboxes, _ = net.deliver(frozenset(members))
    return {
        v: [(src, m) for src, m in inboxes.get(v, []) if isinstance(m, CreateBatch)]
        for v in members
    }


def test_holders_of_one_index_send_references_to_it(services):
    members = list(range(10, 40))
    got = handover_round(services, [1, 3], members, 9, Network())
    inboxes = []
    for v in members:
        (src_a, batch_a), (src_b, batch_b) = got[v]
        assert (src_a, src_b) == (1, 3)
        assert batch_a is not batch_b and batch_a.index is batch_b.index
        assert batch_a.epoch == 9
        assert sorted(batch_a.index.ids_list) == members
        inboxes.append((v, [batch_a, batch_b]))
    # One batch object per sender, sent to every target.
    for k in range(2):
        assert len({id(got[v][k][1]) for v in members}) == 1
    got = resolve(
        services.epoch_cache, inboxes, 9, PARAMS.list_radius, PARAMS.debruijn_radius
    )
    index = inboxes[0][1][0].index
    for (v, _), nbrs in zip(inboxes, got):
        want, _ = oracle_batch(
            index, v, index.position(v), PARAMS.list_radius, PARAMS.debruijn_radius
        )
        assert list(nbrs) == want and want


def test_lone_member_gets_an_empty_batch(services):
    got = handover_round(services, [1], [10], 9, Network())
    ((src, batch),) = got[10]
    assert src == 1 and batch.epoch == 9
    assert batch.index.ids_list == [10]
    assert resolve(services.epoch_cache, [(10, [batch])], 9, 0.7, 0.7) == [{}]


def test_pickled_batch_introduces_the_same_and_carries_no_scratch(services):
    got = handover_round(services, [1], list(range(10, 40)), 9, Network())
    targets = list(range(10, 40))
    batches = [got[v][0][1] for v in targets]
    assert all(b is batches[0] for b in batches)  # one object, every target
    index = batches[0].index
    assert index.scratch["carved"][1] is services.epoch_cache.table(9)
    # What a worker receives: one pickle, one decoded index, no scratch.
    blob = pickle.dumps(batches, pickle.HIGHEST_PROTOCOL)
    copies = pickle.loads(blob)
    assert len({id(b) for b in copies}) == 1
    twin = copies[0].index
    assert twin is not index and twin._scratch is None
    assert len(blob) < 16 * len(index) + 64 * len(batches) + 1024
    r_list, r_db = PARAMS.list_radius, PARAMS.debruijn_radius
    want = resolve(services.epoch_cache, [(v, batches[:1]) for v in targets], 9, r_list, r_db)
    # Resolved in a cache that never saw the epoch: the index maps in by id.
    fresh = make_services(PARAMS).epoch_cache
    got = resolve(fresh, [(v, copies[:1]) for v in targets], 9, r_list, r_db)
    assert [list(d.items()) for d in got] == [list(d.items()) for d in want]
    assert any(want)


# ----------------------------------------------------------------------
# Whole inboxes
# ----------------------------------------------------------------------

RECEIVER = 1

#: One batch of an inbox: ``(subset seed, kind, stale)``.
batch_spec = st.tuples(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["carved", "private", "pickled", "empty"]),
    st.booleans(),
)


def inbox_world(services, positions, specs, picks, epoch):
    """A slab over ``positions`` (the receiver included), a pool of batches
    over subsets of it, and an inbox drawing from the pool (a pool slot
    picked twice puts the *same* object in the inbox twice)."""
    cache = services.epoch_cache
    ids = [RECEIVER] + [1000 + 7 * k for k in range(len(positions))]
    table = dict(zip(ids, [0.5] + positions))
    slab = cache.index_for(epoch, frozenset(table), table)
    stale_table = {v: wrap(p + 0.25) for v, p in table.items()}
    pool = []
    for seed, kind, stale in specs:
        keep = np.random.default_rng(seed).random(len(ids)) < 0.6
        members = frozenset(v for v, k in zip(ids, keep) if k)
        if kind == "empty":
            members = frozenset()
        e = epoch - 1 if stale else epoch
        index = cache.index_for(e, members, stale_table if stale else table)
        if kind == "private":  # built in slab order: ties keep their order
            index = PositionIndex({v: table[v] for v in slab.ids_list if v in members})
        elif kind == "pickled":
            index = pickle.loads(pickle.dumps(index))
        pool.append(CreateBatch(index, e))
    return table, [(100 + i, pool[k % len(pool)]) for i, k in enumerate(picks)]


@settings(deadline=None, max_examples=200)
@given(
    positions=st.lists(position, min_size=0, max_size=60),
    specs=st.lists(batch_spec, min_size=1, max_size=10),
    picks=st.lists(st.integers(min_value=0, max_value=9), max_size=25),
    r_list=radius,
    r_db=radius,
)
def test_cutover_neighbour_order_equals_per_entry_dict(
    positions, specs, picks, r_list, r_db
):
    services = make_services(PARAMS)
    table, inbox = inbox_world(services, positions, specs, picks, EPOCH)
    want: dict[int, float] = {}
    for _, batch in inbox:
        if batch.epoch == EPOCH:
            ids, poses = oracle_batch(batch.index, RECEIVER, table[RECEIVER], r_list, r_db)
            for v, p in zip(ids, poses):
                want.setdefault(v, p)

    node = MaintenanceNode(RECEIVER, services)
    node.phase = Phase.FRESH
    node._list_radius, node._db_radius = r_list, r_db
    ctx, _ = make_ctx(node, services, 2 * EPOCH, inbox)
    node.on_round(ctx)
    if want:
        assert node.phase is Phase.ESTABLISHED and node.epoch == EPOCH
        assert node.pos == table[RECEIVER]
        assert list(node.d_nbrs.items()) == list(want.items())
        assert all(type(v) is int and type(p) is float for v, p in node.d_nbrs.items())
    else:
        assert node.phase is Phase.FRESH and node.epoch is None
        assert node.d_nbrs == {}


@settings(deadline=None, max_examples=40)
@given(
    positions=st.lists(position, min_size=4, max_size=40),
    seeds=st.lists(st.integers(min_value=0, max_value=2**32 - 1), min_size=2, max_size=8),
)
def test_band_gives_each_node_its_own_on_round(positions, seeds):
    # Each receiver's inbox: batches over random subsets, some stale, some
    # private; one world per run, built identically.
    def world():
        services = make_services(PARAMS)
        cache = services.epoch_cache
        ids = [RECEIVER + k for k in range(len(seeds))]
        ids += [1000 + 7 * k for k in range(len(positions))]
        table = dict(zip(ids, [wrap(0.37 * k) for k in range(len(seeds))] + positions))
        cache.index_for(EPOCH, frozenset(table), table)
        batch = []
        for k, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            inbox = []
            for i in range(int(rng.integers(0, 6))):
                members = frozenset(v for v in ids if rng.random() < 0.5)
                index = cache.index_for(EPOCH, members, table)
                if rng.random() < 0.3:
                    index = pickle.loads(pickle.dumps(index))
                e = EPOCH - int(rng.random() < 0.2)
                inbox.append((50 + i, CreateBatch(index, e)))
            node = MaintenanceNode(ids[k], services)
            node.prime(epoch=EPOCH - 1, pos=0.5, neighbors={2: 0.51})
            ctx, _ = make_ctx(node, services, 2 * EPOCH, inbox)
            batch.append((node, ctx))
        return batch

    def outcome(batch):
        return [
            (node.phase, node.epoch, node.pos, list(node.d_nbrs.items()), node.demotions)
            for node, _ in batch
        ]

    band = world()
    MaintenanceNode.on_rounds(band)
    alone = world()
    for node, ctx in alone:
        node.on_round(ctx)
    assert outcome(band) == outcome(alone)
