"""Matchmaking end to end: the CREATE plan of a handover index
(``MaintenanceNode._create_batches``) against a scalar oracle, and the
cutover ingest of an inbox of batches against a per-entry ``dict``."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ProtocolParams
from repro.core.messages import CreateBatch, JoinBatch, JoinRecord
from repro.core.node import MaintenanceNode, Phase
from repro.overlay.positions import PositionIndex
from repro.sim.network import Network
from repro.util.intervals import wrap

from .nodectx import create_batch, make_ctx, make_services

PARAMS = ProtocolParams(n=48, c=1.2, r=2, delta=3, tau=6, seed=13)


@pytest.fixture
def services():
    return make_services(PARAMS)


# ----------------------------------------------------------------------
# Producer
# ----------------------------------------------------------------------

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


def oracle_batch(index: PositionIndex, v: int, r_list: float, r_db: float):
    """``(ids, positions)`` of the batch for member ``v``, arc by arc."""
    p = index.position(v)
    ids = (
        index.ids_within_list(p, r_list)
        + index.ids_within_list(wrap(p / 2.0), r_db)
        + index.ids_within_list(wrap((p + 1.0) / 2.0), r_db)
    )
    ids = [w for w in dict.fromkeys(ids) if w != v]
    return ids, [index.position(w) for w in ids]


@settings(deadline=None, max_examples=150)
@given(
    positions=st.lists(position, min_size=1, max_size=200),
    r_list=radius,
    r_db=radius,
    id_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_create_plan_equals_scalar_oracle(positions, r_list, r_db, id_seed):
    ids = np.random.default_rng(id_seed).permutation(100_000)[: len(positions)]
    index = PositionIndex(dict(zip(ids.tolist(), positions)))
    node = MaintenanceNode(1, make_services(PARAMS))
    node._list_radius = r_list
    node._db_radius = r_db
    plan = node._create_batches(index, 7)
    assert list(plan) == index.ids_list
    for v, batch in plan.items():
        want_ids, want_poses = oracle_batch(index, v, r_list, r_db)
        assert batch.nodes.dtype == np.int32 and batch.poses.dtype == np.float64
        assert batch.nodes.tolist() == want_ids
        assert batch.poses.tolist() == want_poses
        assert batch.epoch == 7


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


def test_holders_of_one_index_send_the_same_batch_objects(services):
    members = list(range(10, 40))
    got = handover_round(services, [1, 3], members, 9, Network())
    for v in members:
        (src_a, batch_a), (src_b, batch_b) = got[v]
        assert (src_a, src_b) == (1, 3)
        assert batch_a is batch_b
        assert v not in batch_a.nodes.tolist()


def test_lone_member_gets_an_empty_batch(services):
    got = handover_round(services, [1], [10], 9, Network())
    ((src, batch),) = got[10]
    assert src == 1 and batch.epoch == 9
    assert batch.nodes.size == 0 and batch.poses.size == 0


# ----------------------------------------------------------------------
# Consumer
# ----------------------------------------------------------------------

RECEIVER = 1
EPOCH = PARAMS.lam + 5


def position_of(v: int) -> float:
    """One position per id, as the keyed hash gives the protocol."""
    return (v * 0.6180339887498949) % 1.0


node_id = st.one_of(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=65_000, max_value=200_000),
    st.just(RECEIVER),
)
#: ``(ids, stale)``: one batch; ids may repeat inside it, or be none at all.
batch_spec = st.tuples(st.lists(node_id, max_size=12), st.booleans())


@settings(deadline=None, max_examples=200)
@given(
    specs=st.lists(batch_spec, min_size=1, max_size=10),
    picks=st.lists(st.integers(min_value=0, max_value=9), max_size=25),
)
def test_cutover_neighbour_order_equals_per_entry_dict(specs, picks):
    # Equal specs give equal-content *distinct* objects; a pool slot picked
    # twice puts the *same* object in the inbox twice.
    pool = [
        create_batch([(v, position_of(v)) for v in ids], EPOCH - 1 if stale else EPOCH)
        for ids, stale in specs
    ]
    inbox = [(100 + i, pool[k % len(pool)]) for i, k in enumerate(picks)]

    want: dict[int, float] = {}
    for _, batch in inbox:
        if batch.epoch == EPOCH:
            for v, p in zip(batch.nodes.tolist(), batch.poses.tolist()):
                want[v] = p
    want.pop(RECEIVER, None)

    services = make_services(PARAMS)
    node = MaintenanceNode(RECEIVER, services)
    node.phase = Phase.FRESH
    ctx, _ = make_ctx(node, services, 2 * EPOCH, inbox)
    node.on_round(ctx)
    if want:
        assert node.phase is Phase.ESTABLISHED and node.epoch == EPOCH
        assert list(node.d_nbrs.items()) == list(want.items())
        assert all(type(v) is int and type(p) is float for v, p in node.d_nbrs.items())
    else:
        assert node.phase is Phase.FRESH and node.epoch is None
        assert node.d_nbrs == {}
