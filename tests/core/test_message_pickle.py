"""Pickle round trips of every protocol message type.

The slotted message dataclasses pickle as ``(class, constructor args)``
through hand-kept ``__reduce__`` methods (the generated state hooks call
``dataclasses.fields()`` per object); these tests are what keeps a new field
from being left out of one.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core import messages
from repro.core.messages import (
    ConnectMsg,
    CreateBatch,
    JoinBatch,
    JoinRecord,
    TokenGrant,
    TokenMsg,
)
from repro.routing.messages import RoutedMessage, make_routed_message
from repro.sim.engine import JoinNotice

RECS = (JoinRecord(3, 0.25, 9), JoinRecord(4, 0.75, 9))

#: One instance per type with every field set (no field left at a default).
SAMPLES = [
    RECS[0],
    JoinBatch(RECS),
    CreateBatch(
        np.array([3, 70_000], dtype=np.int32), np.array([0.25, 0.75]), epoch=9
    ),
    TokenMsg(7),
    ConnectMsg(8),
    TokenGrant((1, 2, 3)),
    JoinNotice(5),
    make_routed_message(
        msg_id=("join", 3, 9, 1),
        origin=1,
        origin_position=0.4,
        target=0.25,
        lam=5,
        start_round=12,
        sample_rank=2,
        payload=("join", RECS[0]),
        ordinal=3,
    ),
]

PROTOCOLS = range(2, pickle.HIGHEST_PROTOCOL + 1)


def same_field(a, b) -> bool:
    """Field equality; array columns also have to agree in dtype."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


def same(a, b) -> bool:
    """Value equality of two messages (``CreateBatch`` itself compares by
    identity, so it is compared column by column)."""
    return type(a) is type(b) and all(
        same_field(getattr(a, f.name), getattr(b, f.name))
        for f in dataclasses.fields(a)
    )


def test_samples_cover_every_protocol_type():
    declared = {
        cls
        for cls in vars(messages).values()
        if isinstance(cls, type) and cls.__dict__.get("__protocol__")
    }
    assert declared == {getattr(messages, name) for name in messages.__all__}
    assert declared | {JoinNotice, RoutedMessage} == {type(s) for s in SAMPLES}
    for sample in SAMPLES:
        for f in dataclasses.fields(sample):
            if f.default is not dataclasses.MISSING and f.name != "final_step":
                assert getattr(sample, f.name) != f.default, (type(sample), f.name)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("sample", SAMPLES, ids=lambda s: type(s).__name__)
def test_round_trip_keeps_every_field(sample, protocol):
    out = pickle.loads(pickle.dumps(sample, protocol))
    assert same(out, sample) and out is not sample
    for f in dataclasses.fields(sample):
        assert same_field(getattr(out, f.name), getattr(sample, f.name)), f.name


@pytest.mark.parametrize("sample", SAMPLES, ids=lambda s: type(s).__name__)
def test_slotted_types_reduce_to_constructor_args(sample):
    if not hasattr(sample, "__slots__"):
        pytest.skip("not slotted: default pickling never calls dataclasses.fields()")
    cls, args = sample.__reduce__()
    assert cls is type(sample)
    assert same(cls(*args), sample)


def test_routed_message_final_step_is_recomputed():
    msg = SAMPLES[-1]
    assert msg.final_step == len(msg.trajectory) - 1 > 0
    _, args = msg.__reduce__()
    assert len(args) == len(dataclasses.fields(msg)) - 1  # final_step stays home
    assert pickle.loads(pickle.dumps(msg)).final_step == msg.final_step


@pytest.mark.parametrize("sample", SAMPLES, ids=lambda s: type(s).__name__)
def test_one_decoded_object_per_shared_reference(sample):
    # Plane row interning keys on message identity: every reference to one
    # object inside one payload must decode to one object.
    twin = pickle.loads(pickle.dumps(sample))
    a, b, (c,), d = pickle.loads(
        pickle.dumps([sample, sample, (sample,), twin], pickle.HIGHEST_PROTOCOL)
    )
    assert a is b is c
    assert same(d, a) and d is not a


def test_shared_records_inside_messages_stay_shared():
    batch, twin, rec = pickle.loads(
        pickle.dumps((JoinBatch(RECS), JoinBatch(RECS), RECS[0]))
    )
    assert batch.records is twin.records
    assert batch.records[0] is rec


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_pickled_create_batch_view_carries_only_its_slice(protocol):
    # The producer cuts every batch of one handover index out of one flat
    # array pair; a worker-bound batch must not drag that pair along.
    def pickled_size(flat_len: int) -> int:
        nodes = np.arange(flat_len, dtype=np.int32)
        poses = np.full(flat_len, 0.25)
        batch = CreateBatch(nodes[5:9], poses[5:9], 9)
        assert np.shares_memory(batch.nodes, nodes)
        assert np.shares_memory(batch.poses, poses)
        assert same(pickle.loads(pickle.dumps(batch, protocol)), batch)
        return len(pickle.dumps(batch, protocol))

    assert pickled_size(100_000) == pickled_size(16)
