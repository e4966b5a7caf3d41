"""The batch fates call is the scalar oracle, column-wise.

``FaultInjector.message_fates_batch`` is what the network calls; the scalar
``message_fates`` is the one-copy oracle it must reproduce: same fates in the
same order, same five round counters, same ``_seq`` and rate-cap budgets left
behind — over plans mixing every message-level rule family.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import injector
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    AsymmetricPartition,
    FaultPlan,
    LatencyMatrix,
    MessageFaults,
    RateCap,
    RingPartition,
)
from repro.util.rngs import RngService

NODES = 12


@pytest.fixture(autouse=True, scope="module")
def small_coin_blocks():
    """Make the generated rounds (up to 40 copies) span several coin blocks."""
    production, injector._COIN_BLOCK = injector._COIN_BLOCK, 16
    yield
    injector._COIN_BLOCK = production


probability = st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0])
windows = st.sampled_from([(0, None), (0, 2), (1, None), (2, 3)])
arcs = st.tuples(
    st.sampled_from([0.0, 0.2, 0.5, 0.8]), st.sampled_from([0.1, 0.4, 0.6, 0.9])
).filter(lambda arc: arc[0] != arc[1])
node_sets = st.one_of(
    st.none(), st.frozensets(st.integers(0, NODES - 1), min_size=1, max_size=4)
)


def _windowed(cls, window, **fields):
    return cls(start=window[0], end=window[1], **fields)


message_rules = st.builds(
    lambda window, drop, delay, rounds, dup: _windowed(
        MessageFaults,
        window,
        drop_p=drop,
        delay_p=delay,
        delay_rounds=rounds,
        duplicate_p=dup,
    ),
    windows,
    probability,
    probability,
    st.integers(1, 3),
    probability,
)
partitions = st.builds(
    lambda window, arc: _windowed(RingPartition, window, lo=arc[0], hi=arc[1]),
    windows,
    arcs,
)
asymmetric = st.builds(
    lambda window, arc: _windowed(AsymmetricPartition, window, lo=arc[0], hi=arc[1]),
    windows,
    arcs,
)
latencies = st.builds(
    lambda window, cells: _windowed(
        LatencyMatrix, window, delays=((cells[0], cells[1]), (cells[2], cells[3]))
    ),
    windows,
    st.tuples(*[st.integers(0, 2)] * 4),
)
ratecaps = st.builds(
    lambda window, limit, defer, nodes: _windowed(
        RateCap, window, limit=limit, defer_rounds=defer, nodes=nodes
    ),
    windows,
    st.integers(1, 4),
    st.integers(1, 2),
    node_sets,
)
plans = st.builds(
    FaultPlan,
    seed=st.integers(0, 2**40),
    messages=st.lists(message_rules, max_size=2),
    partitions=st.lists(partitions, max_size=1),
    asymmetric=st.lists(asymmetric, max_size=1),
    latencies=st.lists(latencies, max_size=1),
    ratecaps=st.lists(ratecaps, max_size=2),
)
copies = st.lists(
    st.tuples(st.integers(0, NODES - 1), st.integers(0, NODES - 1)), max_size=40
)


def _state(inj: FaultInjector) -> tuple:
    return (
        inj._dropped,
        inj._delayed,
        inj._duplicated,
        inj._stalled,
        inj._deferred,
        inj._seq,
        inj._cap_counts,
    )


@settings(deadline=None, max_examples=150)
@given(plan=plans, rounds=st.lists(copies, min_size=1, max_size=4))
def test_batch_equals_scalar_sequence(plan, rounds):
    position_hash = RngService(5).position_hash()
    scalar = FaultInjector(plan, position_hash=position_hash)
    batch = FaultInjector(plan, position_hash=position_hash)
    for t, sends in enumerate(rounds):
        scalar.begin_round(t)
        batch.begin_round(t)
        expected = [scalar.message_fates(t, src, dst) for src, dst in sends]
        srcs = np.array([src for src, _ in sends], dtype=np.int32)
        dsts = np.array([dst for _, dst in sends], dtype=np.int32)
        copy, latency = batch.message_fates_batch(t, srcs, dsts)
        got: list[list[int]] = [[] for _ in sends]
        for i, lat in zip(copy.tolist(), latency.tolist()):
            got[i].append(lat)
        assert [tuple(fates) for fates in got] == expected
        assert copy.tolist() == sorted(copy.tolist())  # send order, duplicates adjacent
        assert _state(batch) == _state(scalar)
        assert batch.round_stats() == scalar.round_stats()


def test_duplicates_consume_rate_budget_in_the_batch():
    """The always-duplicating plan of the scalar suite, through the batch."""
    plan = FaultPlan(
        seed=3,
        messages=(MessageFaults(duplicate_p=1.0),),
        ratecaps=(RateCap(limit=1, defer_rounds=2),),
    )
    inj = FaultInjector(plan)
    inj.begin_round(0)
    copy, latency = inj.message_fates_batch(
        0, np.array([1, 1], dtype=np.int32), np.array([2, 3], dtype=np.int32)
    )
    assert copy.tolist() == [0, 0, 1, 1]
    assert latency.tolist() == [1, 3, 5, 7]
    assert inj.round_stats().deferred == 3


def test_empty_round_is_a_no_op():
    plan = FaultPlan(
        seed=1,
        messages=(MessageFaults(drop_p=0.5),),
        partitions=(RingPartition(lo=0.1, hi=0.6),),
        ratecaps=(RateCap(limit=1),),
    )
    inj = FaultInjector(plan, position_hash=RngService(5).position_hash())
    inj.begin_round(0)
    none = np.empty(0, dtype=np.int32)
    copy, latency = inj.message_fates_batch(0, none, none)
    assert copy.size == 0 and latency.size == 0
    assert inj.round_stats() is None and inj._seq == 0
