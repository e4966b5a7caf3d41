"""Tests for the A_SAMPLING delivery rule (Lemma 13)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ProtocolParams
from repro.overlay.positions import PositionIndex
from repro.routing.sampling import draw_sample_rank, sampling_recipient
from repro.routing.series import SeriesRouter


@pytest.fixture
def params() -> ProtocolParams:
    return ProtocolParams(n=96, c=1.5, r=2, seed=5)


@pytest.fixture
def index(rng, params) -> PositionIndex:
    return PositionIndex({i: float(p) for i, p in enumerate(rng.random(params.n))})


class TestRankRule:
    """A node's rank in ``S(p)`` is its ``.index`` in ``ids_within(p, rho)``."""

    def test_rank_range(self, index, params):
        p = 0.4
        members = index.ids_within(p, params.swarm_radius).tolist()
        recipients = [sampling_recipient(index, p, d, params) for d in range(len(members))]
        assert recipients == members

    def test_rank_none_outside_swarm(self, index, params):
        p = 0.4
        members = set(index.ids_within(p, params.swarm_radius).tolist())
        outside = [v for v in index.ids_list if v not in members]
        assert outside
        reached = {sampling_recipient(index, p, d, params) for d in range(params.n)}
        assert reached - {None} == members

    def test_recipient_matches_rank(self, index, params):
        p = 0.4
        members = index.ids_within(p, params.swarm_radius).tolist()
        for delta in range(len(members)):
            w = sampling_recipient(index, p, delta, params)
            assert members.index(w) == delta

    def test_recipient_none_for_large_delta(self, index, params):
        w = sampling_recipient(index, 0.4, 10_000, params)
        assert w is None

    def test_draw_in_range(self, params):
        rng = np.random.default_rng(0)
        draws = [draw_sample_rank(rng, params) for _ in range(200)]
        assert all(0 <= d < params.sampling_rank_range for d in draws)
        assert len(set(draws)) > 10  # actually random


class TestSamplingEndToEnd:
    def test_discard_probability_at_most_half_ish(self, params):
        """Lemma 13: P[discard] <= 1/2 (we allow statistical slack)."""
        router = SeriesRouter(params, seed=2)
        for v in range(96):
            for _ in range(4):
                router.send_sample(v)
        router.run_until_quiet()
        outcomes = list(router.outcomes.values())
        hits = sum(1 for o in outcomes if o.sample_receiver is not None)
        assert hits / len(outcomes) >= 0.35  # E[hit] = E[|S|]/R ~ 1/2

    def test_sample_receiver_in_target_swarm(self, params):
        router = SeriesRouter(params, seed=3)
        for v in range(30):
            router.send_sample(v)
        router.run_until_quiet()
        for o in router.outcomes.values():
            if o.sample_receiver is not None:
                assert o.sample_receiver in o.receivers

    def test_uniformity_chi_square(self, params):
        """Lemma 13(1): every node is sampled with the same probability."""
        from scipy import stats

        router = SeriesRouter(params, seed=4, reconfigure=False)
        counts = {v: 0 for v in range(params.n)}
        rng = np.random.default_rng(8)
        batches = 40
        per_batch = 96
        for _ in range(batches):
            for v in range(per_batch):
                router.send_sample(int(rng.integers(0, params.n)))
        router.run_until_quiet()
        for o in router.outcomes.values():
            if o.sample_receiver is not None:
                counts[o.sample_receiver] += 1
        observed = np.array(list(counts.values()), dtype=float)
        assert observed.sum() > 500
        _, pvalue = stats.chisquare(observed)
        assert pvalue > 0.001  # do not reject uniformity
