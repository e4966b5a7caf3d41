"""Tests for ProtocolParams and its derived quantities."""

from __future__ import annotations

import math

import pytest

from repro.config import ProtocolParams


class TestValidation:
    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            ProtocolParams(n=4)

    def test_rejects_bad_kappa(self):
        with pytest.raises(ValueError):
            ProtocolParams(n=64, kappa=0.9)
        with pytest.raises(ValueError):
            ProtocolParams(n=64, kappa=2.5)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            ProtocolParams(n=64, alpha=0.0)
        with pytest.raises(ValueError):
            ProtocolParams(n=64, alpha=1.0)

    def test_rejects_bad_c(self):
        with pytest.raises(ValueError):
            ProtocolParams(n=64, c=0.0)

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError):
            ProtocolParams(n=64, r=0)

    def test_rejects_bad_goodness(self):
        with pytest.raises(ValueError):
            ProtocolParams(n=64, goodness=1.0)

    def test_rejects_bad_delta_tau(self):
        with pytest.raises(ValueError):
            ProtocolParams(n=64, delta=0)
        with pytest.raises(ValueError):
            ProtocolParams(n=64, tau=0)


class TestDerived:
    def test_lam(self):
        p = ProtocolParams(n=64, kappa=1.0625)
        assert p.lam == math.ceil(math.log2(64 * 1.0625))

    def test_radii_ratios(self):
        p = ProtocolParams(n=128)
        assert p.list_radius == pytest.approx(2 * p.swarm_radius)
        assert p.debruijn_radius == pytest.approx(1.5 * p.swarm_radius)

    def test_expected_swarm_size(self):
        p = ProtocolParams(n=128, c=2.0)
        assert p.expected_swarm_size == pytest.approx(2 * 2.0 * p.lam)

    def test_dilation(self):
        p = ProtocolParams(n=128)
        assert p.dilation == 2 * p.lam + 2

    def test_lambda_prime(self):
        p = ProtocolParams(n=128)
        assert p.lambda_prime == 2 * p.lam + 4

    def test_bootstrap_and_lateness(self):
        p = ProtocolParams(n=128)
        assert p.bootstrap_rounds == 2 * p.lam + 7
        assert p.lateness == (2, 2 * p.lam + 7)

    def test_churn_budget(self):
        p = ProtocolParams(n=128)
        assert p.churn_budget == 128 // 16
        assert p.churn_window == 4 * p.lam + 14

    def test_max_nodes(self):
        p = ProtocolParams(n=128, kappa=1.0625)
        assert p.max_nodes == int(128 * 1.0625)

    def test_delta_tau_defaults_scale_with_lam(self):
        small = ProtocolParams(n=16)
        big = ProtocolParams(n=4096)
        assert big.delta_eff > small.delta_eff
        assert big.tau_eff >= 2 * big.delta_eff

    def test_explicit_delta_tau_respected(self):
        p = ProtocolParams(n=64, delta=5, tau=11)
        assert p.delta_eff == 5
        assert p.tau_eff == 11

    def test_sampling_rank_range_above_expected_swarm(self):
        p = ProtocolParams(n=256)
        assert p.sampling_rank_range >= p.expected_swarm_size


class TestConvenience:
    def test_with_updates(self):
        p = ProtocolParams(n=64).with_updates(c=3.0)
        assert p.c == 3.0
        assert p.n == 64

    def test_describe_keys(self):
        d = ProtocolParams(n=64).describe()
        for key in ("n", "lam", "swarm_radius", "dilation", "churn_budget"):
            assert key in d

    def test_calibrated(self):
        p = ProtocolParams.calibrated(40, seed=3)
        assert (p.n, p.seed, p.c, p.r, p.delta_eff, p.tau_eff) == (40, 3, 1.2, 2, 3, 8)
        assert p.alpha == ProtocolParams(n=40).alpha  # model constants keep their defaults
        q = ProtocolParams.calibrated(40, tau=6, alpha=0.25)
        assert (q.c, q.delta_eff, q.tau_eff, q.alpha) == (1.2, 3, 6, 0.25)

    def test_frozen(self):
        p = ProtocolParams(n=64)
        with pytest.raises(Exception):
            p.n = 128  # type: ignore[misc]


class TestCachedDerivations:
    """The hot derived quantities are cached per instance, outside the fields."""

    HOT = (
        "lam", "swarm_radius", "list_radius", "debruijn_radius",
        "delta_eff", "tau_eff", "sampling_rank_range",
    )

    def test_cache_is_invisible_to_equality_hash_and_repr(self):
        cold = ProtocolParams(n=96, c=1.2, seed=3)
        warm = ProtocolParams(n=96, c=1.2, seed=3)
        values = [getattr(warm, name) for name in self.HOT]
        assert values == [getattr(warm, name) for name in self.HOT]  # stable
        assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
        assert {warm: 1}[cold] == 1
        assert warm != ProtocolParams(n=96, c=1.2, seed=4)

    def test_pickle_round_trip_cold_and_warm(self):
        import pickle

        cold = ProtocolParams(n=96, c=1.2, tau=8)
        warm = ProtocolParams(n=96, c=1.2, tau=8)
        expected = {name: getattr(warm, name) for name in self.HOT}
        for original in (cold, warm):
            copy = pickle.loads(pickle.dumps(original))
            assert copy == original and hash(copy) == hash(original)
            assert {name: getattr(copy, name) for name in self.HOT} == expected

    def test_replace_gets_a_fresh_cache(self):
        p = ProtocolParams(n=64)
        lam, radius = p.lam, p.swarm_radius
        q = p.with_updates(n=1024, delta=9)
        assert q.lam > lam and q.swarm_radius != radius and q.delta_eff == 9
        assert (p.lam, p.swarm_radius) == (lam, radius)

    def test_still_frozen_for_the_cached_names(self):
        p = ProtocolParams(n=64)
        with pytest.raises(Exception):
            p.lam = 3  # type: ignore[misc]
