"""Property-style tests for routing invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ProtocolParams
from repro.core.forwarding import FINAL, MID, SKIP, hop_columns
from repro.routing.messages import launch_key, make_routed_message
from repro.routing.series import SeriesRouter
from repro.sim.hopplane import HopDelivery, HopRows

unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False)


class TestMessageInvariants:
    @given(unit, unit, st.integers(min_value=2, max_value=12))
    def test_trajectory_length_always_lam_plus_2(self, v, p, lam):
        msg = make_routed_message("id", 0, v, p, lam, 0)
        assert len(msg.trajectory) == lam + 2
        assert msg.final_step == lam + 1

    @given(unit, unit)
    def test_hop_advance(self, v, p):
        """One row per step of one message: handing over (odd) keeps the
        step at its trajectory point, forwarding (even) advances it by one
        until the final swarm is reached."""
        msg = make_routed_message("id", 0, v, p, 8, 0)
        steps = np.arange(msg.final_step + 1, dtype=np.int32)
        out_steps = {}

        def columns(even):
            def intern(table, rows, steps_out):
                out_steps[even] = dict(zip(rows.tolist(), steps_out.tolist()))
                return np.arange(len(table), dtype=np.int32)

            delivery = HopDelivery(HopRows.of([msg] * steps.size, steps), {}, {}, total=0)
            return hop_columns(delivery, even, intern)

        odd_kind, point, *_ = columns(even=False)
        kind, next_point, *_ = columns(even=True)
        for k in range(msg.final_step):
            assert odd_kind[k] == MID and point[k] == msg.trajectory[k]
            assert out_steps[False][k] == k and out_steps[True][k] == k + 1
            last = k + 1 == msg.final_step
            assert kind[k] == (FINAL if last else MID)
            assert next_point[k] == (msg.target if last else msg.trajectory[k + 1])
        # At its last step a hop is delivered (odd), never forwarded.
        assert odd_kind[msg.final_step] == FINAL and kind[msg.final_step] == SKIP
        assert msg.final_step not in out_steps[False]
        assert msg.final_step not in out_steps[True]

    def test_sampling_flag(self):
        plain = make_routed_message("a", 0, 0.1, 0.2, 8, 0)
        sampled = make_routed_message("b", 0, 0.1, 0.2, 8, 0, sample_rank=3)
        assert not plain.is_sampling
        assert sampled.is_sampling


class TestLaunchKey:
    FIELDS = {"start_round": 26, "origin": 24, "ordinal": 13}

    def test_fields_pack_without_overlap(self):
        top = [(1 << bits) - 1 for bits in self.FIELDS.values()]
        assert launch_key(*top) == (1 << 63) - 1
        assert launch_key(1, 0, 0) == 1 << 37 and launch_key(0, 1, 0) == 1 << 13
        assert launch_key(0, 0, 1) == 1

    def test_arrays_pack_like_scalars(self):
        rounds, origins, ordinals = np.array([0, 7, 70]), np.array([3, 0, 9]), np.array([5, 1, 0])
        keys = launch_key(rounds, origins, ordinals)
        assert keys.dtype == np.int64
        assert keys.tolist() == [launch_key(*t) for t in zip(rounds, origins, ordinals)]

    @pytest.mark.parametrize("field", list(FIELDS))
    @pytest.mark.parametrize("over", ["high", "negative"])
    def test_each_overflowing_field_raises(self, field, over):
        bits = self.FIELDS[field]
        bad = 1 << bits if over == "high" else -1
        values = {name: 0 for name in self.FIELDS} | {field: bad}
        with pytest.raises(OverflowError, match=field):
            launch_key(**values)
        column = {name: np.zeros(3, dtype=np.int64) for name in self.FIELDS}
        column[field] = np.array([0, bad, 0])
        with pytest.raises(OverflowError, match=field):
            launch_key(**column)

    def test_a_message_key_is_its_launch_key(self):
        msg = make_routed_message("id", 11, 0.1, 0.2, 8, 40, ordinal=6)
        assert msg.key == launch_key(40, 11, 6)


class TestRouterInvariants:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_dilation_is_seed_independent(self, seed):
        """Dilation is a structural constant, not a random variable."""
        params = ProtocolParams(n=96, c=1.5, r=2, seed=seed)
        router = SeriesRouter(params, seed=seed)
        rng = np.random.default_rng(seed)
        ids = [router.send(int(rng.integers(0, 96)), float(rng.random())) for _ in range(12)]
        router.run_until_quiet()
        dils = {router.outcomes[i].dilation for i in ids if router.outcomes[i].delivered}
        assert dils == {params.dilation}

    def test_payload_identity_preserved(self):
        """The delivered payload is the same object that was sent."""
        params = ProtocolParams(n=96, c=1.5, r=2, seed=5)
        router = SeriesRouter(params, seed=5)
        payload = {"nonce": object()}
        i = router.send(0, 0.5, payload=payload)
        router.run_until_quiet()
        assert router.outcomes[i].msg.payload is payload

    def test_outcomes_cover_every_send(self):
        params = ProtocolParams(n=96, c=1.5, r=2, seed=6)
        router = SeriesRouter(params, seed=6)
        ids = [router.send(v, 0.3) for v in range(10)]
        assert set(ids) <= set(router.outcomes)
        router.run_until_quiet()
        assert all(router.outcomes[i].initial_round is not None for i in ids)

    def test_total_messages_scale_linearly_in_sends(self):
        def total(k):
            params = ProtocolParams(n=96, c=1.5, r=2, seed=7)
            router = SeriesRouter(params, seed=7)
            rng = np.random.default_rng(7)
            for v in range(96):
                for _ in range(k):
                    router.send(v, float(rng.random()))
            router.run_until_quiet()
            return router.metrics.total_messages()

        t1, t3 = total(1), total(3)
        assert 2.0 <= t3 / t1 <= 4.0

    def test_quiet_router_sends_nothing(self):
        params = ProtocolParams(n=96, c=1.5, r=2, seed=8)
        router = SeriesRouter(params, seed=8)
        router.run(6)
        assert router.metrics.total_messages() == 0

    def test_holder_history_only_when_enabled(self):
        params = ProtocolParams(n=96, c=1.5, r=2, seed=9)
        off = SeriesRouter(params, seed=9)
        off.send(0, 0.5)
        off.run(4)
        assert off.holder_history == {}
        on = SeriesRouter(params, seed=9, record_holders=True)
        i = on.send(0, 0.5)
        on.run(4)
        assert i in on.holder_history
        # Holder sets are per-round and non-empty while in flight.
        assert all(h for h in on.holder_history[i].values())
