"""Tests for Scenario specs: validation, JSON round-trip, builders."""

from __future__ import annotations

import json

import pytest

from repro.adversary.composed import ComposedAdversary
from repro.adversary.oblivious import RandomChurnAdversary
from repro.adversary.swarm_wipe import ContactTraceAdversary, DegreeTargetAdversary
from repro.config import ProtocolParams
from repro.faults.plan import FaultPlan, MessageFaults
from repro.scenarios.spec import (
    AdversarySpec,
    ChurnSpec,
    Scenario,
    build_adversary,
    build_params,
    materialize_plan,
)


class TestValidation:
    def test_churn_kind(self):
        with pytest.raises(ValueError):
            ChurnSpec(kind="bogus")

    def test_churn_intensity(self):
        with pytest.raises(ValueError):
            ChurnSpec(kind="random", intensity=0.0)

    def test_attack_kind(self):
        with pytest.raises(ValueError):
            AdversarySpec(kind="bogus")

    def test_scenario_fields(self):
        with pytest.raises(ValueError):
            Scenario(name="", description="d")
        with pytest.raises(ValueError):
            Scenario(name="x", description="d", rounds=0)
        with pytest.raises(ValueError):
            Scenario(name="x", description="d", n=4)


class TestJsonRoundTrip:
    def make(self):
        return Scenario(
            name="demo",
            description="a demo",
            plan=FaultPlan(messages=(MessageFaults(drop_p=0.2, start=3, end=9),)),
            churn=ChurnSpec(kind="random", intensity=0.5),
            attack=AdversarySpec(kind="degree-target", top=3),
            rounds=20,
            n=48,
        )

    def test_round_trips(self):
        s = self.make()
        assert Scenario.from_json(s.to_json()) == s

    def test_json_serializable(self):
        doc = self.make().to_json()
        assert json.loads(json.dumps(doc)) == doc

    def test_unknown_field_rejected(self):
        doc = self.make().to_json()
        doc["bogus"] = 1
        with pytest.raises(ValueError):
            Scenario.from_json(doc)


class TestBuilders:
    def scenario(self, **kw):
        defaults = dict(name="demo", description="d")
        defaults.update(kw)
        return Scenario(**defaults)

    def test_params_follow_scenario_n(self):
        params = build_params(self.scenario(n=48).n, seed=3)
        assert params.n == 48
        assert params.seed == 3
        assert params == ProtocolParams.calibrated(48, seed=3, alpha=0.25, kappa=1.25)

    def test_plan_shifts_past_bootstrap(self):
        sc = self.scenario(
            plan=FaultPlan(messages=(MessageFaults(drop_p=0.5, start=4, end=20),))
        )
        params = build_params(sc.n, seed=0)
        plan = materialize_plan(sc, params, seed=0)
        assert plan.messages[0].start == params.bootstrap_rounds + 4
        assert plan.messages[0].end == params.bootstrap_rounds + 20

    def test_seed_mixed_into_plan(self):
        sc = self.scenario(
            plan=FaultPlan(messages=(MessageFaults(drop_p=0.5),))
        )
        params = build_params(sc.n, seed=0)
        a = materialize_plan(sc, params, seed=1)
        b = materialize_plan(sc, params, seed=2)
        assert a.seed != b.seed
        assert materialize_plan(sc, params, seed=1) == a

    def test_no_adversary_when_quiet(self):
        sc = self.scenario()
        assert build_adversary(sc, build_params(sc.n, 0), 0) is None

    def test_single_child_not_wrapped(self):
        sc = self.scenario(churn=ChurnSpec(kind="random"))
        adv = build_adversary(sc, build_params(sc.n, 0), 0)
        assert isinstance(adv, RandomChurnAdversary)

    def test_churn_plus_attack_composed(self):
        sc = self.scenario(
            churn=ChurnSpec(kind="random"),
            attack=AdversarySpec(kind="degree-target", top=2),
        )
        adv = build_adversary(sc, build_params(sc.n, 0), 0)
        assert isinstance(adv, ComposedAdversary)
        kinds = {type(c) for c in adv.children}
        assert kinds == {RandomChurnAdversary, DegreeTargetAdversary}

    def test_contact_trace_attack(self):
        sc = self.scenario(attack=AdversarySpec(kind="contact-trace", victim=5))
        adv = build_adversary(sc, build_params(sc.n, 0), 0)
        assert isinstance(adv, ContactTraceAdversary)
        assert adv.victim == 5
