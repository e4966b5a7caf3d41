"""Tests for Scenario specs: validation, JSON round-trip, builders."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from repro.adversary.composed import ComposedAdversary
from repro.adversary.oblivious import RandomChurnAdversary
from repro.adversary.swarm_wipe import ContactTraceAdversary, DegreeTargetAdversary
from repro.config import ProtocolParams
from repro.faults.plan import FaultPlan, MessageFaults
from repro.scenarios.spec import (
    ADVERSARY_KINDS,
    AdversarySpec,
    Scenario,
    build_adversary,
    build_params,
    materialize_plan,
)

#: In-range values of every settable keyword.
KEYWORD_VALUES = {
    "intensity": st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    "top": st.integers(min_value=1, max_value=64),
    "victim": st.integers(min_value=0, max_value=10**6),
}


@st.composite
def adversary_specs(draw):
    kind = draw(st.sampled_from(sorted(ADVERSARY_KINDS)))
    optional = {key: KEYWORD_VALUES[key] for key in ADVERSARY_KINDS[kind].keywords}
    return AdversarySpec(kind, **draw(st.fixed_dictionaries({}, optional=optional)))


class TestValidation:
    def test_settable_keywords(self):
        settable = {key for row in ADVERSARY_KINDS.values() for key in row.keywords}
        assert settable == set(KEYWORD_VALUES) == {"intensity", "top", "victim"}

    @pytest.mark.parametrize(
        "doc",
        [
            {"top": 3},
            {"kind": "random", "top": 3},
            {"kind": "random", "intensity": 0.0},
            {"kind": "random", "intensity": 1.5},
            {"kind": "degree-target", "top": 0},
            {"kind": "contact-trace", "victim": -1},
        ],
        ids=[
            "no-kind", "keyword-not-in-row", "intensity-zero",
            "intensity-over-one", "top-below-one", "negative-victim",
        ],
    )
    def test_bad_adversary_rejected(self, doc):
        with pytest.raises(ValueError):
            AdversarySpec.from_json(doc)
        with pytest.raises(ValueError):
            Scenario.from_json({"name": "x", "adversaries": [doc]})

    def test_churn_kind(self):
        # Churn is one row of the kind table; "none" is no kind, a quiet run lists none.
        for kind in ("bogus", "none"):
            with pytest.raises(ValueError):
                AdversarySpec(kind)

    def test_attack_kind(self):
        with pytest.raises(ValueError):
            AdversarySpec(kind="bogus")
        with pytest.raises(ValueError):
            Scenario.from_json({"name": "x", "adversaries": [{"kind": "bogus"}]})

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
            adversaries=(
                AdversarySpec("random", intensity=0.5),
                AdversarySpec("degree-target", top=3),
            ),
            rounds=20,
            n=48,
        )

    @given(st.lists(adversary_specs(), max_size=2).map(tuple))
    def test_round_trips(self, adversaries):
        s = replace(self.make(), adversaries=adversaries)
        assert Scenario.from_json(s.to_json()) == s
        assert Scenario.from_json(json.loads(json.dumps(s.to_json()))) == s

    def test_json_serializable(self):
        doc = self.make().to_json()
        assert json.loads(json.dumps(doc)) == doc
        assert doc["adversaries"] == [
            {"kind": "random", "intensity": 0.5},
            {"kind": "degree-target", "top": 3},
        ]

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
        sc = self.scenario(adversaries=(AdversarySpec("random"),))
        adv = build_adversary(sc, build_params(sc.n, 0), 0)
        assert isinstance(adv, RandomChurnAdversary)

    def test_churn_plus_attack_composed(self):
        sc = self.scenario(
            adversaries=(AdversarySpec("random"), AdversarySpec("degree-target", top=2))
        )
        adv = build_adversary(sc, build_params(sc.n, 0), 0)
        assert isinstance(adv, ComposedAdversary)
        assert [type(c) for c in adv.children] == [RandomChurnAdversary, DegreeTargetAdversary]
        assert adv.children[1].top == 2

    def test_contact_trace_attack(self):
        sc = self.scenario(adversaries=(AdversarySpec("contact-trace", victim=5),))
        adv = build_adversary(sc, build_params(sc.n, 0), 0)
        assert isinstance(adv, ContactTraceAdversary)
        assert adv.victim == 5

    def test_unset_keywords_take_the_class_defaults(self):
        sc = self.scenario(
            adversaries=(AdversarySpec("degree-target"), AdversarySpec("contact-trace"))
        )
        top, trace = build_adversary(sc, build_params(sc.n, 0), 0).children
        assert (top.top, trace.victim) == (8, 0)

    def test_seed_offsets(self):
        """random draws from seed+1, the two attacks from seed+2."""
        params = build_params(40, 0)
        for kind, cls, offset in (
            ("random", RandomChurnAdversary, 1),
            ("degree-target", DegreeTargetAdversary, 2),
            ("contact-trace", ContactTraceAdversary, 2),
        ):
            sc = self.scenario(adversaries=(AdversarySpec(kind),))
            built = build_adversary(sc, params, 10)
            reference = cls(params, seed=10 + offset)
            assert built.rng.bit_generator.state == reference.rng.bit_generator.state

    def test_same_kind_specs_draw_different_streams(self):
        """Each list position gets its own seed; position 0 keeps seed+offset."""
        params = build_params(40, 0)
        sc = self.scenario(adversaries=(AdversarySpec("random"), AdversarySpec("random")))
        first, second = build_adversary(sc, params, 10).children
        reference = RandomChurnAdversary(params, seed=11)
        assert first.rng.bit_generator.state == reference.rng.bit_generator.state
        assert first.rng.random(8).tolist() != second.rng.random(8).tolist()
