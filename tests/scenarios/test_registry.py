"""Tests for the scenario registry's shape and invariants."""

from __future__ import annotations

import pytest

from repro.scenarios.registry import SCENARIOS, all_scenarios, get_scenario
from repro.scenarios.spec import Scenario


class TestRegistry:
    def test_at_least_ten_scenarios(self):
        assert len(SCENARIOS) >= 10

    def test_names_match_keys(self):
        assert all(s.name == name for name, s in SCENARIOS.items())

    def test_calm_is_the_baseline(self):
        calm = get_scenario("calm")
        assert calm.plan.is_trivial
        assert calm.adversaries == ()

    def test_every_scenario_round_trips_through_json(self):
        for s in all_scenarios():
            assert Scenario.from_json(s.to_json()) == s

    def test_every_adverse_scenario_has_a_recovery_tail(self):
        """Fault windows close before the run ends (or are open-ended churn)."""
        for s in all_scenarios():
            _, close = s.plan.fault_window()
            if close is not None:
                assert close < s.rounds, s.name

    def test_descriptions_present(self):
        assert all(s.description for s in all_scenarios())

    def test_expected_names_present(self):
        expected = {
            "calm",
            "loss30-delay50",
            "flash-crowd",
            "ring-cut-adversary",
            "rolling-partition",
            "stall-storm",
        }
        assert expected <= set(SCENARIOS)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("bogus")

    def test_all_scenarios_sorted(self):
        names = [s.name for s in all_scenarios()]
        assert names == sorted(names)
