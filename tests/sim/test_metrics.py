"""Tests for congestion accounting."""

from __future__ import annotations

from repro.sim.metrics import MetricsCollector


class TestMetricsCollector:
    def test_single_round(self):
        mc = MetricsCollector()
        m = mc.record_round(0, {1: 5, 2: 3}, {2: 5, 1: 3}, alive_count=2)
        assert m.total_sent == 8
        assert m.max_sent == 5
        assert m.mean_sent == 4.0
        assert m.max_received == 5
        assert m.alive == 2

    def test_empty_round(self):
        mc = MetricsCollector()
        m = mc.record_round(0, {}, {}, alive_count=10)
        assert m.total_sent == 0
        assert m.max_sent == 0
        assert m.mean_sent == 0.0

    def test_summaries(self):
        mc = MetricsCollector()
        mc.record_round(0, {1: 4}, {2: 4}, 2)
        mc.record_round(1, {1: 10}, {2: 10}, 2)
        assert mc.rounds == 2
        assert mc.peak_congestion() == 10
        assert mc.total_messages() == 14
        assert mc.mean_congestion() == (2.0 + 5.0) / 2

    def test_empty_collector(self):
        mc = MetricsCollector()
        assert mc.peak_congestion() == 0
        assert mc.mean_congestion() == 0.0
        assert mc.total_messages() == 0
