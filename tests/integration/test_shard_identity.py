"""Sharded engine equivalence: workers ∈ {1, 2, 4} must be bit-identical.

The multi-process shard runner (:mod:`repro.sim.shard`) re-executes the
compute phase across forked band workers and splices the send streams back
in global node order.  These tests pin that the full-simulation fingerprint
— per-round metrics, exact edge multisets, churn decisions, every node's
final state, audits and probe deliveries — is unchanged for every worker
count, across steady state, churn and message/stall faults (the fault
scenarios replay worker sends into the master's hop plane, where fates cut
them into per-latency segments — delayed copies lean on the cross-process
message re-canonicalisation to deduplicate against fresh ones).

The pairs below cover W ∈ {2, 4} against the W=1 reference while keeping
suite wall-time in check (each sharded run pays per-round pickling; the
scenario × worker matrix beyond this adds cost, not coverage — all three
scenario families and both worker counts appear).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim import exchange, shard
from repro.util import arena

from .simfp import SCENARIOS, round_snapshot, run_scenario, sim_fingerprint


@pytest.mark.parametrize(
    ("scenario", "workers"),
    [
        ("steady", 2),
        ("steady", 4),
        ("churn", 4),
        ("faults", 2),
        ("churn_faults", 2),
        ("churn_faults", 4),
    ],
)
def test_sharded_run_matches_reference(
    scenario: str, workers: int, monkeypatch
) -> None:
    reference = run_scenario(scenario)
    # Arm the runtime shard sanitizer (band-ownership + pipe-codec asserts)
    # for the sharded leg: workers inherit the flag through fork, so the
    # identity suite doubles as the sanitizer's false-positive gate.
    monkeypatch.setattr(shard, "_SANITIZE", True)
    sharded = run_scenario(scenario, workers=workers)
    assert sharded == reference


def _run_with_stats(name: str, workers: int):
    """Like :func:`run_scenario` but also returns the exchange counters."""
    builder, total = SCENARIOS[name]
    sim = builder(workers=workers)
    try:
        probe_rng = np.random.default_rng(99)
        rounds: list[tuple] = []
        for t in range(total):
            if t == 4:
                sim.send_probes(6, probe_rng)
            sim.engine.run_round()
            rounds.append(round_snapshot(sim, t))
        fingerprint = sim_fingerprint(sim, rounds)
    finally:
        sim.close()
    return fingerprint, sim.exchange_stats()


def test_regrow_handshake_preserves_fingerprint(monkeypatch) -> None:
    """Deliberately undersized slabs force both regrow paths — the master's
    re-encode-after-double and the worker's one-round pipe fallback — and
    the run must still be bit-identical to the reference."""
    reference = run_scenario("faults")
    monkeypatch.setattr(exchange, "DOWN_MIN_BYTES", 4096)
    monkeypatch.setattr(exchange, "UP_BAND_MIN_BYTES", 2048)
    fingerprint, stats = _run_with_stats("faults", workers=2)
    assert fingerprint == reference
    assert stats.regrows_down > 0
    assert stats.regrows_up > 0
    assert stats.fallback_rounds > 0


def test_slabs_reused_across_rounds() -> None:
    """Doubling converges: after warmup the same slabs carry every round,
    so regrows stay O(log traffic) while rounds grow — not O(rounds)."""
    _fingerprint, stats = _run_with_stats("steady", workers=2)
    assert stats.rounds >= 24
    assert stats.regrows_down <= 4
    assert stats.regrows_up <= 4
    assert stats.fallback_rounds <= stats.regrows_up + 2
    # and the slabs actually carried the bulk traffic
    assert stats.bytes_shm > stats.bytes_pipe


def test_empty_band_rounds_match_reference() -> None:
    """A worker whose band holds no deliveries (tiny n spread over W=4)
    must round-trip empty payloads without perturbing the run."""
    from repro.config import ProtocolParams
    from repro.core.runner import MaintenanceSimulation

    def _fp(workers: int) -> str:
        params = ProtocolParams.calibrated(12, seed=21)
        with MaintenanceSimulation(params, workers=workers) as sim:
            rounds = []
            for t in range(16):
                sim.engine.run_round()
                rounds.append(round_snapshot(sim, t))
            return sim_fingerprint(sim, rounds)

    assert _fp(4) == _fp(1)


def test_close_releases_all_segments() -> None:
    """A sharded run holds exactly one downlink and one uplink segment, and
    engine teardown must leave zero shared-memory segments registered — the
    leak CI asserts at interpreter exit (see shard-smoke)."""
    from repro.config import ProtocolParams
    from repro.core.runner import MaintenanceSimulation

    before = arena.live_segments()
    params = ProtocolParams.calibrated(16, seed=1)
    sim = MaintenanceSimulation(params, workers=2)
    try:
        sim.run(4)
        added = set(arena.live_segments()) - set(before)
        assert sorted(role for _, role in added) == ["shard-downlink", "shard-uplink"]
    finally:
        sim.close()
    assert arena.live_segments() == before
    sim.close()  # idempotent


def test_exchange_stats_lifecycle() -> None:
    from repro.config import ProtocolParams
    from repro.core.runner import MaintenanceSimulation

    params = ProtocolParams.calibrated(16, seed=1)
    with MaintenanceSimulation(params, workers=1) as serial:
        serial.run(2)
        assert serial.exchange_stats() is None

    sim = MaintenanceSimulation(params, workers=2)
    try:
        sim.run(6)
        live = sim.exchange_stats()
        assert live is not None and live.rounds == 6
        assert live.bytes_shm > 0 and live.bytes_pipe > 0
    finally:
        sim.close()
    retained = sim.exchange_stats()
    assert retained is not None
    assert retained.rounds >= 6  # snapshot survives worker teardown


def test_auditor_rejects_sharding() -> None:
    """The auditor would force a gather per round; the combination is an
    explicit error rather than a silent 10x slowdown."""
    from repro.config import ProtocolParams
    from repro.core.runner import MaintenanceSimulation
    from repro.sim.audit import Auditor

    params = ProtocolParams.calibrated(16, seed=1)
    with MaintenanceSimulation(params, workers=2) as sim:
        with pytest.raises(ValueError, match="workers=1"):
            sim.engine.attach(Auditor())
