"""Bench scaling — steady-state maintenance cost versus network size.

Times steady-state protocol rounds over the (n, workers) grid with n in
{48, 128, 256, 512, 1024} and workers in {1, 2, 4}; quick mode (the CI
default) runs the single-process n in {48, 128} points so the smoke job
stays fast, ``--full`` runs the whole matrix.  Each measurement appends one
entry to ``benchmarks/results/BENCH_scaling.json`` when recording is
enabled (see the ``record_bench`` fixture); sharded rows additionally
record the per-round exchange byte split (pipe control plane vs
shared-memory slabs — see :mod:`repro.sim.exchange`).  ``python -m repro
scale`` renders the recorded curve — including the per-n speedup of the
sharded rows against the serial ones and the ``exch MB/round`` column —
as a table.

The n=128 serial point also records a deterministic work counter,
``repro_calls_per_round``: the calls cProfile sees to ``def`` functions under
``src/repro/`` (comprehension and lambda frames left out, so CPython 3.11 and
3.12 agree), per round over one untimed pair of rounds after the timed ones.
It is exact per seed, so ``perf_guard.py`` holds it to the newest committed
value with no tolerance.

The n=512 serial point also asserts a peak-RSS ceiling: nothing per-copy
outlives its round (the trace keeps reduced edge logs, the CREATE plans live
on a per-round scratch), so a leak that grows the peak past
:data:`RSS_LIMIT_KB_N512` fails the bench rather than silently eating the
host.

``test_faulted_round_cost`` times the same steady-state round under the
golden fault mix (the plan of ``tests/integration/simfp._scenario_faults``)
and records it under its own id, ``BENCH_scaling_faults.json``, with the
message copies per round beside the time: that mix roughly doubles the
traffic (delayed and duplicated copies are forwarded again — 33 k → 64 k
copies/round at n=24), so a faulted round is to be compared with a clean
one *per message*, not per round.

``test_monitored_round_cost`` times it with the two readers of the graph
trace attached — a :class:`HealthMonitor` and a ``DegreeTargetAdversary`` —
and records ``BENCH_scaling_health.json``: what every monitored, chaos,
scenario and topology-reading-adversary run pays on top of a plain round.
"""

from __future__ import annotations

import cProfile
import pstats
from pathlib import Path

import pytest

import repro
from repro.adversary.swarm_wipe import DegreeTargetAdversary
from repro.config import ProtocolParams
from repro.core.runner import MaintenanceSimulation
from repro.faults.health import HealthMonitor
from repro.faults.plan import FaultPlan, MessageFaults, NodeStall
from repro.util.benchrec import peak_rss_kb

SIZES = (48, 128, 256, 512, 1024)
WORKER_COUNTS = (1, 2, 4)
QUICK_POINTS = ((48, 1), (128, 1))

#: Peak-RSS budget for the n=512 serial measurement, in KiB.  The run peaks
#: around 0.4 GB on the dev host: the graph trace retains each round as
#: distinct pairs with multiplicities and the CREATE plans die with their
#: round, so nothing per-copy is live for longer than a round.  480 MiB
#: catches a regression of the retained-generation kind (8 rounds of
#: per-copy edge columns alone are +0.16 GB) while absorbing allocator
#: jitter.
RSS_LIMIT_KB_N512 = 480 * 1024

#: The package directory whose functions :func:`repro_calls_per_round` counts.
REPRO_DIR = Path(repro.__file__).resolve().parent


def repro_calls_per_round(sim: MaintenanceSimulation, rounds: int = 2) -> int:
    """Calls to ``def`` functions under ``src/repro/`` per round, as cProfile
    counts them over the next ``rounds`` rounds of ``sim``.

    Frames named ``<...>`` (comprehensions, generator expressions, lambdas)
    are left out: CPython 3.12 inlines list, dict and set comprehensions,
    3.11 gives each a frame.
    """
    profile = cProfile.Profile()
    profile.enable()
    sim.run(rounds)
    profile.disable()
    calls = 0
    for (filename, _, name), (_, ncalls, *_) in pstats.Stats(profile).stats.items():
        if not name.startswith("<") and Path(filename).resolve().is_relative_to(REPRO_DIR):
            calls += ncalls
    return calls // rounds


@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("n", SIZES)
def test_scaling_round_cost(benchmark, quick, record_bench, n, workers):
    """Seconds per steady-state round at network size ``n``, ``workers`` shards."""
    if quick and (n, workers) not in QUICK_POINTS:
        pytest.skip(f"(n={n}, workers={workers}) runs only with --full")
    params = ProtocolParams(n=n, c=1.2, r=2, delta=3, tau=8, seed=1)
    with MaintenanceSimulation(params, workers=workers) as sim:
        sim.run(2 * (params.lam + 3))  # reach steady state

        def two_rounds():
            sim.run(2)
            return sim.round

        # Snapshot the cumulative exchange counters before the timed rounds
        # so the recorded bytes are *steady-state* per-round figures — the
        # warmup's slab-regrow fallback rounds ship via the pipe and would
        # otherwise dominate the lifetime average.
        warm = sim.exchange_stats()
        base = (warm.bytes_pipe, warm.bytes_shm, warm.rounds) if warm else None
        benchmark.pedantic(two_rounds, rounds=2 if quick else 3, iterations=1)
        stats = sim.exchange_stats()
        calls = None
        if n == 128 and workers == 1:
            calls = benchmark.extra_info["repro_calls_per_round"] = repro_calls_per_round(sim)
        if stats is not None and stats.rounds > base[2]:
            timed = stats.rounds - base[2]
            record_bench(
                benchmark,
                "scaling",
                n=n,
                rounds=2,
                workers=workers,
                exchange_bytes_pipe=(stats.bytes_pipe - base[0]) // timed,
                exchange_bytes_shm=(stats.bytes_shm - base[1]) // timed,
            )
        else:
            record_bench(
                benchmark,
                "scaling",
                n=n,
                rounds=2,
                workers=workers,
                repro_calls_per_round=calls,
            )
        assert sim.audit_overlay().edge_coverage == 1.0
        if n == 512 and workers == 1:
            rss = peak_rss_kb()
            assert rss <= RSS_LIMIT_KB_N512, (
                f"peak RSS {rss} KiB exceeds the n=512 budget "
                f"{RSS_LIMIT_KB_N512} KiB — a retained-generation leak?"
            )


def test_faulted_round_cost(benchmark, quick, record_bench):
    """Seconds per steady-state round under the golden fault mix."""
    n = 128 if quick else 256
    params = ProtocolParams(n=n, c=1.2, r=2, delta=3, tau=8, seed=1)
    plan = FaultPlan(
        seed=11,
        messages=(
            MessageFaults(drop_p=0.04, delay_p=0.05, delay_rounds=2, duplicate_p=0.03),
        ),
        stalls=(NodeStall(stall_p=0.02),),
    )
    with MaintenanceSimulation(params, faults=plan) as sim:
        sim.run(2 * (params.lam + 3))  # reach steady state
        first = sim.round

        def two_rounds():
            sim.run(2)
            return sim.round

        benchmark.pedantic(two_rounds, rounds=2 if quick else 3, iterations=1)
        timed = sim.engine.reports[first:]
        record_bench(
            benchmark,
            "scaling_faults",
            n=n,
            rounds=2,
            workers=1,
            msgs_per_round=sum(r.metrics.total_sent for r in timed) // len(timed),
        )
        assert timed[-1].metrics.faults is not None  # the plan is firing


def test_monitored_round_cost(benchmark, quick, record_bench):
    """Seconds per steady-state round with both readers of ``E_t`` attached:
    a :class:`HealthMonitor` (connectivity audit over two rounds of edges)
    and a topology-reading adversary (``degree_table`` every round)."""
    n = 128 if quick else 256
    params = ProtocolParams(n=n, c=1.2, r=2, delta=3, tau=8, seed=1)
    adversary = DegreeTargetAdversary(params, seed=2, top=6, topology_lateness=2)
    monitor = HealthMonitor(params)
    with MaintenanceSimulation(
        params, adversary, strict_budget=False, health=monitor
    ) as sim:
        # Steady state, and past the adversary's quiet bootstrap phase so
        # every timed round pays for both readers.
        sim.run(max(2 * (params.lam + 3), adversary.active_from))
        first = sim.round

        def two_rounds():
            sim.run(2)
            return sim.round

        benchmark.pedantic(two_rounds, rounds=2 if quick else 3, iterations=1)
        timed = sim.engine.reports[first:]
        record_bench(
            benchmark,
            "scaling_health",
            n=n,
            rounds=2,
            workers=1,
            msgs_per_round=sum(r.metrics.total_sent for r in timed) // len(timed),
        )
        assert monitor.rounds_observed == sim.round  # the audit ran every round
        assert any(r.decision.leaves for r in timed)  # the adversary is reading
