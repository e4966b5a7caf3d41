"""One pass of one workload, in this process: set-up, timed rounds, verification.

Closed loop: one driver, one simulated round at a time through ``sim.run(1)``
(the user-facing path, inside ``deferred_gc``); a sample is one round.  All
times are host time, stated at the reference host speed (see :func:`kernel`;
the values as clocked are kept under ``raw``); all counts are simulated
statistics taken over the workload's verified window (its first
``Workload.rounds`` timed rounds), so they repeat exactly for a fixed seed
however long the run measures.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import resource
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from layers import Tracer, layer_metrics, tracing
from repro.sim.profile import PhaseProfiler
from workloads import PROBE_ROUNDS, PROBES_PER_WAVE, Workload, build

__all__ = [
    "percentile50",
    "percentile80",
    "kernel",
    "at_reference_speed",
    "Timed",
    "timed_rounds",
    "sim_digest",
    "window_counts",
    "summarise",
    "run_pass",
]

P80_MIN_SAMPLES = 50
FAULT_KINDS = ("dropped", "delayed", "duplicated", "stalled", "deferred")

#: What one :func:`kernel` call takes on the reference host (the 2-core
#: sandbox in its usual state).  Reported times are scaled to this speed.
KERNEL_REF_S = 0.010
_KERNEL_KEYS = np.random.default_rng(0).integers(0, 1 << 30, 100_000).astype(np.int32)


def _by_parity(samples: list[float], rounds: list[int], stat) -> float:
    """Mean over the two round parities of ``stat`` of that parity's samples.

    The overlay is rebuilt every 2 rounds, so round cost is bimodal (even
    rounds forward, odd rounds hand over and matchmake; 231 vs 166 ms on
    ``faults-n24``).  A quantile of the pooled samples falls in the gap
    between the modes and jumps across it from run to run.
    """
    parts = ([s for s, t in zip(samples, rounds) if t % 2 == parity] for parity in (0, 1))
    return statistics.mean(stat(part) for part in parts if part)


def percentile50(samples: list[float], rounds: list[int]) -> float:
    """Median round time, parity-balanced (see :func:`_by_parity`)."""
    return _by_parity(samples, rounds, statistics.median)


def percentile80(samples: list[float], rounds: list[int]) -> float:
    """80th percentile, parity-balanced; refuses samples too few to leave ten beyond it."""
    if len(samples) < P80_MIN_SAMPLES:
        raise ValueError(
            f"round_ms_p80 needs >= {P80_MIN_SAMPLES} samples (10 beyond it), got {len(samples)}"
        )
    return _by_parity(samples, rounds, lambda part: sorted(part)[math.ceil(0.8 * len(part)) - 1])


def kernel() -> float:
    """Seconds one run of the fixed calibration kernel takes right now.

    The shared host alternates, on a scale of seconds, between speed phases
    10-40 % apart; an interpreter loop plus a stable argsort slows with the
    simulator (log-log slope 0.95 measured), so timing it next to every
    sample lets the sample be stated at a fixed host speed.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(50_000):
        acc += i * i
    np.argsort(_KERNEL_KEYS, kind="stable")
    return time.perf_counter() - start


def at_reference_speed(samples: list[float], kernels: list[float]) -> list[float]:
    """``samples`` scaled to the reference host speed.

    ``kernels[i]`` was timed just before ``samples[i]`` and ``kernels[i+1]``
    just after; each sample is scaled by the mean of the four kernel runs
    around it (phases last seconds, samples a fraction of one).
    """
    out = []
    for i, sample in enumerate(samples):
        near = kernels[max(0, i - 1) : i + 3]
        out.append(sample * KERNEL_REF_S * len(near) / sum(near))
    return out


@dataclass
class Timed:
    """What the timed loop saw."""

    samples: list[float] = field(default_factory=list)  # seconds per completed round
    kernels: list[float] = field(default_factory=list)  # one before each round, one after the last
    sim_rounds: list[int] = field(default_factory=list)  # their simulated round numbers
    probes: list = field(default_factory=list)
    audit: object = None  # OverlayAudit at the end of the verified window
    probe_report: object = None
    audit_overlay_ms: float = 0.0
    probe_report_ms: float = 0.0
    final_edge_coverage: float | None = None  # after the last round, when more were run
    error: str | None = None  # traceback of the round that raised


def timed_rounds(
    sim, workload: Workload, seconds: float, probe_rng, tracer: Tracer | None = None
) -> Timed:
    """Run at least ``workload.rounds`` rounds and until ``seconds`` have passed.

    A round that raises ends the loop; the caller counts it and every round
    it pre-empted as failed.
    """
    out = Timed()
    clock = time.perf_counter
    # Report the probes as soon as the last wave has landed (2*lam + 2 rounds
    # after its launch on the next even round): delivery is read off the
    # alive nodes, and under churn the receivers leave as the run goes on.
    report_after = PROBE_ROUNDS[-1] + 2 * sim.params.lam + 4
    begin = clock()
    done = 0
    out.kernels.append(kernel())
    while done < workload.rounds or clock() - begin < seconds:
        if done in PROBE_ROUNDS:
            out.probes += sim.send_probes(PROBES_PER_WAVE, probe_rng)
        t = sim.round
        if tracer is not None:
            tracer.begin_round(t)
        start = clock()
        try:
            sim.run(1)
        except Exception:
            out.error = traceback.format_exc()
            return out
        out.samples.append(clock() - start)
        out.sim_rounds.append(t)
        done += 1
        if tracer is not None:
            tracer.begin_round(-1)  # what follows is not round work
        out.kernels.append(kernel())
        if done == report_after:
            t0 = clock()
            out.probe_report = sim.probe_report(out.probes)
            out.probe_report_ms = 1e3 * (clock() - t0)
        if done == workload.rounds:
            t0 = clock()
            out.audit = sim.audit_overlay()
            out.audit_overlay_ms = 1e3 * (clock() - t0)
    if done > workload.rounds:
        out.final_edge_coverage = sim.audit_overlay().edge_coverage
    return out


def _window(sim, timed: Timed, workload: Workload) -> list:
    first = timed.sim_rounds[0]
    return sim.engine.reports[first : first + workload.rounds]


def sim_digest(sim, timed: Timed, workload: Workload) -> str:
    """BLAKE2b over the verified window's simulated statistics."""
    h = hashlib.blake2b(digest_size=16)
    for report in _window(sim, timed, workload):
        m = report.metrics
        record = (
            report.round,
            m.total_sent,
            m.max_sent,
            m.alive,
            sorted(report.decision.leaves),
            sorted((j.new_id, j.bootstrap_id) for j in report.decision.joins),
            dataclasses.astuple(m.faults) if m.faults is not None else None,
        )
        h.update(repr(record).encode())
    h.update(repr(dataclasses.astuple(timed.audit)).encode())
    h.update(repr(dataclasses.astuple(timed.probe_report)).encode())
    return h.hexdigest()


def window_counts(sim, timed: Timed, workload: Workload) -> dict[str, int]:
    """Exact simulated counts over the verified window."""
    reports = _window(sim, timed, workload)
    counts = {
        "rounds": len(reports),
        "msgs": sum(r.metrics.total_sent for r in reports),
        "max_sent_per_node": max(r.metrics.max_sent for r in reports),
        "churn_events": sum(r.decision.churn_count for r in reports),
        "rejected_decisions": sum(1 for r in reports if r.rejected is not None),
        "probes_launched": timed.probe_report.launched,
        "probes_delivered": timed.probe_report.delivered,
    }
    for kind in FAULT_KINDS:
        counts[kind] = sum(getattr(r.metrics.faults, kind) for r in reports if r.metrics.faults)
    return counts


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def run_pass(
    workload: Workload,
    seed: int,
    seconds: float,
    mode: str,
    expected: dict | None = None,
) -> dict:
    """Run one pass and return its JSON-ready result.

    ``mode`` is ``untraced`` (end-to-end numbers), ``traced`` (per-layer
    numbers, wrappers installed for the timed rounds only), ``twin`` (the
    sharded workload at W=1, untraced) or ``setup`` (set-up only).
    ``expected`` is this workload's ``expected.json`` entry, compared when
    given.
    """
    traced = mode == "traced"
    profiler = PhaseProfiler() if traced else None
    clock = time.perf_counter
    # Set-up = construction (incl. prime_initial_overlay) + warm-up to steady
    # state (2*(lam+3) rounds, as bench_scaling.py), a kernel run between steps.
    kernels = [kernel()]
    start = clock()
    sim = build(workload, seed, workers=1 if mode == "twin" else None, profiler=profiler)
    steps = [clock() - start]
    try:
        warmup = 2 * (sim.params.lam + 3)
        for _ in range(warmup):
            kernels.append(kernel())
            start = clock()
            sim.run(1)
            steps.append(clock() - start)
        kernels.append(kernel())
        scaled = at_reference_speed(steps, kernels)
        result: dict = {
            "workload": workload.name,
            "seed": seed,
            "pass": mode,
            "construct_s": scaled[0],
            "warmup_s": sum(scaled[1:]),
            "setup_s": sum(scaled),
            "raw": {"setup_s": sum(steps)},
        }
        if mode == "setup":
            return result
        tracer = Tracer() if traced else None
        with tracing(tracer) if traced else nullcontext():
            timed = timed_rounds(sim, workload, seconds, np.random.default_rng(seed + 17), tracer)
        summary = summarise(sim, workload, timed, expected)
        result["raw"].update(summary.pop("raw", {}))
        result.update(summary)
        if traced and "counts" in result:
            result["per_layer"] = _pass_layers(sim, result, tracer, timed, profiler.history[warmup:])
            result["spans"] = tracer.dump()
    finally:
        sim.close()  # joins the shard workers, so RUSAGE_CHILDREN is final
    result["worker_peak_rss_mb"] = _rss_mb(resource.RUSAGE_CHILDREN)
    result["peak_rss_mb"] = _rss_mb(resource.RUSAGE_SELF) + result["worker_peak_rss_mb"]
    if "shard.run_compute_ms" in result.get("per_layer", ()):
        result["per_layer"]["shard.worker_peak_rss_mb"] = result["worker_peak_rss_mb"]
    return result


def _pass_layers(sim, result: dict, tracer: Tracer, timed: Timed, phases: list) -> dict[str, float]:
    """Every per-layer metric one traced pass can give by itself."""
    layers = layer_metrics(tracer, timed.sim_rounds, phases, sum(timed.samples))
    counts = result["counts"]
    n = counts["rounds"]
    layers["network.msgs_per_round"] = counts["msgs"] / n
    layers["network.max_sent_per_node"] = counts["max_sent_per_node"]
    if "adversary.decide_ms" in layers:
        layers["adversary.churn_events_per_round"] = counts["churn_events"] / n
        layers["adversary.rejected_decisions"] = counts["rejected_decisions"]
    if "injector.message_fates_ms" in layers:
        for kind in FAULT_KINDS:
            layers[f"injector.{kind}"] = counts[kind]
    cache = sim.services.epoch_cache.stats()
    layers["epochs.positions_cached"] = cache["positions"]
    layers["epochs.interned_indexes"] = cache["interned"]
    stats = sim.exchange_stats()
    if stats is not None:
        layers["exchange.fallback_rounds"] = stats.fallback_rounds
        layers["exchange.regrows"] = stats.regrows_down + stats.regrows_up
    layers["runner.construct_s"] = result["construct_s"]
    layers["runner.warmup_s"] = result["warmup_s"]
    layers["runner.audit_overlay_ms"] = timed.audit_overlay_ms
    layers["runner.probe_report_ms"] = timed.probe_report_ms
    layers["runner.probes_delivered"] = counts["probes_delivered"]
    layers["runner.host_speed"] = result["host_speed"]
    return layers


def _timings(ms: list[float], rounds: list[int], alive: int) -> dict[str, float]:
    """The round-time metrics of one sample list (scaled, or as clocked)."""
    out = {"round_ms_p50": percentile50(ms, rounds), "node_rounds_per_s": 1e3 * alive / sum(ms)}
    if len(ms) >= P80_MIN_SAMPLES:
        out["round_ms_p80"] = percentile80(ms, rounds)
    return out


def summarise(sim, workload: Workload, timed: Timed, expected: dict | None) -> dict:
    """Metrics, op accounting and verification of one timed loop."""
    planned_probes = PROBES_PER_WAVE * len(PROBE_ROUNDS)
    # The protocol guarantees delivery only inside its model: past the churn
    # budget or under injected faults a lost probe is a simulated outcome
    # (counted, digested), not a failed operation of the simulator.
    probe_ops = 0 if workload.churn or workload.faults else planned_probes
    rounds_attempted = max(workload.rounds, len(timed.samples) + (timed.error is not None))
    out: dict = {"samples": len(timed.samples), "ops": rounds_attempted + probe_ops}
    errors: list[str] = []
    failed = rounds_attempted - len(timed.samples)
    if timed.error is not None:
        errors.append(f"round {len(timed.samples)} raised:\n{timed.error}")
    if timed.samples:
        raw_ms = [1e3 * s for s in timed.samples]
        ms = at_reference_speed(raw_ms, timed.kernels)
        first = timed.sim_rounds[0]
        alive = sum(r.alive for r in sim.engine.reports[first : first + len(ms)])
        out["round_ms"] = ms
        out.update(_timings(ms, timed.sim_rounds, alive))
        out["raw"] = _timings(raw_ms, timed.sim_rounds, alive)
        out["host_speed"] = KERNEL_REF_S / statistics.median(timed.kernels)
    if timed.probe_report is None:
        failed += probe_ops  # the run ended before they could be reported
    elif probe_ops:
        failed += timed.probe_report.launched - timed.probe_report.delivered
    if timed.audit is not None:  # the verified window completed
        out["sim_digest"] = sim_digest(sim, timed, workload)
        out["counts"] = window_counts(sim, timed, workload)
        if timed.audit.edge_coverage != 1.0:
            errors.append(f"edge_coverage {timed.audit.edge_coverage} != 1.0 after the window")
        if timed.probe_report.launched != planned_probes:
            errors.append(f"launched {timed.probe_report.launched} probes, not {planned_probes}")
        if timed.final_edge_coverage not in (None, 1.0):
            errors.append(f"edge_coverage {timed.final_edge_coverage} != 1.0 at the end")
        if expected is not None:
            if out["sim_digest"] != expected["sim_digest"]:
                errors.append(f"sim_digest {out['sim_digest']} != {expected['sim_digest']}")
            if out["counts"] != expected["counts"]:
                errors.append(f"counts {out['counts']} != expected {expected['counts']}")
    if errors and timed.error is None:
        failed = out["ops"]  # a failed verification fails every op of the run
    out["failed_ops"] = failed
    out["errors"] = errors
    return out
