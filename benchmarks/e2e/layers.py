"""Per-layer tracing from outside the simulator.

:func:`tracing` installs class-level wrappers around the public functions at
each layer boundary (and restores the originals on exit); a :class:`Tracer`
keeps the resulting spans in memory.  A span is ``(name, start, end, parent,
child, round)``; a layer's *self* time is ``end - start - child``, where
``child`` is the time its directly nested wrapped calls cover.  Functions
called more than ~1000 times a round are *folded*: instead of one span per
call they leave one ``(calls, total, child)`` aggregate per round.

Nothing here runs during an untraced pass; end-to-end metrics are never read
from a traced one.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator, NamedTuple

from repro.adversary import ChurnLedger, RandomChurnAdversary
from repro.core.node import MaintenanceNode
from repro.faults import FaultInjector
from repro.sim.engine import Engine
from repro.sim.epochs import EpochCache
from repro.sim.hopplane import FrozenHopRound, HopPlane
from repro.sim.metrics import MetricsCollector
from repro.sim.network import Network
from repro.sim.shard import ShardRunner
from repro.sim.trace import GraphTrace

__all__ = ["Span", "Tracer", "TARGETS", "tracing", "layer_metrics"]


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in ``Tracer.spans``, -1 at top level
    child: float  # seconds covered by directly nested wrapped calls
    round: int


class Tracer:
    """In-memory span store; ``clock`` is injectable for the self-tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span | None] = []
        #: ``(round, name) -> [calls, total seconds, child seconds]``
        self.folds: dict[tuple[int, str], list] = {}
        #: ``(round, name) -> work items`` counted at the same boundary.
        self.counts: dict[tuple[int, str], int] = {}
        self.round = -1
        self._stack: list[list] = []  # open calls: [child seconds, span index or -1]

    def begin_round(self, t: int) -> None:
        """Attribute everything recorded from now on to simulated round ``t``."""
        self.round = t

    def wrap(self, name: str, fn: Callable, fold: bool = False, count=None) -> Callable:
        """``fn`` with a span (or a folded aggregate) recorded around each call."""
        clock, stack, spans, folds = self.clock, self._stack, self.spans, self.folds

        def wrapper(*args, **kwargs):
            frame = [0.0, -1]
            if not fold:
                frame[1] = len(spans)
                spans.append(None)  # reserve the slot: parents precede children
            outer = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    key = (self.round, name)
                    self.counts[key] = self.counts.get(key, 0) + count(result)
                return result
            finally:
                end = clock()
                stack.pop()
                if outer is not None:
                    outer[0] += end - start
                if fold:
                    agg = folds.setdefault((self.round, name), [0, 0.0, 0.0])
                    agg[0] += 1
                    agg[1] += end - start
                    agg[2] += frame[0]
                else:
                    parent = next((f[1] for f in reversed(stack) if f[1] >= 0), -1)
                    spans[frame[1]] = Span(name, start, end, parent, frame[0], self.round)

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------

    def seconds(self, name: str, *, self_time: bool = True) -> dict[int, float]:
        """Seconds spent in ``name`` per round (self time unless told otherwise)."""
        out: dict[int, float] = {}
        for span in self.spans:
            if span is not None and span.name == name:
                took = span.end - span.start - (span.child if self_time else 0.0)
                out[span.round] = out.get(span.round, 0.0) + took
        for (t, folded), (_, total, child) in self.folds.items():
            if folded == name:
                out[t] = out.get(t, 0.0) + total - (child if self_time else 0.0)
        return out

    def calls(self, name: str) -> dict[int, int]:
        """Calls of ``name`` per round."""
        out: dict[int, int] = {}
        for span in self.spans:
            if span is not None and span.name == name:
                out[span.round] = out.get(span.round, 0) + 1
        for (t, folded), agg in self.folds.items():
            if folded == name:
                out[t] = out.get(t, 0) + agg[0]
        return out

    def names(self) -> set[str]:
        return {s.name for s in self.spans if s is not None} | {n for _, n in self.folds}

    def dump(self) -> dict:
        """JSON-ready spans and aggregates (written to ``--out``)."""
        return {
            "spans": [list(s) for s in self.spans if s is not None],
            "folds": [[t, n, *agg] for (t, n), agg in sorted(self.folds.items())],
        }


#: ``(span name, class, method, folded, count-of-result)`` — the layer boundaries.
TARGETS = (
    ("engine.run", Engine, "run", False, None),
    ("engine.run_round", Engine, "run_round", False, None),
    ("network.deliver", Network, "deliver", False, None),
    ("network.close_send_phase", Network, "close_send_phase", False, None),
    ("hopplane.deliver", FrozenHopRound, "deliver", False, lambda delivery: delivery.total),
    ("hopplane.close_round", HopPlane, "close_round", False, None),
    ("epochs.index_for", EpochCache, "index_for", True, None),
    ("epochs.begin_round", EpochCache, "begin_round", False, None),
    ("node.on_round", MaintenanceNode, "on_round", True, None),
    ("node.publish_state", MaintenanceNode, "publish_state", True, None),
    ("injector.message_fates", FaultInjector, "message_fates", True, None),
    ("injector.begin_round", FaultInjector, "begin_round", False, None),
    ("adversary.decide", RandomChurnAdversary, "decide", False, None),
    ("adversary.validate", ChurnLedger, "validate", False, None),
    ("trace.record", GraphTrace, "record", False, None),
    ("metrics.record_round", MetricsCollector, "record_round", False, None),
    ("shard.run_compute", ShardRunner, "run_compute", False, None),
)


@contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every :data:`TARGETS` method at class level; restore on exit."""
    originals = [(cls, method, cls.__dict__[method]) for _, cls, method, _, _ in TARGETS]
    try:
        for name, cls, method, fold, count in TARGETS:
            setattr(cls, method, tracer.wrap(name, cls.__dict__[method], fold, count))
        yield tracer
    finally:
        for cls, method, original in originals:
            setattr(cls, method, original)


def layer_metrics(
    tracer: Tracer, rounds: list[int], phases: list, timed_seconds: float
) -> dict[str, float]:
    """Per-layer ``name -> value`` over the traced simulated ``rounds``.

    Units are those ``BENCHMARK.json`` lists.  ``phases`` holds the
    :class:`PhaseTimings` of the same rounds and ``timed_seconds`` their
    summed wall time as the harness clocked it.  A layer whose boundary was
    never crossed (bypassed by the workload, or running in a worker process)
    contributes nothing: its metrics are absent, not zero.
    """
    n = len(rounds)
    out: dict[str, float] = {}

    def total_s(name: str, *, self_time: bool = True, parity: int | None = None) -> float:
        secs = tracer.seconds(name, self_time=self_time)
        return sum(secs.get(t, 0.0) for t in rounds if parity is None or t % 2 == parity)

    def total_calls(name: str) -> int:
        calls = tracer.calls(name)
        return sum(calls.get(t, 0) for t in rounds)

    seen = {name for name in tracer.names() if total_calls(name)}
    for phase in ("adversary", "receive", "compute", "close"):
        out[f"engine.{phase}_ms"] = 1e3 * sum(getattr(p, phase) for p in phases) / n
    # Engine.run is the deferred_gc scope around run_round: entering it with a
    # large heap costs a collection per call, which is engine time too.
    out["engine.self_ms"] = 1e3 * (total_s("engine.run") + total_s("engine.run_round")) / n
    for name in seen - {"engine.run", "engine.run_round", "shard.run_compute"}:
        out[f"{name}_ms"] = 1e3 * total_s(name) / n
    if "hopplane.deliver" in seen:
        copies = sum(tracer.counts.get((t, "hopplane.deliver"), 0) for t in rounds)
        out["hopplane.copies_per_round"] = copies / n
    if "epochs.index_for" in seen:
        out["epochs.index_for_calls"] = total_calls("epochs.index_for") / n
    if "node.on_round" in seen:
        # Even rounds forward; odd rounds hand over and matchmake.
        for parity, label in ((0, "even"), (1, "odd")):
            of_parity = sum(1 for t in rounds if t % 2 == parity)
            spent = total_s("node.on_round", parity=parity)
            out[f"node.on_round_{label}_ms"] = 1e3 * spent / max(1, of_parity)
        out["node.on_round_us_per_call"] = (
            1e6 * total_s("node.on_round") / total_calls("node.on_round")
        )
    if "injector.message_fates" in seen:
        calls = total_calls("injector.message_fates")
        out["injector.message_fates_calls"] = calls / n
        out["injector.us_per_fate"] = 1e6 * total_s("injector.message_fates") / calls
    if "shard.run_compute" in seen:
        run_compute = 1e3 * total_s("shard.run_compute", self_time=False) / n
        worker_max = 1e3 * sum(max(p.shards) for p in phases) / n
        worker_mean = 1e3 * sum(sum(p.shards) / len(p.shards) for p in phases) / n
        out["shard.run_compute_ms"] = run_compute
        out["shard.worker_compute_ms_max"] = worker_max
        out["shard.worker_imbalance"] = worker_max / worker_mean
        out["shard.master_overhead_ms"] = run_compute - worker_max
        out["exchange.bytes_shm_per_round"] = sum(p.exchange_bytes_shm for p in phases) / n
        out["exchange.bytes_pipe_per_round"] = sum(p.exchange_bytes_pipe for p in phases) / n
    # Share of the round time that the wrapped layers' self times
    # (engine.self_ms included) account for.
    out["trace_coverage_pct"] = 100.0 * sum(total_s(name) for name in seen) / timed_seconds
    return out
