"""Per-phase wall-time profiling of engine rounds.

A :class:`PhaseProfiler` attached to the :class:`~repro.sim.engine.Engine`
times the four stages of every synchronous round — the adversary phase
(churn decision, validation and application), the receive phase (message
delivery), the compute phase (every node's protocol step) and the close
phase (freezing ``E_t`` and recording the trace).  The timings land both in
the profiler's own history and on the round's
:class:`~repro.sim.metrics.RoundMetrics`, so congestion and wall-time can be
correlated round by round.

The engine consults the profiler through ``if profiler is not None`` guards
only — a detached run executes no timing code at all, which keeps the
default path at zero overhead (the acceptance benchmarks run detached).

``clock`` is injectable for deterministic tests; it defaults to
:func:`time.perf_counter`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

__all__ = ["PHASES", "PhaseTimings", "PhaseProfiler"]

#: The engine's phase names, in execution order.
PHASES = ("adversary", "receive", "compute", "close")


@dataclass(frozen=True)
class PhaseTimings:
    """Wall-time (seconds) spent in each engine phase of one round.

    ``shards`` is non-empty only on sharded runs (``workers > 1``): one
    entry per shard worker, the wall-time that worker spent computing its
    band this round.  The ``compute`` figure is the master-side phase time
    (dispatch + worker wait + splice), so ``max(shards)`` vs ``compute``
    separates worker imbalance from serialisation overhead.

    ``exchange_bytes_pipe`` / ``exchange_bytes_shm`` split the round's
    shard-exchange traffic between the pickled control plane and the
    shared-memory slabs (:mod:`repro.sim.exchange`); both are zero on
    single-process rounds.

    ``compute_parts`` splits ``compute`` into the ``(prepare, plan, act)``
    stages of a staged protocol step (see ``NodeProtocol.on_rounds``); empty
    when the protocol does not stage its round, and on sharded rounds.
    """

    adversary: float
    receive: float
    compute: float
    close: float
    shards: tuple[float, ...] = ()
    exchange_bytes_pipe: int = 0
    exchange_bytes_shm: int = 0
    compute_parts: tuple[float, ...] = ()

    @property
    def total(self) -> float:
        """Wall-time of the whole round (sum of the four phases)."""
        return self.adversary + self.receive + self.compute + self.close

    def as_dict(self) -> dict[str, float]:
        out = {name: getattr(self, name) for name in PHASES}
        if self.shards:
            out["shards"] = list(self.shards)
        if self.exchange_bytes_pipe or self.exchange_bytes_shm:
            out["exchange_bytes_pipe"] = self.exchange_bytes_pipe
            out["exchange_bytes_shm"] = self.exchange_bytes_shm
        if self.compute_parts:
            out["compute_parts"] = list(self.compute_parts)
        return out


class PhaseProfiler:
    """Accumulates per-round :class:`PhaseTimings` for an engine run."""

    __slots__ = ("clock", "history")

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.history: list[PhaseTimings] = []

    def record(
        self,
        adversary: float,
        receive: float,
        compute: float,
        close: float,
        shards: tuple[float, ...] = (),
        exchange_bytes_pipe: int = 0,
        exchange_bytes_shm: int = 0,
        compute_parts: tuple[float, ...] = (),
    ) -> PhaseTimings:
        """File one round's phase durations; returns the frozen record."""
        timings = PhaseTimings(
            adversary,
            receive,
            compute,
            close,
            shards,
            exchange_bytes_pipe,
            exchange_bytes_shm,
            compute_parts,
        )
        self.history.append(timings)
        return timings

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------

    @property
    def rounds(self) -> int:
        return len(self.history)

    def totals(self) -> dict[str, float]:
        """Cumulative seconds per phase over all recorded rounds."""
        return {
            name: sum(getattr(t, name) for t in self.history) for name in PHASES
        }

    def total_time(self) -> float:
        """Cumulative wall-time over all rounds and phases."""
        return sum(t.total for t in self.history)

    def exchange_totals(self) -> tuple[int, int]:
        """Cumulative ``(pipe, shm)`` shard-exchange bytes over all rounds."""
        pipe = sum(t.exchange_bytes_pipe for t in self.history)
        shm = sum(t.exchange_bytes_shm for t in self.history)
        return pipe, shm

    def compute_parts_totals(self) -> tuple[float, ...]:
        """Cumulative ``(prepare, plan, act)`` seconds over the rounds that
        reported a staged compute phase (``()`` when none did)."""
        staged = [t.compute_parts for t in self.history if t.compute_parts]
        return tuple(map(sum, zip(*staged)))

    def mean_per_round(self) -> dict[str, float]:
        """Mean seconds per phase per round (all-zero when no rounds ran)."""
        n = len(self.history)
        if n == 0:
            return {name: 0.0 for name in PHASES}
        totals = self.totals()
        return {name: totals[name] / n for name in PHASES}

    def table(self) -> str:
        """The hot-path table: phases sorted by cumulative time, descending."""
        totals = self.totals()
        grand = self.total_time()
        n = max(1, len(self.history))
        lines = [
            f"{'phase':<10} {'total s':>10} {'ms/round':>10} {'share':>7}",
        ]
        for name in sorted(PHASES, key=lambda p: totals[p], reverse=True):
            seconds = totals[name]
            share = seconds / grand if grand > 0 else 0.0
            lines.append(
                f"{name:<10} {seconds:>10.3f} {seconds / n * 1e3:>10.2f} "
                f"{share:>6.1%}"
            )
        lines.append(
            f"{'all':<10} {grand:>10.3f} {grand / n * 1e3:>10.2f} "
            f"{1.0 if grand > 0 else 0.0:>6.1%}"
        )
        return "\n".join(lines)
