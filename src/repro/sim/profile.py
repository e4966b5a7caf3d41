"""Per-phase wall-time profiling of engine rounds.

A :class:`PhaseProfiler` is a :class:`~repro.sim.engine.RoundObserver`
(``Engine(..., observers=[profiler])`` or ``MaintenanceSimulation(...,
profiler=profiler)``): it timestamps the engine's phase boundaries with its
own clock and files one :class:`PhaseTimings` per round — the four stages
of every synchronous round (the adversary phase: churn decision, validation
and application; the receive phase: message delivery; the compute phase:
every node's protocol step; the close phase: freezing ``E_t`` and recording
the trace), and the ``(prepare, plan, act)`` split of a staged compute step
from its ``mark`` calls.  A detached run executes no timing code at all
(the acceptance benchmarks run detached).

``clock`` is injectable for deterministic tests; it defaults to
:func:`time.perf_counter`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.sim.engine import PHASES, RoundObserver

if TYPE_CHECKING:
    from repro.sim.engine import Engine
    from repro.sim.network import Inbox

__all__ = ["STAGES", "PhaseTimings", "PhaseProfiler"]

#: The stages of a staged compute step, as ``NodeProtocol.on_rounds`` marks them.
STAGES = ("prepare", "plan", "act")


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
    when the protocol does not stage its round, and on sharded rounds.  Each
    runs to its mark from the previous one (the first from the phase's start).
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


class PhaseProfiler(RoundObserver):
    """Accumulates per-round :class:`PhaseTimings` for an engine run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.history: list[PhaseTimings] = []
        self._phases: list[float] = []
        self._parts: dict[str, float] = {}
        self._ended = self._marked = 0.0  # the latest phase end, and mark

    def on_round_start(self, engine: Engine, t: int) -> None:
        self._phases, self._parts = [], {}
        self._ended = self._marked = self.clock()

    def on_phase_end(self, engine: Engine, phase: str, inboxes: dict[int, Inbox]) -> None:
        now = self.clock()
        self._phases.append(now - self._ended)
        self._ended = self._marked = now
        if phase == "close":
            shards, pipe, shm = engine.last_shard_round()
            parts = tuple(self._parts.get(s, 0.0) for s in STAGES) if self._parts else ()
            self.record(*self._phases, shards, pipe, shm, parts)

    def on_mark(self, engine: Engine, stage: str) -> None:
        now = self.clock()
        self._parts[stage] = self._parts.get(stage, 0.0) + now - self._marked
        self._marked = now

    def record(self, *fields, **named) -> PhaseTimings:
        """File one round's :class:`PhaseTimings` (its fields); returns it."""
        self.history.append(timings := PhaseTimings(*fields, **named))
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
