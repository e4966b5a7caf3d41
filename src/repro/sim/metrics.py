"""Congestion and message accounting.

The paper's headline complexity claim (Lemma 24) is ``O(log^3 n)`` messages
per node per round.  :class:`MetricsCollector` tracks, per round, the maximum
and mean number of messages sent/received per node, plus lifetime totals —
without retaining per-node-per-round matrices (memory stays O(rounds + n)).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

__all__ = ["FaultRoundStats", "RoundMetrics", "MetricsCollector"]


@dataclass(frozen=True)
class FaultRoundStats:
    """Injected-fault counts for one round (see :mod:`repro.faults`)."""

    dropped: int = 0
    delayed: int = 0
    duplicated: int = 0
    stalled: int = 0
    deferred: int = 0

    @property
    def injected(self) -> int:
        """Total fault events injected this round."""
        return (
            self.dropped
            + self.delayed
            + self.duplicated
            + self.stalled
            + self.deferred
        )


@dataclass(frozen=True)
class RoundMetrics:
    """Aggregated message statistics for one round.

    ``faults`` is ``None`` unless a fault layer injected something this
    round — a faultless run's metrics are indistinguishable from a run
    without the fault layer at all.
    """

    round: int
    total_sent: int
    max_sent: int
    mean_sent: float
    max_received: int
    mean_received: float
    alive: int
    faults: FaultRoundStats | None = None


@dataclass
class MetricsCollector:
    """Accumulates per-round aggregates over a run, and ``departed``: the
    lifetime counters of the nodes that left (``NodeProtocol.fold_counters``)."""

    history: list[RoundMetrics] = field(default_factory=list)
    departed: Counter[str] = field(default_factory=Counter)

    def record_round(
        self,
        t: int,
        sent_per_node: dict[int, int],
        received_per_node: dict[int, int],
        alive_count: int,
        faults: FaultRoundStats | None = None,
    ) -> RoundMetrics:
        sent = np.fromiter(sent_per_node.values(), dtype=np.int64) if sent_per_node else np.zeros(1, dtype=np.int64)
        recv = (
            np.fromiter(received_per_node.values(), dtype=np.int64)
            if received_per_node
            else np.zeros(1, dtype=np.int64)
        )
        metrics = RoundMetrics(
            round=t,
            total_sent=int(sent.sum()),
            max_sent=int(sent.max()),
            mean_sent=float(sent.sum() / max(1, alive_count)),
            max_received=int(recv.max()),
            mean_received=float(recv.sum() / max(1, alive_count)),
            alive=alive_count,
            faults=faults,
        )
        self.history.append(metrics)
        return metrics

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------

    @property
    def rounds(self) -> int:
        return len(self.history)

    def peak_congestion(self) -> int:
        """Highest per-node message count (sent or received) in any round."""
        if not self.history:
            return 0
        return max(max(m.max_sent, m.max_received) for m in self.history)

    def mean_congestion(self) -> float:
        """Mean messages sent per node per round over the whole run."""
        if not self.history:
            return 0.0
        return float(np.mean([m.mean_sent for m in self.history]))

    def total_messages(self) -> int:
        return sum(m.total_sent for m in self.history)

    def fault_totals(self) -> FaultRoundStats:
        """Lifetime injected-fault totals (all-zero when no faults fired)."""
        stats = [m.faults for m in self.history if m.faults is not None]
        return FaultRoundStats(
            dropped=sum(s.dropped for s in stats),
            delayed=sum(s.delayed for s in stats),
            duplicated=sum(s.duplicated for s in stats),
            stalled=sum(s.stalled for s in stats),
            deferred=sum(s.deferred for s in stats),
        )
