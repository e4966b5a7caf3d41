"""Overlay health auditing — structured degradation events, not crashes.

Under fault injection the interesting question is no longer *whether* the
LDS survives but *when and how* it degrades.  :class:`HealthMonitor` audits
three invariants at the end of every engine round and records a
:class:`DegradationEvent` for each violation instead of raising:

* **swarm occupancy** — every sampled point of the ``[0, 1)`` ring has at
  least one established node within the swarm radius (an empty swarm means
  routed messages targeting that region are undeliverable);
* **list-edge symmetry** — for established nodes of the same epoch,
  ``w in v.d_nbrs`` implies ``v in w.d_nbrs`` (Definition 5's edge sets are
  symmetric; asymmetry means a cutover delivered a one-sided view);
* **weak connectivity** — the undirected communication graph over the last
  two rounds (one full overlay cycle) connects all mature alive nodes; a
  second component means part of the network can no longer be reached.

The monitor is duck-typed against the protocol: nodes exposing ``pos``,
``epoch`` and ``d_nbrs`` (i.e. :class:`repro.core.node.MaintenanceNode`)
get the structural audits; any protocol gets the connectivity audit, which
only needs the engine's graph trace.  All audits are pure reads — attaching
a monitor never changes the run it observes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.connectivity import components
from repro.config import ProtocolParams

if TYPE_CHECKING:
    from repro.sim.engine import Engine

__all__ = ["DegradationEvent", "HealthMonitor"]


@dataclass(frozen=True)
class DegradationEvent:
    """One invariant violation observed at the end of a round."""

    round: int
    kind: str  # "empty-swarm" | "asymmetric-list" | "disconnected"
    severity: str  # "warn" | "critical"
    detail: str


class HealthMonitor:
    """Per-round invariant auditor accumulating a degradation event stream."""

    #: Minimum node age (rounds) for the connectivity audit — newcomers
    #: legitimately receive nothing in their join round and may not have
    #: sent anything yet, so they would be false-positive singletons.
    MATURITY_AGE = 2

    def __init__(
        self,
        params: ProtocolParams,
        *,
        sample_points: int = 16,
        every: int = 1,
    ) -> None:
        if sample_points < 1:
            raise ValueError(f"sample_points must be >= 1, got {sample_points}")
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.params = params
        self.sample_points = sample_points
        self.every = every
        self.events: list[DegradationEvent] = []
        self.rounds_observed = 0
        self.degraded_rounds = 0
        self._last_observed_round: int | None = None

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------

    @property
    def first_degradation_round(self) -> int | None:
        """Round of the first recorded event (``None`` = never degraded)."""
        return self.events[0].round if self.events else None

    @property
    def last_degradation_round(self) -> int | None:
        """Round of the most recent event (``None`` = never degraded)."""
        return self.events[-1].round if self.events else None

    @property
    def degraded_round_fraction(self) -> float:
        """Fraction of audited rounds that recorded at least one event."""
        if not self.rounds_observed:
            return 0.0
        return self.degraded_rounds / self.rounds_observed

    @property
    def time_to_recover(self) -> int | None:
        """Clean rounds between the last event and the end of observation.

        ``None`` when the run never degraded, or when the last audited
        round still recorded an event (the run ended un-recovered).
        """
        last = self.last_degradation_round
        if last is None or self._last_observed_round is None:
            return None
        gap = self._last_observed_round - last
        return gap if gap > 0 else None

    def counts_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for ev in self.events:
            out[ev.kind] = out.get(ev.kind, 0) + 1
        return out

    def summary(self) -> dict[str, object]:
        return {
            "events": len(self.events),
            "first_degradation_round": self.first_degradation_round,
            "degraded_round_fraction": self.degraded_round_fraction,
            "time_to_recover": self.time_to_recover,
            **{f"events_{k}": v for k, v in sorted(self.counts_by_kind().items())},
        }

    # ------------------------------------------------------------------
    # The per-round audit (called by the engine after metrics)
    # ------------------------------------------------------------------

    def observe(self, engine: Engine, t: int) -> tuple[DegradationEvent, ...]:
        """Audit round ``t`` and return (and record) any new events."""
        if t % self.every:
            return ()
        if not engine.alive:
            # Nothing to audit: with no alive nodes, every invariant is
            # vacuous and any event would be spurious.  Skip the round
            # without counting it as observed.
            return ()
        self.rounds_observed += 1
        self._last_observed_round = t
        new: list[DegradationEvent] = []
        overlay = self._overlay_snapshot(engine)
        if overlay:
            new.extend(self._audit_swarm_occupancy(t, overlay))
            new.extend(self._audit_list_symmetry(t, overlay))
        new.extend(self._audit_connectivity(engine, t))
        if new:
            self.degraded_rounds += 1
        self.events.extend(new)
        return tuple(new)

    # ------------------------------------------------------------------
    # Individual audits
    # ------------------------------------------------------------------

    def _overlay_snapshot(self, engine: Engine) -> dict[int, tuple[float, int, dict]]:
        """``{id: (pos, epoch, d_nbrs)}`` of current-epoch established nodes."""
        nodes: dict[int, tuple[float, int, dict]] = {}
        for v in engine.alive:
            proto = engine.protocol_of(v)
            pos = getattr(proto, "pos", None)
            epoch = getattr(proto, "epoch", None)
            if pos is None or epoch is None:
                continue
            nodes[v] = (float(pos), int(epoch), getattr(proto, "d_nbrs", {}))
        if not nodes:
            return {}
        # Audit only the newest epoch a plurality of nodes agree on —
        # stragglers mid-cutover are the demotion machinery's business.
        epochs: dict[int, int] = {}
        for _, e, _ in nodes.values():
            epochs[e] = epochs.get(e, 0) + 1
        current = max(epochs, key=lambda e: (epochs[e], e))
        return {v: ne for v, ne in nodes.items() if ne[1] == current}

    def _audit_swarm_occupancy(
        self, t: int, overlay: dict[int, tuple[float, int, dict]]
    ) -> list[DegradationEvent]:
        radius = self.params.swarm_radius
        positions = sorted(pos for pos, _, _ in overlay.values())
        empty: list[float] = []
        for i in range(self.sample_points):
            point = i / self.sample_points
            if not any(
                min(abs(p - point), 1.0 - abs(p - point)) <= radius
                for p in positions
            ):
                empty.append(point)
        if not empty:
            return []
        return [
            DegradationEvent(
                round=t,
                kind="empty-swarm",
                severity="critical",
                detail=(
                    f"{len(empty)}/{self.sample_points} sampled points have an "
                    f"empty swarm (first at {empty[0]:.4f})"
                ),
            )
        ]

    def _audit_list_symmetry(
        self, t: int, overlay: dict[int, tuple[float, int, dict]]
    ) -> list[DegradationEvent]:
        asymmetric = 0
        checked = 0
        for v, (_, _, nbrs) in overlay.items():
            for w in nbrs:
                if w in overlay:
                    checked += 1
                    if v not in overlay[w][2]:
                        asymmetric += 1
        if not asymmetric:
            return []
        return [
            DegradationEvent(
                round=t,
                kind="asymmetric-list",
                severity="warn",
                detail=f"{asymmetric}/{checked} overlay edges lack their reverse",
            )
        ]

    def _audit_connectivity(self, engine: Engine, t: int) -> list[DegradationEvent]:
        mature = {
            v
            for v in engine.alive
            if t - engine.lifecycle.joined_round(v) >= self.MATURITY_AGE
        }
        if len(mature) < 2:
            return []
        knows: dict[int, set[int]] = {v: set() for v in mature}
        for rnd in (t - 1, t):
            edges = engine.trace.edges_at(rnd)
            if edges is not None:
                for v, w in edges.pairs_among(mature):
                    knows[v].add(w)
        if not any(knows.values()):
            # A fully silent window is no evidence of a partition (e.g. the
            # very first round, before any protocol message exists).
            return []
        comps = components(knows)
        if len(comps) <= 1:
            return []
        sizes = sorted((len(c) for c in comps), reverse=True)
        return [
            DegradationEvent(
                round=t,
                kind="disconnected",
                severity="critical",
                detail=(
                    f"communication graph split into {len(comps)} components "
                    f"(sizes {sizes[:5]}{'...' if len(sizes) > 5 else ''})"
                ),
            )
        ]
