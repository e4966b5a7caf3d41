"""Overlay health auditing — structured degradation events, not crashes.

Under fault injection the interesting question is no longer *whether* the
LDS survives but *when and how* it degrades.  :class:`HealthMonitor` audits
three invariants at the end of every engine round and records a
:class:`DegradationEvent` for each violation instead of raising:

* **swarm occupancy** — every sampled point of the ``[0, 1)`` ring has at
  least one current-epoch node within the swarm radius (an empty swarm means
  routed messages targeting that region are undeliverable), counted by
  :func:`~repro.overlay.swarm.swarm_sizes`;
* **edge symmetry** — for established nodes of the same epoch, ``w in
  v.d_nbrs`` implies ``v in w.d_nbrs`` whenever ``v`` lies in one of ``w``'s
  Definition-5 arcs (a De Bruijn edge is owed back only where the geometry
  makes it mutual); a missing owed edge means a one-sided cutover view;
* **weak connectivity** — the undirected communication graph over the last
  two rounds (one full overlay cycle) connects all mature alive nodes; a
  second component means part of the network can no longer be reached.

The monitor is a :class:`~repro.sim.engine.RoundObserver` (attach it with
``Engine(..., observers=[monitor])`` or ``MaintenanceSimulation(...,
health=monitor)``) and is duck-typed against the protocol: nodes exposing
``pos``, ``epoch`` and ``d_nbrs`` (i.e. :class:`repro.core.node.MaintenanceNode`)
get the structural audits, over the epoch
:func:`~repro.overlay.lds.current_epoch` picks (the one the end-of-run
overlay audit inspects); any protocol gets the connectivity audit, which
only needs the engine's graph trace.  All audits are pure reads — attaching
a monitor never changes the run it observes.  The run's summary is the
monitor's properties (first and last degradation round, degraded-round
fraction, time to recover, :meth:`HealthMonitor.counts_by_kind`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.connectivity import components
from repro.config import ProtocolParams
from repro.overlay.lds import arc_centers, current_epoch
from repro.overlay.positions import PositionIndex
from repro.overlay.swarm import swarm_sizes
from repro.sim.engine import RoundObserver
from repro.util.intervals import ring_distance_array

if TYPE_CHECKING:
    from repro.sim.engine import Engine, RoundReport

__all__ = ["DegradationEvent", "HealthMonitor"]


@dataclass(frozen=True)
class DegradationEvent:
    """One invariant violation observed at the end of a round."""

    round: int
    kind: str  # "empty-swarm" | "asymmetric-list" | "disconnected"
    severity: str  # "warn" | "critical"
    detail: str


class HealthMonitor(RoundObserver):
    """Per-round invariant auditor accumulating a degradation event stream."""

    #: Minimum node age (rounds) for the connectivity audit — newcomers
    #: legitimately receive nothing in their join round and may not have
    #: sent anything yet, so they would be false-positive singletons.
    MATURITY_AGE = 2

    #: Evenly spaced ring points the swarm-occupancy audit samples.
    SAMPLE_POINTS = 16

    def __init__(self, params: ProtocolParams) -> None:
        self.params = params
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

    # ------------------------------------------------------------------
    # The per-round audit (observer hooks)
    # ------------------------------------------------------------------

    def on_attach(self, engine: Engine) -> None:
        if engine.workers > 1:
            # The audits probe protocol objects every round; under sharding
            # that would force a full gather per round, silently erasing the
            # decomposition.  Keep the combination an explicit error instead
            # of a 10x slowdown.
            raise ValueError("health monitoring requires workers=1")

    def on_round_end(self, engine: Engine, report: RoundReport) -> None:
        """Audit the round just ended and record any new events."""
        if not engine.alive:
            # Nothing to audit: with no alive nodes, every invariant is
            # vacuous and any event would be spurious.  Skip the round
            # without counting it as observed.
            return
        t = report.round
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

    # ------------------------------------------------------------------
    # Individual audits
    # ------------------------------------------------------------------

    def _overlay_snapshot(self, engine: Engine) -> dict[int, tuple[float, int, dict]]:
        """``{id: (pos, epoch, d_nbrs)}`` of the alive nodes in the current
        epoch (:func:`~repro.overlay.lds.current_epoch` of every alive node
        with a position and an epoch)."""
        nodes: dict[int, tuple[float, int, dict]] = {}
        for v in engine.alive:
            proto = engine.protocol_of(v)
            pos = getattr(proto, "pos", None)
            epoch = getattr(proto, "epoch", None)
            if pos is None or epoch is None:
                continue
            nodes[v] = (float(pos), int(epoch), getattr(proto, "d_nbrs", {}))
        current = current_epoch(e for _, e, _ in nodes.values())
        return {v: ne for v, ne in nodes.items() if ne[1] == current}

    def _audit_swarm_occupancy(
        self, t: int, overlay: dict[int, tuple[float, int, dict]]
    ) -> list[DegradationEvent]:
        points = np.arange(self.SAMPLE_POINTS) / self.SAMPLE_POINTS
        index = PositionIndex({v: pos for v, (pos, _, _) in overlay.items()})
        empty = points[swarm_sizes(index, self.params, points) == 0]
        if not empty.size:
            return []
        return [
            DegradationEvent(
                round=t,
                kind="empty-swarm",
                severity="critical",
                detail=(
                    f"{len(empty)}/{self.SAMPLE_POINTS} sampled points have an "
                    f"empty swarm (first at {empty[0]:.4f})"
                ),
            )
        ]

    def _audit_list_symmetry(
        self, t: int, overlay: dict[int, tuple[float, int, dict]]
    ) -> list[DegradationEvent]:
        missing: list[tuple[float, float]] = []  # (v's, w's position) per missing w -> v
        checked = 0
        for v, (pos, _, nbrs) in overlay.items():
            for w in nbrs:
                if w in overlay:
                    checked += 1
                    if v not in overlay[w][2]:
                        missing.append((pos, overlay[w][0]))
        # A missing reverse edge counts only if owed: v in one of w's
        # Definition-5 arcs (the required_neighbor_arcs test, one array pass).
        v_pos, w_pos = np.array(missing, dtype=np.float64).reshape(-1, 2).T
        radius = np.array([self.params.list_radius] + 2 * [self.params.debruijn_radius])
        owed = ring_distance_array(v_pos[:, None], arc_centers(w_pos)) <= radius
        asymmetric = int(np.count_nonzero(owed.any(axis=1)))
        if not asymmetric:
            return []
        return [
            DegradationEvent(
                round=t,
                kind="asymmetric-list",
                severity="warn",
                detail=f"{asymmetric}/{checked} overlay edges lack an owed reverse",
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
