"""The Chord Swarm — transferring the LDS construction to Chord.

The paper closes its abstract with: *"our approaches can be transferred to a
variety of classical P2P topologies where nodes are mapped into the [0,1)
interval"*.  This module carries that out for Chord (after Fiat, Saia &
Young's swarm-Chord): each node keeps

* **list edges** to everything within ``2*c*lam/n`` (same as the LDS), and
* **finger edges** to everything within ``2*c*lam/n`` of ``v + 2^-i`` for
  ``i = 1..lam``.

The analogue of the Swarm Property (Lemma 6) holds with *no* rounding error:
fingers are translations, so for any point ``p`` every node of ``S(p)`` is
connected to all of ``S(p + 2^-i)`` (triangle inequality with the full
``2*c*lam/n`` finger radius).  Routing corrects the clockwise distance to
the target bit by bit (most significant first); "zero bits" hold the message
in place, so the trajectory has exactly ``lam + 2`` points and the dilation
matches the LDS's ``2*lam + 2``.

The price of the transfer is degree: ``lam`` finger arcs instead of the De
Bruijn graph's two halving arcs — ``Theta(log^2 n)`` edges per node versus
``Theta(log n)``.  The comparison experiment (E-X1) measures exactly this
trade.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.config import ProtocolParams
from repro.overlay.positions import PositionIndex
from repro.overlay.swarm import swarm_members, swarm_violations
from repro.util.bits import address_of, point_of
from repro.util.intervals import Arc, wrap

__all__ = ["ChordSwarmGraph", "chord_trajectory", "chord_finger_arcs"]


def chord_finger_arcs(p: float, params: ProtocolParams) -> list[Arc]:
    """The finger arcs of a node at ``p``: around ``p + 2^-i``, i = 1..lam.

    Finger arcs use the full list radius because translations preserve
    distances (no halving slack is available, unlike De Bruijn edges).
    """
    return [
        Arc(wrap(p + 2.0**-i), params.list_radius) for i in range(1, params.lam + 1)
    ]


def chord_trajectory(v: float, p: float, lam: int) -> tuple[float, ...]:
    """The Chord routing trajectory from ``v`` to ``p`` (lam + 2 points).

    Let ``d = (p - v) mod 1`` with ``lam``-bit address ``D``.  Step ``i``
    adds ``2^-i`` if bit ``i`` of ``D`` is set (most significant first) and
    stays put otherwise, so ``x_i = v + (top i bits of D)`` and
    ``x_lam`` is within ``2^-lam`` of ``p``; ``x_{lam+1} = p`` exactly.
    """
    v = wrap(v)
    d = wrap(p - v)
    addr = address_of(d, lam)
    points = [v]
    for i in range(1, lam + 1):
        prefix = (addr >> (lam - i)) << (lam - i)
        points.append(wrap(v + point_of(prefix, lam)))
    points.append(wrap(p))
    return tuple(points)


class ChordSwarmGraph:
    """A Chord-swarm snapshot: positions plus the implied edge sets."""

    def __init__(self, index: PositionIndex, params: ProtocolParams) -> None:
        self.index = index
        self.params = params
        self._neighbors: dict[int, np.ndarray] = {}

    @classmethod
    def random(
        cls, params: ProtocolParams, rng: np.random.Generator, n: int | None = None
    ) -> "ChordSwarmGraph":
        count = params.n if n is None else n
        positions = {i: float(p) for i, p in enumerate(rng.random(count))}
        return cls(PositionIndex(positions), params)

    @classmethod
    def from_positions(
        cls, positions: Mapping[int, float], params: ProtocolParams
    ) -> "ChordSwarmGraph":
        return cls(PositionIndex(positions), params)

    @property
    def node_ids(self) -> np.ndarray:
        return self.index.ids

    def __len__(self) -> int:
        return len(self.index)

    # ------------------------------------------------------------------
    # Neighbourhoods
    # ------------------------------------------------------------------

    def finger_neighbors(self, v: int) -> np.ndarray:
        p = self.index.position(v)
        parts = [
            self.index.ids_in_arc(arc) for arc in chord_finger_arcs(p, self.params)
        ]
        merged = np.unique(np.concatenate(parts)) if parts else np.array([], dtype=np.int64)
        return merged[merged != v]

    def neighbors(self, v: int) -> np.ndarray:
        """The list arc around ``v`` plus its finger arcs, as sorted ids."""
        cached = self._neighbors.get(v)
        if cached is None:
            listed = self.index.ids_within(self.index.position(v), self.params.list_radius)
            cached = np.union1d(listed[listed != v], self.finger_neighbors(v))
            self._neighbors[v] = cached
        return cached

    def swarm(self, p: float) -> np.ndarray:
        return swarm_members(self.index, p, self.params)

    def degree_stats(self) -> tuple[int, float, int]:
        degs = [int(self.neighbors(int(v)).size) for v in self.node_ids]
        if not degs:
            return (0, 0.0, 0)
        return (min(degs), float(np.mean(degs)), max(degs))

    def edge_count(self) -> int:
        return int(sum(self.neighbors(int(v)).size for v in self.node_ids))

    # ------------------------------------------------------------------
    # Audits
    # ------------------------------------------------------------------

    def check_finger_property(self, points: np.ndarray) -> bool:
        """The Chord analogue of Lemma 6: S(p) is adjacent to S(p + 2^-i)."""
        lam = self.params.lam
        return (
            swarm_violations(
                self.index,
                self.neighbors,
                points,
                lambda p: (wrap(p + 2.0**-i) for i in range(1, lam + 1)),
                self.params.swarm_radius,
            )
            == 0
        )
