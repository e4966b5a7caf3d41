"""Interval (arc) algebra on the unit ring ``[0, 1)``.

The paper places every node at a position in the ring ``[0, 1)`` and reasons
about *arcs* around points: swarms ``S(p)`` are arcs of radius ``c*lam/n``, list
edges cover an arc of radius ``2*c*lam/n`` and so on.  This module provides a
small, well-tested arc type plus vectorised membership queries used throughout
the overlay construction code.

All positions are ``float`` values in ``[0, 1)``.  Arcs are represented by a
``center`` and a ``radius``; an arc with ``radius >= 0.5`` covers the whole
ring.  Arithmetic is wrap-aware: the arc ``Arc(0.99, 0.05)`` contains ``0.02``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "ring_distance",
    "ring_distance_array",
    "is_left_of",
    "wrap",
    "wrap_array",
    "Arc",
    "arcs_overlap",
    "arc_union_length",
]


def wrap(x: float) -> float:
    """Map ``x`` into ``[0, 1)`` (ring coordinates).

    Robust to the float edge case where ``x - floor(x)`` rounds up to 1.0
    (e.g. ``x = -1e-18``).
    """
    w = x - math.floor(x)
    return 0.0 if w >= 1.0 else w


def wrap_array(x: np.ndarray) -> np.ndarray:
    """:func:`wrap` elementwise, IEEE-identical (a new array)."""
    w = x - np.floor(x)
    w[w >= 1.0] = 0.0
    return w


def ring_distance(u: float, v: float) -> float:
    """The paper's distance ``d(u, v)``: shortest arc length between two points.

    ``d(u, v) = |u - v|`` if that is at most 1/2, else ``1 - |u - v|``.
    """
    diff = abs(wrap(u) - wrap(v))
    return diff if diff <= 0.5 else 1.0 - diff


def ring_distance_array(u, v):
    """Vectorised :func:`ring_distance` for NumPy arrays (broadcasting)."""
    diff = np.abs(np.mod(u, 1.0) - np.mod(v, 1.0))
    return np.minimum(diff, 1.0 - diff)


def is_left_of(u: float, v: float) -> bool:
    """``True`` iff ``u`` is *left of* ``v`` per the paper's convention.

    For ``|u - v| <= 1/2``, ``u`` is left of ``v`` when ``u < v``; when the
    naive gap exceeds 1/2 the relation is reversed (the short way around the
    ring crosses 0).  A point is not left of itself.
    """
    u, v = wrap(u), wrap(v)
    if u == v:
        return False
    if abs(u - v) <= 0.5:
        return u < v
    return u > v


@dataclass(frozen=True)
class Arc:
    """A closed arc ``[center - radius, center + radius]`` on the unit ring."""

    center: float
    radius: float

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError(f"arc radius must be non-negative, got {self.radius}")
        object.__setattr__(self, "center", wrap(self.center))

    @property
    def length(self) -> float:
        """Total arc length, capped at the full ring."""
        return min(1.0, 2.0 * self.radius)

    @property
    def is_full(self) -> bool:
        """Whether the arc covers the whole ring."""
        return self.radius >= 0.5

    @property
    def lo(self) -> float:
        """Counter-clockwise endpoint (wrapped into ``[0, 1)``)."""
        return wrap(self.center - self.radius)

    @property
    def hi(self) -> float:
        """Clockwise endpoint (wrapped into ``[0, 1)``)."""
        return wrap(self.center + self.radius)

    def contains(self, p: float) -> bool:
        """Membership test, wrap-aware, endpoints inclusive."""
        if self.is_full:
            return True
        return ring_distance(p, self.center) <= self.radius

    def contains_array(self, points: np.ndarray) -> np.ndarray:
        """Vectorised membership test returning a boolean mask."""
        if self.is_full:
            return np.ones(np.shape(points), dtype=bool)
        return ring_distance_array(points, self.center) <= self.radius

    def scaled_half(self, branch: int) -> "Arc":
        """The image of this arc under the De Bruijn map ``p -> (p + branch)/2``.

        ``branch`` must be 0 or 1.  The image arc has half the radius, centred
        at ``(center + branch) / 2``.  This is the geometric heart of the
        swarm property (Lemma 6).
        """
        if branch not in (0, 1):
            raise ValueError(f"branch must be 0 or 1, got {branch}")
        return Arc(wrap((self.center + branch) / 2.0), self.radius / 2.0)

    def expanded(self, extra: float) -> "Arc":
        """A concentric arc with radius increased by ``extra``."""
        return Arc(self.center, self.radius + extra)


def arcs_overlap(a: Arc, b: Arc) -> bool:
    """``True`` iff the two arcs share at least one point."""
    if a.is_full or b.is_full:
        return True
    return ring_distance(a.center, b.center) <= a.radius + b.radius


def arc_union_length(arcs: Iterable[Arc]) -> float:
    """Total length of the union of arcs (used in congestion accounting).

    Computed by unrolling each arc into at most two linear segments on
    ``[0, 1]`` and sweeping.
    """
    segments: list[tuple[float, float]] = []
    for arc in arcs:
        if arc.is_full:
            return 1.0
        lo = arc.center - arc.radius
        hi = arc.center + arc.radius
        if lo < 0.0:
            segments.append((1.0 + lo, 1.0))
            segments.append((0.0, hi))
        elif hi > 1.0:
            segments.append((lo, 1.0))
            segments.append((0.0, hi - 1.0))
        else:
            segments.append((lo, hi))
    if not segments:
        return 0.0
    segments.sort()
    total = 0.0
    cur_lo, cur_hi = segments[0]
    for lo, hi in segments[1:]:
        if lo > cur_hi:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    total += cur_hi - cur_lo
    return min(total, 1.0)
