"""Swarms — the logarithmic-size quorums that replace single nodes.

For a point ``p`` the *swarm* ``S(p)`` is the set of nodes within ring distance
``c*lam/n`` of ``p`` (Section 3).  Swarms, not nodes, are the unit of the
paper's routing and maintenance: a message is held by a swarm, and the overlay
stays routable as long as every swarm is *good* — at least a ``3/4`` fraction
of its members survive into the next round (Definition 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Callable, Iterable

import numpy as np

from repro.config import ProtocolParams
from repro.overlay.positions import PositionIndex
from repro.util.intervals import Arc

__all__ = [
    "swarm_arc",
    "swarm_members",
    "swarm_sizes",
    "swarm_violations",
    "SwarmStats",
    "audit_goodness",
]


def swarm_arc(p: float, params: ProtocolParams) -> Arc:
    """The arc covered by swarm ``S(p)``."""
    return Arc(p, params.swarm_radius)


def swarm_members(
    index: PositionIndex, p: float, params: ProtocolParams
) -> np.ndarray:
    """Ids of all nodes in ``S(p)`` under the given position snapshot."""
    return index.ids_within(p, params.swarm_radius)


def _window_counts(
    index: PositionIndex, radius: float, centers: np.ndarray, weights: np.ndarray | None = None
) -> np.ndarray:
    """How many nodes lie within ``radius`` of each center or, given
    ``weights`` (one row per sorted slot), the sum of their rows: one
    :meth:`PositionIndex.bounds_many` pass over prefix sums.  The bounds are
    ``ids_within``'s, so a count and the ids it counts never disagree at an
    arc boundary."""
    n = len(index)
    if weights is None:
        prefix = np.arange(n + 1, dtype=np.int64)
    else:
        prefix = np.zeros((n + 1, *weights.shape[1:]), dtype=np.int64)
        np.cumsum(weights, axis=0, out=prefix[1:])
    centers = np.asarray(centers, dtype=np.float64)
    if radius >= 0.5:  # every window is the whole ring
        return np.repeat(prefix[-1:], centers.size, axis=0)
    a, b, wrapped = index.bounds_many(centers, radius)
    counts = prefix[b] - prefix[a]
    counts[wrapped] += prefix[-1]  # [a, n) plus [0, b)
    return counts


def swarm_sizes(index: PositionIndex, params: ProtocolParams, centers: np.ndarray) -> np.ndarray:
    """``|S(p)|`` for every ``p`` in ``centers`` under the given snapshot.

    The exact ring-distance test ``min(d, 1 - d) <= c*lam/n`` that
    :func:`swarm_members` slices by, counted in one batched pass.
    """
    return _window_counts(index, params.swarm_radius, centers)


def swarm_violations(
    index: PositionIndex,
    neighbors: Callable[[int], np.ndarray],
    points: Iterable[float],
    branches: Callable[[float], Iterable[float]],
    radius: float,
) -> int:
    """The swarm-property check (Lemma 6 and its Chord analogue), for any
    overlay: how many (point, branch) pairs fail it.

    A pair ``(p, q)``, for each ``q`` in ``branches(p)``, fails when some
    member ``v`` of ``S(p)`` lacks an edge to a node of ``S(q)`` other than
    itself; both swarms have radius ``radius``.  ``neighbors(v)`` returns
    ``v``'s out-neighbours as a sorted id array.
    """
    bad = 0
    for p in points:
        members = index.ids_within(float(p), radius).tolist()
        for q in branches(float(p)):
            target = index.ids_within(q, radius)
            for v in members:
                missing = np.setdiff1d(target, neighbors(v), assume_unique=True)
                if missing.size > (v in missing):
                    bad += 1
                    break
    return bad


@dataclass(frozen=True)
class SwarmStats:
    """Aggregate swarm statistics over a position snapshot.

    ``min_size``/``max_size`` are taken over the swarms at the evaluated
    centers; by default (see :func:`audit_goodness`) those attain the exact
    extremes of ``|S(p)|`` over every ``p in [0, 1)``.
    ``min_good_fraction`` additionally needs a survivor predicate.
    """

    count: int
    min_size: int
    max_size: int
    mean_size: float
    min_good_fraction: float

    @property
    def all_nonempty(self) -> bool:
        return self.count == 0 or self.min_size > 0


def audit_goodness(
    index: PositionIndex,
    params: ProtocolParams,
    survives: Callable[[int], bool] | AbstractSet[int] | None = None,
    centers: np.ndarray | None = None,
) -> SwarmStats:
    """Measure swarm sizes and goodness over a snapshot.

    Parameters
    ----------
    survives:
        Either a predicate or a set of node ids that remain alive two rounds
        later (Definition 8 requires ``|S_t(p) ∩ V_{t+2}| >= 3/4 |S_t(p)|``).
        ``None`` means "everyone survives".
    centers:
        Points at which to evaluate swarms; defaults to every breakpoint
        ``q ± c*lam/n`` (mod 1) of every node position ``q`` plus the midpoint
        between each pair of ring-adjacent breakpoints.  Swarm membership
        changes only where ``p`` crosses a breakpoint, so ``S(p)`` is constant
        on each open cell between adjacent breakpoints (its midpoint witnesses
        it) and the breakpoints witness the closed cell ends: the default set
        attains the exact minimum and maximum over all ``p in [0, 1)``.  Node
        positions alone, or with their midpoints, miss cells.
    """
    pos = index.sorted_positions
    if centers is None:
        if pos.size == 0:
            return SwarmStats(0, 0, 0, 0.0, 1.0)
        radius = params.swarm_radius
        breaks = np.sort(np.concatenate([pos - radius, pos + radius]) % 1.0)
        mids = (breaks + np.diff(breaks, append=breaks[0] + 1.0) / 2.0) % 1.0
        centers = np.concatenate([breaks, mids])

    min_frac = 1.0
    if survives is None:
        sizes = swarm_sizes(index, params, centers)
    else:
        # Per sorted slot: (1, survives?) -- sizes and good counts in one pass.
        test = survives if callable(survives) else survives.__contains__
        slots = np.ones((len(index), 2), dtype=np.int64)
        slots[:, 1] = np.fromiter((bool(test(v)) for v in index.ids_list), dtype=bool)
        sizes, good = _window_counts(index, params.swarm_radius, centers, slots).T
        held = sizes > 0
        if held.any():
            min_frac = float(np.min(good[held] / sizes[held]))
    count = len(centers)
    return SwarmStats(
        count=count,
        min_size=int(sizes.min()) if count else 0,
        max_size=int(sizes.max()) if count else 0,
        mean_size=int(sizes.sum()) / count if count else 0.0,
        min_good_fraction=float(min_frac),
    )
