"""Swarms — the logarithmic-size quorums that replace single nodes.

For a point ``p`` the *swarm* ``S(p)`` is the set of nodes within ring distance
``c*lam/n`` of ``p`` (Section 3).  Swarms, not nodes, are the unit of the
paper's routing and maintenance: a message is held by a swarm, and the overlay
stays routable as long as every swarm is *good* — at least a ``3/4`` fraction
of its members survive into the next round (Definition 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Callable

import numpy as np

from repro.config import ProtocolParams
from repro.overlay.positions import PositionIndex
from repro.util.intervals import Arc

__all__ = ["swarm_arc", "swarm_members", "swarm_sizes", "SwarmStats", "audit_goodness"]


def swarm_arc(p: float, params: ProtocolParams) -> Arc:
    """The arc covered by swarm ``S(p)``."""
    return Arc(p, params.swarm_radius)


def swarm_members(
    index: PositionIndex, p: float, params: ProtocolParams
) -> np.ndarray:
    """Ids of all nodes in ``S(p)`` under the given position snapshot."""
    return index.ids_within(p, params.swarm_radius)


def swarm_sizes(index: PositionIndex, params: ProtocolParams, centers: np.ndarray) -> np.ndarray:
    """``|S(p)|`` for every ``p`` in ``centers`` under the given snapshot.

    Counts with :meth:`PositionIndex.count_within`, the exact ring-distance
    test ``min(d, 1 - d) <= c*lam/n`` that :func:`swarm_members` slices by.
    """
    radius = params.swarm_radius
    return np.fromiter(
        (index.count_within(float(p), radius) for p in centers),
        dtype=np.int64,
        count=len(centers),
    )


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

    if survives is None:
        is_good = None
    elif callable(survives):
        is_good = {int(i) for i in index.ids if survives(int(i))}
    else:
        is_good = {int(i) for i in index.ids if int(i) in survives}

    sizes = swarm_sizes(index, params, centers)
    min_frac = 1.0
    if is_good is not None:
        for p, size in zip(centers, sizes.tolist()):
            if size:
                members = swarm_members(index, float(p), params)
                good = sum(1 for m in members if int(m) in is_good)
                min_frac = min(min_frac, good / size)
    count = len(centers)
    return SwarmStats(
        count=count,
        min_size=int(sizes.min()) if count else 0,
        max_size=int(sizes.max()) if count else 0,
        mean_size=int(sizes.sum()) / count if count else 0.0,
        min_good_fraction=float(min_frac),
    )
