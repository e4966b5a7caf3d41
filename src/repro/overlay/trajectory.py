"""Routing trajectories — Definition 7.

The trajectory ``tau(v, p) = x_0, ..., x_{lam+1}`` is the sequence of points a
message visits under bitwise De Bruijn routing from a node at position ``v``
to the target ``p``: ``x_0 = v``; ``x_i`` replaces the top ``i`` bits of ``v``
with the *low* ``i`` bits of ``p`` (pushed least-significant-first, so that
after ``lam`` steps the address equals ``p``'s address); ``x_{lam+1} = p``.

Each consecutive pair satisfies ``x_i ≈ (x_{i-1} + bit)/2`` up to ``2^-lam``,
which is why swarm-to-swarm forwarding along the trajectory only ever uses
De Bruijn edges (Lemma 6) plus one final list-edge-range hop.

:func:`trajectories` computes many trajectories at once, as integer address
arithmetic over arrays: column for column bit-identical to :func:`trajectory`.
The module also provides the interval-crossing census used by Lemma 12:
``E[#trajectories with their j-th step in I] = k * n * |I|``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.util.bits import address_of, debruijn_prefix_address, point_of
from repro.util.intervals import Arc, wrap, wrap_array

__all__ = [
    "trajectory",
    "trajectories",
    "trajectory_bits",
    "crossing_counts",
    "max_step_error",
]


def trajectory_bits(p: float, lam: int) -> tuple[int, ...]:
    """The ``lam`` most significant bits ``(d_1, ..., d_lam)`` of the target."""
    addr = address_of(p, lam)
    return tuple((addr >> (lam - 1 - i)) & 1 for i in range(lam))


def trajectory(v: float, p: float, lam: int) -> tuple[float, ...]:
    """The full trajectory ``tau(v, p)`` as ``lam + 2`` points in ``[0, 1)``."""
    src = address_of(v, lam)
    dst = address_of(p, lam)
    points = [wrap(v)]
    for i in range(1, lam + 1):
        points.append(point_of(debruijn_prefix_address(src, dst, i, lam), lam))
    points.append(wrap(p))
    return tuple(points)


def _points(v: np.ndarray, p: np.ndarray, lam: int, steps: np.ndarray) -> np.ndarray:
    """Points ``x_k`` of the trajectories ``v[i] -> p[i]`` for every ``k`` of
    ``steps``, as a ``(len(v), len(steps))`` matrix.

    Elementwise the arithmetic of :func:`trajectory`: ``x_0`` and
    ``x_{lam+1}`` are :func:`wrap` of the endpoints, and ``x_k`` in between
    is the De Bruijn prefix address (:func:`debruijn_prefix_address` of the
    :func:`address_of` cells) over ``2**lam``.
    """
    span = 1 << lam
    src = np.minimum(((v - np.floor(v)) * span).astype(np.int64), span - 1)
    dst = np.minimum(((p - np.floor(p)) * span).astype(np.int64), span - 1)
    k = np.clip(steps, 1, lam)
    low = dst[:, None] & ((1 << k) - 1)
    out = ((low << (lam - k)) | (src[:, None] >> k)) / span
    for col, step in enumerate(steps.tolist()):
        if step == 0:
            out[:, col] = wrap_array(v)
        elif step == lam + 1:
            out[:, col] = wrap_array(p)
    return out


def trajectories(v: np.ndarray, p: np.ndarray, lam: int) -> np.ndarray:
    """The trajectories ``tau(v[i], p[i])`` as a ``(len(v), lam + 2)`` matrix;
    row ``i`` equals :func:`trajectory` ``(v[i], p[i], lam)`` bit for bit."""
    v = np.asarray(v, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    return _points(v, p, lam, np.arange(lam + 2))


def max_step_error(traj: Sequence[float]) -> float:
    """Largest deviation of a step from the ideal map ``x -> (x + bit)/2``.

    For a valid trajectory this is at most ``2**-lam`` for the De Bruijn steps
    and at most ``2**-lam`` for the final list correction; routing absorbs it
    in the swarm radius slack.
    """
    worst = 0.0
    for a, b in zip(traj[:-2], traj[1:-1]):
        candidates = [wrap((a + bit) / 2.0) for bit in (0, 1)]
        err = min(
            min(abs(b - c), 1.0 - abs(b - c)) for c in candidates
        )
        worst = max(worst, err)
    # Final correction step: distance from x_lam to the true target point.
    tail = abs(traj[-1] - traj[-2])
    worst = max(worst, min(tail, 1.0 - tail))
    return worst


def crossing_counts(
    sources: np.ndarray,
    targets: np.ndarray,
    lam: int,
    interval: Arc,
    step: int,
) -> int:
    """How many trajectories have their ``step``-th point inside ``interval``.

    ``sources[i] -> targets[i]`` defines trajectory ``i``.  Vectorised: the
    ``step``-th point of every trajectory is the ``step`` column of
    :func:`trajectories`, computed alone.
    """
    if not 0 <= step <= lam + 1:
        raise ValueError(f"step {step} out of range [0, {lam + 1}]")
    if sources.shape != targets.shape:
        raise ValueError("sources and targets must have identical shape")
    pts = _points(
        np.ravel(sources).astype(np.float64),
        np.ravel(targets).astype(np.float64),
        lam,
        np.array([step]),
    )
    return int(np.count_nonzero(interval.contains_array(pts[:, 0])))
