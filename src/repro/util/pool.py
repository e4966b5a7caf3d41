"""The process-pool map of the grid runners (experiment sweep, scenario matrix).

Output never depends on the worker count: each task is a pure function of
its tuple, and ``Pool.map`` returns results in task order.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, Sequence, TypeVar

__all__ = ["pool_map"]

T = TypeVar("T")
R = TypeVar("R")


def pool_map(fn: Callable[[T], R], tasks: Sequence[T], workers: int) -> list[R]:
    """``[fn(t) for t in tasks]`` over up to ``workers`` processes (inline at <= 1)."""
    if workers <= 1:
        return [fn(t) for t in tasks]
    try:  # fork is cheap and inherits imports; spawn where it is missing
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(processes=min(workers, len(tasks))) as pool:
        return pool.map(fn, tasks)
