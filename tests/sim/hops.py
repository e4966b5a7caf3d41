"""Hand-filed routed hops, filed the way the protocol files them, and the
hop plane's former two-sort dedup, kept as a delivery oracle."""

import numpy as np

from repro.sim.hopplane import FrozenHopRound, HopPlane, HopRows, _stable_argsort


def file_hops(plane: HopPlane, sends, file=None) -> None:
    """File one round's ``(src, msg, step, dsts)`` multicasts in order: each
    distinct ``(msg.key, step)`` a row of one appended block, each non-empty
    multicast a chunk through ``file`` (default ``plane.file``)."""
    sends = [send for send in sends if len(send[3])]
    hops: dict[tuple[int, int], tuple] = {}
    for _, msg, step, _ in sends:
        hops.setdefault((msg.key, step), (msg, step))
    first = plane.append(HopRows.of([m for m, _ in hops.values()], [k for _, k in hops.values()]))
    row = {hop: first + i for i, hop in enumerate(hops)}
    for src, msg, step, dsts in sends:
        cols = ([row[msg.key, step]], [len(dsts)], dsts)
        (file or plane.file)(src, *(np.array(col, dtype=np.int32) for col in cols))


def two_sort_delivery(frozen: FrozenHopRound, alive):
    """``(rows, counts)`` as :meth:`FrozenHopRound.deliver` computed them
    with a second stable sort: the copies grouped by receiver, then sorted
    by row so each ``(receiver, row)`` pair's copies sit together, earliest
    first; the heads of those runs are the first occurrences."""
    flat = frozen.flat
    rows: dict[int, np.ndarray] = {}
    counts: dict[int, int] = {}
    if not flat.size:
        return rows, counts
    order = _stable_argsort(flat)
    dst_sorted = flat[order]
    row_sorted = frozen.copy_rows()[order]
    bounds = np.flatnonzero(np.r_[True, dst_sorted[1:] != dst_sorted[:-1], True])
    by_row = _stable_argsort(row_sorted)
    row2 = row_sorted[by_row]
    dst2 = dst_sorted[by_row]
    first = np.empty(flat.size, dtype=bool)
    first[by_row] = np.r_[True, (row2[1:] != row2[:-1]) | (dst2[1:] != dst2[:-1])]
    keep = np.flatnonzero(first)
    row_kept = row_sorted[keep]
    kept = np.searchsorted(keep, bounds).tolist()
    edges = bounds.tolist()
    for i, dst in enumerate(dst_sorted[bounds[:-1]].tolist()):
        if dst in alive:
            rows[dst] = row_kept[kept[i]:kept[i + 1]]
            counts[dst] = edges[i + 1] - edges[i]
    return rows, counts
