"""Hand-filed routed hops, filed the way the protocol files them."""

import numpy as np

from repro.sim.hopplane import HopPlane, HopRows


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
