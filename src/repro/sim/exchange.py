"""Zero-copy boundary exchange for the sharded round engine.

PR 7's :mod:`repro.sim.shard` shipped every round's inboxes, hop columns
and send logs as pickled ``Pipe`` payloads — an O(traffic) serialization
tax paid per worker per round.  This module encodes the same payloads into
``multiprocessing.shared_memory`` arenas instead (:mod:`repro.util.arena`),
so the pipes degrade to a **control plane** carrying only offsets and
counts, and the bulk bytes cross the boundary exactly once, unserialized:

* **Downlink** (master -> workers): the shared hop columns — the message
  table (:class:`~repro.sim.hopplane.HopRows`) plus per-receiver row arrays
  — are written as arrays into one master-owned slab; each
  ``RoutedMessage`` is framed *once per round* (identity-memoised) no
  matter how many bands reference it, where PR 7 pickled it once per band.  Inboxes become flat
  ``(sender, frame)`` integer pairs; the residual control scalars
  (leaves, joins-with-slots, stalls, forwarded calls) ride in one small
  pickled frame per band.
* **Uplink** (workers -> master): each worker owns one fixed region of a
  second slab and writes its send log as columns — the object lane as two
  flat ``int64`` arrays (receiver, message frame offset) beside the framed
  message objects, its per-node marks, and its local hop-plane columns.
  The master splices by reading views — no unpickling of bulk columns.

**Identity is part of the contract.**  Plane row interning — and with it
receiver-side hop dedup — keys on each message's *launch key* (see
:class:`~repro.sim.hopplane.HopPlane`), which rides the slabs as a column,
so the master's splice interns worker rows by key.  The object lane still
relies on the frame encoder/decoder memo pair reproducing exactly the
sharing structure a per-payload pickle memo produced in PR 7.  Both keep
W∈{2,4} fingerprints bit-for-bit identical (pinned by
``tests/integration/test_shard_identity.py``).

Overflow protocol: encoders raise :class:`~repro.util.arena.ArenaFull`;
the master regrows its downlink slab and re-encodes, while a worker falls
back to shipping that one round through the pipe (tagged ``"sends_pipe"``,
honestly counted as pipe bytes) and the master regrows the uplink slab for
the next round.  Both sides of the handshake live in
:mod:`repro.sim.shard`; this module is the pure encode/decode layer.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass

import numpy as np

from repro.sim.hopplane import HopDelivery, HopRows
from repro.util.arena import (
    ByteArena,
    FrameDecoder,
    FrameEncoder,
    read_array,
    read_frame,
)

__all__ = [
    "DOWN_MIN_BYTES",
    "UP_BAND_MIN_BYTES",
    "ExchangeStats",
    "encode_downlink_shared",
    "decode_downlink_shared",
    "encode_downlink_band",
    "decode_downlink_band",
    "encode_uplink",
    "decode_uplink",
]

#: Initial downlink slab size; the regrow handshake doubles from here.
DOWN_MIN_BYTES = 1 << 20
#: Initial per-worker uplink region size; regrown on worker overflow.
UP_BAND_MIN_BYTES = 1 << 19


@dataclass
class ExchangeStats:
    """Cumulative master-side byte accounting for the shard exchange.

    ``bytes_pipe`` counts every byte that still crosses a ``Pipe`` (control
    messages, acks, gathers, and any overflow-round fallback payloads);
    ``bytes_shm`` counts the bytes materialised into the shared slabs.  The
    regrow/fallback counters make the handshake observable in tests.
    """

    bytes_pipe: int = 0
    bytes_shm: int = 0
    rounds: int = 0
    regrows_down: int = 0
    regrows_up: int = 0
    fallback_rounds: int = 0


def _frame_refs(enc: FrameEncoder, msgs: list[object]) -> np.ndarray:
    """One frame offset per message (``int64``); repeats share a frame."""
    return np.fromiter((enc.encode(m) for m in msgs), dtype=np.int64, count=len(msgs))


#: The message table's 1-D columns, in slab order, with their dtypes.
_ROW_COLUMNS = (
    ("keys", np.int64),
    ("steps", np.int32),
    ("fsteps", np.int32),
    ("cls", np.int8),
    ("srank", np.int32),
    ("target", np.float64),
)


def _put_rows(arena: ByteArena, enc: FrameEncoder, table: HopRows) -> tuple:
    """Write a message table: its columns as arrays, its messages as frames.
    Returns ``(rows, width, traj_off, refs_off, *column offsets)``."""
    traj = np.ascontiguousarray(table.traj, dtype=np.float64)
    return (
        len(table),
        traj.shape[1],
        arena.put_array(traj.reshape(-1)),
        arena.put_array(_frame_refs(enc, table.msgs)),
        *(
            arena.put_array(np.ascontiguousarray(getattr(table, name), dtype=dtype))
            for name, dtype in _ROW_COLUMNS
        ),
    )


def _read_rows(buf: memoryview, dec: FrameDecoder, desc: tuple) -> HopRows:
    """The message table :func:`_put_rows` wrote (columns copied out of the
    slab, which the next regrow may unlink)."""
    count, width, traj_off, refs_off, *offs = desc
    cols = {
        name: read_array(buf, off, np.dtype(dtype), count).copy()
        for (name, dtype), off in zip(_ROW_COLUMNS, offs)
    }
    refs = read_array(buf, refs_off, np.dtype(np.int64), count).tolist()
    traj = read_array(buf, traj_off, np.dtype(np.float64), count * width)
    return HopRows(
        msgs=[dec.decode(ref) for ref in refs],
        traj=traj.reshape(count, width).copy(),
        **cols,
    )


# ----------------------------------------------------------------------
# Downlink: master -> workers
# ----------------------------------------------------------------------


def encode_downlink_shared(
    arena: ByteArena, enc: FrameEncoder, hop_delivery: HopDelivery | None
) -> tuple | None:
    """Write the round's shared message table once, for every band.

    Returns its descriptor or ``None`` when no plane delivery is pending.
    Every column travels as an array; a message referenced by many rows or
    bands is framed exactly once.
    """
    if hop_delivery is None:
        return None
    return _put_rows(arena, enc, hop_delivery.table)


def decode_downlink_shared(
    buf: memoryview, dec: FrameDecoder, shared_desc: tuple | None
) -> HopRows | None:
    """Rebuild the message table from the shared hop columns."""
    if shared_desc is None:
        return None
    return _read_rows(buf, dec, shared_desc)


def encode_downlink_band(
    arena: ByteArena,
    enc: FrameEncoder,
    control: tuple,
    inboxes: dict[int, list],
    hop_rows: dict[int, np.ndarray] | None,
) -> tuple:
    """Encode one band's private payload; returns its descriptor tuple.

    ``control`` is the small non-bulk remainder ``(leaves, joins, stalled,
    calls)`` and travels as one pickled frame.  Inboxes flatten into a
    ``(node, count)`` header table plus ``(sender, frame)`` entry pairs;
    hop-row arrays flatten into a ``(node, count)`` header table plus one
    concatenated int32 row column.
    """
    control_off = arena.put_bytes(
        pickle.dumps(control, protocol=pickle.HIGHEST_PROTOCOL)
    )
    hdr: list[int] = []
    entries: list[int] = []
    for v, inbox in inboxes.items():
        hdr.append(v)
        hdr.append(len(inbox))
        for sender, msg in inbox:
            entries.append(sender)
            entries.append(enc.encode(msg))
    inbox_hdr_off = arena.put_array(np.array(hdr, dtype=np.int64))
    entries_off = arena.put_array(np.array(entries, dtype=np.int64))
    rows_hdr: list[int] = []
    rows_cat = np.empty(0, dtype=np.int32)
    if hop_rows:
        cols = []
        for v, rows in hop_rows.items():
            rows_hdr.append(v)
            rows_hdr.append(len(rows))
            cols.append(rows)
        rows_cat = np.concatenate(cols).astype(np.int32, copy=False)
    rows_hdr_off = arena.put_array(np.array(rows_hdr, dtype=np.int64))
    rows_off = arena.put_array(rows_cat)
    return (
        control_off,
        inbox_hdr_off,
        len(inboxes),
        entries_off,
        len(entries) // 2,
        rows_hdr_off,
        len(rows_hdr) // 2,
        rows_off,
        int(rows_cat.size),
    )


def decode_downlink_band(
    buf: memoryview, dec: FrameDecoder, desc: tuple
) -> tuple[tuple, dict[int, list], dict[int, np.ndarray]]:
    """Rebuild ``(control, inboxes, hop_rows)`` from a band descriptor."""
    (
        control_off,
        inbox_hdr_off,
        n_nodes,
        entries_off,
        n_entries,
        rows_hdr_off,
        n_row_nodes,
        rows_off,
        n_rows_total,
    ) = desc
    control = pickle.loads(read_frame(buf, control_off))
    hdr = read_array(buf, inbox_hdr_off, np.dtype(np.int64), 2 * n_nodes).tolist()
    ent = read_array(buf, entries_off, np.dtype(np.int64), 2 * n_entries).tolist()
    inboxes: dict[int, list] = {}
    e = 0
    for i in range(n_nodes):
        v = hdr[2 * i]
        count = hdr[2 * i + 1]
        inbox = []
        for _ in range(count):
            inbox.append((ent[e], dec.decode(ent[e + 1])))
            e += 2
        inboxes[v] = inbox
    rows_hdr = read_array(
        buf, rows_hdr_off, np.dtype(np.int64), 2 * n_row_nodes
    ).tolist()
    rows_cat = read_array(buf, rows_off, np.dtype(np.int32), n_rows_total)
    hop_rows: dict[int, np.ndarray] = {}
    lo = 0
    for i in range(n_row_nodes):
        v = rows_hdr[2 * i]
        count = rows_hdr[2 * i + 1]
        hop_rows[v] = rows_cat[lo : lo + count].copy()
        lo += count
    return control, inboxes, hop_rows


# ----------------------------------------------------------------------
# Uplink: workers -> master
# ----------------------------------------------------------------------


def encode_uplink(
    arena: ByteArena,
    enc: FrameEncoder,
    dsts: list[int],
    msgs: list[object],
    marks: list,
    plane_pack,
) -> tuple:
    """Encode one worker's round output into its uplink region.

    ``dsts``/``msgs``/``marks`` are the :class:`~repro.sim.shard._SendLog`
    columns: the object lane travels as two flat ``int64`` arrays — the
    receiver of every send and the frame offset of its message (a message
    sent many times is framed once) — and the marks as ``(node, sends_hi,
    plane_hi)`` triples.  ``plane_pack`` is the log's
    :meth:`~repro.sim.hopplane.HopPlane.pack` — the message table plus
    ``int32`` ``(rows, lens, flat)`` arrays, all written to the region as
    arrays.
    Raises :class:`~repro.util.arena.ArenaFull` when the region is too small
    — the caller then falls back to the pipe for this round and requests a
    regrow.
    """
    marks_off = arena.put_array(np.array(marks, dtype=np.int64).reshape(-1))
    dsts_off = arena.put_array(np.array(dsts, dtype=np.int64))
    sent_off = arena.put_array(_frame_refs(enc, msgs))
    table, rows, lens, flat = plane_pack
    plane_desc = (
        _put_rows(arena, enc, table),
        arena.put_array(rows),
        arena.put_array(lens),
        len(rows),
        arena.put_array(flat),
        len(flat),
    )
    return (
        marks_off,
        len(marks),
        dsts_off,
        sent_off,
        len(dsts),
        plane_desc,
        arena.used,
    )


def decode_uplink(buf: memoryview, dec: FrameDecoder, desc: tuple) -> tuple:
    """Rebuild ``(dsts, msgs, marks, plane_pack)`` from one worker's descriptor.

    The object-lane columns and marks come back as the plain lists the
    worker logged; the plane comes back as the message table and ``int32``
    send columns :meth:`~repro.sim.hopplane.HopPlane.pack` produced, which
    the master's splice interns and slices per node.
    """
    marks_off, n_marks, dsts_off, sent_off, n_sends, plane_desc, _used = desc
    i64 = np.dtype(np.int64)
    marks_flat = read_array(buf, marks_off, i64, 3 * n_marks)
    marks = [tuple(row) for row in marks_flat.reshape(-1, 3).tolist()]
    dsts = read_array(buf, dsts_off, i64, n_sends).tolist()
    msgs = [dec.decode(ref) for ref in read_array(buf, sent_off, i64, n_sends).tolist()]
    rows_desc, rows_off, lens_off, n_rows, flat_off, n_flat = plane_desc
    i32 = np.dtype(np.int32)
    # Copies, not views: the master files these into its plane, which must
    # not hold exports of a slab the next regrow unlinks.
    rows = read_array(buf, rows_off, i32, n_rows).copy()
    lens = read_array(buf, lens_off, i32, n_rows).copy()
    flat = read_array(buf, flat_off, i32, n_flat).copy()
    return dsts, msgs, marks, (_read_rows(buf, dec, rows_desc), rows, lens, flat)
