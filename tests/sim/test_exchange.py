"""Unit tests for the shard boundary-exchange encoders/decoders.

The contract under test is *identity-preserving round-trips*: whatever the
PR 7 pipe payloads carried, the arena encoding must reproduce — including
the sharing structure (one logical message -> one decoded object per
process per round) and the message table's columns, whose launch keys
plane-row interning, and with it receiver-side hop dedup, keys on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.routing.messages import RoutedMessage
from repro.sim import exchange
from repro.sim.hopplane import HopDelivery, HopPlane, HopRows
from repro.util.arena import ArenaFull, ByteArena, FrameDecoder, FrameEncoder

from .hops import file_hops


def _msg(i: int, payload: object = None) -> RoutedMessage:
    return RoutedMessage(
        msg_id=("t", i),
        origin=i,
        target=0.25,
        trajectory=(0.1, 0.2, 0.3),
        start_round=4,
        payload=payload,
    )


def _pack(*sends):
    """``HopPlane.pack()`` — ``(table, rows, lens, flat)``, the send columns
    int32 arrays — of ``(src, msg, step, dsts)`` sends."""
    plane = HopPlane()
    file_hops(plane, sends)
    return plane.pack()


def _columns(pack):
    """The ``steps, rows, lens, flat`` columns of a pack, as lists."""
    return [pack[0].steps.tolist()] + [col.tolist() for col in pack[1:]]


def _same_table(a: HopRows, b: HopRows) -> bool:
    """Equal array columns (dtypes included) and equal message ids."""
    cols = ("keys", "steps", "fsteps", "cls", "srank", "target", "traj")
    return [m.msg_id for m in a.msgs] == [m.msg_id for m in b.msgs] and all(
        getattr(a, c).dtype == getattr(b, c).dtype
        and np.array_equal(getattr(a, c), getattr(b, c))
        for c in cols
    )


#: An empty ``HopPlane.pack()``.
NO_HOPS = _pack()


def _codec(nbytes: int = 1 << 16):
    buf = memoryview(bytearray(nbytes))
    arena = ByteArena(buf)
    return buf, arena, FrameEncoder(arena), FrameDecoder(buf)


# ----------------------------------------------------------------------
# Downlink
# ----------------------------------------------------------------------


class TestDownlinkShared:
    def test_none_passthrough(self):
        buf, arena, enc, dec = _codec()
        assert exchange.encode_downlink_shared(arena, enc, None) is None
        assert exchange.decode_downlink_shared(buf, dec, None) is None

    def test_roundtrip_shares_repeated_messages(self):
        buf, arena, enc, dec = _codec()
        m0, m1 = _msg(0), _msg(1, payload=("token", 3))
        delivery = HopDelivery(
            table=HopRows.of([m0, m1, m0], [1, 2, 3]),  # m0 appears on two rows
            rows={7: np.array([0, 2], dtype=np.int32)},
            counts={7: 2},
            total=2,
        )
        desc = exchange.encode_downlink_shared(arena, enc, delivery)
        table = exchange.decode_downlink_shared(buf, dec, desc)
        assert _same_table(table, delivery.table)  # every column, as arrays
        msgs = table.msgs
        assert msgs[0] is msgs[2]  # one frame, one decoded object
        assert msgs[0] is not msgs[1]


class TestDownlinkBand:
    def test_control_and_inboxes_roundtrip(self):
        buf, arena, enc, dec = _codec()
        m = _msg(5, payload=("probe", 9))
        control = ((3, 4), (), (1, 8), [])
        inboxes = {
            2: [(10, m), (11, m), (12, "token")],
            6: [],
        }
        hop_rows = {2: np.array([0, 3, 5], dtype=np.int32)}
        desc = exchange.encode_downlink_band(arena, enc, control, inboxes, hop_rows)
        out_control, out_inboxes, out_rows = exchange.decode_downlink_band(
            buf, dec, desc
        )
        assert out_control == control
        assert set(out_inboxes) == {2, 6}
        assert out_inboxes[6] == []
        senders = [s for s, _m in out_inboxes[2]]
        assert senders == [10, 11, 12]
        m0, m1 = out_inboxes[2][0][1], out_inboxes[2][1][1]
        # two references to one RoutedMessage decode to one object —
        # identity interning on the receiving side depends on this
        assert m0.msg_id == m.msg_id and m0 is m1
        assert out_inboxes[2][2][1] == "token"
        np.testing.assert_array_equal(out_rows[2], hop_rows[2])

    def test_empty_band(self):
        buf, arena, enc, dec = _codec()
        desc = exchange.encode_downlink_band(arena, enc, ((), (), (), []), {}, None)
        control, inboxes, rows = exchange.decode_downlink_band(buf, dec, desc)
        assert control == ((), (), (), [])
        assert inboxes == {}
        assert rows == {}

    def test_shared_frames_span_band_payloads(self):
        # A message delivered to two bands is framed once: both band
        # payloads reference the same offset through the shared encoder.
        buf, arena, enc, dec = _codec()
        m = _msg(1)
        d1 = exchange.encode_downlink_band(arena, enc, (), {0: [(9, m)]}, None)
        d2 = exchange.encode_downlink_band(arena, enc, (), {1: [(9, m)]}, None)
        _, in1, _ = exchange.decode_downlink_band(buf, dec, d1)
        _, in2, _ = exchange.decode_downlink_band(buf, dec, d2)
        assert in1[0][0][1] is in2[1][0][1]


# ----------------------------------------------------------------------
# Uplink
# ----------------------------------------------------------------------


class TestUplink:
    def test_all_item_tags_roundtrip(self):
        """The column log of singles and batches (every send call files into
        the same ``(dsts, msgs)`` columns)."""
        from repro.sim.shard import _SendLog

        buf, arena, enc, dec = _codec()
        m = _msg(2)
        log = _SendLog()
        log.send(4, np.int64(4), m)
        log.send_singles_batch(4, [(5, "grant"), (6, m)])
        log.mark(4)
        log.send_singles_batch(5, [(7, m), (8, m), (9, m)])
        log.send_singles_batch(5, [])
        log.mark(5)
        assert log.dsts == [4, 5, 6, 7, 8, 9]
        assert all(type(d) is int for d in log.dsts)
        assert log.marks == [(4, 3, 0), (5, 6, 0)]
        marks = [(4, 3, 1), (5, 6, 2)]
        pack = _pack((4, m, 1, [4]), (4, _msg(3), 1, [5]), (5, m, 2, [6]))
        assert pack[0].msgs[0] is pack[0].msgs[2] is m
        assert _columns(pack) == [[1, 1, 2], [0, 1, 2], [1, 1, 1], [4, 5, 6]]
        desc = exchange.encode_uplink(arena, enc, log.dsts, log.msgs, marks, pack)
        out_dsts, out_msgs, out_marks, plane = exchange.decode_uplink(buf, dec, desc)
        assert out_marks == marks
        assert out_dsts == log.dsts and all(type(d) is int for d in out_dsts)
        assert out_msgs[1] == "grant"
        # every reference to the one message — from any send call and on any
        # plane row — decodes to the same object
        m_s, _, m_b, *m_m = out_msgs
        assert m_s.msg_id == m.msg_id
        assert m_s is m_b is plane[0].msgs[0] is plane[0].msgs[2]
        assert all(copy is m_s for copy in m_m) and len(m_m) == 3
        assert plane[0].msgs[1] is not m_s

    def test_plane_pack_roundtrip(self):
        buf, arena, enc, dec = _codec()
        m0, m1 = _msg(0), _msg(1)
        pack = _pack((3, m0, 1, [10, 11]), (3, m1, 2, [12]))
        desc = exchange.encode_uplink(arena, enc, [], [], [], pack)
        *_sends, out = exchange.decode_uplink(buf, dec, desc)
        assert _same_table(out[0], pack[0])
        assert all(col.dtype == np.int32 for col in out[1:])
        assert _columns(out) == [[1, 2], [0, 1], [2, 1], [10, 11, 12]]
        # the decoded columns own their memory (no view into the slab)
        table = out[0]
        owned = [*out[1:], table.keys, table.steps, table.cls, table.target, table.traj]
        assert not any(np.shares_memory(col, np.asarray(buf)) for col in owned)

    def test_empty_round(self):
        buf, arena, enc, dec = _codec()
        desc = exchange.encode_uplink(arena, enc, [], [], [], NO_HOPS)
        dsts, msgs, marks, out = exchange.decode_uplink(buf, dec, desc)
        assert (dsts, msgs, marks, out[0].msgs) == ([], [], [], [])
        assert _columns(out) == [[], [], [], []]

    def test_overflow_raises_arena_full(self):
        buf = memoryview(bytearray(256))
        arena = ByteArena(buf)
        enc = FrameEncoder(arena)
        msgs = [_msg(i, payload="x" * 64) for i in range(8)]
        with pytest.raises(ArenaFull) as exc:
            exchange.encode_uplink(arena, enc, [1] * 8, msgs, [(1, 8, 0)], NO_HOPS)
        assert exc.value.needed > 256

    def test_used_bytes_in_descriptor(self):
        buf, arena, enc, dec = _codec()
        desc = exchange.encode_uplink(arena, enc, [1], ["msg"], [(1, 1, 0)], NO_HOPS)
        assert desc[-1] == arena.used > 0
