"""Shared-memory byte arenas with length-prefixed object framing.

The sharded round engine (:mod:`repro.sim.shard`) moves its per-round
boundary exchange through ``multiprocessing.shared_memory`` blocks instead
of pickled pipe payloads.  This module supplies the process-agnostic
plumbing that makes that cheap and leak-free:

* **Segment lifecycle** — :func:`create_segment` / :func:`attach_segment` /
  :func:`destroy_segment` wrap :class:`~multiprocessing.shared_memory.SharedMemory`
  with a per-process registry of master-created blocks
  (:func:`live_segments`), so tests and CI can assert that a closed engine
  leaves nothing behind in ``/dev/shm``.  Attaching never unregisters from
  the ``resource_tracker``: its cache is a plain *set*, so the attach-side
  duplicate ``REGISTER`` is an idempotent no-op while a second
  ``UNREGISTER`` would raise inside the tracker process — exactly one
  process (the creating master) unlinks, which also clears the single
  cache entry.
* **Bump allocation** — :class:`ByteArena` hands out aligned extents of one
  flat buffer with O(1) cursor arithmetic and raises :class:`ArenaFull`
  (with the size that would have been needed) instead of growing, so the
  caller owns the regrow-and-retry policy across the process boundary.
* **Framing** — objects are pickled once into length-prefixed frames.
  :class:`FrameEncoder` memoises by object identity: every *distinct*
  object is encoded exactly once per round no matter how many receivers
  reference it, and :class:`FrameDecoder` memoises by frame offset, so the
  decoding process reconstructs the *same sharing structure* — all
  references to one logical message decode to one object.  That mirrors
  what a single ``pickle.dumps`` of a whole payload would have done via its
  internal memo, which is what the receiver-side identity-dedup semantics
  of the protocol layer rely on.
"""

from __future__ import annotations

import pickle
import struct
from multiprocessing import shared_memory

import numpy as np

__all__ = [
    "ArenaFull",
    "ByteArena",
    "FrameEncoder",
    "FrameDecoder",
    "create_segment",
    "attach_segment",
    "close_segment",
    "destroy_segment",
    "live_segments",
    "read_frame",
    "read_array",
]

_LEN = struct.Struct("<Q")  # frame length prefix (8 bytes keeps payloads aligned)

#: Shared-memory blocks created (not merely attached) by this process, by
#: name -> role.  ``destroy_segment`` removes entries; anything left at
#: interpreter exit is a leak (asserted by the shard-smoke CI job).
_LIVE: dict[str, str] = {}


class ArenaFull(RuntimeError):
    """An allocation did not fit the arena; ``needed`` is the minimum
    arena size (bytes) that would have satisfied it."""

    def __init__(self, needed: int) -> None:
        super().__init__(f"arena full: would need {needed} bytes")
        self.needed = needed


# ----------------------------------------------------------------------
# Segment lifecycle
# ----------------------------------------------------------------------


def create_segment(nbytes: int, role: str) -> shared_memory.SharedMemory:
    """Create a shared-memory block and track it in the live registry."""
    shm = shared_memory.SharedMemory(create=True, size=nbytes)
    _LIVE[shm.name] = role
    return shm


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Map an existing block by name (see the module docstring on why the
    attach side leaves the resource tracker alone)."""
    return shared_memory.SharedMemory(name=name)


def close_segment(shm: shared_memory.SharedMemory) -> None:
    """Unmap an attachment without unlinking (the non-owning side)."""
    try:
        shm.close()
    except BufferError:  # pragma: no cover - stray views; exit unmaps anyway
        pass


def destroy_segment(shm: shared_memory.SharedMemory) -> None:
    """Unmap *and* unlink an owned block, dropping it from the registry.

    Unlinking is attempted even when live buffer exports make ``close()``
    fail — the name disappears from ``/dev/shm`` either way, so a teardown
    interrupted by a broken pipe can no longer leak the segment.
    """
    name = shm.name
    try:
        shm.close()
    except BufferError:
        pass
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked
        pass
    _LIVE.pop(name, None)


def live_segments() -> tuple[tuple[str, str], ...]:
    """``(name, role)`` of every still-live block created by this process."""
    return tuple(sorted(_LIVE.items()))


# ----------------------------------------------------------------------
# Bump allocator
# ----------------------------------------------------------------------


class ByteArena:
    """Bump allocator over a slice of one flat buffer.

    Offsets handed out (and expected back by the read helpers) are
    *absolute* positions in ``buf``, so descriptors cross the process
    boundary as plain integers and the far side reads through its own
    mapping of the same block.
    """

    __slots__ = ("buf", "base", "size", "_cursor")

    def __init__(self, buf: memoryview, base: int = 0, size: int | None = None):
        self.buf = buf
        self.base = base
        self.size = len(buf) - base if size is None else size
        self._cursor = base

    @property
    def used(self) -> int:
        """Bytes consumed since the last :meth:`reset`."""
        return self._cursor - self.base

    def reset(self) -> None:
        self._cursor = self.base

    def alloc(self, nbytes: int, align: int = 8) -> int:
        """Reserve ``nbytes`` (aligned); returns the absolute offset."""
        start = -(-self._cursor // align) * align
        end = start + nbytes
        if end > self.base + self.size:
            raise ArenaFull(self.used + (end - self._cursor))
        self._cursor = end
        return start

    def put_bytes(self, payload: bytes) -> int:
        """Write one length-prefixed frame; returns its offset."""
        off = self.alloc(_LEN.size + len(payload))
        _LEN.pack_into(self.buf, off, len(payload))
        self.buf[off + _LEN.size : off + _LEN.size + len(payload)] = payload
        return off

    def put_array(self, arr: np.ndarray) -> int:
        """Copy a 1-D array into the arena; returns its offset.

        The element count is *not* stored — descriptors carry it, and
        :func:`read_array` maps a view back over the bytes.
        """
        nbytes = arr.nbytes
        off = self.alloc(nbytes, align=max(8, arr.dtype.itemsize))
        np.frombuffer(self.buf, dtype=arr.dtype, count=arr.size, offset=off)[
            :
        ] = arr
        return off


def read_frame(buf: memoryview, offset: int) -> memoryview:
    """The payload bytes of the frame written at ``offset``."""
    (length,) = _LEN.unpack_from(buf, offset)
    return buf[offset + _LEN.size : offset + _LEN.size + length]


def read_array(
    buf: memoryview, offset: int, dtype: np.dtype, count: int
) -> np.ndarray:
    """A zero-copy view over an array written by :meth:`ByteArena.put_array`."""
    return np.frombuffer(buf, dtype=dtype, count=count, offset=offset)


# ----------------------------------------------------------------------
# Object framing
# ----------------------------------------------------------------------


class FrameEncoder:
    """Encode each distinct object into its arena exactly once per cycle.

    The memo keys on object identity and pins a reference to every encoded
    object (so an id cannot be recycled mid-cycle).  Reset it together with
    the arena: offsets in the memo are only meaningful for the extent the
    arena handed out since its own last reset.
    """

    __slots__ = ("arena", "_memo", "_keep")

    def __init__(self, arena: ByteArena) -> None:
        self.arena = arena
        self._memo: dict[int, int] = {}
        self._keep: list[object] = []

    def reset(self) -> None:
        self._memo.clear()
        self._keep.clear()

    def encode(self, obj: object) -> int:
        """The frame offset for ``obj`` (written on first sight)."""
        key = id(obj)
        off = self._memo.get(key)
        if off is None:
            off = self.arena.put_bytes(
                pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
            )
            self._memo[key] = off
            self._keep.append(obj)
        return off


class FrameDecoder:
    """Decode frames with per-offset memoisation (identity reconstruction).

    Two references that were encoded as the same frame decode to the *same*
    object — the cross-process analogue of pickle's payload-internal memo.
    """

    __slots__ = ("buf", "_memo")

    def __init__(self, buf: memoryview) -> None:
        self.buf = buf
        self._memo: dict[int, object] = {}

    def reset(self) -> None:
        self._memo.clear()

    def decode(self, offset: int) -> object:
        if offset in self._memo:
            return self._memo[offset]
        obj = pickle.loads(read_frame(self.buf, offset))
        self._memo[offset] = obj
        return obj
