"""Seeded randomness services.

Two distinct sources of randomness appear in the paper:

1. **Protocol randomness** — coin flips, the ``r`` random forwarding targets,
   token destinations, ... .  The adversary learns these only after ``b``
   rounds (it is ``b``-late with respect to internal state).
2. **The position hash** ``h : V x N -> [0, 1)`` — a uniform hash known to all
   *nodes* which determines node ``v``'s position in overlay epoch ``e``.
   Lemma 16 requires the adversary to be oblivious of these positions, so ``h``
   is modelled as a keyed pseudo-random function whose key the adversary does
   not hold (a random oracle in the paper's analysis).

This module provides both: deterministic per-node RNG streams derived from a
master seed, and :class:`PositionHash`, the keyed hash.  Everything is
reproducible from a single integer seed.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

__all__ = ["RngService", "PositionHash"]

_U64 = float(1 << 64)


class PositionHash:
    """The paper's uniform hash ``h(v, e) -> [0, 1)`` as a keyed BLAKE2b PRF.

    All nodes share the key (they can all evaluate ``h``); the adversary does
    not (cf. Lemma 16 — positions stay hidden until the overlay is used).
    """

    def __init__(self, key: int) -> None:
        self._key = key.to_bytes(16, "little", signed=False)

    def position(self, node_id: int, epoch: int) -> float:
        """Position of ``node_id`` in overlay epoch ``epoch``; uniform in [0, 1)."""
        digest = hashlib.blake2b(
            struct.pack("<qq", node_id, epoch), key=self._key, digest_size=8
        ).digest()
        return struct.unpack("<Q", digest)[0] / _U64

    def positions(self, node_ids, epoch: int) -> np.ndarray:
        """Vectorised :meth:`position` over an iterable of node ids."""
        return np.fromiter(
            (self.position(v, epoch) for v in node_ids),
            dtype=np.float64,
            count=len(node_ids),
        )


class RngService:
    """Hands out independent, reproducible RNG streams.

    Each logical actor (a node, the adversary, a workload generator) gets its
    own ``numpy`` generator seeded via ``SeedSequence`` spawning, so adding an
    actor never perturbs the streams of the others.
    """

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._root = np.random.SeedSequence(seed)

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, *scope: int | str) -> np.random.Generator:
        """A generator keyed by an arbitrary scope tuple (stable across runs)."""
        material = ":".join(str(s) for s in scope).encode()
        digest = hashlib.blake2b(material, digest_size=8).digest()
        entropy = struct.unpack("<Q", digest)[0]
        return np.random.default_rng(np.random.SeedSequence([self._seed, entropy]))

    def node_stream(self, node_id: int) -> np.random.Generator:
        """The protocol RNG of one node."""
        return self.stream("node", node_id)

    def position_hash(self) -> PositionHash:
        """The keyed position hash shared by all nodes (hidden from adversary)."""
        key = int(self.stream("position-hash-key").integers(0, 1 << 63))
        return PositionHash(key)
