"""Message types of the maintenance protocol (Listings 3 and 4).

All payloads are immutable so multicasts can share one instance.  Every type
but :class:`CreateBatch` compares by value; a ``CreateBatch`` is columnar (two
NumPy arrays) and compares by identity.

* :class:`JoinRecord` — "node ``v`` will sit at position ``pos`` in overlay
  epoch ``epoch``"; the content of a ``JOIN`` message.
* :class:`JoinBatch` — the even-round rebroadcast of freshly delivered join
  records to the current holders of the three Definition-5 neighbourhoods
  (Listing 3, line 10).  Receivers store them as handover records ``H``.
* :class:`CreateBatch` — odd-round matchmaking introductions: "these nodes
  are your neighbours in the next overlay" (Listing 3, ``CREATE``), as an id
  column and a position column.
* :class:`TokenMsg` — a token travelling *directly* (step 3 of A_RANDOM's
  distribution: mature node forwards a sampled token to a connected fresh
  node).  Tokens inside A_ROUTING travel as routed payloads instead.
* :class:`ConnectMsg` — ``CONNECT(v)``: request to register fresh node ``v``
  in one of the receiver's ``2*delta`` slots.
* :class:`TokenGrant` — the bootstrap handshake: a node supplies a newcomer
  with its first tokens (Listing 4, "Upon v joining").

Routed payloads (carried inside :class:`repro.routing.messages.RoutedMessage`)
are tagged tuples: ``("join", JoinRecord)``, ``("token", owner_id)`` and
``("probe", probe_id)``.  The DHT layer (:mod:`repro.core.dht`) adds
``("put", …)`` and ``("get", …)``; its two direct messages,
``StashTransfer`` and ``DhtResponse``, are registered like the types here:
each carries the ``__protocol__`` marker and an entry in
``protocol-spec.json``.

Every type pickles as ``(class, constructor args)`` through its own
``__reduce__``: the state hooks ``dataclass(slots=True)`` generates call
``dataclasses.fields()`` per object, which was the largest single cost of
the sharded engine's boundary exchange (tens of thousands of records per
round).  A new field must be added to its class's ``__reduce__`` too — the
pickle round-trip tests compare every field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "JoinRecord",
    "JoinBatch",
    "CreateBatch",
    "TokenMsg",
    "ConnectMsg",
    "TokenGrant",
]


@dataclass(frozen=True, slots=True)
class JoinRecord:
    """A node's position in an upcoming overlay epoch."""

    __protocol__ = True

    node: int
    pos: float
    epoch: int

    def __reduce__(self):
        return JoinRecord, (self.node, self.pos, self.epoch)


@dataclass(frozen=True, slots=True)
class JoinBatch:
    """Rebroadcast of join records to a current-overlay neighbour."""

    __protocol__ = True

    records: tuple[JoinRecord, ...]

    def __reduce__(self):
        return JoinBatch, (self.records,)


@dataclass(frozen=True, slots=True, eq=False)
class CreateBatch:
    """Introductions: the receiver's neighbours in overlay ``epoch``.

    Columnar: neighbour ``i`` is node ``nodes[i]`` (``int32``) at position
    ``poses[i]`` (``float64``) — ``h(nodes[i], epoch)`` by construction, so
    the same id carries the same position in every batch of one epoch.  The
    producer cuts both columns as *views* out of one flat array pair per
    handover index, which every batch of that index shares; a pickled batch
    carries its own slice only.  Do not write to the columns.

    Batches compare and hash by identity (``eq=False``): senders that share
    a handover index send the same object, and receivers deduplicate on it.
    """

    __protocol__ = True

    nodes: np.ndarray
    poses: np.ndarray
    epoch: int

    def __reduce__(self):
        return CreateBatch, (self.nodes, self.poses, self.epoch)


@dataclass(frozen=True, slots=True)
class TokenMsg:
    """A token (= the id of a mature node willing to be contacted)."""

    __protocol__ = True

    owner: int

    def __reduce__(self):
        return TokenMsg, (self.owner,)


@dataclass(frozen=True, slots=True)
class ConnectMsg:
    """Register fresh node ``node`` with the receiver (fills a slot)."""

    __protocol__ = True

    node: int

    def __reduce__(self):
        return ConnectMsg, (self.node,)


@dataclass(frozen=True, slots=True)
class TokenGrant:
    """Initial token supply handed to a newly joined node."""

    __protocol__ = True

    tokens: tuple[int, ...]

    def __reduce__(self):
        return TokenGrant, (self.tokens,)
