"""A churn-resistant DHT on top of the maintenance protocol.

The paper's introduction motivates overlays with "search and store
information in the network"; Fiat et al.'s robust DHT (whose swarm idea
Section 3 reuses) is the blueprint.  This module supplies that application
layer: keys hash to points in ``[0, 1)``, each key-value pair is replicated
across the swarm responsible for its point, and — the interesting part —
the stored data *migrates with the overlay*: every two rounds, when the
whole network re-randomises, the current replica swarm hands its items to
the members of the next overlay's swarm (known from the same handover
records ``H`` the router uses).

Message flow (all through A_ROUTING / direct edges the holders already own):

* ``put(key, value)`` — routed payload ``("put", key, value)`` to
  ``S(h_key)``; every delivery replica stores the item.
* ``get(key, requester)`` — routed payload ``("get", key, rid, requester)``;
  each replica that holds the item answers the requester directly with a
  :class:`DhtResponse` (it learned the requester's id from the payload).
* **stash handover** — at every odd round, each replica sends its items for
  point ``p`` to the nodes of ``S_{e+1}(p)`` it knows from ``H``
  (:class:`StashTransfer`); after the cutover, replicas drop items whose
  point no longer falls inside their own swarm range.

Durability is exactly the goodness argument: as long as ≥ 3/4 of each swarm
survives two rounds, some replica always carries the item across.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.node import MaintenanceNode, Phase
from repro.sim.engine import EngineServices, NodeContext

__all__ = ["StashTransfer", "DhtResponse", "key_point", "DHTNode"]


@dataclass(frozen=True)
class StashTransfer:
    """Replica items handed to the next overlay's responsible swarm."""

    __protocol__ = True

    items: tuple[tuple[str, object], ...]  # (key, value) pairs


@dataclass(frozen=True)
class DhtResponse:
    """A replica's answer to a GET."""

    __protocol__ = True

    request_id: object
    key: str
    value: object
    found: bool


def key_point(key: str) -> float:
    """Deterministic point of a key (public, like the paper's hash h).

    Uses a fixed-key BLAKE2b so every node maps keys identically.  The
    adversary may know key placements — durability rests on the *node*
    positions being hidden, not the data positions.
    """
    import hashlib
    import struct

    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return struct.unpack("<Q", digest)[0] / float(1 << 64)


class DHTNode(MaintenanceNode):
    """A maintenance node that additionally replicates key-value data."""

    def __init__(self, node_id: int, services: EngineServices) -> None:
        super().__init__(node_id, services)
        #: Local replicas: key -> (point, value).
        self.store: dict[str, tuple[float, object]] = {}
        #: GET responses received (for requesters): request_id -> response.
        self.responses: dict[object, DhtResponse] = {}
        self._op_counter = 0
        self._pending_ops: list[tuple[str, str, object]] = []  # (op, key, extra)

    # ------------------------------------------------------------------
    # Client API (called by the runner between rounds)
    # ------------------------------------------------------------------

    def queue_put(self, key: str, value: object) -> None:
        """Replicate ``value`` under ``key`` (launches next even round)."""
        self._pending_ops.append(("put", key, value))

    def queue_get(self, key: str) -> object:
        """Look ``key`` up; returns a request id to match the response."""
        rid = (self.id, self._op_counter)
        self._op_counter += 1
        self._pending_ops.append(("get", key, rid))
        return rid

    # ------------------------------------------------------------------
    # Protocol extension points
    # ------------------------------------------------------------------

    def _prepare(self, ctx: NodeContext):
        # Split off DHT-specific direct messages before the base protocol
        # processes the rest.
        remainder = []
        for src, msg in ctx.inbox:
            if isinstance(msg, StashTransfer):
                for key, value in msg.items:
                    self._maybe_store(key, value)
            elif isinstance(msg, DhtResponse):
                existing = self.responses.get(msg.request_id)
                if existing is None or (not existing.found and msg.found):
                    self.responses[msg.request_id] = msg
            else:
                remainder.append((src, msg))
        ctx.inbox = remainder
        return super()._prepare(ctx)

    def _act(self, ctx: NodeContext, step) -> None:
        super()._act(ctx, step)
        if ctx.round % 2 == 0:
            self._launch_ops(ctx)
            self._evict(ctx)
        else:
            self._handover_stash(ctx)

    # ------------------------------------------------------------------
    # Storage mechanics
    # ------------------------------------------------------------------

    def _maybe_store(self, key: str, value: object) -> None:
        self.store[key] = (key_point(key), value)

    def _launch_ops(self, ctx: NodeContext) -> None:
        if self.phase is not Phase.ESTABLISHED:
            return  # retry next round; ops stay queued
        for op, key, extra in self._pending_ops:
            p = key_point(key)
            payload = (
                ("put", key, extra)
                if op == "put"
                else ("get", key, extra, self.id)
            )
            self._launch_routed(
                ctx, ("dht", op, key, self._op_counter), p, payload=payload
            )
            self._op_counter += 1
        self._pending_ops.clear()

    def _handover_stash(self, ctx: NodeContext) -> None:
        """Odd round: hand every stored item to the next swarm."""
        if self.phase is not Phase.ESTABLISHED or not self.store:
            return
        if not self.h_records:
            return  # bootstrap period: the overlay is not moving
        index = self._h_index_for_stash()
        if index is None:
            return
        by_target: dict[int, list[tuple[str, object]]] = {}
        for key, (point, value) in self.store.items():
            members = self._swarm_from(index, point)
            for w in members:
                w = int(w)
                if w != self.id:
                    by_target.setdefault(w, []).append((key, value))
        for w, items in by_target.items():
            ctx.send(w, StashTransfer(tuple(items)))

    def _h_index_for_stash(self):
        from repro.overlay.positions import PositionIndex

        if not self.h_records:
            return None
        return PositionIndex({v: r.pos for v, r in self.h_records.items()})

    def _evict(self, ctx: NodeContext) -> None:
        """After a cutover, keep only items whose point is in my new range."""
        if self.phase is not Phase.ESTABLISHED:
            return
        self.store = {
            key: (point, value)
            for key, (point, value) in self.store.items()
            if self._in_swarm(point)
        }

    # ------------------------------------------------------------------
    # Delivery handling (PUT arrivals, GET arrivals)
    # ------------------------------------------------------------------

    def _deliver(self, ctx: NodeContext, msg) -> None:
        payload = msg.payload
        tag = payload[0] if isinstance(payload, tuple) else None
        if tag == "put":
            _, key, value = payload
            self._maybe_store(key, value)
            return
        if tag == "get":
            _, key, rid, requester = payload
            stored = self.store.get(key)
            response = DhtResponse(
                request_id=rid,
                key=key,
                value=stored[1] if stored else None,
                found=stored is not None,
            )
            if requester == self.id:
                existing = self.responses.get(rid)
                if existing is None or (not existing.found and response.found):
                    self.responses[rid] = response
            else:
                ctx.send(requester, response)
            return
        super()._deliver(ctx, msg)
