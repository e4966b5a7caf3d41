"""Node identity and lifecycle bookkeeping.

Every node is identified by a unique, immutable integer id (the paper's
"IP address").  The :class:`Lifecycle` registry records when each node joined
and left, which is what churn-window queries like ``V_t ∩ V_{t-2}`` (the
join-via rule) and ``V_{t+T} ∩ V_t`` (the stability constraint) are answered
from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["NodeRecord", "Lifecycle"]


@dataclass
class NodeRecord:
    """Join/leave record of a single node."""

    node_id: int
    joined_round: int
    left_round: int | None = None

    def alive_at(self, t: int) -> bool:
        """Whether the node is in ``V_t``."""
        if t < self.joined_round:
            return False
        return self.left_round is None or t < self.left_round

    def age_at(self, t: int) -> int:
        """Rounds since joining (0 in the join round)."""
        return t - self.joined_round


@dataclass
class Lifecycle:
    """Registry of all node records, past and present."""

    records: dict[int, NodeRecord] = field(default_factory=dict)
    _alive: set[int] = field(default_factory=set)
    # The frozen copy handed out by ``alive``; dropped on every change so
    # churn-free rounds share one object.
    _frozen: frozenset[int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def add(self, node_id: int, joined_round: int) -> NodeRecord:
        if node_id in self.records:
            raise ValueError(f"node id {node_id} already used; ids are immutable")
        rec = NodeRecord(node_id, joined_round)
        self.records[node_id] = rec
        self._alive.add(node_id)
        self._frozen = None
        return rec

    def remove(self, node_id: int, left_round: int) -> None:
        rec = self.records.get(node_id)
        if rec is None or node_id not in self._alive:
            raise KeyError(f"node {node_id} is not alive")
        rec.left_round = left_round
        self._alive.discard(node_id)
        self._frozen = None

    @property
    def alive(self) -> frozenset[int]:
        """Ids of currently alive nodes (one object until the next change)."""
        if self._frozen is None:
            self._frozen = frozenset(self._alive)
        return self._frozen

    def __len__(self) -> int:
        return len(self._alive)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._alive

    def joined_round(self, node_id: int) -> int:
        return self.records[node_id].joined_round

    def age(self, node_id: int, t: int) -> int:
        return self.records[node_id].age_at(t)

    def alive_at(self, t: int) -> set[int]:
        """Reconstruct ``V_t`` from the records (for audits; O(#records))."""
        return {i for i, rec in self.records.items() if rec.alive_at(t)}

    def alive_since(self, t: int, min_age_rounds: int) -> set[int]:
        """Alive nodes that joined at least ``min_age_rounds`` rounds before ``t``."""
        return {
            i
            for i in self._alive
            if self.records[i].joined_round <= t - min_age_rounds
        }

    def next_id(self) -> int:
        """A fresh, never-used node id."""
        return max(self.records, default=-1) + 1
