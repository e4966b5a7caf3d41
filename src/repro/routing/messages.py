"""Message types for A_ROUTING / A_SAMPLING.

A :class:`RoutedMessage` is the immutable description of one routing request:
origin, target point, the full trajectory (computed once at the origin, per
Definition 7 — all forwarding decisions derive from it), an optional sampling
rank ``Delta`` (set by A_SAMPLING, ``None`` for plain swarm delivery) and an
application payload.

What actually travels is a *hop*: the shared message plus the step index
``k`` — the hop's recipients are (supposed to be) members of the swarm
``S(x_k)`` of trajectory point ``x_k``.  Hops have no object of their own:
each ``(message, step)`` pair is one row of the columnar hop plane
(:mod:`repro.sim.hopplane`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.overlay.trajectory import trajectory

__all__ = ["RoutedMessage", "make_routed_message"]


@dataclass(frozen=True, slots=True)
class RoutedMessage:
    """One routing request (shared by all of its in-flight copies).

    ``msg_id`` is any hashable value; the maintenance protocol uses tuples
    like ``("join", node, epoch, origin)`` so that logically identical
    requests deduplicate at receivers.
    """

    msg_id: object
    origin: int
    target: float
    trajectory: tuple[float, ...]
    start_round: int
    sample_rank: int | None = None
    payload: object = None
    #: Index of the last trajectory point (``lam + 1``).  Precomputed in
    #: ``__post_init__`` (not a property): forwarding reads it per hop.
    final_step: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "final_step", len(self.trajectory) - 1)

    def __reduce__(self):
        # Constructor arguments only (``final_step`` is recomputed): the
        # state hooks ``dataclass(slots=True)`` generates call
        # ``dataclasses.fields()`` per object — see repro.core.messages.
        return RoutedMessage, (
            self.msg_id,
            self.origin,
            self.target,
            self.trajectory,
            self.start_round,
            self.sample_rank,
            self.payload,
        )

    @property
    def is_sampling(self) -> bool:
        """Whether this request uses A_SAMPLING's rank-Delta delivery rule."""
        return self.sample_rank is not None


def make_routed_message(
    msg_id: object,
    origin: int,
    origin_position: float,
    target: float,
    lam: int,
    start_round: int,
    sample_rank: int | None = None,
    payload: object = None,
    trajectory_fn: object = None,
) -> RoutedMessage:
    """Build a request with its trajectory precomputed.

    ``trajectory_fn(origin_position, target, lam)`` defaults to the
    Definition-7 De Bruijn trajectory; the Chord-swarm transfer passes
    :func:`repro.overlay.chordswarm.chord_trajectory` instead.  Any function
    producing ``lam + 2`` points whose consecutive swarms are adjacent in
    the underlying topology works.
    """
    fn = trajectory if trajectory_fn is None else trajectory_fn
    return RoutedMessage(
        msg_id=msg_id,
        origin=origin,
        target=target,
        trajectory=fn(origin_position, target, lam),
        start_round=start_round,
        sample_rank=sample_rank,
        payload=payload,
    )
