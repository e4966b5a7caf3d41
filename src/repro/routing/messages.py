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
(:mod:`repro.sim.hopplane`), which carries the message's columns beside it —
its :func:`launch_key`, final step, :func:`classify_payload` class, sample
rank, target and trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.overlay.trajectory import trajectory

__all__ = ["RoutedMessage", "make_routed_message", "launch_key", "classify_payload"]

#: Payload classes (the plane's ``int8`` class column).  ``RECORD`` — recorded
#: on arrival (probes, DHT ops, unknown payloads): ``_deliver`` never draws
#: rng for it.  ``RANKED`` — a token with a sample rank: state changes (and
#: rng draws) happen only at the node whose rank in the target swarm equals
#: it.  ``NOOP`` — a token without a sample rank, ignored on arrival.
#: ``JOIN`` — a join record, rebroadcast where its route ends.
RECORD, RANKED, NOOP, JOIN = 0, 1, 2, 3

#: ``(field, bits)`` of :func:`launch_key`, most significant first: 63 bits.
_KEY_FIELDS = (("start_round", 26), ("origin", 24), ("ordinal", 13))


def launch_key(start_round, origin, ordinal):
    """A routed message's identity: ``start_round``, ``origin`` and the
    origin's launch ordinal within that round, packed into one ``int64``.

    Works on ints and on integer arrays alike.  A field outside its width
    raises :class:`OverflowError` instead of wrapping into its neighbour.
    """
    key = 0
    for (name, bits), value in zip(_KEY_FIELDS, (start_round, origin, ordinal)):
        if np.any(np.less(value, 0)) or np.any(np.greater_equal(value, 1 << bits)):
            raise OverflowError(f"launch key field {name} outside [0, 2**{bits})")
        key = (key << bits) | value
    return key


def classify_payload(payload: object, sample_rank: int | None) -> int:
    """The :data:`RECORD` / :data:`RANKED` / :data:`NOOP` / :data:`JOIN` class
    of a routed payload."""
    if isinstance(payload, tuple) and payload:
        tag = payload[0]
        if tag == "token":
            return NOOP if sample_rank is None else RANKED
        if tag == "join":
            return JOIN
    return RECORD


@dataclass(frozen=True, slots=True)
class RoutedMessage:
    """One routing request (shared by all of its in-flight copies).

    ``msg_id`` is any hashable value; the maintenance protocol uses tuples
    like ``("join", node, epoch, origin)``.  The hop plane identifies a
    message by its :attr:`key` — ``(start_round, origin, ordinal)`` — so
    requests one origin launches in one round carry distinct ordinals.
    """

    msg_id: object
    origin: int
    target: float
    trajectory: tuple[float, ...]
    start_round: int
    sample_rank: int | None = None
    payload: object = None
    #: The origin's launch ordinal in ``start_round`` (see :func:`launch_key`).
    ordinal: int = 0
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
            self.ordinal,
        )

    @property
    def key(self) -> int:
        """The :func:`launch_key` the hop plane identifies this message by."""
        return launch_key(self.start_round, self.origin, self.ordinal)

    @property
    def payload_class(self) -> int:
        """The :func:`classify_payload` class of this request."""
        return classify_payload(self.payload, self.sample_rank)

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
    ordinal: int = 0,
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
        ordinal=ordinal,
    )
