"""The A_SAMPLING delivery rule (Listing 2, after King & Saia).

To send a message to a *uniformly random* node, the sender draws a random
target point ``p`` and a random rank offset ``Delta`` uniform on
``[0, R)`` where ``R = ceil(4*c*lam)`` (twice the expected swarm size), and
routes the message to ``S(p)`` with A_ROUTING.  On delivery, the message is
handed to the unique swarm member whose *rank* — its index in the clockwise
ordering of ``S(p)`` starting at the swarm arc's counter-clockwise endpoint —
equals ``Delta``; if no member has that rank the message is discarded.

Uniformity (Lemma 13): conditioned on any population, each node ``w`` is
delivered the message iff ``w in S(p)`` and ``Delta = rank(w)``; since
``Delta`` is uniform and independent of ``p``, every node receives the
message with the same probability ``E[|arc|]/R / ...`` — identical across
nodes.  The discard probability is ``1 - E[|S(p)|]/R ≈ 1/2``.  (If a swarm
ever exceeds ``R`` members — probability ``1/n^k`` — its tail ranks are
unreachable; this is the usual w.h.p. slack.)

The maintained protocol applies the rank rule in one place: the forwarding
plan's ``hit`` test (:class:`repro.core.forwarding.HopPlan`) hands a final
token copy to its holder only when the holder's rank in the window is
``Delta``.  :func:`sampling_recipient` is the same rule for one window.
"""

from __future__ import annotations

import numpy as np

from repro.config import ProtocolParams
from repro.overlay.positions import PositionIndex
from repro.util.intervals import Arc

__all__ = ["draw_sample_rank", "sampling_recipient"]


def draw_sample_rank(rng: np.random.Generator, params: ProtocolParams) -> int:
    """A uniform rank offset ``Delta in [0, sampling_rank_range)``."""
    return int(rng.integers(0, params.sampling_rank_range))


def sampling_recipient(
    index: PositionIndex, p: float, delta: int, params: ProtocolParams
) -> int | None:
    """The node of ``S(p)`` at rank ``delta``, or ``None`` (discard)."""
    ordered = index.ids_in_arc(Arc(p, params.swarm_radius))
    if delta < 0 or delta >= ordered.size:
        return None
    return int(ordered[delta])
