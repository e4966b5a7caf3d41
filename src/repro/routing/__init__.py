"""Routing algorithms: A_ROUTING, A_SAMPLING, and the greedy LDG baseline."""

from repro.routing.greedy import GreedyOutcome, GreedyRouter
from repro.routing.messages import (
    RoutedMessage,
    classify_payload,
    launch_key,
    make_routed_message,
)
from repro.routing.sampling import draw_sample_rank, rank_in_swarm, sampling_recipient
from repro.routing.series import RoutingOutcome, SeriesRouter

__all__ = [
    "GreedyOutcome",
    "GreedyRouter",
    "RoutedMessage",
    "RoutingOutcome",
    "SeriesRouter",
    "classify_payload",
    "draw_sample_rank",
    "launch_key",
    "make_routed_message",
    "rank_in_swarm",
    "sampling_recipient",
]
