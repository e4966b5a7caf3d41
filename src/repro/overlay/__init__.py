"""Overlay topologies: position tables, swarms, the LDS and the LDG baseline."""

from repro.overlay.chordswarm import ChordSwarmGraph, chord_finger_arcs, chord_trajectory
from repro.overlay.estimation import (
    all_node_estimates,
    estimate_lambda,
    local_size_estimate,
    median_size_estimate,
    params_from_estimate,
)
from repro.overlay.lds import (
    LDSGraph,
    arc_centers,
    build_lds,
    current_epoch,
    neighbor_arc_slots,
    required_neighbor_arcs,
)
from repro.overlay.ldg import LDGGraph
from repro.overlay.positions import PositionIndex
from repro.overlay.swarm import (
    SwarmStats,
    audit_goodness,
    swarm_arc,
    swarm_members,
    swarm_sizes,
    swarm_violations,
)
from repro.overlay.trajectory import (
    crossing_counts,
    max_step_error,
    trajectories,
    trajectory,
    trajectory_bits,
)

__all__ = [
    "ChordSwarmGraph",
    "LDGGraph",
    "LDSGraph",
    "PositionIndex",
    "SwarmStats",
    "all_node_estimates",
    "arc_centers",
    "audit_goodness",
    "build_lds",
    "chord_finger_arcs",
    "chord_trajectory",
    "crossing_counts",
    "current_epoch",
    "estimate_lambda",
    "local_size_estimate",
    "median_size_estimate",
    "params_from_estimate",
    "max_step_error",
    "neighbor_arc_slots",
    "required_neighbor_arcs",
    "swarm_arc",
    "swarm_members",
    "swarm_sizes",
    "swarm_violations",
    "trajectories",
    "trajectory",
    "trajectory_bits",
]
