"""Shared utilities: ring-interval algebra, address bits, RNG services, tables."""

from repro.util.bits import (
    address_from_bits,
    address_of,
    bits_of_address,
    debruijn_prefix_address,
    debruijn_step,
    num_address_bits,
    point_of,
)
from repro.util.intervals import (
    Arc,
    arc_union_length,
    arcs_overlap,
    is_left_of,
    ring_distance,
    ring_distance_array,
    wrap,
    wrap_array,
)
from repro.util.rngs import PositionHash, RngService
from repro.util.tables import format_markdown_table, format_table, format_value

__all__ = [
    "Arc",
    "PositionHash",
    "RngService",
    "address_from_bits",
    "address_of",
    "arc_union_length",
    "arcs_overlap",
    "bits_of_address",
    "debruijn_prefix_address",
    "debruijn_step",
    "format_markdown_table",
    "format_table",
    "format_value",
    "is_left_of",
    "num_address_bits",
    "point_of",
    "ring_distance",
    "ring_distance_array",
    "wrap",
    "wrap_array",
]
