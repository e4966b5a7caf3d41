"""Bootstrap: construct the initial overlay ``D_0`` churn-free.

The paper assumes the network starts from a valid LDS built during a
churn-free bootstrap phase using the deterministic overlay-construction
algorithms of Gmyr et al. [14] (``O(log^2 n)`` rounds, polylog congestion) and
explicitly omits the details.  We do the same: :func:`prime_initial_overlay`
computes the epoch-0 positions ``h(v, 0)`` and installs each node's
Definition-5 neighbourhood directly.  Everything after round 0 — including
the first ``lam+2`` epochs of the join pipeline filling up — runs through the
real message-level protocol.
"""

from __future__ import annotations

from repro.core.node import MaintenanceNode
from repro.overlay.lds import LDSGraph
from repro.overlay.positions import PositionIndex
from repro.sim.engine import Engine

__all__ = ["prime_initial_overlay"]


def prime_initial_overlay(engine: Engine, constructed: bool = False) -> LDSGraph:
    """Install ``D_0`` on all seeded nodes; returns the ground-truth graph.

    With ``constructed=True`` the neighbourhoods come from the message-level
    bootstrap construction (:mod:`repro.core.construction`, run on a sibling
    engine sharing this engine's parameters and position hash semantics)
    rather than from the oracle — removing the reproduction's one shortcut.
    """
    if engine.round != 0:
        raise RuntimeError("the initial overlay must be primed before round 0")
    # Evaluating through the epoch cache pre-warms the shared epoch-0 table,
    # so the first cutover-free rounds intern their indexes against an
    # already-populated slab.
    position = engine.services.epoch_cache.position
    positions = {v: position(v, 0) for v in sorted(engine.alive)}
    graph = LDSGraph(PositionIndex(positions), engine.params)
    if constructed:
        from repro.core.construction import build_initial_overlay_distributed

        built, _rounds = build_initial_overlay_distributed(engine.params)
        for v, pos in positions.items():
            node = engine.protocol_of(v)
            if not isinstance(node, MaintenanceNode):
                raise TypeError(f"node {v} is not a MaintenanceNode")
            node.prime(epoch=0, pos=pos, neighbors=dict(built[v]))
        return graph
    for v, pos in positions.items():
        node = engine.protocol_of(v)
        if not isinstance(node, MaintenanceNode):
            raise TypeError(f"node {v} is not a MaintenanceNode")
        neighbors = {int(w): positions[int(w)] for w in graph.neighbors(v)}
        node.prime(epoch=0, pos=pos, neighbors=neighbors)
    return graph
