#!/usr/bin/env python3
"""Overlay anatomy: see the LDS, the Chord transfer, and a rebuild — in text.

Renders the ring density, one node's Definition-5 arcs (Figure 1 in ASCII),
the Chord-swarm finger arcs of the same node, and how the whole population
scatters between two consecutive overlay epochs (the adversary's problem).

Run:  python examples/overlay_anatomy.py
"""

from __future__ import annotations

import numpy as np

from repro.config import ProtocolParams
from repro.overlay.chordswarm import ChordSwarmGraph, chord_finger_arcs
from repro.overlay.lds import LDSGraph
from repro.util.ringviz import render_arcs, render_density, render_node_anatomy
from repro.util.rngs import RngService


def main() -> None:
    params = ProtocolParams(n=96, seed=11)
    rng = np.random.default_rng(11)
    graph = LDSGraph.random(params, rng)
    v = int(graph.node_ids[len(graph) // 3])

    print("=== Figure 1, in ASCII: one LDS node's neighbourhood arcs ===")
    print(render_node_anatomy(graph, v, width=72))
    listed = graph.index.ids_within(graph.index.position(v), params.list_radius)
    print(
        f"\n  degree of node {v}: {graph.degree(v)} "
        f"({listed.size - 1} in its list arc, the rest in its De Bruijn arcs only)"
    )

    print("\n=== The Chord-swarm transfer: same node, finger arcs ===")
    chord = ChordSwarmGraph(graph.index, params)
    p = graph.index.position(v)
    arcs = {
        f"finger 2^-{i}": arc
        for i, arc in enumerate(chord_finger_arcs(p, params), start=1)
        if i <= 5
    }
    print(render_arcs(arcs, width=72))
    print(f"  chord degree of node {v}: {int(chord.neighbors(v).size)}")

    print("\n=== Reconfiguration: the same nodes, two consecutive epochs ===")
    h = RngService(11).position_hash()
    epoch3 = {w: h.position(w, 3) for w in range(params.n)}
    center = epoch3[v]
    cluster = [
        w
        for w, q in epoch3.items()
        if min(abs(q - center), 1 - abs(q - center)) <= 0.06
    ]
    for epoch in (3, 4):
        positions = {w: h.position(w, epoch) for w in cluster}
        print(f"epoch {epoch}: positions of the {len(cluster)} nodes clustered "
              f"around node {v} in epoch 3")
        print(render_density(positions, width=72))
    print(
        "\nthe cluster the adversary saw in epoch 3 is uniformly scattered in "
        "epoch 4 —\nits 2-rounds-stale knowledge points at nothing."
    )


if __name__ == "__main__":
    main()
