#!/usr/bin/env python3
"""Quickstart: build an LDS, route a message, sample a random peer.

This walks the three layers of the library bottom-up:

1. the Linearized De Bruijn Swarm topology (Definition 5),
2. swarm-to-swarm routing A_ROUTING on a routable series (Section 4),
3. uniform peer sampling A_SAMPLING (Lemma 13).

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.config import ProtocolParams
from repro.overlay.lds import LDSGraph, required_neighbor_arcs
from repro.routing.series import SeriesRouter


def main() -> None:
    params = ProtocolParams(n=128, seed=42)
    print("=== Parameters ===")
    for key, value in params.describe().items():
        print(f"  {key:>22}: {value}")

    # ------------------------------------------------------------------
    # 1. Topology: a random LDS instance.
    # ------------------------------------------------------------------
    rng = np.random.default_rng(42)
    graph = LDSGraph.random(params, rng)
    dmin, dmean, dmax = graph.degree_stats()
    print("\n=== LDS topology ===")
    print(f"  nodes: {len(graph)}, edges: {graph.edge_count()}")
    print(f"  degree min/mean/max: {dmin}/{dmean:.1f}/{dmax}  (Theta(log n))")
    v = int(graph.node_ids[0])
    p = graph.index.position(v)
    print(f"  node {v} @ {p:.4f}: {graph.degree(v)} neighbours, in the arcs")
    for name, arc in zip(("list", "De Bruijn p/2", "De Bruijn (p+1)/2"),
                         required_neighbor_arcs(p, params)):
        print(f"    {name:>17}: {graph.index.ids_in_arc(arc).size} nodes")
    bad = graph.swarm_violations(rng.random(10))
    print(f"  swarm property (Lemma 6) holds at 10 random points: {bad == 0}")

    # ------------------------------------------------------------------
    # 2. Routing on a reconfiguring routable series.
    # ------------------------------------------------------------------
    print("\n=== A_ROUTING (Lemma 9) ===")
    router = SeriesRouter(params, seed=42)
    targets = rng.random(10)
    ids = [router.send(int(i * 12), float(t)) for i, t in enumerate(targets)]
    router.run_until_quiet()
    for msg_id in ids:
        out = router.outcomes[msg_id]
        print(
            f"  msg {msg_id} -> {out.msg.target:.4f}: delivered={out.delivered} "
            f"dilation={out.dilation} (expected {params.dilation}) "
            f"receivers={len(out.receivers)}"
        )

    # ------------------------------------------------------------------
    # 3. Uniform peer sampling.
    # ------------------------------------------------------------------
    print("\n=== A_SAMPLING (Lemma 13) ===")
    sampler = SeriesRouter(params, seed=7, reconfigure=False)
    sample_ids = [sampler.send_sample(0) for _ in range(40)]
    sampler.run_until_quiet()
    hits = [
        sampler.outcomes[i].sample_receiver
        for i in sample_ids
        if sampler.outcomes[i].sample_receiver is not None
    ]
    print(f"  40 samples -> {len(hits)} delivered (discard ~1/2 by design)")
    print(f"  sampled peers: {sorted(set(hits))[:12]} ...")


if __name__ == "__main__":
    main()
