#!/usr/bin/env python3
"""A DHT that outruns the adversary: store data on a moving target.

The paper's motivation — "search and store information in the network" —
made concrete: key-value pairs are replicated on the swarm responsible for
``h(key)``, and every two rounds, as the whole overlay re-randomises, the
replicas hand the data to the next overlay's responsible swarm.  An
adversary watching the (2-rounds-stale) topology can never tell which nodes
hold which data.

Run:  python examples/dht_storage.py
"""

from __future__ import annotations

from repro.adversary.oblivious import RandomChurnAdversary
from repro.config import ProtocolParams
from repro.core.dht import DHTNode, key_point
from repro.core.runner import MaintenanceSimulation


def replica_count(sim: MaintenanceSimulation, key: str) -> int:
    return sum(1 for v in sim.engine.alive if key in sim.node(v).store)


def main() -> None:
    params = ProtocolParams.calibrated(48, seed=3, alpha=0.25, kappa=1.25)
    adversary = RandomChurnAdversary(params, seed=4)
    sim = MaintenanceSimulation(params, adversary=adversary, node_cls=DHTNode)

    items = {
        "config/root": "v1.0.0",
        "user/alice": {"karma": 42},
        "blob/9f3a": b"\x00\x01\x02".hex(),
    }
    print(f"n={params.n}; storing {len(items)} items, then churning hard...\n")
    sim.run(4)
    for i, (key, value) in enumerate(items.items()):
        sim.node(i).queue_put(key, value)
        print(f"  PUT {key!r} -> swarm at {key_point(key):.4f}")

    sim.run(2 * params.dilation + 6)
    print("\nreplica counts after the PUTs landed:")
    for key in items:
        print(f"  {key!r}: {replica_count(sim, key)} replicas")

    epochs_before = sim.audit_overlay().epoch
    sim.run(60)  # ~30 complete overlay rebuilds under continuous churn
    epochs_after = sim.audit_overlay().epoch
    print(
        f"\n...{epochs_after - epochs_before} complete overlay rebuilds and "
        f"{len(sim.engine.lifecycle.records) - params.n} churn events later:"
    )
    for key in items:
        print(f"  {key!r}: {replica_count(sim, key)} replicas")

    print("\nGET everything back:")
    rids = {key: sim.node(10).queue_get(key) for key in items}
    sim.run(2 * params.dilation + 6)
    ok = True
    for key, rid in rids.items():
        resp = sim.node(10).responses.get(rid)
        good = resp is not None and resp.found and resp.value == items[key]
        ok = ok and good
        print(f"  GET {key!r} -> {resp.value!r} ({'ok' if good else 'MISSING'})")
    assert ok, "data loss!"
    print("\nall items intact — the data moved with the overlay, "
          "always two steps ahead.")


if __name__ == "__main__":
    main()
