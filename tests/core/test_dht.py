"""Tests for the churn-resistant DHT layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary.oblivious import RandomChurnAdversary
from repro.config import ProtocolParams
from repro.core.dht import DhtResponse, DHTNode, StashTransfer, key_point
from repro.core.forwarding import Launch
from repro.core.runner import MaintenanceSimulation


def make_sim(seed=3, adversary=False):
    params = ProtocolParams.calibrated(48, seed=seed, alpha=0.25, kappa=1.25)
    adv = RandomChurnAdversary(params, seed=seed + 1) if adversary else None
    return params, MaintenanceSimulation(params, adversary=adv, node_cls=DHTNode)


@pytest.fixture(scope="module")
def dht_run():
    """Shared run: two puts, heavy reconfiguration, then gets."""
    params, sim = make_sim(seed=3, adversary=True)
    sim.run(4)
    sim.node(0).queue_put("alpha", "A")
    sim.node(1).queue_put("beta", {"x": 1})
    sim.run(2 * params.dilation + 6)
    replicas_early = {
        key: [v for v in sim.engine.alive if key in sim.node(v).store]
        for key in ("alpha", "beta")
    }
    sim.run(40)  # ~20 full overlay rebuilds under churn
    rid_a = sim.node(5).queue_get("alpha")
    rid_missing = sim.node(6).queue_get("never-stored")
    sim.run(2 * params.dilation + 6)
    return params, sim, replicas_early, rid_a, rid_missing


class TestKeyPoint:
    def test_deterministic(self):
        assert key_point("k") == key_point("k")

    def test_range(self):
        for key in ("a", "b", "xyz", ""):
            assert 0.0 <= key_point(key) < 1.0

    def test_spread(self):
        pts = [key_point(f"key-{i}") for i in range(500)]
        assert abs(np.mean(pts) - 0.5) < 0.05


class TestReplication:
    def test_put_replicates_across_swarm(self, dht_run):
        params, sim, replicas_early, *_ = dht_run
        for key, reps in replicas_early.items():
            # Roughly the swarm size (2*c*lam ~ 16), certainly many copies.
            assert len(reps) >= params.expected_swarm_size / 2

    def test_replicas_are_the_responsible_swarm(self, dht_run):
        params, sim, *_ = dht_run
        point = key_point("alpha")
        for v in sim.engine.alive:
            node = sim.node(v)
            if "alpha" in node.store and node.pos is not None:
                gap = abs(node.pos - point)
                # Replicas sit within the swarm radius (plus one cutover of
                # slack for items received this very round).
                assert min(gap, 1 - gap) <= 2 * params.swarm_radius

    def test_items_survive_reconfigurations_under_churn(self, dht_run):
        params, sim, *_ = dht_run
        for key in ("alpha", "beta"):
            reps = [v for v in sim.engine.alive if key in sim.node(v).store]
            assert len(reps) >= params.expected_swarm_size / 3


class TestGet:
    def test_get_returns_value(self, dht_run):
        _, sim, _, rid_a, _ = dht_run
        resp = sim.node(5).responses.get(rid_a)
        assert resp is not None
        assert resp.found and resp.value == "A"

    def test_get_missing_key_not_found(self, dht_run):
        _, sim, _, _, rid_missing = dht_run
        resp = sim.node(6).responses.get(rid_missing)
        assert resp is not None
        assert not resp.found and resp.value is None


class TestMechanics:
    def test_ops_and_probes_route_through_launch_records(self):
        """A put, a get and a probe are queued, launched at the next even
        round as ``Launch`` records (numbered in launch order, starting at
        the origin's position), multicast at the odd round and delivered."""
        params, sim = make_sim(seed=9)
        sim.run(2 * params.dilation)  # an even round is next
        node = sim.node(4)
        node.queue_put("k", "v")
        rid = node.queue_get("k")
        node.queue_probe("p", 0.3)
        sim.run(1)
        pending = node._pending_launch
        assert all(isinstance(launch, Launch) for launch in pending)
        assert [launch.ordinal for launch in pending] == list(range(len(pending)))
        assert {launch.origin_pos for launch in pending} == {node.pos}
        routed = [launch.payload[0] for launch in pending]
        assert routed[-3:] == ["probe", "put", "get"]  # after its joins and tokens
        sim.run(1)
        assert node._pending_launch == []
        sim.run(2 * params.dilation)
        assert node.responses[rid].found and node.responses[rid].value == "v"
        assert sim.probe_report(["p"]).delivered == 1

    def test_stash_transfer_stores(self):
        params, sim = make_sim(seed=9)
        sim.run(2)
        node = sim.node(0)
        node.phase  # established via priming
        # Direct stash injection path:
        from repro.sim.engine import NodeContext
        from repro.sim.network import Network

        # Use an odd round so the even-round range eviction does not
        # immediately discard the planted (out-of-range) key.
        ctx = NodeContext(
            node_id=0,
            t=sim.round + 1,
            inbox=[(1, StashTransfer((("k", "v"),)))],
            rng=sim.engine.rng_service.node_stream(0),
            params=params,
            joined_round=0,
            network=Network(),
        )
        node.on_round(ctx)
        assert "k" in node.store

    def test_eviction_drops_out_of_range_items(self):
        params, sim = make_sim(seed=10)
        sim.run(2 * (params.lam + 3))  # steady reconfiguration
        node = sim.node(0)
        # Plant an item far from the node's position.
        far = (node.pos + 0.5) % 1.0
        node.store["planted"] = (far, "x")
        sim.run(2)
        assert "planted" not in sim.node(0).store

    def test_found_response_wins_over_not_found(self):
        params, sim = make_sim(seed=11)
        node = sim.node(0)
        rid = ("r", 1)
        node.responses[rid] = DhtResponse(rid, "k", None, False)
        from repro.sim.engine import NodeContext
        from repro.sim.network import Network

        ctx = NodeContext(
            node_id=0,
            t=2,
            inbox=[(1, DhtResponse(rid, "k", "v", True))],
            rng=sim.engine.rng_service.node_stream(0),
            params=params,
            joined_round=0,
            network=Network(),
        )
        node.on_round(ctx)
        assert node.responses[rid].found
