"""Drive one protocol node for one round without an engine.

Shared by the node unit tests: builds the services a node is constructed
with and the :class:`NodeContext` the engine would hand it, including routed
hops — filed through a :class:`HopPlane`, frozen and delivered exactly as
``Network.close_send_phase`` / ``deliver`` do it.
"""

from __future__ import annotations

import numpy as np

from repro.config import ProtocolParams
from repro.core.messages import CreateBatch
from repro.sim.engine import EngineServices, NodeContext
from repro.sim.epochs import EpochCache
from repro.sim.hopplane import HopPlane
from repro.sim.network import Network
from repro.util.rngs import RngService


def make_services(params: ProtocolParams) -> EngineServices:
    svc = RngService(params.seed)
    position_hash = svc.position_hash()
    return EngineServices(
        params=params,
        rng=svc,
        position_hash=position_hash,
        epoch_cache=EpochCache(position_hash),
    )


def create_batch(entries, epoch: int) -> CreateBatch:
    """A :class:`CreateBatch` introducing ``(node, pos)`` ``entries`` at ``epoch``."""
    entries = list(entries)
    return CreateBatch(
        np.array([v for v, _ in entries], dtype=np.int32),
        np.array([p for _, p in entries], dtype=np.float64),
        epoch,
    )


def make_ctx(node, services, t, inbox, hops=(), network=None):
    """``(ctx, network)`` for ``node`` at round ``t``.

    ``hops`` are the routed copies arriving this round, as ``(sender,
    message, step)`` triples in arrival order.
    """
    net = network if network is not None else Network()
    rows = delivery = None
    if hops:
        plane = HopPlane()
        for sender, msg, step in hops:
            plane.send(sender, msg, step, [node.id])
        delivery = plane.close_round().deliver({node.id})
        rows = delivery.rows[node.id]
    ctx = NodeContext(
        node_id=node.id,
        t=t,
        inbox=inbox,
        rng=services.rng.node_stream(node.id),
        params=services.params,
        joined_round=0,
        network=net,
        hops=rows,
        hop_delivery=delivery,
    )
    return ctx, net
