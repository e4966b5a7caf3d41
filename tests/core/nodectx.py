"""Drive one protocol node for one round without an engine.

Shared by the node unit tests: builds the services a node is constructed
with and the :class:`NodeContext` the engine would hand it, including routed
hops — filed through a :class:`HopPlane`, frozen and delivered exactly as
``Network.close_send_phase`` / ``deliver`` do it.
"""

from __future__ import annotations

from repro.config import ProtocolParams
from repro.core.messages import CreateBatch
from repro.sim.engine import EngineServices, NodeContext
from repro.sim.epochs import EpochCache
from repro.sim.hopplane import HopPlane
from repro.sim.network import Network
from repro.util.intervals import wrap
from repro.util.rngs import RngService

from ..sim.hops import file_hops


def make_services(params: ProtocolParams) -> EngineServices:
    svc = RngService(params.seed)
    position_hash = svc.position_hash()
    return EngineServices(
        params=params,
        rng=svc,
        position_hash=position_hash,
        epoch_cache=EpochCache(position_hash),
    )


def create_batch(services: EngineServices, target: int, ids, epoch: int) -> CreateBatch:
    """A :class:`CreateBatch` that introduces ``ids`` to ``target`` at
    ``epoch``, in that order (``target`` itself, if listed, is not
    introduced).

    The batch's index is interned in the services' epoch cache over
    ``target`` at its hash position and ``ids`` laid out right after it,
    clockwise inside its list arc — so the arc's ring order is the given
    order.  Ids the epoch table already places keep their positions.
    """
    cache = services.epoch_cache
    p = cache.position(target, epoch)
    ids = [v for v in dict.fromkeys(ids) if v != target]
    step = 0.9 * services.params.list_radius / (len(ids) + 1)
    table = {target: p}
    table.update({v: wrap(p + (k + 1) * step) for k, v in enumerate(ids)})
    return CreateBatch(cache.index_for(epoch, frozenset(table), table), epoch)


def make_ctx(node, services, t, inbox, hops=(), network=None):
    """``(ctx, network)`` for ``node`` at round ``t``.

    ``hops`` are the routed copies arriving this round, as ``(sender,
    message, step)`` triples in arrival order.
    """
    net = network if network is not None else Network()
    rows = delivery = None
    if hops:
        plane = HopPlane()
        file_hops(plane, [(sender, msg, step, [node.id]) for sender, msg, step in hops])
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
