"""Synchronous-round simulation substrate: engine, network, trace, metrics."""

from repro.sim.engine import (
    PHASES,
    Engine,
    EngineServices,
    JoinNotice,
    NodeContext,
    NodeProtocol,
    RoundObserver,
    RoundReport,
)
from repro.sim.identity import Lifecycle, NodeRecord
from repro.sim.metrics import FaultRoundStats, MetricsCollector, RoundMetrics
from repro.sim.network import EdgeLog, FaultHook, Inbox, Network
from repro.sim.profile import STAGES, PhaseProfiler, PhaseTimings
from repro.sim.trace import GraphTrace

__all__ = [
    "EdgeLog",
    "Engine",
    "EngineServices",
    "FaultHook",
    "FaultRoundStats",
    "GraphTrace",
    "Inbox",
    "JoinNotice",
    "Lifecycle",
    "MetricsCollector",
    "Network",
    "NodeContext",
    "NodeProtocol",
    "NodeRecord",
    "PHASES",
    "PhaseProfiler",
    "PhaseTimings",
    "RoundMetrics",
    "RoundObserver",
    "RoundReport",
    "STAGES",
]
