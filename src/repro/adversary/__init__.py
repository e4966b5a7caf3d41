"""Adversaries: the (a,b)-late view, churn budget, and attack strategies."""

from repro.adversary.base import (
    Adversary,
    ChurnDecision,
    JoinRequest,
    NullAdversary,
    kill_and_replace,
)
from repro.adversary.budget import ChurnLedger, ChurnViolation
from repro.adversary.composed import ComposedAdversary
from repro.adversary.content_late import ContentLateAdversary
from repro.adversary.isolate_join import IsolateJoinAdversary
from repro.adversary.join_chain import JoinChainAdversary
from repro.adversary.oblivious import RandomChurnAdversary, paced_schedule
from repro.adversary.swarm_wipe import ContactTraceAdversary, DegreeTargetAdversary
from repro.adversary.view import AdversaryView, LatenessViolation

__all__ = [
    "Adversary",
    "AdversaryView",
    "ChurnDecision",
    "ChurnLedger",
    "ChurnViolation",
    "ComposedAdversary",
    "ContactTraceAdversary",
    "ContentLateAdversary",
    "DegreeTargetAdversary",
    "IsolateJoinAdversary",
    "JoinChainAdversary",
    "JoinRequest",
    "LatenessViolation",
    "NullAdversary",
    "RandomChurnAdversary",
    "kill_and_replace",
    "paced_schedule",
]
