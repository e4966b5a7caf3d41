# repro: module(protofix.p3_bad)
"""P3 bad: the dataclass renamed `pos` to `position` without touching
the spec; one call overflows positionally, one passes the stale field
name."""
from dataclasses import dataclass


@dataclass(frozen=True)
class Rec:
    """Fixture record whose second field drifted from the spec."""

    __protocol__ = True

    node: int
    position: float


def launch(nid, position):
    return Rec(nid, position, 7)


def relaunch(nid):
    return Rec(node=nid, pos=0.0)
