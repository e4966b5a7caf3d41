# repro: module(protofix.p4_bad)
"""P4 bad: a trajectory launched at step 1 instead of the spec'd 0, an
increment with no `final_step` bound check anywhere in scope, and a TTL
stamp from an off-spec expiry expression."""
from dataclasses import dataclass


@dataclass(frozen=True)
class Frame:
    """Fixture record."""

    __protocol__ = True

    body: int


def launch(plane, frame):
    plane.send_hops(frame, 1, [1])


def advance(plane, frame, step, dsts):
    plane.send_hops(frame, step + 1, dsts)


class Node:
    def on_round(self, ctx):
        pass

    def accept(self, ctx, owner):
        self.tokens.append((ctx.round + 7, owner))
