# repro: module(protofix.p4_ok)
"""P4 ok: steps are initialised at the spec'd 0, passed through from
parameters, or advanced under a `final_step` bound check; TTL stamps use
the spec'd expiry expression for both the pool and the ledger."""
from dataclasses import dataclass

TOKEN_TTL = 4


@dataclass(frozen=True)
class Frame:
    """Fixture record."""

    __protocol__ = True

    body: int


def launch(plane, frame):
    plane.send_hops(frame, 0, [1])


def hand_over(plane, frame, step, dsts):
    plane.send_hops(frame, step, dsts)


def advance(plane, frame, step, final_step, dsts):
    if step >= final_step:
        raise ValueError("trajectory exhausted")
    plane.send_hops(frame, step + 1, dsts)


class Node:
    def on_round(self, ctx):
        for expiry, owner in list(self.tokens):
            if expiry <= ctx.round:
                self.tokens.remove((expiry, owner))

    def accept(self, ctx, owner):
        self.tokens.append((ctx.round + TOKEN_TTL, owner))

    def grant(self, ctx, owner):
        self.grants[owner] = ctx.round + TOKEN_TTL
