"""The protocol contract: ``protocol-spec.json`` held to the code.

:func:`declaration_drift` is the **declaration** clause, checked by
reflection over every ``repro`` module: the ``__protocol__``-marked classes
and the spec's messages cover each other, each class's
``dataclasses.fields`` are the spec's field list, and every dataclass of a
``message_modules`` module carries the marker.

:class:`ContractMonitor` attaches to a :class:`MaintenanceSimulation`,
observes every send by wrapping the engine's :class:`~repro.sim.network.Network`
instance methods, and after each round asserts the clauses of
``protocol-spec.json`` and docs/PROTOCOL.md that are properties of runs:

* **phase** (Listings 3–4) — an object-lane message's sender is in one of
  its type's ``producer_phases`` when it sends, and its receiver in one of
  the ``consumer_phases`` when it is delivered; a routed launch's launcher
  (the filer of a step-0 hop row) is in one of its payload tag's
  ``producer_phases``.  A node's phase only changes in the prepare stage,
  so the phase read at send time is the phase the message was sent in.  A
  type or tag the spec does not cover, or a ``record`` / ``engine`` type on
  the wire, is a violation;
* **step** (Lemma 9) — every row of every frozen hop round has
  ``0 <= step <= final_step = lam + 1``;
* **epoch** (Section 5, DESIGN.md §5 item 6) — a node's epoch changes only
  in an even round ``2e``, and then only to ``e`` (cutover) or to ``None``
  (demotion); once cutovers are due (``e >= lam + 2``) every established
  node that ran round ``2e`` is in epoch ``e`` with at least one neighbour,
  so a CREATE inbox that introduced nobody demoted its node;
* **TTL** (docs/PROTOCOL.md §A_RANDOM, §Bootstrap) — after round ``t`` every
  pooled token expires in ``(t, t + TOKEN_TTL]`` and every pending grant in
  ``[t, t + 4 lam]``.  The lower ends hold for nodes that ran round ``t``:
  a stalled node's state stands still.

:func:`uncovered` is the coverage clause over several runs: every
``kind: "message"`` entry of the spec is sent and every payload tag is
launched at least once.
"""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import numpy as np

import repro
from repro.core.runner import MaintenanceSimulation
from repro.sim.hopplane import HopRows

from .spec import ProtocolSpec, load_spec

__all__ = [
    "SPEC_PATH",
    "TOKEN_TTL",
    "ContractMonitor",
    "ContractViolation",
    "declaration_drift",
    "uncovered",
]

SPEC_PATH = Path(__file__).resolve().parents[2] / "protocol-spec.json"

#: Rounds an accepted token stays usable (docs/PROTOCOL.md §A_RANDOM).
TOKEN_TTL = 4


class ContractViolation(AssertionError):
    """A live round broke a clause of the protocol contract."""


def uncovered(spec: ProtocolSpec, sent: Counter[str], launched: Counter[str]) -> list[str]:
    """The spec's node-to-node message types that ``sent`` never saw, then
    its payload tags that ``launched`` never saw."""
    return [m.name for m in spec.messages if m.kind == "message" and not sent[m.name]] + [
        p.tag for p in spec.payloads if not launched[p.tag]
    ]


def _classes(module: str) -> list[type]:
    """The classes ``module`` defines (not the ones it imports)."""
    found = vars(importlib.import_module(module)).values()
    return [obj for obj in found if isinstance(obj, type) and obj.__module__ == module]


def declaration_drift(spec: ProtocolSpec) -> list[str]:
    """Where the code's message declarations and the spec disagree."""
    registry = {
        cls.__name__: cls
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.name != "repro.__main__"  # importing it runs the CLI
        for cls in _classes(info.name)
        if "__protocol__" in vars(cls)
    }
    drift = [
        f"`{cls.__module__}.{name}` is marked __protocol__ but the spec does not cover it"
        for name, cls in registry.items()
        if spec.message(name) is None
    ]
    for entry in spec.messages:
        cls = registry.get(entry.name)
        if cls is None:
            drift.append(f"spec message `{entry.name}` has no __protocol__ class [{entry.anchor}]")
            continue
        fields = tuple(f.name for f in dataclasses.fields(cls))
        if fields != entry.fields:
            drift.append(
                f"`{entry.name}` fields {list(fields)} differ from the spec's "
                f"{list(entry.fields)} [{entry.anchor}]"
            )
    for module in spec.message_modules:
        drift += [
            f"dataclass `{module}.{cls.__name__}` lacks the __protocol__ marker"
            for cls in _classes(module)
            if dataclasses.is_dataclass(cls) and "__protocol__" not in vars(cls)
        ]
    return drift


class ContractMonitor:
    """Checks the contract of one simulation, round by round (see module doc)."""

    def __init__(self, sim: MaintenanceSimulation, spec: ProtocolSpec | None = None) -> None:
        self.sim = sim
        self.spec = spec if spec is not None else load_spec(SPEC_PATH)
        self.lam = sim.params.lam
        #: Copies sent per message type, and launches per payload tag.
        self.sent: Counter[str] = Counter()
        self.launched: Counter[str] = Counter()
        self.violations: list[str] = []
        self._filed: list[tuple[str, np.ndarray]] = []  # (filer's phase, rows)
        self._epochs = {v: sim.node(v).epoch for v in sim.engine.alive}

        net = sim.engine.network
        send, singles = net.send, net.send_singles_batch
        file_hops, close, deliver = net.file_hops, net.close_send_phase, net.deliver

        def watched_send(src, dst, msg):
            self._on_send(src, msg)
            send(src, dst, msg)

        def watched_singles(src, items):
            for _, msg in items:
                self._on_send(src, msg)
            singles(src, items)

        def watched_file(src, rows, lens, flat):
            self._filed.append((self._phase(src), rows))
            file_hops(src, rows, lens, flat)

        def watched_close():
            self._on_close(net.plane.pack()[0])
            return close()

        def watched_deliver(alive):
            inboxes, received = deliver(alive)
            self._on_deliver(inboxes)
            return inboxes, received

        # ``send_many`` files through the instance's ``send_singles_batch``.
        for name, method in (
            ("send", watched_send),
            ("send_singles_batch", watched_singles),
            ("file_hops", watched_file),
            ("close_send_phase", watched_close),
            ("deliver", watched_deliver),
        ):
            setattr(net, name, method)

    # ------------------------------------------------------------------

    def run(self, rounds: int) -> None:
        """Run ``rounds`` rounds; raise :class:`ContractViolation` after the
        first one that broke a clause."""
        engine = self.sim.engine
        for _ in range(rounds):
            t = engine.round
            engine.run_round()
            self._after_round(t)
            if self.violations:
                raise ContractViolation("\n".join(self.violations))

    def _phase(self, v: int) -> str:
        return self.sim.node(v).phase.value

    def _flag(self, text: str, t: int | None = None) -> None:
        """Record a violation of round ``t`` (default: the open round)."""
        self.violations.append(f"round {self.sim.engine.round if t is None else t}: {text}")

    def _on_send(self, src: int, msg: object) -> None:
        name = type(msg).__name__
        self.sent[name] += 1
        entry = self.spec.message(name)
        if entry is None:
            self._flag(f"node {src} sent `{name}`, which the spec does not cover")
        elif entry.kind != "message":
            self._flag(f"node {src} sent `{name}` on the wire, but its kind is {entry.kind}")
        elif self._phase(src) not in entry.producer_phases:
            self._flag(
                f"node {src} sent `{name}` in phase {self._phase(src)}; producers: "
                f"{list(entry.producer_phases)} [{entry.anchor}]"
            )

    def _on_deliver(self, inboxes: dict[int, list[tuple[int, object]]]) -> None:
        for dst, inbox in inboxes.items():
            phase = self._phase(dst)
            for _, msg in inbox:
                entry = self.spec.message(type(msg).__name__)
                if entry is not None and phase not in entry.consumer_phases:
                    self._flag(
                        f"node {dst} received `{entry.name}` in phase {phase}; "
                        f"consumers: {list(entry.consumer_phases)} [{entry.anchor}]"
                    )

    def _on_close(self, table: HopRows) -> None:
        steps, finals = table.steps, table.fsteps
        bad = np.flatnonzero((steps < 0) | (steps > finals) | (finals != self.lam + 1))
        for row in bad.tolist():
            self._flag(
                f"hop row {row} at step {steps[row]} with final_step {finals[row]}; "
                f"Lemma 9 allows 0 <= step <= final_step = lam + 1 = {self.lam + 1}"
            )
        msgs = table.msgs
        for phase, rows in self._filed:
            for row in rows[steps[rows] == 0].tolist():
                payload = msgs[row].payload
                tag = payload[0] if isinstance(payload, tuple) else None
                self.launched[str(tag)] += 1
                entry = self.spec.payload(tag) if isinstance(tag, str) else None
                if entry is None:
                    self._flag(f"routed payload {tag!r} is not in the spec's payload table")
                elif phase not in entry.producer_phases:
                    self._flag(
                        f'payload "{tag}" launched in phase {phase}; producers: '
                        f"{list(entry.producer_phases)} [{entry.anchor}]"
                    )
        self._filed = []

    def _after_round(self, t: int) -> None:
        engine = self.sim.engine
        faults = engine.faults
        e = t // 2
        epochs: dict[int, int | None] = {}
        for v in sorted(engine.alive):
            node = self.sim.node(v)
            ran = faults is None or not faults.stalled(t, v)
            epochs[v] = node.epoch
            before = self._epochs.get(v)
            if node.epoch != before and (t % 2 or node.epoch not in (e, None)):
                self._flag(
                    f"node {v} epoch {before} -> {node.epoch}; an epoch changes only "
                    "in an even round 2e, to e or to None",
                    t,
                )
            if (
                ran
                and t % 2 == 0
                and e >= self.lam + 2
                and node.is_established
                and (node.epoch != e or not node.d_nbrs)
            ):
                self._flag(
                    f"node {v} is established in epoch {node.epoch} with "
                    f"{len(node.d_nbrs)} neighbour(s) after the cutover round of "
                    f"epoch {e}; it must cut over or demote",
                    t,
                )
            low = t if ran else -1
            for expiry, owner in node.tokens:
                if not low < expiry <= t + TOKEN_TTL:
                    self._flag(f"node {v} pools token of {owner} expiring at {expiry}", t)
            for newcomer, expiry in node._pending_grants.items():
                if not low <= expiry <= t + 4 * self.lam:
                    self._flag(f"node {v} owes {newcomer} a grant until round {expiry}", t)
        self._epochs = epochs
