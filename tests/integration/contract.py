"""The protocol contract: ``protocol-spec.json`` held to the code.

:func:`declaration_drift` is the **declaration** clause, checked by
reflection over every ``repro`` module: the ``__protocol__``-marked classes
and the spec's messages cover each other, each class's
``dataclasses.fields`` are the spec's field list, and every dataclass of a
``message_modules`` module carries the marker.

:class:`ContractMonitor` attaches to a :class:`MaintenanceSimulation` as an
engine observer (:class:`~repro.sim.engine.RoundObserver`) and asserts the
clauses of ``protocol-spec.json`` and docs/PROTOCOL.md that are properties
of runs, reading each round at its phase boundaries:

* **phase** (Listings 3–4) — an object-lane message's sender is in one of
  its type's ``producer_phases`` when it sends, and its receiver in one of
  the ``consumer_phases`` when it is delivered; a routed launch's launcher
  (the filer of a step-0 hop row) is in one of its payload tag's
  ``producer_phases``.  A node's phase only changes in the prepare stage:
  every node's phase at the step's ``"prepare"`` mark is its phase at the
  end of compute, so the sends of the round, read at the end of compute,
  are checked against the phase they were sent in.  A type or tag the spec
  does not cover, or a ``record`` / ``engine`` type on the wire, is a
  violation;
* **step** (Lemma 9) — every row of every round's hop table has
  ``0 <= step <= final_step = lam + 1``;
* **epoch** (Section 5, DESIGN.md §5 item 6) — a node's epoch changes only
  in an even round ``2e``, and then only to ``e`` (cutover) or to ``None``
  (demotion); once cutovers are due (``e >= lam + 2``) every established
  node that ran round ``2e`` is in epoch ``e`` with at least one neighbour,
  so a CREATE inbox that introduced nobody demoted its node;
* **TTL** (docs/PROTOCOL.md §A_RANDOM, §Bootstrap) — after round ``t`` every
  pooled token expires in ``(t, t + TOKEN_TTL]`` and every pending grant in
  ``[t, t + 4 lam]``.  The lower ends hold for nodes that ran round ``t``:
  a stalled node's state stands still;
* **wall** (Section 1.1, Lemmas 3–4) — at attach and after every round,
  :func:`adversary_reach` finds no path from the adversary to the engine's
  live state: the adversary sees the world only through the per-round
  :class:`~repro.adversary.view.AdversaryView`, which clamps every read to
  its ``(a, b)`` lateness.

:func:`uncovered` is the coverage clause over several runs: every
``kind: "message"`` entry of the spec is sent and every payload tag is
launched at least once.
"""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil
import types
from collections import Counter, deque
from pathlib import Path

import numpy as np

import repro
from repro.adversary.view import AdversaryView
from repro.core.runner import MaintenanceSimulation
from repro.sim.engine import Engine, RoundObserver, RoundReport
from repro.sim.network import Inbox

from .spec import ProtocolSpec, load_spec

__all__ = [
    "SPEC_PATH",
    "TOKEN_TTL",
    "ContractMonitor",
    "ContractViolation",
    "adversary_reach",
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


#: The engine attributes that hold live world state.
LIVE_STATE_ATTRS = ("trace", "network", "lifecycle", "ledger", "metrics", "rng_service")

#: How many references deep :func:`adversary_reach` follows.
REACH_DEPTH = 6

#: Where the walk stops: nothing an adversary can leak hides below these.
_OPAQUE = (
    types.ModuleType,
    type,
    types.FunctionType,
    types.BuiltinFunctionType,
    types.MethodType,
    np.ndarray,
    np.random.Generator,
    np.generic,
    int,
    float,
    complex,
    str,
    bytes,
    type(None),
    AdversaryView,  # the sanitizer: it clamps what it exposes
)


def _children(obj: object, path: str):
    """``(child, path)`` for every reference ``obj`` holds."""
    if isinstance(obj, (list, tuple)):
        yield from ((item, f"{path}[{i}]") for i, item in enumerate(obj))
    elif isinstance(obj, (set, frozenset)):
        yield from ((item, f"{path}{{...}}") for item in obj)
    elif isinstance(obj, dict):
        for i, (key, value) in enumerate(obj.items()):
            yield key, f"{path}.keys()[{i}]"
            yield value, f"{path}[{key!r}]"
    else:
        yield from ((v, f"{path}.{k}") for k, v in getattr(obj, "__dict__", {}).items())
        for cls in type(obj).__mro__:
            slots = vars(cls).get("__slots__", ())
            for name in (slots,) if isinstance(slots, str) else slots:
                if name not in ("__dict__", "__weakref__") and hasattr(obj, name):
                    yield getattr(obj, name), f"{path}.{name}"


def adversary_reach(engine: Engine) -> list[str]:
    """The engine's live state reachable from ``engine.adversary``.

    A breadth-first walk, at most :data:`REACH_DEPTH` references deep and
    visiting each object once, over instance attributes (``__dict__`` and
    ``__slots__``) and list, tuple, set and dict items.  It does not enter an
    :class:`AdversaryView` and stops at modules, classes, functions, arrays,
    generators and scalars.  Each hit is ``"<path> -> <engine object>"``,
    e.g. ``adversary.notes[0]['x'] -> engine.network``.
    """
    live = {id(engine): "engine"}
    live.update({id(getattr(engine, a)): f"engine.{a}" for a in LIVE_STATE_ATTRS})
    live.update({id(p): f"engine._protocols[{v}]" for v, p in engine._protocols.items()})
    live.update({id(r): f"engine._rngs[{v}]" for v, r in engine._rngs.items()})
    hits: list[str] = []
    seen: set[int] = set()
    queue = deque([(engine.adversary, "adversary", 0)])
    while queue:
        obj, path, depth = queue.popleft()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if id(obj) in live:
            hits.append(f"{path} -> {live[id(obj)]}")
        elif depth < REACH_DEPTH and not isinstance(obj, _OPAQUE):
            queue.extend((child, where, depth + 1) for child, where in _children(obj, path))
    return hits


class ContractMonitor(RoundObserver):
    """Checks the contract of one simulation, round by round (see module doc)."""

    def __init__(self, sim: MaintenanceSimulation, spec: ProtocolSpec | None = None) -> None:
        self.sim = sim
        self.spec = spec if spec is not None else load_spec(SPEC_PATH)
        self.lam = sim.params.lam
        #: Copies sent per message type, and launches per payload tag.
        self.sent: Counter[str] = Counter()
        self.launched: Counter[str] = Counter()
        self.violations: list[str] = []
        self.rounds = 0  # rounds observed
        self._epochs = {v: sim.node(v).epoch for v in sim.engine.alive}
        self._prepared: dict[int, str] = {}  # phases at the "prepare" mark
        sim.engine.attach(self)

    def run(self, rounds: int) -> None:
        """Run ``rounds`` rounds; raise :class:`ContractViolation` after the
        first one that broke a clause."""
        for _ in range(rounds):
            self.sim.engine.run_round()
            if self.violations:
                raise ContractViolation("\n".join(self.violations))

    # Observer hooks ---------------------------------------------------

    def _phase(self, v: int) -> str:
        return self.sim.node(v).phase.value

    def _flag(self, text: str, t: int | None = None) -> None:
        """Record a violation of round ``t`` (default: the open round)."""
        self.violations.append(f"round {self.sim.engine.round if t is None else t}: {text}")

    def _check_wall(self, engine: Engine, t: int | None = None) -> None:
        for hit in adversary_reach(engine):
            self._flag(f"the adversary reaches live engine state: {hit}", t)

    def on_attach(self, engine: Engine) -> None:
        self._check_wall(engine)

    def on_mark(self, engine: Engine, stage: str) -> None:
        if stage == "prepare":
            self._prepared = {v: self._phase(v) for v in engine.alive}

    def on_phase_end(self, engine: Engine, phase: str, inboxes: dict[int, Inbox]) -> None:
        if phase == "compute":
            self._on_compute(engine)
        if phase != "receive":
            return
        for dst, inbox in inboxes.items():
            held = self._phase(dst)
            for _, msg in inbox:
                entry = self.spec.message(type(msg).__name__)
                if entry is not None and held not in entry.consumer_phases:
                    self._flag(
                        f"node {dst} received `{entry.name}` in phase {held}; "
                        f"consumers: {list(entry.consumer_phases)} [{entry.anchor}]"
                    )

    def _on_compute(self, engine: Engine) -> None:
        for v, before in self._prepared.items():
            if self._phase(v) != before:
                self._flag(
                    f"node {v} phase {before} -> {self._phase(v)} after the prepare "
                    "stage; a phase changes only in prepare"
                )
        self._prepared = {}
        srcs, _, msgs = engine.network.open_sends()
        for src, msg in zip(srcs, msgs):
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
        plane = engine.network.plane
        table = plane.table()
        steps, finals = table.steps, table.fsteps
        bad = np.flatnonzero((steps < 0) | (steps > finals) | (finals != self.lam + 1))
        for row in bad.tolist():
            self._flag(
                f"hop row {row} at step {steps[row]} with final_step {finals[row]}; "
                f"Lemma 9 allows 0 <= step <= final_step = lam + 1 = {self.lam + 1}"
            )
        launchers, rows = plane.filed()
        launch = steps[rows] == 0
        for src, row in zip(launchers[launch].tolist(), rows[launch].tolist()):
            payload = table.msgs[row].payload
            tag = payload[0] if isinstance(payload, tuple) else None
            self.launched[str(tag)] += 1
            entry = self.spec.payload(tag) if isinstance(tag, str) else None
            if entry is None:
                self._flag(f"routed payload {tag!r} is not in the spec's payload table")
            elif self._phase(src) not in entry.producer_phases:
                self._flag(
                    f'payload "{tag}" launched in phase {self._phase(src)}; producers: '
                    f"{list(entry.producer_phases)} [{entry.anchor}]"
                )

    def on_round_end(self, engine: Engine, report: RoundReport) -> None:
        self.rounds += 1
        t, faults = report.round, engine.faults
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
        self._check_wall(engine, t)
