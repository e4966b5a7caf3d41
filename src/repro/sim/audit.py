"""One runtime auditor: the paper's guarantees checked on live rounds.

:class:`Auditor` is a :class:`~repro.sim.engine.RoundObserver` recording one
stream of :class:`Verdict` records of two kinds.  **Violations** (severity
``"violation"``) break the protocol contract — ``protocol-spec.json``
(package data, loaded at the first attach) and docs/PROTOCOL.md — and must
never happen, whatever the adversity:

* **phase** (Listings 3–4) — a sender is in one of its message type's
  ``producer_phases`` (checked at the end of compute: a phase changes only
  in the prepare stage, which is checked too), a receiver in one of the
  ``consumer_phases``, a routed launcher (step-0 hop row) in one of its
  payload tag's ``producer_phases``; an uncovered type or tag, or a
  ``record`` / ``engine`` type on the wire, is a violation;
* **step** (Lemma 9) — every hop row has ``0 <= step <= final_step = lam + 1``;
* **epoch** (Section 5) — an epoch changes only in an even round ``2e``, to
  ``e`` or ``None``; once cutovers are due (``e >= lam + 2``) every
  established node that ran round ``2e`` is in epoch ``e`` with a neighbour;
* **ttl** (§A_RANDOM, §Bootstrap) — after round ``t`` every pooled token
  expires in ``(t, t + TOKEN_TTL]``, every pending grant in ``[t, t + 4 lam]``
  (lower ends only for nodes that ran: a stalled node's state stands still);
* **wall** (Section 1.1, Lemmas 3–4) — at attach and after every round,
  :func:`adversary_reach` finds no path from the adversary to live engine
  state: it reads the world only through the ``(a, b)``-late
  :class:`~repro.adversary.view.AdversaryView`.

**Degradations** (``"warn"`` / ``"critical"``) are what adversity past the
paper's envelope may do to the overlay; they are measured, not forbidden:
an **empty-swarm** (a sampled ring point with no current-epoch node within
the swarm radius), an **asymmetric-list** (``w in v.d_nbrs`` but not back,
although ``v`` lies in one of ``w``'s Definition-5 arcs), and a
**disconnected** communication graph of the mature nodes over the last two
rounds.

Clauses are duck-typed: the node clauses of the contract run on nodes with
a lifecycle ``phase`` (:class:`repro.core.node.MaintenanceNode`), the swarm
and symmetry audits on nodes with ``pos``/``epoch``/``d_nbrs`` in the epoch
:func:`~repro.overlay.lds.current_epoch` picks; every protocol gets the
step, wall and connectivity checks.  All are pure reads.  The recovery
summary (first/last degradation round, degraded-round fraction, time to
recover, :meth:`Auditor.counts_by_kind`) is a view over the degradations.
"""

from __future__ import annotations

import functools
import json
import types
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.adversary.view import AdversaryView
from repro.analysis.connectivity import components
from repro.config import ProtocolParams
from repro.overlay.lds import arc_centers, current_epoch
from repro.overlay.positions import PositionIndex
from repro.overlay.swarm import swarm_sizes
from repro.sim.engine import RoundObserver
from repro.util.intervals import ring_distance_array

if TYPE_CHECKING:
    from repro.sim.engine import Engine, RoundReport
    from repro.sim.network import Inbox

__all__ = [
    "LIFECYCLE_PHASES",
    "SPEC_PATH",
    "SPEC_SCHEMA",
    "TOKEN_TTL",
    "Auditor",
    "MessageSpec",
    "PayloadSpec",
    "ProtocolSpec",
    "SpecError",
    "Verdict",
    "adversary_reach",
    "load_spec",
]

#: The committed contract, shipped as ``repro`` package data.
SPEC_PATH = Path(__file__).resolve().parents[1] / "protocol-spec.json"

#: Rounds an accepted token stays usable (docs/PROTOCOL.md §A_RANDOM).
TOKEN_TTL = 4


# ----------------------------------------------------------------------
# The declarative spec: per message type its fields, ``kind`` (``message``
# node-to-node, ``engine``-produced, or ``record`` never dispatched) and
# producer/consumer phases; per routed-payload tag its producer phases; the
# ``message_modules`` whose dataclasses must all be messages.  Every entry
# cites the PAPER.md / DESIGN.md / docs/PROTOCOL.md passage (``anchor``).
# ----------------------------------------------------------------------

SPEC_SCHEMA = 1

#: Lifecycle phases, in protocol order (NEW -> FRESH -> ESTABLISHED).
LIFECYCLE_PHASES = ("new", "fresh", "established")

_KINDS = ("message", "engine", "record")


class SpecError(ValueError):
    """The spec file is missing, not JSON, or breaks the schema."""


def _phases(raw: object, where: str) -> tuple[str, ...]:
    if raw is None:
        return LIFECYCLE_PHASES
    if not isinstance(raw, list) or not all(isinstance(p, str) for p in raw):
        raise SpecError(f"protocol-spec: {where} must be a list of phase names")
    bad = [p for p in raw if p not in LIFECYCLE_PHASES]
    if bad:
        raise SpecError(
            f"protocol-spec: {where} names unknown phases {bad} "
            f"(known: {list(LIFECYCLE_PHASES)})"
        )
    # Keep protocol order regardless of spec spelling (deterministic output).
    return tuple(p for p in LIFECYCLE_PHASES if p in raw)


def _entry(entry: object, where: str) -> tuple[Mapping, str]:
    """``entry`` as a mapping, and its required ``anchor``."""
    if not isinstance(entry, Mapping):
        raise SpecError(f"protocol-spec: {where} must be an object")
    anchor = entry.get("anchor")
    if not isinstance(anchor, str) or not anchor.strip():
        raise SpecError(
            f"protocol-spec: {where} needs a non-empty `anchor` citing its "
            "PAPER.md/DESIGN.md/PROTOCOL.md derivation"
        )
    return entry, anchor


def _str_list(raw: object, where: str) -> tuple[str, ...]:
    if not isinstance(raw, list) or not all(isinstance(s, str) for s in raw):
        raise SpecError(f"protocol-spec: {where} must be a list of strings")
    return tuple(raw)


@dataclass(frozen=True)
class MessageSpec:
    """The contract for one message/record type."""

    name: str
    anchor: str
    kind: str
    fields: tuple[str, ...]
    producer_phases: tuple[str, ...]
    consumer_phases: tuple[str, ...]

    @property
    def dispatched(self) -> bool:
        """Whether nodes receive the type (a record only rides inside others)."""
        return self.kind in ("message", "engine")


@dataclass(frozen=True)
class PayloadSpec:
    """The contract for one routed-payload tag."""

    tag: str
    anchor: str
    producer_phases: tuple[str, ...]


@dataclass(frozen=True)
class ProtocolSpec:
    """The whole committed contract, validated."""

    messages: tuple[MessageSpec, ...]
    payloads: tuple[PayloadSpec, ...] = ()
    message_modules: tuple[str, ...] = ()
    _by_name: dict = field(default_factory=dict, compare=False, repr=False, hash=False)

    def __post_init__(self) -> None:
        self._by_name.update({m.name: m for m in self.messages})

    def message(self, name: str) -> MessageSpec | None:
        return self._by_name.get(name)

    def payload(self, tag: str) -> PayloadSpec | None:
        return next((p for p in self.payloads if p.tag == tag), None)

    @classmethod
    def from_dict(cls, raw: Mapping) -> "ProtocolSpec":
        if not isinstance(raw, Mapping):
            raise SpecError("protocol-spec: top level must be an object")
        if raw.get("schema") != SPEC_SCHEMA:
            raise SpecError(
                f"protocol-spec: schema must be {SPEC_SCHEMA}, got {raw.get('schema')!r}"
            )
        messages_raw = raw.get("messages")
        if not isinstance(messages_raw, Mapping) or not messages_raw:
            raise SpecError("protocol-spec: `messages` must be a non-empty object")
        messages = []
        for name, entry in messages_raw.items():
            where = f"messages.{name}"
            entry, anchor = _entry(entry, where)
            kind = entry.get("kind", "message")
            if kind not in _KINDS:
                raise SpecError(
                    f"protocol-spec: {where}.kind must be one of {list(_KINDS)}, got {kind!r}"
                )
            messages.append(
                MessageSpec(
                    name,
                    anchor,
                    kind,
                    _str_list(entry.get("fields", []), f"{where}.fields"),
                    _phases(entry.get("producer_phases"), f"{where}.producer_phases"),
                    _phases(entry.get("consumer_phases"), f"{where}.consumer_phases"),
                )
            )
        payloads = []
        for tag, entry in (raw.get("payloads") or {}).items():
            entry, anchor = _entry(entry, f"payloads.{tag}")
            phases = _phases(entry.get("producer_phases"), f"payloads.{tag}.producer_phases")
            payloads.append(PayloadSpec(tag, anchor, phases))
        return cls(
            messages=tuple(messages),
            payloads=tuple(payloads),
            message_modules=_str_list(raw.get("message_modules", []), "message_modules"),
        )


def load_spec(path: Path | str = SPEC_PATH) -> ProtocolSpec:
    """Load and validate a spec file; errors become :class:`SpecError`."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise SpecError(f"no protocol spec at {path}") from None
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, not JSON
        raise SpecError(f"protocol-spec: {path} is not valid JSON: {exc}") from None
    return ProtocolSpec.from_dict(raw)


@functools.cache
def _shipped_spec() -> ProtocolSpec:
    return load_spec(SPEC_PATH)


# ----------------------------------------------------------------------
# The wall: what the adversary can reach
# ----------------------------------------------------------------------

#: The engine attributes that hold live world state.
LIVE_STATE_ATTRS = ("trace", "network", "lifecycle", "ledger", "metrics", "rng_service")

#: How many references deep :func:`adversary_reach` follows.
REACH_DEPTH = 6

#: Where the walk stops: nothing an adversary can leak hides below these.
_OPAQUE = (
    *(types.ModuleType, type, types.FunctionType, types.BuiltinFunctionType, types.MethodType),
    *(np.ndarray, np.random.Generator, np.generic),
    *(int, float, complex, str, bytes, type(None)),
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
    named = [(engine, "engine")]
    named += [(getattr(engine, a), f"engine.{a}") for a in LIVE_STATE_ATTRS]
    named += [(p, f"engine._protocols[{v}]") for v, p in engine._protocols.items()]
    named += [(r, f"engine._rngs[{v}]") for v, r in engine._rngs.items()]
    live = {id(obj): name for obj, name in named}
    hits: list[str] = []
    seen: set[int] = set()
    queue = deque([(engine.adversary, "adversary", 0)])
    while queue:
        obj, path, depth = queue.popleft()
        key = id(obj)
        if key in seen:
            continue
        seen.add(key)
        if key in live:
            hits.append(f"{path} -> {live[key]}")
        elif depth < REACH_DEPTH and not isinstance(obj, _OPAQUE):
            queue.extend((child, where, depth + 1) for child, where in _children(obj, path))
    return hits


# ----------------------------------------------------------------------
# The auditor
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """One finding about a round: a contract violation or a degradation."""

    round: int
    kind: str  # phase | step | epoch | ttl | wall | empty-swarm | asymmetric-list | disconnected
    severity: str  # "violation" | "critical" | "warn"
    detail: str

    @property
    def is_violation(self) -> bool:
        return self.severity == "violation"


class Auditor(RoundObserver):
    """Checks every clause of a run, round by round (see module doc)."""

    #: Minimum node age (rounds) for the connectivity audit — newcomers
    #: legitimately receive nothing in their join round and may not have
    #: sent anything yet, so they would be false-positive singletons.
    MATURITY_AGE = 2

    #: Evenly spaced ring points the swarm-occupancy audit samples.
    SAMPLE_POINTS = 16

    def __init__(self, spec: ProtocolSpec | None = None) -> None:
        #: The contract; ``None`` loads the shipped spec at the first attach.
        self.spec = spec
        self.verdicts: list[Verdict] = []
        #: Copies sent per message type, and launches per payload tag.
        self.sent: Counter[str] = Counter()
        self.launched: Counter[str] = Counter()
        self.rounds_observed = 0
        self._last_observed_round: int | None = None
        self._params: ProtocolParams | None = None  # the engine's, at attach
        #: Whether nodes carry a lifecycle (decided at the first node seen).
        self._lifecycle: bool | None = None
        self._epochs: dict[int, int | None] = {}
        self._prepared: dict[int, str] = {}  # phases at the "prepare" mark

    # Views over the verdicts -------------------------------------------

    @property
    def violations(self) -> list[Verdict]:
        return [v for v in self.verdicts if v.is_violation]

    @property
    def degradations(self) -> list[Verdict]:
        return [v for v in self.verdicts if not v.is_violation]

    @property
    def first_degradation_round(self) -> int | None:
        """Round of the first degradation (``None`` = never degraded)."""
        return next((v.round for v in self.degradations), None)

    @property
    def last_degradation_round(self) -> int | None:
        """Round of the most recent degradation (``None`` = never degraded)."""
        return next((v.round for v in reversed(self.degradations)), None)

    @property
    def degraded_round_fraction(self) -> float:
        """Fraction of audited rounds that recorded at least one degradation."""
        if not self.rounds_observed:
            return 0.0
        return len({v.round for v in self.degradations}) / self.rounds_observed

    @property
    def time_to_recover(self) -> int | None:
        """Clean rounds between the last degradation and the end of observation.

        ``None`` when the run never degraded, or when the last audited
        round still degraded (the run ended un-recovered).
        """
        last = self.last_degradation_round
        if last is None or self._last_observed_round is None:
            return None
        gap = self._last_observed_round - last
        return gap if gap > 0 else None

    def counts_by_kind(self) -> dict[str, int]:
        """Degradations per kind."""
        return dict(Counter(v.kind for v in self.degradations))

    # Observer hooks ----------------------------------------------------

    def _flag(self, t: int, kind: str, detail: str) -> None:
        self.verdicts.append(Verdict(t, kind, "violation", detail))

    def _phase(self, engine: Engine, v: int) -> str:
        return engine.protocol_of(v).phase.value

    def _find_lifecycle(self, engine: Engine) -> None:
        if self._lifecycle is None and engine.alive:
            self._lifecycle = hasattr(engine.protocol_of(min(engine.alive)), "phase")
            if self._lifecycle:
                self._epochs = {v: engine.protocol_of(v).epoch for v in engine.alive}

    def _check_wall(self, engine: Engine, t: int) -> None:
        for hit in adversary_reach(engine):
            self._flag(t, "wall", f"the adversary reaches live engine state: {hit}")

    def on_attach(self, engine: Engine) -> None:
        if engine.workers > 1:
            # The clauses probe protocol objects every round; under sharding
            # that would force a full gather per round, silently erasing the
            # decomposition.  Keep the combination an explicit error instead
            # of a 10x slowdown.
            raise ValueError("auditing requires workers=1")
        if self.spec is None:
            self.spec = _shipped_spec()
        self._params = engine.params
        self._find_lifecycle(engine)
        self._check_wall(engine, engine.round)

    def on_round_start(self, engine: Engine, t: int) -> None:
        self._find_lifecycle(engine)

    def on_mark(self, engine: Engine, stage: str) -> None:
        if stage == "prepare" and self._lifecycle:
            self._prepared = {v: self._phase(engine, v) for v in engine.alive}

    def on_phase_end(self, engine: Engine, phase: str, inboxes: dict[int, Inbox]) -> None:
        if phase == "compute":
            self._check_compute(engine)
        if phase != "receive" or not self._lifecycle:
            return
        assert self.spec is not None
        for dst, inbox in inboxes.items():
            held = self._phase(engine, dst)
            for _, msg in inbox:
                entry = self.spec.message(type(msg).__name__)
                if entry is not None and held not in entry.consumer_phases:
                    self._flag(
                        engine.round,
                        "phase",
                        f"node {dst} received `{entry.name}` in phase {held}; "
                        f"consumers: {list(entry.consumer_phases)} [{entry.anchor}]",
                    )

    def _check_compute(self, engine: Engine) -> None:
        """The step clause, and the phase clause on the round's sends."""
        t, lam, spec = engine.round, engine.params.lam, self.spec
        plane = engine.network.plane
        table = plane.table()
        steps, finals = table.steps, table.fsteps
        bad = np.flatnonzero((steps < 0) | (steps > finals) | (finals != lam + 1))
        for row in bad.tolist():
            self._flag(
                t,
                "step",
                f"hop row {row} at step {steps[row]} with final_step {finals[row]}; "
                f"Lemma 9 allows 0 <= step <= final_step = lam + 1 = {lam + 1}",
            )
        if not self._lifecycle:
            return
        assert spec is not None
        for v, before in self._prepared.items():
            if (now := self._phase(engine, v)) != before:
                self._flag(
                    t,
                    "phase",
                    f"node {v} phase {before} -> {now} after the prepare stage; "
                    "a phase changes only in prepare",
                )
        self._prepared = {}
        srcs, _, msgs = engine.network.open_sends()
        for src, msg in zip(srcs, msgs):
            name = type(msg).__name__
            self.sent[name] += 1
            entry = spec.message(name)
            if entry is None:
                self._flag(t, "phase", f"node {src} sent `{name}`, which the spec does not cover")
            elif entry.kind != "message":
                wire = f"node {src} sent `{name}` on the wire, but its kind is {entry.kind}"
                self._flag(t, "phase", wire)
            elif (held := self._phase(engine, src)) not in entry.producer_phases:
                self._flag(
                    t,
                    "phase",
                    f"node {src} sent `{name}` in phase {held}; producers: "
                    f"{list(entry.producer_phases)} [{entry.anchor}]",
                )
        launchers, rows = plane.filed()
        launch = steps[rows] == 0
        for src, row in zip(launchers[launch].tolist(), rows[launch].tolist()):
            payload = table.msgs[row].payload
            tag = payload[0] if isinstance(payload, tuple) else None
            self.launched[str(tag)] += 1
            tagged = spec.payload(tag) if isinstance(tag, str) else None
            if tagged is None:
                self._flag(t, "phase", f"routed payload {tag!r} is not in the spec's payload table")
            elif (held := self._phase(engine, src)) not in tagged.producer_phases:
                self._flag(
                    t,
                    "phase",
                    f'payload "{tag}" launched in phase {held}; producers: '
                    f"{list(tagged.producer_phases)} [{tagged.anchor}]",
                )

    def on_round_end(self, engine: Engine, report: RoundReport) -> None:
        """Check the round just ended and record its verdicts."""
        t = report.round
        if self._lifecycle:
            self._check_nodes(engine, t)
        self._check_wall(engine, t)
        if not engine.alive:
            # With no alive nodes every degradation audit is vacuous: skip
            # the round without counting it as observed.
            return
        self.rounds_observed += 1
        self._last_observed_round = t
        overlay = self._overlay_snapshot(engine)
        if overlay:
            self.verdicts += self._audit_swarm_occupancy(t, overlay)
            self.verdicts += self._audit_list_symmetry(t, overlay)
        self.verdicts += self._audit_connectivity(engine, t)

    def _check_nodes(self, engine: Engine, t: int) -> None:
        """The epoch and ttl clauses over every alive node after round ``t``."""
        faults, lam, e = engine.faults, engine.params.lam, t // 2
        epochs: dict[int, int | None] = {}
        for v in sorted(engine.alive):
            node = engine.protocol_of(v)
            ran = faults is None or not faults.stalled(t, v)
            epochs[v] = node.epoch
            before = self._epochs.get(v)
            if node.epoch != before and (t % 2 or node.epoch not in (e, None)):
                self._flag(
                    t,
                    "epoch",
                    f"node {v} epoch {before} -> {node.epoch}; an epoch changes only "
                    "in an even round 2e, to e or to None",
                )
            if (
                ran
                and t % 2 == 0
                and e >= lam + 2
                and node.is_established
                and (node.epoch != e or not node.d_nbrs)
            ):
                self._flag(
                    t,
                    "epoch",
                    f"node {v} is established in epoch {node.epoch} with "
                    f"{len(node.d_nbrs)} neighbour(s) after the cutover round of "
                    f"epoch {e}; it must cut over or demote",
                )
            low = t if ran else -1
            for expiry, owner in node.tokens:
                if not low < expiry <= t + TOKEN_TTL:
                    self._flag(t, "ttl", f"node {v} pools token of {owner} expiring at {expiry}")
            for newcomer, expiry in node._pending_grants.items():
                if not low <= expiry <= t + 4 * lam:
                    self._flag(t, "ttl", f"node {v} owes {newcomer} a grant until round {expiry}")
        self._epochs = epochs

    # Degradation audits ------------------------------------------------

    def _overlay_snapshot(self, engine: Engine) -> dict[int, tuple[float, int, dict]]:
        """``{id: (pos, epoch, d_nbrs)}`` of the alive nodes in the current
        epoch (:func:`~repro.overlay.lds.current_epoch` of every alive node
        with a position and an epoch)."""
        nodes: dict[int, tuple[float, int, dict]] = {}
        for v in engine.alive:
            proto = engine.protocol_of(v)
            pos = getattr(proto, "pos", None)
            epoch = getattr(proto, "epoch", None)
            if pos is None or epoch is None:
                continue
            nodes[v] = (float(pos), int(epoch), getattr(proto, "d_nbrs", {}))
        current = current_epoch(e for _, e, _ in nodes.values())
        return {v: ne for v, ne in nodes.items() if ne[1] == current}

    def _audit_swarm_occupancy(
        self, t: int, overlay: dict[int, tuple[float, int, dict]]
    ) -> list[Verdict]:
        assert self._params is not None
        points = np.arange(self.SAMPLE_POINTS) / self.SAMPLE_POINTS
        index = PositionIndex({v: pos for v, (pos, _, _) in overlay.items()})
        empty = points[swarm_sizes(index, self._params, points) == 0]
        if not empty.size:
            return []
        detail = (
            f"{len(empty)}/{self.SAMPLE_POINTS} sampled points have an "
            f"empty swarm (first at {empty[0]:.4f})"
        )
        return [Verdict(t, "empty-swarm", "critical", detail)]

    def _audit_list_symmetry(
        self, t: int, overlay: dict[int, tuple[float, int, dict]]
    ) -> list[Verdict]:
        assert self._params is not None
        missing: list[tuple[float, float]] = []  # (v's, w's position) per missing w -> v
        checked = 0
        for v, (pos, _, nbrs) in overlay.items():
            for w in nbrs:
                if w in overlay:
                    checked += 1
                    if v not in overlay[w][2]:
                        missing.append((pos, overlay[w][0]))
        # A missing reverse edge counts only if owed: v in one of w's
        # Definition-5 arcs (the required_neighbor_arcs test, one array pass).
        v_pos, w_pos = np.array(missing, dtype=np.float64).reshape(-1, 2).T
        radius = np.array([self._params.list_radius] + 2 * [self._params.debruijn_radius])
        owed = ring_distance_array(v_pos[:, None], arc_centers(w_pos)) <= radius
        asymmetric = int(np.count_nonzero(owed.any(axis=1)))
        if not asymmetric:
            return []
        detail = f"{asymmetric}/{checked} overlay edges lack an owed reverse"
        return [Verdict(t, "asymmetric-list", "warn", detail)]

    def _audit_connectivity(self, engine: Engine, t: int) -> list[Verdict]:
        mature = {
            v
            for v in engine.alive
            if t - engine.lifecycle.joined_round(v) >= self.MATURITY_AGE
        }
        if len(mature) < 2:
            return []
        knows: dict[int, set[int]] = {v: set() for v in mature}
        for rnd in (t - 1, t):
            edges = engine.trace.edges_at(rnd)
            if edges is not None:
                for v, w in edges.pairs_among(mature):
                    knows[v].add(w)
        if not any(knows.values()):
            # A fully silent window is no evidence of a partition (e.g. the
            # very first round, before any protocol message exists).
            return []
        comps = components(knows)
        if len(comps) <= 1:
            return []
        sizes = sorted((len(c) for c in comps), reverse=True)
        detail = (
            f"communication graph split into {len(comps)} components "
            f"(sizes {sizes[:5]}{'...' if len(sizes) > 5 else ''})"
        )
        return [Verdict(t, "disconnected", "critical", detail)]
