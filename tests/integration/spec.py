"""The declarative protocol spec (``protocol-spec.json``).

The spec is the committed, human-reviewed statement of the paper's
message contract: for every message type its fields and the lifecycle
phases of legal producers and consumers, and for every routed-payload tag
its producer phases.  Every entry carries an ``anchor`` citing the
PAPER.md / DESIGN.md / docs/PROTOCOL.md passage it was derived from, so a
reader can audit the spec against the paper the same way
``contract.py`` audits the code against the spec.

Schema (JSON, top-level keys; everything beyond ``schema``/``messages``
is optional):

``messages``
    ``name -> {anchor, kind, fields, producer_phases, consumer_phases}``.
    ``kind`` is ``message`` (node-to-node, must be dispatched), ``engine``
    (produced by the simulation engine, dispatched at nodes) or
    ``record`` (carried inside other messages, never dispatched).
``payloads``
    Routed-payload tags (``("join", rec)`` style) -> ``{anchor,
    producer_phases}``.
``message_modules``
    Dotted modules whose every dataclass must be a registered
    (``__protocol__``-marked and spec-covered) message class.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

__all__ = [
    "PHASES",
    "SPEC_SCHEMA",
    "MessageSpec",
    "PayloadSpec",
    "ProtocolSpec",
    "SpecError",
    "contract_markdown",
    "load_spec",
]

SPEC_SCHEMA = 1

#: Lifecycle phases, in protocol order (NEW -> FRESH -> ESTABLISHED).
PHASES = ("new", "fresh", "established")

_KINDS = ("message", "engine", "record")


class SpecError(ValueError):
    """The spec file is missing, not JSON, or breaks the schema."""


def _phases(raw: object, where: str) -> tuple[str, ...]:
    if raw is None:
        return PHASES
    if not isinstance(raw, list) or not all(isinstance(p, str) for p in raw):
        raise SpecError(f"protocol-spec: {where} must be a list of phase names")
    bad = [p for p in raw if p not in PHASES]
    if bad:
        raise SpecError(
            f"protocol-spec: {where} names unknown phases {bad} (known: {list(PHASES)})"
        )
    # Keep protocol order regardless of spec spelling (deterministic output).
    return tuple(p for p in PHASES if p in raw)


def _require_anchor(entry: Mapping, where: str) -> str:
    anchor = entry.get("anchor")
    if not isinstance(anchor, str) or not anchor.strip():
        raise SpecError(
            f"protocol-spec: {where} needs a non-empty `anchor` citing its "
            "PAPER.md/DESIGN.md/PROTOCOL.md derivation"
        )
    return anchor


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
        for p in self.payloads:
            if p.tag == tag:
                return p
        return None

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
            if not isinstance(entry, Mapping):
                raise SpecError(f"protocol-spec: messages.{name} must be an object")
            kind = entry.get("kind", "message")
            if kind not in _KINDS:
                raise SpecError(
                    f"protocol-spec: messages.{name}.kind must be one of "
                    f"{list(_KINDS)}, got {kind!r}"
                )
            messages.append(
                MessageSpec(
                    name=name,
                    anchor=_require_anchor(entry, f"messages.{name}"),
                    kind=kind,
                    fields=_str_list(entry.get("fields", []), f"messages.{name}.fields"),
                    producer_phases=_phases(
                        entry.get("producer_phases"), f"messages.{name}.producer_phases"
                    ),
                    consumer_phases=_phases(
                        entry.get("consumer_phases"), f"messages.{name}.consumer_phases"
                    ),
                )
            )
        payloads = []
        for tag, entry in (raw.get("payloads") or {}).items():
            if not isinstance(entry, Mapping):
                raise SpecError(f"protocol-spec: payloads.{tag} must be an object")
            payloads.append(
                PayloadSpec(
                    tag=tag,
                    anchor=_require_anchor(entry, f"payloads.{tag}"),
                    producer_phases=_phases(
                        entry.get("producer_phases"), f"payloads.{tag}.producer_phases"
                    ),
                )
            )
        return cls(
            messages=tuple(messages),
            payloads=tuple(payloads),
            message_modules=_str_list(raw.get("message_modules", []), "message_modules"),
        )


def load_spec(path: Path | str) -> ProtocolSpec:
    """Load and validate a spec file; errors become :class:`SpecError`."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise SpecError(f"no protocol spec at {path}") from None
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, not JSON
        raise SpecError(f"protocol-spec: {path} is not valid JSON: {exc}") from None
    return ProtocolSpec.from_dict(raw)


def _cell(phases: tuple[str, ...]) -> str:
    return "any" if tuple(phases) == PHASES else ", ".join(phases) or "—"


def contract_markdown(spec: ProtocolSpec) -> str:
    """The "message contract" table embedded in docs/PROTOCOL.md.

    Generated from the spec so docs cannot drift silently: a test renders
    this from the committed ``protocol-spec.json`` and asserts PROTOCOL.md
    contains it verbatim.
    """
    lines = [
        "| message | kind | fields | producer phases | consumer phases | anchor |",
        "|---|---|---|---|---|---|",
    ]
    for m in spec.messages:
        lines.append(
            f"| `{m.name}` | {m.kind} | "
            + ", ".join(f"`{f}`" for f in m.fields)
            + f" | {_cell(m.producer_phases)}"
            + f" | {_cell(m.consumer_phases) if m.dispatched else '—'}"
            + f" | {m.anchor} |"
        )
    for p in spec.payloads:
        lines.append(
            f"| payload `(\"{p.tag}\", …)` | routed | — "
            f"| {_cell(p.producer_phases)} | target swarm | {p.anchor} |"
        )
    return "\n".join(lines)
