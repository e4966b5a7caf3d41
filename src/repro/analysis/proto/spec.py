"""The declarative protocol spec (``protocol-spec.json``).

The spec is the committed, human-reviewed statement of the paper's
message contract: for every message type its fields and the lifecycle
phases of legal producers and consumers, and for every routed-payload tag
its producer phases.  Every entry carries an ``anchor`` citing the
PAPER.md / DESIGN.md / docs/PROTOCOL.md passage it was derived from, so a
reader can audit the spec against the paper the same way the checks
audit the code against the spec: P3 and P6 hold the declarations to it
statically, and ``tests/integration/contract.py`` holds live rounds to
its phases.

Schema (JSON, top-level keys; everything beyond ``schema``/``messages``
is optional so fixture corpora can stay minimal):

``messages``
    ``name -> {anchor, kind, fields, producer_phases, consumer_phases}``.
    ``kind`` is ``message`` (node-to-node, must be dispatched), ``engine``
    (produced by the simulation engine, dispatched at nodes) or
    ``record`` (carried inside other messages, never dispatched).
``payloads``
    Routed-payload tags (``("join", rec)`` style) -> ``{anchor,
    producer_phases}``.
``message_modules``
    Dotted modules whose every top-level dataclass must be a registered
    (``__protocol__``-marked and spec-covered) message class; P6 uses it
    to prove 100% coverage of ``repro.core.messages``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from repro.analysis.lint.engine import LintError

__all__ = [
    "DEFAULT_SPEC_NAME",
    "PHASES",
    "SPEC_SCHEMA",
    "MessageSpec",
    "PayloadSpec",
    "ProtocolSpec",
    "contract_markdown",
    "load_spec",
]

#: File name looked up at the repository root by default.
DEFAULT_SPEC_NAME = "protocol-spec.json"

SPEC_SCHEMA = 1

#: Lifecycle phases, in protocol order (NEW -> FRESH -> ESTABLISHED).
PHASES = ("new", "fresh", "established")

_KINDS = ("message", "engine", "record")


def _phases(raw: object, where: str) -> tuple[str, ...]:
    if raw is None:
        return PHASES
    if not isinstance(raw, list) or not all(isinstance(p, str) for p in raw):
        raise LintError(f"protocol-spec: {where} must be a list of phase names")
    bad = [p for p in raw if p not in PHASES]
    if bad:
        raise LintError(
            f"protocol-spec: {where} names unknown phases {bad} "
            f"(known: {list(PHASES)})"
        )
    # Keep protocol order regardless of spec spelling (deterministic output).
    return tuple(p for p in PHASES if p in raw)


def _require_anchor(entry: Mapping, where: str) -> str:
    anchor = entry.get("anchor")
    if not isinstance(anchor, str) or not anchor.strip():
        raise LintError(
            f"protocol-spec: {where} needs a non-empty `anchor` citing its "
            "PAPER.md/DESIGN.md/PROTOCOL.md derivation"
        )
    return anchor


def _str_list(raw: object, where: str) -> tuple[str, ...]:
    if not isinstance(raw, list) or not all(isinstance(s, str) for s in raw):
        raise LintError(f"protocol-spec: {where} must be a list of strings")
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
    source: str = ""
    relpath: str = DEFAULT_SPEC_NAME
    _by_name: dict = field(
        default_factory=dict, compare=False, repr=False, hash=False
    )

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
    def from_dict(cls, raw: Mapping, *, relpath: str = DEFAULT_SPEC_NAME) -> "ProtocolSpec":
        if not isinstance(raw, Mapping):
            raise LintError("protocol-spec: top level must be an object")
        if raw.get("schema") != SPEC_SCHEMA:
            raise LintError(
                f"protocol-spec: schema must be {SPEC_SCHEMA}, "
                f"got {raw.get('schema')!r}"
            )
        messages_raw = raw.get("messages")
        if not isinstance(messages_raw, Mapping) or not messages_raw:
            raise LintError("protocol-spec: `messages` must be a non-empty object")
        messages = []
        for name, entry in messages_raw.items():
            if not isinstance(entry, Mapping):
                raise LintError(f"protocol-spec: messages.{name} must be an object")
            kind = entry.get("kind", "message")
            if kind not in _KINDS:
                raise LintError(
                    f"protocol-spec: messages.{name}.kind must be one of "
                    f"{list(_KINDS)}, got {kind!r}"
                )
            messages.append(
                MessageSpec(
                    name=name,
                    anchor=_require_anchor(entry, f"messages.{name}"),
                    kind=kind,
                    fields=_str_list(
                        entry.get("fields", []), f"messages.{name}.fields"
                    ),
                    producer_phases=_phases(
                        entry.get("producer_phases"),
                        f"messages.{name}.producer_phases",
                    ),
                    consumer_phases=_phases(
                        entry.get("consumer_phases"),
                        f"messages.{name}.consumer_phases",
                    ),
                )
            )
        payloads = []
        for tag, entry in (raw.get("payloads") or {}).items():
            if not isinstance(entry, Mapping):
                raise LintError(f"protocol-spec: payloads.{tag} must be an object")
            payloads.append(
                PayloadSpec(
                    tag=tag,
                    anchor=_require_anchor(entry, f"payloads.{tag}"),
                    producer_phases=_phases(
                        entry.get("producer_phases"),
                        f"payloads.{tag}.producer_phases",
                    ),
                )
            )
        return cls(
            messages=tuple(messages),
            payloads=tuple(payloads),
            message_modules=_str_list(
                raw.get("message_modules", []), "message_modules"
            ),
            source=str(raw.get("source", "")),
            relpath=relpath,
        )

    def to_dict(self) -> dict:
        """JSON round-trip: ``from_dict(to_dict(spec)) == spec``."""
        out: dict = {"schema": SPEC_SCHEMA}
        if self.source:
            out["source"] = self.source
        if self.message_modules:
            out["message_modules"] = list(self.message_modules)
        out["messages"] = {
            m.name: {
                "anchor": m.anchor,
                "kind": m.kind,
                "fields": list(m.fields),
                "producer_phases": list(m.producer_phases),
                "consumer_phases": list(m.consumer_phases),
            }
            for m in self.messages
        }
        if self.payloads:
            out["payloads"] = {
                p.tag: {
                    "anchor": p.anchor,
                    "producer_phases": list(p.producer_phases),
                }
                for p in self.payloads
            }
        return out


def load_spec(path: Path | str) -> ProtocolSpec:
    """Load and validate a spec file; errors become :class:`LintError`."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise LintError(
            f"no protocol spec at {path} (the P rules need one; commit it)"
        ) from None
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, not JSON
        raise LintError(f"protocol-spec: {path} is not valid JSON: {exc}") from None
    return ProtocolSpec.from_dict(raw, relpath=path.name)


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
