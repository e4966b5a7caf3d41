"""The declarative protocol spec (``protocol-spec.json``).

The spec is the committed, human-reviewed statement of the paper's
message contract: for every message type its fields, lifecycle phases of
legal producers and consumers, and — where the paper bounds them — the
allowed step/TTL/epoch source expressions.  Every entry carries an
``anchor`` citing the PAPER.md / DESIGN.md / docs/PROTOCOL.md passage it
was derived from, so a reviewer can audit the spec against the paper the
same way the analyzer audits the code against the spec.

Schema (JSON, top-level keys; everything beyond ``schema``/``messages``
is optional so fixture corpora can stay minimal):

``messages``
    ``name -> {anchor, kind, fields, producer_phases, consumer_phases,
    epoch_field_sources}``.  ``kind`` is ``message`` (node-to-node,
    must be dispatched), ``engine`` (produced by the simulation engine,
    dispatched at nodes) or ``record`` (carried inside other messages,
    never dispatched).
``payloads``
    Routed-payload tags (``("join", rec)`` style) -> ``{anchor,
    producer_phases}``.
``hops``
    ``{anchor, step_init, bound}`` — the A_ROUTING step contract
    (Lemma 9's bounded trajectory).
``epochs``
    ``{anchor, writers: {function-qname-suffix: [allowed exprs]}}`` —
    the only places (and source expressions) allowed to write
    ``self.epoch``; ``None`` (reset/demotion) is always legal.
``ttl``
    ``{anchor, pools, ledgers, sources}`` — attribute names holding
    TTL-stamped entries and the allowed expiry expressions.
``message_modules``
    Dotted modules whose every top-level dataclass must be a registered
    (``__protocol__``-marked and spec-covered) message class; P6 uses it
    to prove 100% coverage of ``repro.core.messages``.

Expressions are compared *normalised* (see :func:`norm_expr`): receiver
prefixes like ``self.``/``ctx.``/``self.params.`` are stripped so the
spec can say ``round + TOKEN_TTL`` regardless of plumbing spelling.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from repro.analysis.lint.engine import LintError

__all__ = [
    "DEFAULT_SPEC_NAME",
    "PHASES",
    "SPEC_SCHEMA",
    "EpochSpec",
    "HopSpec",
    "MessageSpec",
    "PayloadSpec",
    "ProtocolSpec",
    "TtlSpec",
    "contract_markdown",
    "load_spec",
    "norm_expr",
]

#: File name looked up at the repository root by default.
DEFAULT_SPEC_NAME = "protocol-spec.json"

SPEC_SCHEMA = 1

#: Lifecycle phases, in protocol order (NEW -> FRESH -> ESTABLISHED).
PHASES = ("new", "fresh", "established")

_KINDS = ("message", "engine", "record")

#: Receiver prefixes stripped before comparing expressions to the spec.
_NORM_RE = re.compile(r"\b(self\.params\.|self\.|ctx\.|params\.)")


def norm_expr(node: ast.expr | str) -> str:
    """Canonical text of an expression for spec comparison."""
    text = node if isinstance(node, str) else ast.unparse(node)
    return " ".join(_NORM_RE.sub("", text).split())


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
    epoch_field_sources: tuple[str, ...] = ()

    @property
    def dispatched(self) -> bool:
        """Whether the type must appear in the node dispatch table."""
        return self.kind in ("message", "engine")


@dataclass(frozen=True)
class PayloadSpec:
    """The contract for one routed-payload tag."""

    tag: str
    anchor: str
    producer_phases: tuple[str, ...]


@dataclass(frozen=True)
class HopSpec:
    """The A_ROUTING step contract (trajectory index bound)."""

    anchor: str
    step_init: int
    bound: str


@dataclass(frozen=True)
class EpochSpec:
    """Who may write ``self.epoch``, and from which expressions."""

    anchor: str
    writers: tuple[tuple[str, tuple[str, ...]], ...]

    def allowed(self, qname: str) -> tuple[str, ...] | None:
        """Allowed source exprs for a writer qname (suffix match), or None."""
        for suffix, exprs in self.writers:
            if qname == suffix or qname.endswith("." + suffix):
                return exprs
        return None


@dataclass(frozen=True)
class TtlSpec:
    """TTL-stamped containers and their allowed expiry expressions."""

    anchor: str
    pools: tuple[str, ...]
    ledgers: tuple[str, ...]
    sources: tuple[str, ...]


@dataclass(frozen=True)
class ProtocolSpec:
    """The whole committed contract, validated."""

    messages: tuple[MessageSpec, ...]
    payloads: tuple[PayloadSpec, ...] = ()
    hops: HopSpec | None = None
    epochs: EpochSpec | None = None
    ttl: TtlSpec | None = None
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
                    epoch_field_sources=tuple(
                        norm_expr(s)
                        for s in _str_list(
                            entry.get("epoch_field_sources", []),
                            f"messages.{name}.epoch_field_sources",
                        )
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
        hops = None
        if "hops" in raw:
            h = raw["hops"]
            step_init = h.get("step_init", 0)
            if not isinstance(step_init, int):
                raise LintError("protocol-spec: hops.step_init must be an int")
            hops = HopSpec(
                anchor=_require_anchor(h, "hops"),
                step_init=step_init,
                bound=str(h.get("bound", "final_step")),
            )
        epochs = None
        if "epochs" in raw:
            e = raw["epochs"]
            writers_raw = e.get("writers", {})
            if not isinstance(writers_raw, Mapping):
                raise LintError("protocol-spec: epochs.writers must be an object")
            epochs = EpochSpec(
                anchor=_require_anchor(e, "epochs"),
                writers=tuple(
                    (
                        qname,
                        tuple(
                            norm_expr(s)
                            for s in _str_list(
                                exprs, f"epochs.writers[{qname}]"
                            )
                        ),
                    )
                    for qname, exprs in writers_raw.items()
                ),
            )
        ttl = None
        if "ttl" in raw:
            t = raw["ttl"]
            ttl = TtlSpec(
                anchor=_require_anchor(t, "ttl"),
                pools=_str_list(t.get("pools", []), "ttl.pools"),
                ledgers=_str_list(t.get("ledgers", []), "ttl.ledgers"),
                sources=tuple(
                    norm_expr(s)
                    for s in _str_list(t.get("sources", []), "ttl.sources")
                ),
            )
        return cls(
            messages=tuple(messages),
            payloads=tuple(payloads),
            hops=hops,
            epochs=epochs,
            ttl=ttl,
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
                **(
                    {"epoch_field_sources": list(m.epoch_field_sources)}
                    if m.epoch_field_sources
                    else {}
                ),
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
        if self.hops:
            out["hops"] = {
                "anchor": self.hops.anchor,
                "step_init": self.hops.step_init,
                "bound": self.hops.bound,
            }
        if self.epochs:
            out["epochs"] = {
                "anchor": self.epochs.anchor,
                "writers": {q: list(e) for q, e in self.epochs.writers},
            }
        if self.ttl:
            out["ttl"] = {
                "anchor": self.ttl.anchor,
                "pools": list(self.ttl.pools),
                "ledgers": list(self.ttl.ledgers),
                "sources": list(self.ttl.sources),
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
