"""``repro.analysis.proto`` — the protocol state-machine & contract analyzer.

The fourth whole-project engine (after ``repro lint``, ``repro flow``
and ``repro shard-check``): it *extracts* the implemented protocol from
the AST — message classes, the ``on_round`` dispatch table, construction
sites with their lifecycle-phase contexts, routed-payload tags, hop-step
/ TTL / epoch writes — and *checks* it against the committed declarative
spec ``protocol-spec.json`` (rules P1–P6).

Run it as ``repro proto-check`` (see ``docs/ANALYSIS.md``), or from code::

    from repro.analysis.proto import run_proto_check
    report = run_proto_check(root=repo_root)   # spec: protocol-spec.json
    assert report.ok, report.format_text()

Findings can be waived inline (``# repro: allow(protocol-…): <why>``)
or grandfathered in the committed ``proto-baseline.json``.
"""

from repro.analysis.proto.engine import (
    DEFAULT_PROTO_BASELINE_NAME,
    ProtoReport,
    run_proto_check,
)
from repro.analysis.proto.extract import (
    SEND_APIS,
    ConstructionSite,
    ConsumerSite,
    DispatchEntry,
    EpochWrite,
    FieldInfo,
    MessageClass,
    NodeClass,
    PayloadSite,
    PayloadTagCheck,
    ProtocolModel,
    SendSite,
    StepWrite,
    TtlWrite,
)
from repro.analysis.proto.phases import (
    ALL_PHASES,
    ClassPhases,
    FunctionPhases,
    phase_of_attr,
)
from repro.analysis.proto.rules import (
    ALL_PROTO_RULES,
    EpochMonotoneRule,
    FieldDriftRule,
    PhaseViolationRule,
    ProtoContext,
    ProtoRule,
    SpecCoverageRule,
    StepBoundRule,
    UnhandledMessageRule,
    proto_rule_table,
    resolve_proto_rules,
)
from repro.analysis.proto.spec import (
    DEFAULT_SPEC_NAME,
    PHASES,
    SPEC_SCHEMA,
    EpochSpec,
    HopSpec,
    MessageSpec,
    PayloadSpec,
    ProtocolSpec,
    TtlSpec,
    contract_markdown,
    load_spec,
    norm_expr,
)

__all__ = [
    "ALL_PHASES",
    "ALL_PROTO_RULES",
    "ClassPhases",
    "ConstructionSite",
    "ConsumerSite",
    "DEFAULT_PROTO_BASELINE_NAME",
    "DEFAULT_SPEC_NAME",
    "DispatchEntry",
    "EpochMonotoneRule",
    "EpochSpec",
    "EpochWrite",
    "FieldDriftRule",
    "FieldInfo",
    "FunctionPhases",
    "HopSpec",
    "MessageClass",
    "MessageSpec",
    "NodeClass",
    "PHASES",
    "PayloadSite",
    "PayloadSpec",
    "PayloadTagCheck",
    "PhaseViolationRule",
    "ProtoContext",
    "ProtoReport",
    "ProtoRule",
    "ProtocolModel",
    "ProtocolSpec",
    "SEND_APIS",
    "SPEC_SCHEMA",
    "SendSite",
    "SpecCoverageRule",
    "StepBoundRule",
    "StepWrite",
    "TtlSpec",
    "TtlWrite",
    "UnhandledMessageRule",
    "contract_markdown",
    "load_spec",
    "norm_expr",
    "phase_of_attr",
    "proto_rule_table",
    "resolve_proto_rules",
    "run_proto_check",
]
