"""The declarative spec: validation, round-trip, docs table."""

import json

import pytest

from repro.analysis.lint.engine import LintError
from repro.analysis.proto.spec import (
    PHASES,
    ProtocolSpec,
    contract_markdown,
    load_spec,
)

MINIMAL = {
    "schema": 1,
    "messages": {
        "Ping": {"anchor": "test anchor", "fields": ["data"]},
    },
}

FULL = {
    "schema": 1,
    "source": "fixture",
    "message_modules": ["protofix.msgs"],
    "messages": {
        "Ping": {
            "anchor": "a1",
            "kind": "message",
            "fields": ["data"],
            "producer_phases": ["established"],
            "consumer_phases": ["fresh", "established"],
        },
        "Rec": {
            "anchor": "a2",
            "kind": "record",
            "fields": ["node", "epoch"],
            "producer_phases": None,
            "consumer_phases": None,
        },
    },
    "payloads": {
        "probe": {"anchor": "a3", "producer_phases": ["established"]},
    },
}


def test_minimal_spec_defaults():
    spec = ProtocolSpec.from_dict(MINIMAL)
    (ping,) = spec.messages
    assert ping.kind == "message" and ping.dispatched
    assert ping.producer_phases == PHASES  # null -> all phases
    assert ping.consumer_phases == PHASES
    assert spec.message("Ping") is ping
    assert spec.message("Nope") is None


def test_full_spec_round_trips_through_to_dict():
    spec = ProtocolSpec.from_dict(FULL)
    again = ProtocolSpec.from_dict(spec.to_dict())
    assert again == spec
    assert again.payload("probe").producer_phases == ("established",)
    assert again.payload("nope") is None


def test_record_kind_is_not_dispatched():
    spec = ProtocolSpec.from_dict(FULL)
    assert not spec.message("Rec").dispatched


def test_phase_lists_are_normalised_to_protocol_order():
    raw = dict(MINIMAL)
    raw["messages"] = {
        "Ping": {
            "anchor": "a",
            "producer_phases": ["established", "new"],
        }
    }
    spec = ProtocolSpec.from_dict(raw)
    assert spec.message("Ping").producer_phases == ("new", "established")


@pytest.mark.parametrize(
    ("mutate", "match"),
    [
        (lambda d: d.pop("schema"), "schema must be 1"),
        (lambda d: d.update(schema=2), "schema must be 1"),
        (lambda d: d.update(messages={}), "non-empty object"),
        (lambda d: d.update(messages={"X": {}}), "needs a non-empty `anchor`"),
        (
            lambda d: d.update(messages={"X": {"anchor": "a", "kind": "weird"}}),
            "kind must be one of",
        ),
        (
            lambda d: d.update(
                messages={"X": {"anchor": "a", "fields": [1]}}
            ),
            "must be a list of strings",
        ),
        (
            lambda d: d.update(
                messages={"X": {"anchor": "a", "producer_phases": ["later"]}}
            ),
            "unknown phases",
        ),
    ],
)
def test_validation_errors(mutate, match):
    raw = json.loads(json.dumps(MINIMAL))
    mutate(raw)
    with pytest.raises(LintError, match=match):
        ProtocolSpec.from_dict(raw)


def test_load_spec_missing_file_and_bad_json(tmp_path):
    with pytest.raises(LintError, match="no protocol spec at"):
        load_spec(tmp_path / "absent.json")
    bad = tmp_path / "spec.json"
    bad.write_text("{not json")
    with pytest.raises(LintError, match="not valid JSON"):
        load_spec(bad)


def test_load_spec_uses_file_name_as_relpath(tmp_path):
    path = tmp_path / "myspec.json"
    path.write_text(json.dumps(MINIMAL))
    assert load_spec(path).relpath == "myspec.json"


def test_contract_markdown_rows_cover_messages_and_payloads():
    spec = ProtocolSpec.from_dict(FULL)
    table = contract_markdown(spec)
    lines = table.splitlines()
    assert lines[0].startswith("| message | kind |")
    assert len(lines) == 2 + len(spec.messages) + len(spec.payloads)
    assert any("`Ping` | message" in line for line in lines)
    # Records are never dispatched: the consumer cell is a dash.
    rec_row = next(line for line in lines if "`Rec`" in line)
    assert "| — |" in rec_row
    assert any('payload `("probe", …)` | routed' in line for line in lines)
