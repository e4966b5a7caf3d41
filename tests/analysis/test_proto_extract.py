"""Extraction facts: what ProtocolModel recovers from small trees."""

import textwrap

from repro.analysis.flow.callgraph import ProjectIndex
from repro.analysis.proto.extract import ProtocolModel
from repro.analysis.source_cache import SourceCache, collect_py_files


def _model(tmp_path, sources):
    for name, src in sources.items():
        (tmp_path / name).write_text(textwrap.dedent(src))
    cache = SourceCache(tmp_path)
    modules = [cache.module(p) for p in collect_py_files([tmp_path])]
    return ProtocolModel(modules, ProjectIndex(modules))


def test_registry_fields_defaults_and_skips(tmp_path):
    model = _model(
        tmp_path,
        {
            "m.py": """
            from dataclasses import dataclass, field
            from typing import ClassVar


            @dataclass(frozen=True)
            class Ping:
                __protocol__ = True

                data: int
                retries: int = 0
                _secret: int = 0
                KIND: ClassVar[str] = "ping"


            @dataclass
            class Unmarked:
                data: int
            """
        },
    )
    assert set(model.registry) == {"Ping"}
    ping = model.registry["Ping"]
    # Underscore-prefixed and ClassVar pseudo-fields are not wire fields.
    assert [(f.name, f.has_default) for f in ping.fields] == [
        ("data", False),
        ("retries", True),
    ]
    # ...but the plain dataclass is still tracked for P6 module coverage.
    assert [n for n, _ in model.dataclasses_by_module["m"]] == [
        "Ping",
        "Unmarked",
    ]


def test_payload_sites_direct_wrapper_and_tag_checks(tmp_path):
    model = _model(
        tmp_path,
        {
            "m.py": """
            def make_routed_message(msg_id, payload):
                return (msg_id, payload)


            class Router:
                def _make_routed(self, ctx, msg_id, target, payload):
                    return make_routed_message(msg_id, payload)

                def launch(self, ctx, key):
                    p = ("put", key, 1) if key else ("get", key, 2)
                    return self._make_routed(ctx, 7, 0, p)


            def direct(body):
                return make_routed_message(1, payload=("join", body))


            def deliver(msg):
                tag = msg.payload[0]
                if tag == "mystery":
                    return 1
                return None
            """
        },
    )
    # The wrapper call maps its positional arg onto the callee's `payload`
    # parameter (the dht.py idiom), and the IfExp binding yields both tags;
    # a tag only compared against at delivery is not an emission.
    assert {p.tag for p in model.payload_sites} == {"put", "get", "join"}


def test_analysis_package_modules_are_never_site_scanned(tmp_path):
    model = _model(
        tmp_path,
        {
            "m.py": """
            # repro: module(repro.analysis.fake.rules)
            from dataclasses import dataclass


            @dataclass(frozen=True)
            class Ping:
                __protocol__ = True

                data: int


            def helper(make_routed_message):
                make_routed_message(payload=("probe", Ping(1)))
            """
        },
    )
    # Classes are still registered; sites inside the analyzers are not.
    assert set(model.registry) == {"Ping"}
    assert model.constructions == [] and model.payload_sites == []


def test_summary_counts_are_complete_and_deterministic(tmp_path):
    model = _model(
        tmp_path,
        {
            "m.py": """
            from dataclasses import dataclass


            @dataclass(frozen=True)
            class Ping:
                __protocol__ = True

                data: int


            def emit(ctx):
                ctx.send(0, Ping(data=1))
            """
        },
    )
    assert model.summary() == {"messages": 1, "constructions": 1, "payload_sites": 0}
