"""Extraction facts: what ProtocolModel recovers from small trees."""

import textwrap

from repro.analysis.flow.callgraph import ProjectIndex
from repro.analysis.proto.extract import ProtocolModel
from repro.analysis.proto.spec import ProtocolSpec
from repro.analysis.source_cache import SourceCache, collect_py_files

BASE_SPEC = {
    "schema": 1,
    "messages": {"Ping": {"anchor": "t", "fields": ["data"]}},
}


def _model(tmp_path, sources, spec=None):
    for name, src in sources.items():
        (tmp_path / name).write_text(textwrap.dedent(src))
    cache = SourceCache(tmp_path)
    modules = [cache.module(p) for p in collect_py_files([tmp_path])]
    index = ProjectIndex(modules)
    return ProtocolModel(
        modules, index, ProtocolSpec.from_dict(spec or BASE_SPEC)
    )


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


def test_dispatch_dict_loop_alias_and_consumers(tmp_path):
    model = _model(
        tmp_path,
        {
            "m.py": """
            from dataclasses import dataclass


            @dataclass(frozen=True)
            class Ping:
                __protocol__ = True

                data: int


            class Node:
                def on_round(self, ctx):
                    pings = []
                    buckets = {Ping: pings}
                    for msg in ctx.inbox:
                        buckets[type(msg)].append(msg)
                    self._drain(pings)
                    for p in pings:
                        self._one(p)

                def _drain(self, pings):
                    pass

                def _one(self, p):
                    pass
            """
        },
    )
    (entry,) = model.dispatch
    assert (entry.message, entry.bucket, entry.node_class) == (
        "Ping",
        "pings",
        "Node",
    )
    # Both the bucket hand-off and the loop-alias hand-off are consumers.
    assert {(c.message, c.handler) for c in model.consumers} == {
        ("Ping", "Node._drain"),
        ("Ping", "Node._one"),
    }


def test_on_handler_annotation_counts_as_dispatch(tmp_path):
    model = _model(
        tmp_path,
        {
            "m.py": """
            from dataclasses import dataclass


            @dataclass(frozen=True)
            class Ping:
                __protocol__ = True

                data: int


            class Node:
                def on_round(self, ctx):
                    pass

                def on_ping(self, ctx, msg: Ping):
                    return msg.data
            """
        },
    )
    (entry,) = model.dispatch
    assert (entry.message, entry.bucket) == ("Ping", "msg")
    (consumer,) = model.consumers
    assert consumer.handler == "Node.on_ping"


def test_construction_phase_context_narrows_under_guard(tmp_path):
    model = _model(
        tmp_path,
        {
            "m.py": """
            from dataclasses import dataclass


            class Phase:
                FRESH = 1
                ESTABLISHED = 2


            @dataclass(frozen=True)
            class Ping:
                __protocol__ = True

                data: int


            def free():
                return Ping(data=0)


            class Node:
                def on_round(self, ctx):
                    if self.phase is Phase.ESTABLISHED:
                        self._emit(ctx)

                def _emit(self, ctx):
                    ctx.send(0, Ping(data=1))
            """
        },
    )
    by_qname = {c.qname: c for c in model.constructions}
    # Outside any node class there is no phase context at all.
    assert by_qname["m.free"].phases is None
    # The helper inherits the interprocedural {established} entry context.
    assert by_qname["m.Node._emit"].phases == frozenset({"established"})


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

                def on_round(self, ctx):
                    pass

                def launch(self, ctx, key):
                    p = ("put", key, 1) if key else ("get", key, 2)
                    return self._make_routed(ctx, 7, 0, p)


            def direct(body):
                return make_routed_message(1, payload=("join", body))


            def deliver(msg):
                tag = msg.payload[0]
                if tag == "put":
                    return 1
                if msg.payload[0] == "get":
                    return 2
                return None
            """
        },
    )
    # The wrapper call maps its positional arg onto the callee's `payload`
    # parameter (the dht.py idiom), and the IfExp binding yields both tags.
    assert {p.tag for p in model.payload_sites} == {"put", "get", "join"}
    assert {c.tag for c in model.payload_checks} == {"put", "get"}


def test_send_hops_step_extraction_both_arities(tmp_path):
    model = _model(
        tmp_path,
        {
            "m.py": """
            def node_side(ctx, msg, dsts):
                ctx.send_hops(msg, 0, dsts)


            def network_side(net, src, msg, step, dsts):
                net.send_hops(src, msg, step, dsts)


            def batch(plane, items):
                plane.send_hops_batch([(m, s + 1, d) for m, s, d in items])
            """
        },
        spec=BASE_SPEC,
    )
    import ast

    exprs = [ast.unparse(sw.expr) for sw in model.step_writes]
    # 3-arg context form takes args[1]; 4+-arg network form takes args[2];
    # batch tuples contribute their second element (the comprehension's
    # target tuple is over-harvested too — `s` is a loop-target
    # passthrough, so P4 still classifies it as legal).
    assert sorted(exprs) == ["0", "s", "s + 1", "step"]
    apis = {s.api for s in model.send_sites}
    assert apis == {"send_hops", "send_hops_batch"}


def test_ttl_writes_need_spec_and_matching_attrs(tmp_path):
    src = {
        "m.py": """
        class Node:
            def on_round(self, ctx):
                pass

            def accept(self, ctx, owner):
                self.tokens.append((ctx.round + 4, owner))
                self.other.append((ctx.round + 4, owner))

            def grant(self, ctx, owner):
                self.grants[owner] = ctx.round + 4
        """
    }
    spec = dict(
        BASE_SPEC,
        ttl={
            "anchor": "t",
            "pools": ["tokens"],
            "ledgers": ["grants"],
            "sources": ["round + 4"],
        },
    )
    model = _model(tmp_path, src, spec=spec)
    assert {(w.attr, w.kind) for w in model.ttl_writes} == {
        ("tokens", "pool"),
        ("grants", "ledger"),
    }
    # Without a ttl spec nothing is harvested at all.
    lean = _model(tmp_path, src, spec=BASE_SPEC)
    assert lean.ttl_writes == []


def test_epoch_writes_only_inside_node_classes(tmp_path):
    model = _model(
        tmp_path,
        {
            "m.py": """
            class Node:
                def on_round(self, ctx):
                    pass

                def _cutover(self, e):
                    self.epoch = e


            class Plain:
                def set(self, e):
                    self.epoch = e
            """
        },
    )
    (write,) = model.epoch_writes
    assert write.qname == "m.Node._cutover"


def test_analysis_package_modules_are_never_site_scanned(tmp_path):
    model = _model(
        tmp_path,
        {
            "m.py": """
            # repro: module(repro.analysis.fake.rules)
            def helper(plane, msg, step, dsts):
                plane.send_hops(msg, step, dsts)
                self_writes = []
                self_writes.append(step)
            """
        },
    )
    assert model.send_sites == []
    assert model.step_writes == []


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
    assert model.summary() == {
        "messages": 1,
        "node_classes": 0,
        "dispatch_entries": 0,
        "constructions": 1,
        "payload_sites": 0,
        "send_sites": 1,
        "step_writes": 0,
        "ttl_writes": 0,
        "epoch_writes": 0,
    }
