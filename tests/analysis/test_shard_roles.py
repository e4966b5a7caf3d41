"""Unit tests for process-role inference (seeds, propagation, tripwires)."""

import textwrap

from repro.analysis.flow.callgraph import ProjectIndex
from repro.analysis.lint.engine import SourceModule
from repro.analysis.shard.roles import MASTER, SHARED, WORKER, infer_roles


def _index(tmp_path, source, name="m.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return ProjectIndex([SourceModule.from_path(path, tmp_path)])


def test_worker_seed_propagates_to_helpers(tmp_path):
    roles = infer_roles(
        _index(
            tmp_path,
            """
            def _publish(store, v):
                store.adopt(v, 0)

            def _worker_main(engine, store):
                for v in engine.owned:
                    _publish(store, v)
            """,
        )
    )
    assert roles.worker_seeds == ("m._worker_main",)
    assert roles.role_of("m._worker_main") == WORKER
    assert roles.role_of("m._publish") == WORKER
    assert roles.worker_only("m._publish")


def test_master_seeds_cover_runner_methods_and_engine_run(tmp_path):
    roles = infer_roles(
        _index(
            tmp_path,
            """
            def _splice(items):
                return sorted(items)

            class ShardRunner:
                def run_compute(self, items):
                    return _splice(items)

            class Engine:
                def run_round(self):
                    return 1
            """,
        )
    )
    assert "m.ShardRunner.run_compute" in roles.master_seeds
    assert "m.Engine.run_round" in roles.master_seeds
    assert roles.role_of("m._splice") == MASTER
    assert not roles.worker_only("m._splice")


def test_helper_reachable_from_both_sides_is_shared(tmp_path):
    roles = infer_roles(
        _index(
            tmp_path,
            """
            def _encode(payload):
                return bytes(payload)

            def _worker_main(conn):
                conn.send_bytes(_encode([1]))

            class ShardRunner:
                def send(self, conn):
                    conn.send_bytes(_encode([2]))
            """,
        )
    )
    assert roles.role_of("m._encode") == SHARED
    assert not roles.worker_only("m._encode")


def test_unreachable_function_has_no_role(tmp_path):
    roles = infer_roles(
        _index(
            tmp_path,
            """
            def _worker_main(engine):
                return engine.params

            def bystander():
                return 0
            """,
        )
    )
    assert roles.role_of("m.bystander") is None
    assert not roles.worker_only("m.bystander")


def test_process_target_reference_does_not_leak_worker_into_master(tmp_path):
    """`Process(target=_worker_main)` is a name load, not a call — the
    master-side spawn loop must not make the worker body master-reachable."""
    roles = infer_roles(
        _index(
            tmp_path,
            """
            import multiprocessing

            def _worker_main(engine):
                return engine.params

            class ShardRunner:
                def spawn(self, engine):
                    proc = multiprocessing.Process(
                        target=_worker_main, args=(engine,)
                    )
                    proc.start()
                    return proc
            """,
        )
    )
    assert roles.role_of("m._worker_main") == WORKER
    assert roles.worker_only("m._worker_main")


def test_counts_sum_over_all_roles(tmp_path):
    roles = infer_roles(
        _index(
            tmp_path,
            """
            def _helper():
                return 1

            def _worker_loop():
                return _helper()

            class ShardRunner:
                def close(self):
                    return _helper()
            """,
        )
    )
    counts = roles.counts()
    assert counts == {MASTER: 1, WORKER: 1, SHARED: 1}
    assert sum(counts.values()) == len(roles.roles)
