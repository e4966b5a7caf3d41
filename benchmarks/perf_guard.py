"""CI perf regression guard: fresh quick-bench vs committed BENCH history.

Reads a pytest-benchmark ``--benchmark-json`` dump, matches the named tests
against their committed ``benchmarks/results/BENCH_<id>.json`` records, and
fails (exit 1) when a fresh mean seconds-per-round exceeds the *last
committed* entry by more than ``--factor`` (default 1.25x, absorbing normal
runner jitter while catching real regressions).

Usage::

    python benchmarks/perf_guard.py bench.json \
        test_micro_protocol_rounds=micro_protocol_rounds \
        'test_scaling_round_cost[512-1]=scaling@n=512,workers=1' \
        [--factor 1.25]

Each positional check is ``<test name>=<bench id>[@k=v,...]``.  A BENCH
file that holds a whole grid (the scaling curve records one entry per
``(n, workers)`` point) is narrowed with the optional ``@`` filter: the
guard compares against the *last* committed entry whose fields match every
``k=v`` pair (``workers`` absent in an old entry matches ``workers=1``).
The test's simulated rounds-per-iteration are taken from the committed
entry, so both sides compare in seconds per simulated round.

A test that reports a deterministic work counter in its benchmark
``extra_info`` (``repro_calls_per_round``) is also held to the newest
matching committed entry that carries one, exactly: any increase fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


def _find_benchmark(payload: dict, test_name: str) -> dict | None:
    for bench in payload.get("benchmarks", []):
        if bench.get("name", "").split("[")[0] == test_name.split("[")[0]:
            if "[" not in test_name or bench.get("name") == test_name:
                return bench
    return None


def _parse_bench_ref(ref: str) -> tuple[str, dict[str, int]]:
    """Split ``bench_id[@k=v,...]`` into the id and an entry filter."""
    bench_id, at, filter_spec = ref.partition("@")
    fields: dict[str, int] = {}
    if at:
        for pair in filter_spec.split(","):
            key, eq, value = pair.partition("=")
            if not eq or not key:
                raise ValueError(f"bad entry filter {pair!r} (want k=v)")
            fields[key] = int(value)
    return bench_id, fields


#: Deterministic work counters: a fresh value above the committed one fails.
COUNTERS = ("repro_calls_per_round",)


def _select_entry(
    entries: list[dict], fields: dict[str, int], having: str | None = None
) -> dict | None:
    """The newest committed entry matching every filter field (and carrying
    the field ``having``, if given).

    ``workers`` is special-cased: entries recorded before the sharded
    engine carry no workers field and mean workers=1.
    """
    for entry in reversed(entries):
        if (having is None or having in entry) and all(
            entry.get(key, 1 if key == "workers" else None) == value
            for key, value in fields.items()
        ):
            return entry
    return None


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from repro.util.benchrec import bench_path, validate_bench_file

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("json_file", help="pytest-benchmark --benchmark-json dump")
    parser.add_argument(
        "checks", nargs="+", metavar="TEST=BENCH_ID", help="tests to guard"
    )
    parser.add_argument(
        "--factor",
        type=float,
        default=1.25,
        help="allowed slowdown vs last committed entry (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    payload = json.loads(Path(args.json_file).read_text())
    failed = False
    for spec in args.checks:
        test_name, sep, bench_ref = spec.partition("=")
        if not sep:
            print(f"bad check spec {spec!r} (want TEST=BENCH_ID[@k=v,...])")
            return 2
        try:
            bench_id, fields = _parse_bench_ref(bench_ref)
        except ValueError as exc:
            print(f"bad check spec {spec!r}: {exc}")
            return 2
        record = validate_bench_file(bench_path(RESULTS_DIR, bench_id))
        committed = _select_entry(record["entries"], fields)
        if committed is None:
            print(f"{bench_id}: no committed entry matches {fields or 'any'}")
            return 2
        bench = _find_benchmark(payload, test_name)
        if bench is None:
            print(f"{test_name}: not found in {args.json_file}")
            failed = True
            continue
        rounds = max(1, committed["rounds"])
        fresh = bench["stats"]["mean"] / rounds
        limit = committed["seconds_per_round"] * args.factor
        verdict = "OK" if fresh <= limit else "REGRESSION"
        print(
            f"{test_name}: fresh {fresh:.4f} s/round vs committed "
            f"{committed['seconds_per_round']:.4f} x {args.factor} "
            f"= {limit:.4f} -> {verdict}"
        )
        if fresh > limit:
            failed = True
        for counter in COUNTERS:
            count = bench.get("extra_info", {}).get(counter)
            held = _select_entry(record["entries"], fields, having=counter)
            if count is None or held is None:
                continue
            verdict = "OK" if count <= held[counter] else "REGRESSION"
            print(f"{test_name}: {counter} {count} vs committed {held[counter]} -> {verdict}")
            if count > held[counter]:
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
