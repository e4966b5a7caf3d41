"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    List every registered experiment with its title.
``run E-ID [E-ID ...] [--full] [--seed S]``
    Run experiments and print their tables; exits non-zero on FAIL.
``report [--full] [--out PATH]``
    Run the whole suite in artefact order and write a markdown report.
``params N [--c C] [--r R] ...``
    Print the derived protocol parameters for a network size.
``scenario [NAME ...] [--list] [--seeds S,...] [--workers W] [--full] [--out PATH]``
    Named adversity scenarios (network conditions x churn x adversary).
    ``--list`` prints the registry; otherwise the named scenarios (the
    whole registry when none is named) run over the distinct ``--seeds``
    and print their recovery reports (time to first degradation,
    degraded-round fraction, time to recover, routing-stretch p50/p95/p99)
    with each cell's pass verdict, exiting non-zero when any cell fails.
    Quick runs stop 24 rounds past bootstrap, ``--full`` runs at full
    length.  ``--workers W`` fans the grid over a process pool — output is
    identical for any worker count — and ``--out PATH`` writes the
    schema-validated JSON report.  The E-CH drop x delay x stall grid runs
    as ``run E-CH``.
``profile [--n N] [--rounds R] [--seed S] [--churn P]``
    Profile ``ProtocolParams.calibrated(N)`` (as every BENCH row): print the
    hot-path table (adversary / receive / compute / close seconds per
    round) and the compute phase's prepare / plan / act split.
``scale [--file PATH]``
    Print the recorded scaling curve (seconds per round and peak RSS per
    network size) from ``benchmarks/results/BENCH_scaling.json``; rows
    restored from older trees are tagged ``history`` and get no speedup;
    refresh
    it with ``pytest benchmarks/bench_scaling.py --benchmark-only --full``
    under ``REPRO_BENCH_RECORD=1``.
"""

from __future__ import annotations

import argparse
import sys

from repro.config import ProtocolParams

__all__ = ["main"]


class _UsageError(Exception):
    """Bad command-line input: ``main`` prints ``<command>: <message>``, exits 2."""


def _check_seed(seed: int | None) -> None:
    """``--seed`` seeds NumPy streams, so it must not be negative."""
    if seed is not None and seed < 0:
        raise _UsageError(f"--seed must not be negative, got {seed}")


def _seeds(value: str) -> tuple[int, ...]:
    """A ``--seeds`` comma-separated list of distinct non-negative ints, at least one."""
    try:
        seeds = tuple(int(s) for s in value.split(",") if s.strip())
    except ValueError:
        raise _UsageError(f"--seeds expects comma-separated ints, got {value!r}") from None
    if not seeds:
        raise _UsageError("--seeds must name at least one seed")
    if min(seeds) < 0:
        raise _UsageError(f"--seeds must not be negative, got {value!r}")
    if len(set(seeds)) != len(seeds):
        raise _UsageError(f"--seeds must be distinct, got {value!r}")
    return seeds


def _cmd_list(_args: argparse.Namespace) -> int:
    from repro.experiments import all_experiments
    from repro.experiments.report import DEFAULT_ORDER

    import importlib

    registry = all_experiments()
    for eid in DEFAULT_ORDER:
        fn = registry[eid]
        doc = fn.__doc__ or importlib.import_module(fn.__module__).__doc__ or ""
        title = doc.strip().splitlines()[0] if doc.strip() else ""
        print(f"{eid:>6}  {title}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments import get_experiment

    _check_seed(args.seed)
    # Every id is resolved before any experiment runs.
    fns = []
    for eid in args.ids:
        try:
            fns.append(get_experiment(eid))
        except KeyError:
            raise _UsageError(
                f"unknown experiment {eid!r}; try `python -m repro list`"
            ) from None
    kwargs = {"quick": not args.full}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    failed = False
    for fn in fns:
        result = fn(**kwargs)
        print(result.to_table())
        print()
        failed = failed or not result.passed
    return 1 if failed else 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import render_report, run_all, write_report

    results = run_all(quick=not args.full, progress=True)
    if args.out:
        path = write_report(args.out, results)
        print(f"wrote {path}")
    else:
        print(render_report(results))
    return 0 if all(r.passed for r in results) else 1


def _cmd_scenario(args: argparse.Namespace) -> int:
    import json

    from repro.scenarios import (
        ROW_HEADER,
        SCENARIOS,
        all_scenarios,
        cell_row,
        get_scenario,
        run_matrix,
        scenario_report,
        shortened,
        validate_scenario_report,
    )
    from repro.util.tables import format_table

    if args.list:
        if args.names:
            raise _UsageError("--list takes no scenario names")
        width = max(len(s.name) for s in all_scenarios())
        for s in all_scenarios():
            print(f"{s.name:>{width}}  {s.description}")
        return 0
    names = tuple(dict.fromkeys(args.names)) or tuple(sorted(SCENARIOS))
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise _UsageError(
            f"unknown scenarios {unknown}; try `python -m repro scenario --list`"
        )
    seeds = _seeds(args.seeds)
    scenarios = {
        name: get_scenario(name) if args.full else shortened(get_scenario(name))
        for name in names
    }
    cells = run_matrix(tuple(scenarios.values()), seeds, workers=args.workers)
    rows = [cell_row(scenarios[cell["scenario"]], cell) for cell in cells]
    print(format_table(ROW_HEADER, rows))
    failed = sum(not row[-1] for row in rows)
    if args.out:
        report = scenario_report(cells)
        validate_scenario_report(report)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    if failed:
        print(f"{failed} of {len(cells)} cells failed their pass criterion")
        return 1
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.adversary.oblivious import RandomChurnAdversary
    from repro.core.runner import MaintenanceSimulation
    from repro.sim.profile import STAGES, PhaseProfiler

    if args.rounds < 1:
        print(f"profile: --rounds must be at least 1, got {args.rounds}")
        return 2
    if args.churn < 0.0:
        print(f"profile: --churn must not be negative, got {args.churn}")
        return 2
    profiler = PhaseProfiler()
    try:
        params = ProtocolParams.calibrated(args.n, seed=args.seed)
        adversary = None
        if args.churn > 0.0:
            adversary = RandomChurnAdversary(params, seed=args.seed, intensity=args.churn)
        sim = MaintenanceSimulation(params, adversary, profiler=profiler, workers=args.workers)
    except ValueError as exc:
        print(f"profile: {exc}")
        return 2
    with sim:
        sim.run(args.rounds)
    mean_ms = profiler.total_time() / max(1, profiler.rounds) * 1e3
    print(
        f"n={args.n} rounds={args.rounds} seed={args.seed} "
        f"churn={args.churn} workers={args.workers} mean={mean_ms:.2f} ms/round"
    )
    print()
    print(profiler.table())
    parts = profiler.compute_parts_totals()
    if parts:
        print()
        print(f"{'compute':<10} {'total s':>10} {'ms/round':>10}")
        for name, seconds in zip(STAGES, parts):
            print(
                f"{name:<10} {seconds:>10.3f} "
                f"{seconds / max(1, profiler.rounds) * 1e3:>10.2f}"
            )
    shard_rounds = [t for t in profiler.history if t.shards]
    if shard_rounds:
        per_shard = [0.0] * max(len(t.shards) for t in shard_rounds)
        for t in shard_rounds:
            for k, s in enumerate(t.shards):
                per_shard[k] += s
        print()
        print(f"{'shard':<10} {'total s':>10} {'ms/round':>10}")
        for k, seconds in enumerate(per_shard):
            print(
                f"{k:<10} {seconds:>10.3f} "
                f"{seconds / len(shard_rounds) * 1e3:>10.2f}"
            )
    pipe, shm = profiler.exchange_totals()
    if pipe or shm:
        per_round = (pipe + shm) / max(1, profiler.rounds) / 1e6
        share = pipe / (pipe + shm)
        print()
        print(
            f"exchange   pipe {pipe / 1e6:.2f} MB  shm {shm / 1e6:.2f} MB  "
            f"({per_round:.2f} MB/round, pipe share {share:.2%})"
        )
    return 0


def _history(entry: dict) -> bool:
    """Whether a BENCH row was restored from an older tree (label ``history...``)."""
    return entry.get("label", "").startswith("history")


def _cmd_scale(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.util.benchrec import validate_bench_file

    path = Path(args.file)
    if not path.exists():
        print(
            f"{path}: no scaling record yet; run\n"
            "  REPRO_BENCH_RECORD=1 PYTHONPATH=src python -m pytest "
            "benchmarks/bench_scaling.py --benchmark-only --full"
        )
        return 2
    data = validate_bench_file(path)
    # Newest entry per (n, workers) wins; records that predate the sharded
    # engine carry no workers field and mean workers=1.
    latest: dict[tuple[int, int], dict] = {}
    for entry in data["entries"]:
        latest[(entry["n"], entry.get("workers", 1))] = entry
    if not latest:
        print(f"{path}: no entries")
        return 2
    print(
        f"{'n':>6}  {'W':>3}  {'s/round':>9}  {'peak RSS':>9}  "
        f"{'speedup':>8}  {'exch MB/rd':>11}  recorded"
    )
    for n, workers in sorted(latest):
        entry = latest[(n, workers)]
        spr = entry["seconds_per_round"]
        # Speedup of this row vs the serial (workers=1) row at the same n;
        # the serial rows anchor at 1.00x.  Rows restored from older trees
        # ("history" labels) are not compared with anything.
        serial = latest.get((n, 1))
        if spr and serial is not None and not (_history(entry) or _history(serial)):
            speed = f"{serial['seconds_per_round'] / spr:>7.2f}x"
        else:
            speed = f"{'—':>8}"
        # Per-round exchange traffic (pipe + shm), recorded by sharded runs
        # on the zero-copy exchange path; serial rows have no exchange.
        xch_pipe = entry.get("exchange_bytes_pipe")
        xch_shm = entry.get("exchange_bytes_shm")
        if xch_pipe is not None or xch_shm is not None:
            exch = f"{((xch_pipe or 0) + (xch_shm or 0)) / 1e6:>10.2f}M"
        else:
            exch = f"{'—':>11}"
        tag = "  history" if _history(entry) else ""
        rss_mb = entry["peak_rss_kb"] / 1024.0
        print(
            f"{n:>6}  {workers:>3}  {spr:>9.4f}  {rss_mb:>7.1f}MB  "
            f"{speed}  {exch}  {entry['created']}{tag}"
        )
    return 0


def _cmd_params(args: argparse.Namespace) -> int:
    kwargs = {}
    if args.c is not None:
        kwargs["c"] = args.c
    if args.r is not None:
        kwargs["r"] = args.r
    if args.alpha is not None:
        kwargs["alpha"] = args.alpha
    try:
        params = ProtocolParams(n=args.n, **kwargs)
    except ValueError as exc:
        print(f"params: {exc}")
        return 2
    width = max(len(k) for k in params.describe())
    for key, value in params.describe().items():
        print(f"{key:>{width}}: {value}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Always be Two Steps Ahead of Your Enemy'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")

    p_run = sub.add_parser("run", help="run experiments by id")
    p_run.add_argument("ids", nargs="+", metavar="E-ID")
    p_run.add_argument("--full", action="store_true", help="full-size sweeps")
    p_run.add_argument("--seed", type=int, default=None)

    p_rep = sub.add_parser("report", help="run all experiments, emit markdown")
    p_rep.add_argument("--full", action="store_true")
    p_rep.add_argument("--out", default=None)

    p_sc = sub.add_parser(
        "scenario", help="named adversity scenarios with recovery reports"
    )
    p_sc.add_argument(
        "names", nargs="*", metavar="NAME", help="scenarios to run (default: all)"
    )
    p_sc.add_argument(
        "--list", action="store_true", help="print the scenario registry and exit"
    )
    p_sc.add_argument("--seeds", default="0", metavar="S[,S...]")
    p_sc.add_argument("--workers", type=int, default=1)
    p_sc.add_argument("--full", action="store_true", help="full-length runs")
    p_sc.add_argument(
        "--out", default=None, metavar="PATH", help="write the JSON recovery report"
    )

    p_prof = sub.add_parser(
        "profile", help="per-phase round profiler (hot-path table)"
    )
    p_prof.add_argument("--n", type=int, default=48, help="network size")
    p_prof.add_argument("--rounds", type=int, default=24)
    p_prof.add_argument("--seed", type=int, default=7)
    p_prof.add_argument(
        "--churn",
        type=float,
        default=0.0,
        metavar="INTENSITY",
        help="attach a RandomChurnAdversary with this intensity (0 = none)",
    )
    p_prof.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard the compute phase across N processes (default: 1)",
    )

    p_scale = sub.add_parser(
        "scale", help="print the recorded scaling curve (s/round, RSS per n)"
    )
    p_scale.add_argument(
        "--file",
        default="benchmarks/results/BENCH_scaling.json",
        help="BENCH_scaling.json path (default: %(default)s)",
    )

    p_par = sub.add_parser("params", help="show derived parameters for n")
    p_par.add_argument("n", type=int)
    p_par.add_argument("--c", type=float, default=None)
    p_par.add_argument("--r", type=int, default=None)
    p_par.add_argument("--alpha", type=float, default=None)

    args = parser.parse_args(argv)
    handlers = {
        "list": _cmd_list,
        "run": _cmd_run,
        "report": _cmd_report,
        "params": _cmd_params,
        "scenario": _cmd_scenario,
        "profile": _cmd_profile,
        "scale": _cmd_scale,
    }
    try:
        return handlers[args.command](args)
    except _UsageError as exc:
        print(f"{args.command}: {exc}")
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
