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
``chaos [--full] [--seed S] [--drop ...] [--delay ...] [--stall ...]``
    The E-CH fault-injection sweep (drop x delay x stall): each cell is a
    generated scenario run by the scenario runner, reporting routing
    success and first degradation per cell; axes are comma-separated
    probability lists and default to the E-CH experiment's grid.
``scenario --list | run NAME [NAME ...] | matrix``
    Named adversity scenarios (network conditions x churn x adversary).
    ``--list`` prints the registry; ``run`` executes the named scenarios
    and prints their recovery reports (time to first degradation,
    degraded-round fraction, time to recover, routing-stretch p50/p95/p99);
    ``matrix`` runs the whole registry.  ``--seeds S,S`` and ``--workers W``
    fan the grid over a process pool — output is identical for any worker
    count — and ``--out PATH`` writes the schema-validated JSON report.
``profile [--n N] [--rounds R] [--seed S] [--churn P]``
    Run the maintenance protocol with a per-phase wall-time profiler
    attached and print the hot-path table (adversary / receive / compute /
    close seconds per round).
``sweep [E-ID ...] [--seeds S,S,...] [--workers W] [--full]``
    Fan an (experiment x seed) grid over worker processes and print the
    merged table; the output is bit-for-bit identical for any worker count.
``scale [--file PATH]``
    Print the recorded scaling curve (seconds per round and peak RSS per
    network size) from ``benchmarks/results/BENCH_scaling.json``; refresh
    it with ``pytest benchmarks/bench_scaling.py --benchmark-only --full``
    under ``REPRO_BENCH_RECORD=1``.
``check [--rules R,...] [--paths P ...] [--format text|json|sarif] [--fix]``
    Run the static-analysis gate (see ``docs/ANALYSIS.md``) over
    ``src/repro``: 17 rules in six families — determinism D1–D5,
    lateness L1–L3, exports X1, waiver hygiene W1–W2, information flow
    F1–F2, shard safety S2–S5 — off one parse.
    Exits non-zero on any finding that is neither waived inline
    (``# repro: allow(<rule>): why``) nor grandfathered in the committed
    ``check-baseline.json`` (``--baseline P`` / ``--no-baseline`` /
    ``--update-baseline``).  ``--rules`` takes ids, codes (``S3``) or
    family letters (``S``); ``--list-rules`` prints the rule table;
    ``--fix`` deletes the stale waiver comments W2 reports, then checks.
"""

from __future__ import annotations

import argparse
import sys

from repro.config import ProtocolParams

__all__ = ["main"]


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

    failed = False
    for eid in args.ids:
        try:
            fn = get_experiment(eid)
        except KeyError:
            print(f"unknown experiment {eid!r}; try `python -m repro list`")
            return 2
        kwargs = {"quick": not args.full}
        if args.seed is not None:
            kwargs["seed"] = args.seed
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


def _parse_axis(value: str | None, name: str) -> list[float] | None:
    """A comma-separated probability list, validated to [0, 1]."""
    if value is None:
        return None
    try:
        probs = [float(v) for v in value.split(",") if v.strip()]
    except ValueError:
        raise SystemExit(f"--{name} expects comma-separated floats, got {value!r}")
    if not probs or any(not 0.0 <= p <= 1.0 for p in probs):
        raise SystemExit(f"--{name} probabilities must lie in [0, 1], got {value!r}")
    return probs


def _cmd_scenario(args: argparse.Namespace) -> int:
    import json

    from repro.scenarios import (
        SCENARIOS,
        all_scenarios,
        get_scenario,
        run_matrix,
        scenario_report,
        validate_scenario_report,
    )

    if args.list or args.action is None:
        if args.action is not None:
            raise SystemExit("scenario: --list takes no action argument")
        if not args.list:
            raise SystemExit("scenario: use --list, run NAME [NAME ...], or matrix")
        width = max(len(s.name) for s in all_scenarios())
        for s in all_scenarios():
            print(f"{s.name:>{width}}  {s.description}")
        return 0
    if args.action == "matrix":
        if args.names:
            raise SystemExit("scenario matrix runs the whole registry; drop the names")
        names = tuple(sorted(SCENARIOS))
    else:  # action == "run" (argparse restricts the choices)
        if not args.names:
            raise SystemExit("scenario run: name at least one scenario")
        names = tuple(dict.fromkeys(args.names))
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        print(f"unknown scenarios {unknown}; try `python -m repro scenario --list`")
        return 2
    if args.seed is not None:
        seeds: tuple[int, ...] = (args.seed,)
    else:
        try:
            seeds = tuple(int(s) for s in args.seeds.split(",") if s.strip())
        except ValueError:
            raise SystemExit(f"--seeds expects comma-separated ints, got {args.seeds!r}")
    if not seeds:
        raise SystemExit("--seeds must name at least one seed")
    scenarios = tuple(get_scenario(name) for name in names)
    cells = run_matrix(scenarios, seeds, workers=args.workers, quick=not args.full)
    print(
        f"{'scenario':>20}  {'seed':>4}  {'deliv':>5}  {'p95':>5}  "
        f"{'events':>6}  {'degraded':>8}  {'recover':>7}  fingerprint"
    )
    for cell in cells:
        stretch = cell["stretch"]
        recovery = cell["recovery"]
        deliv = cell["probes"]["delivery_rate"]
        ttr = recovery["time_to_recover"]
        print(
            f"{cell['scenario']:>20}  {cell['seed']:>4}  "
            f"{'-' if deliv is None else format(deliv, '.2f'):>5}  "
            f"{'-' if stretch is None else format(stretch['p95'], '.2f'):>5}  "
            f"{recovery['events']:>6}  "
            f"{recovery['degraded_round_fraction']:>8.3f}  "
            f"{'-' if ttr is None else ttr:>7}  {cell['fingerprint']}"
        )
    if args.out:
        report = scenario_report(cells)
        validate_scenario_report(report)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.experiments.e_chaos import run_chaos

    drops = _parse_axis(args.drop, "drop")
    delays = _parse_axis(args.delay, "delay")
    stalls = _parse_axis(args.stall, "stall")
    cells = None
    if drops is not None or delays is not None or stalls is not None:
        cells = [
            (d, y, s)
            for d in (drops or [0.0])
            for y in (delays or [0.0])
            for s in (stalls or [0.0])
        ]
    kwargs = {"quick": not args.full}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    result = run_chaos(cells=cells, **kwargs)
    print(result.to_table())
    return 0 if result.passed else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments import all_experiments
    from repro.experiments.sweep import DEFAULT_GRID, run_sweep

    registry = all_experiments()
    ids = tuple(args.ids) if args.ids else DEFAULT_GRID
    unknown = [eid for eid in ids if eid not in registry]
    if unknown:
        print(f"unknown experiments {unknown}; try `python -m repro list`")
        return 2
    try:
        seeds = tuple(int(s) for s in args.seeds.split(",") if s.strip())
    except ValueError:
        raise SystemExit(f"--seeds expects comma-separated ints, got {args.seeds!r}")
    if not seeds:
        raise SystemExit("--seeds must name at least one seed")
    result = run_sweep(
        ids, seeds, workers=args.workers, quick=not args.full
    )
    print(result.to_table())
    return 0 if result.passed else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.adversary.oblivious import RandomChurnAdversary
    from repro.core.runner import MaintenanceSimulation
    from repro.sim.profile import PhaseProfiler

    params = ProtocolParams(n=args.n, seed=args.seed)
    adversary = None
    if args.churn > 0.0:
        adversary = RandomChurnAdversary(params, seed=args.seed, intensity=args.churn)
    profiler = PhaseProfiler()
    with MaintenanceSimulation(
        params, adversary, profiler=profiler, workers=args.workers
    ) as sim:
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
        for name, seconds in zip(("prepare", "plan", "act"), parts):
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
    base: float | None = None
    for n, workers in sorted(latest):
        entry = latest[(n, workers)]
        spr = entry["seconds_per_round"]
        if base is None and workers == 1:
            base = spr or None
        # Speedup of this row vs the serial (workers=1) row at the same n;
        # the serial rows anchor at 1.00x.
        serial = latest.get((n, 1))
        if serial is not None and spr:
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
        rel = (
            f"  ({spr / base:.1f}x n={min(k[0] for k in latest)})"
            if base and workers == 1
            else ""
        )
        rss_mb = entry["peak_rss_kb"] / 1024.0
        print(
            f"{n:>6}  {workers:>3}  {spr:>9.4f}  {rss_mb:>7.1f}MB  "
            f"{speed}  {exch}  {entry['created']}{rel}"
        )
    return 0


def _repo_root():
    """The checkout root (parent of ``src/``), or the current directory."""
    from pathlib import Path

    import repro

    pkg = Path(repro.__file__).resolve().parent
    return pkg.parents[1] if pkg.parent.name == "src" else Path.cwd()


def _cmd_check(args: argparse.Namespace) -> int:
    """The static-analysis gate: 0 clean, 1 findings, 2 usage error."""
    import json
    from pathlib import Path

    from repro.analysis.check import load_baseline, resolve_rules, rule_table, run_check
    from repro.analysis.lint.baseline import DEFAULT_BASELINE_NAME, write_baseline
    from repro.analysis.lint.engine import LintError
    from repro.analysis.lint.fix import fix_unused_waivers

    root = _repo_root()
    paths = [Path(p) for p in args.paths] if args.paths else None
    baseline = Path(args.baseline) if args.baseline else root / DEFAULT_BASELINE_NAME
    try:
        rules = resolve_rules(args.rules)
        if args.list_rules:
            print(rule_table(rules))
            return 0
        if args.fix:
            fixed = fix_unused_waivers(paths, root=root, rules=rules)
            for relpath, count in sorted(fixed.items()):
                print(f"fixed {relpath}: removed {count} stale waiver(s)")
            if not fixed:
                print("nothing to fix: no stale waivers")
        if args.update_baseline:
            # Entries of rules that did not run are carried over untouched.
            old = load_baseline(baseline)
            report = run_check(paths, root=root, rules=rules, baseline=None)
            kept = [e for e in old.entries if e["rule"] in report.context.deselected]
            write_baseline(baseline, report.findings, keep=kept)
            print(f"wrote {baseline} ({len(report.findings) + len(kept)} entries)")
            return 0
        report = run_check(
            paths,
            root=root,
            rules=rules,
            baseline=None if args.no_baseline else baseline,
        )
    except LintError as exc:
        print(f"check: {exc}")
        return 2
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    elif args.format == "sarif":
        print(json.dumps(report.to_sarif(), indent=2))
    else:
        print(report.format_text())
    return 0 if report.ok else 1


def _cmd_params(args: argparse.Namespace) -> int:
    kwargs = {}
    if args.c is not None:
        kwargs["c"] = args.c
    if args.r is not None:
        kwargs["r"] = args.r
    if args.alpha is not None:
        kwargs["alpha"] = args.alpha
    params = ProtocolParams(n=args.n, **kwargs)
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

    p_chaos = sub.add_parser(
        "chaos", help="fault-injection sweep (drop x delay x stall)"
    )
    p_chaos.add_argument("--full", action="store_true", help="full-size sweep")
    p_chaos.add_argument("--seed", type=int, default=None)
    p_chaos.add_argument("--drop", default=None, metavar="P[,P...]")
    p_chaos.add_argument("--delay", default=None, metavar="P[,P...]")
    p_chaos.add_argument("--stall", default=None, metavar="P[,P...]")

    p_sc = sub.add_parser(
        "scenario", help="named adversity scenarios with recovery reports"
    )
    p_sc.add_argument(
        "action",
        nargs="?",
        choices=["run", "matrix"],
        default=None,
        help="`run NAME...` for chosen scenarios, `matrix` for the registry",
    )
    p_sc.add_argument("names", nargs="*", metavar="NAME")
    p_sc.add_argument(
        "--list", action="store_true", help="print the scenario registry and exit"
    )
    p_sc.add_argument("--seed", type=int, default=None, help="single seed shorthand")
    p_sc.add_argument("--seeds", default="0", metavar="S[,S...]")
    p_sc.add_argument("--workers", type=int, default=1)
    p_sc.add_argument("--full", action="store_true", help="full-length runs")
    p_sc.add_argument(
        "--out", default=None, metavar="PATH", help="write the JSON recovery report"
    )

    p_sw = sub.add_parser(
        "sweep", help="parallel (experiment x seed) sweep, merged table"
    )
    p_sw.add_argument("ids", nargs="*", metavar="E-ID")
    p_sw.add_argument("--seeds", default="0,1", metavar="S[,S...]")
    p_sw.add_argument("--workers", type=int, default=1)
    p_sw.add_argument("--full", action="store_true", help="full-size sweeps")

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

    p_check = sub.add_parser(
        "check", help="static-analysis gate: 17 rules, one parse (docs/ANALYSIS.md)"
    )
    p_check.add_argument(
        "--rules",
        default=None,
        metavar="R[,R...]",
        help="only run these rules: ids (`wallclock`), codes (`S3`) or family "
        "letters (D L X W F S)",
    )
    p_check.add_argument(
        "--paths",
        nargs="*",
        default=None,
        metavar="PATH",
        help="files/directories to analyse (default: src/repro)",
    )
    p_check.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text", help="output format"
    )
    p_check.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="baseline file (default: check-baseline.json at the repo root)",
    )
    p_check.add_argument(
        "--no-baseline", action="store_true", help="ignore the baseline file"
    )
    p_check.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from the current findings and exit 0",
    )
    p_check.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    p_check.add_argument(
        "--fix",
        action="store_true",
        help="delete the stale waiver comments W2 reports, then check",
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
        "chaos": _cmd_chaos,
        "scenario": _cmd_scenario,
        "profile": _cmd_profile,
        "sweep": _cmd_sweep,
        "scale": _cmd_scale,
        "check": _cmd_check,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
