"""End-to-end + per-layer benchmark of the maintenance simulator.

One command runs every workload (or ``--workload NAME`` for one), each pass
in its own subprocess so ``ru_maxrss`` is per pass and caches start cold,
prints every metric by name with its unit, verifies the simulated outputs
and, with ``--out``, writes one JSON result.  See README.md beside this file.

    python3 benchmarks/e2e/run.py [--seed 1] [--workloads a,b] [--traced] [--out FILE]
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The second form is the one ``BENCHMARK.json`` registers; its last output line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

#: Set-ups per untraced pass (its own plus set-up-only passes, each in a fresh
#: process); ``setup_s`` is their median.
SETUPS = 3
#: One invocation must end within 180 s; leave room to print.
DEADLINE_S = 170.0


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _size(args: argparse.Namespace) -> str:
    """The ``expected.json`` section for this run's workload sizes."""
    return "quick" if args.quick else "full"


def _child(args: argparse.Namespace) -> int:
    """Run one pass in this process and print its result as one JSON line."""
    from harness import run_pass
    from workloads import DEFAULT_SEED, WORKLOADS, quick_variant

    workload = WORKLOADS[args.workload]
    if args.quick:
        workload = quick_variant(workload)
    expected = None
    if args.seed == DEFAULT_SEED and args.child != "setup" and not args.write_expected:
        table = json.loads((HERE / "expected.json").read_text())
        expected = table[_size(args)][args.workload]
    print(json.dumps(run_pass(workload, args.seed, args.seconds, args.child, expected)))
    return 0


class PassFailed(RuntimeError):
    pass


def _run_pass(args: argparse.Namespace, name: str, mode: str, deadline: float) -> dict:
    """Run one pass of workload ``name`` in a fresh subprocess."""
    cmd = [sys.executable, str(HERE / "run.py"), "--child", mode, "--workload", name]
    cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
    cmd += ["--quick"] * args.quick + ["--write-expected"] * args.write_expected
    # Its own session, so a timeout can take the shard workers down with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{name} {mode} pass ran past the {DEADLINE_S:.0f} s deadline")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise PassFailed(f"{name} {mode} pass exited with code {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def _show(title: str, rows: list[tuple[str, object, str]]) -> None:
    print(f"== {title} ==")
    for name, value, unit in rows:
        shown = f"{value:.4f}" if isinstance(value, float) else str(value)
        print(f"  {name:<34} {shown:>16} {unit}")


def run_workload(args: argparse.Namespace, name: str, spec: dict) -> dict:
    """Every pass ``args`` asks for on one workload; returns its result entry."""
    entry: dict = {"errors": [], "ops": 0, "failed_ops": 0}
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    runs: dict[str, list[float]] = {m: [] for m in e2e_names}
    digests = set()
    for _ in range(args.repeat):
        deadline = time.monotonic() + DEADLINE_S
        untraced = _run_pass(args, name, "untraced", deadline)
        entry["errors"] += untraced["errors"]
        entry["ops"] += untraced["ops"]
        entry["failed_ops"] += untraced["failed_ops"]
        digests.add(untraced.get("sim_digest"))
        for m in e2e_names:
            if m in untraced:
                runs[m].append(untraced[m])
        if not args.trace and not args.quick:
            for _ in range(SETUPS - 1):
                runs["setup_s"].append(_run_pass(args, name, "setup", deadline)["setup_s"])
    if len(digests) > 1:
        entry["errors"].append("repeated passes of one seed disagree on sim_digest")
    entry["end_to_end"] = {
        m: {"value": statistics.median(r), "unit": units[m], "runs": r}
        for m, r in runs.items()
        if r
    }
    for key in ("samples", "sim_digest", "counts", "round_ms", "raw", "host_speed"):
        entry[key] = untraced.get(key)  # of the last pass
    rows = [(m, v["value"], v["unit"]) for m, v in entry["end_to_end"].items()]
    rows += [(f"raw {m}", v, f"{units[m]}, as clocked") for m, v in entry["raw"].items()]
    rows += [("host_speed", entry["host_speed"], "of the reference host")]
    rows += [("ops", entry["ops"], "count"), ("failed_ops", entry["failed_ops"], "count")]
    rows += [("samples", entry["samples"], "rounds"), ("sim_digest", entry["sim_digest"], "")]
    _show(f"{name} seed {args.seed} untraced", rows)

    if args.trace:
        traced = _run_pass(args, name, "traced", deadline)
        entry["errors"] += traced["errors"]
        if traced.get("sim_digest") != untraced.get("sim_digest"):
            entry["errors"].append("traced and untraced passes disagree on sim_digest")
        layers = traced.get("per_layer", {})
        if "round_ms_p50" in traced and "round_ms_p50" in untraced:
            ratio = traced["round_ms_p50"] / untraced["round_ms_p50"]
            layers["trace_overhead_pct"] = 100.0 * (ratio - 1.0)
        if "shard.run_compute_ms" in layers:
            twin = _run_pass(args, name, "twin", deadline)
            entry["errors"] += twin["errors"]
            if twin.get("sim_digest") != untraced.get("sim_digest"):
                entry["errors"].append("sharded run and its serial twin disagree on sim_digest")
            if "round_ms_p50" in twin and "round_ms_p50" in untraced:
                layers["shard.serial_twin_round_ms"] = twin["round_ms_p50"]
                # Base: the untraced sharded round_ms_p50 printed above.
                layers["shard.speedup_vs_serial"] = twin["round_ms_p50"] / untraced["round_ms_p50"]
        entry["per_layer"] = {
            m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]
            if m["name"] in layers
        }
        unlisted = sorted(set(layers) - set(entry["per_layer"]))
        if unlisted:
            entry["errors"].append(f"per-layer metrics missing from BENCHMARK.json: {unlisted}")
        entry["spans"] = traced.get("spans")
        rows = [
            (m["name"], entry["per_layer"].get(m["name"], {"value": "absent"})["value"], m["unit"])
            for m in spec["per_layer"]
        ]
        _show(f"{name} seed {args.seed} traced", rows)
    if entry["errors"]:
        entry["failed_ops"] = entry["ops"]  # a failed verification fails every op
    for error in entry["errors"]:
        print(f"  VERIFICATION FAILED: {error}")
    return entry


def _driver_line(entry: dict, spec: dict, trace: int) -> str:
    """The one-line result ``BENCHMARK.json``'s contract asks for."""
    if trace:
        have = entry.get("per_layer", {})
        # The contract wants every per-layer metric on every workload: a layer
        # the workload bypasses, or that runs out of sight, reads 0 here and
        # "absent" in the table above and in --out.
        metrics = {
            m["name"]: have.get(m["name"], {"value": 0.0, "unit": m["unit"]})
            for m in spec["per_layer"]
        }
    else:
        metrics = {m: {"value": v["value"], "unit": v["unit"]} for m, v in entry["end_to_end"].items()}
    line = {
        "correct": not entry["errors"],
        "attempted": entry["ops"],
        "failed": entry["failed_ops"],
        "metrics": metrics,
    }
    return json.dumps(line)


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run one; print the result line")
    parser.add_argument("--workloads", help="comma-separated subset (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="measure at least this long per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--repeat", type=int, default=1, help="untraced passes per workload")
    parser.add_argument("--quick", action="store_true", help="plumbing check at n=24")
    parser.add_argument("--out", type=Path, help="write the JSON result here")
    parser.add_argument("--write-expected", action="store_true", help="recapture expected.json")
    parser.add_argument("--child", choices=("untraced", "traced", "twin", "setup"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    spec = _spec()
    if args.seconds is None:
        args.seconds = 0.0 if args.quick else float(spec["run_seconds"])
    if args.child:
        return _child(args)

    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.workloads:
        names = args.workloads.split(",")
        unknown = sorted(set(names) - set(WORKLOADS))
        if unknown:
            parser.error(f"unknown workloads: {unknown}")
    if args.write_expected and args.seed != DEFAULT_SEED:
        parser.error("--write-expected records the default seed")

    import numpy

    result = {
        "schema": 1,
        "quick": args.quick,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "host": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "workloads": {},
    }
    try:
        for name in names:
            result["workloads"][name] = run_workload(args, name, spec)
    except PassFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    if args.write_expected:
        path = HERE / "expected.json"
        table = json.loads(path.read_text()) if path.exists() else {"seed": DEFAULT_SEED}
        mode = table.setdefault(_size(args), {})
        for name, entry in result["workloads"].items():
            mode[name] = {"sim_digest": entry["sim_digest"], "counts": entry["counts"]}
        path.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    if args.out:
        args.out.write_text(json.dumps(result) + "\n")
    if args.workload:
        print(_driver_line(result["workloads"][args.workload], spec, args.trace))
    return 1 if any(e["errors"] for e in result["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
