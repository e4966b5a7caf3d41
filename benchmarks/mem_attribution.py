"""Where the steady-state heap of a maintenance run lives, by source line.

Builds ``MaintenanceSimulation`` at ``--n`` (the ``bench_scaling`` /
``benchmarks/e2e`` parameter set), runs the ``2(λ+3)`` warm-up rounds plus
``--rounds`` more under :mod:`tracemalloc`, and prints — once after the last
even round and once after the last odd one, because CREATE batches are in
flight after an odd round and join batches after an even one — the live
heap, the live bytes grouped by ``repro`` module and the top allocating
lines, then the traced peak and the process peak RSS: a memory claim starts
from attribution, not from a guess (ROADMAP item 4).

    python benchmarks/mem_attribution.py --n 128
    python benchmarks/mem_attribution.py --n 512 --rounds 10 --src ../parent/src

``--src`` points at another checkout's ``src/`` (a parent commit), so both
sides of a change are measured by the same script.  Tracing costs 3–4× the
plain round time; RSS under tracing includes tracemalloc's own tables, so
compare it between two traced runs only (``benchmarks/e2e`` and
``bench_scaling.py`` report the untraced peak).
"""

from __future__ import annotations

import argparse
import resource
import sys
import tracemalloc
from collections import defaultdict
from pathlib import Path

MB = 1024 * 1024


def _module_of(filename: str) -> str:
    """``sim/network.py`` for a file under ``repro/``, ``<numpy>`` for an
    installed package, else the file's last two path parts."""
    parts = Path(filename).parts
    if "repro" in parts:
        return "/".join(parts[parts.index("repro") + 1 :])
    if "site-packages" in parts:
        return f"<{parts[parts.index('site-packages') + 1]}>"
    return "<" + "/".join(parts[-2:]).strip("<>") + ">"


def _report(snapshot: tracemalloc.Snapshot, when: str, top: int) -> None:
    """Print one snapshot: live total, by module, top lines."""
    stats = snapshot.statistics("lineno")
    live = sum(stat.size for stat in stats)
    by_module: dict[str, int] = defaultdict(int)
    for stat in stats:
        by_module[_module_of(stat.traceback[0].filename)] += stat.size
    print(f"-- {when}: live {live / MB:.1f} MB --")
    print("  by module:")
    for module, size in sorted(by_module.items(), key=lambda kv: -kv[1])[:top]:
        print(f"    {size / MB:7.1f} MB  {100 * size / live:5.1f} %  {module}")
    print("  top lines:")
    for stat in stats[:top]:
        frame = stat.traceback[0]
        where = f"{_module_of(frame.filename)}:{frame.lineno}"
        print(f"    {stat.size / MB:7.1f} MB  {100 * stat.size / live:5.1f} %  "
              f"{stat.count:8d} blocks  {where}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=128, help="network size")
    parser.add_argument("--rounds", type=int, default=20, help="rounds past warm-up")
    parser.add_argument("--top", type=int, default=12, help="lines / modules to list")
    parser.add_argument(
        "--src",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "src",
        help="the src/ directory to import repro from",
    )
    parser.add_argument("--label", default="", help="free text for the header")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))

    from repro.config import ProtocolParams
    from repro.core.runner import MaintenanceSimulation

    # Started after the imports, so module code objects are not in the
    # picture; one frame attributes a block to the line that allocated it.
    tracemalloc.start()
    params = ProtocolParams(n=args.n, c=1.2, r=2, delta=3, tau=8, seed=1)
    warmup = 2 * (params.lam + 3)
    snapshots = []
    with MaintenanceSimulation(params) as sim:
        sim.run(warmup + args.rounds - 2)
        for _ in range(2):
            sim.run(1)
            parity = "odd" if (sim.round - 1) % 2 else "even"
            snapshots.append((f"after round {sim.round - 1} ({parity})",
                              tracemalloc.take_snapshot()))
        _, peak = tracemalloc.get_traced_memory()
        copies = [r.metrics.total_sent for r in sim.engine.reports[-2:]]
    tracemalloc.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    label = f" [{args.label}]" if args.label else ""
    print(f"== n={args.n}{label}: {warmup} warm-up + {args.rounds} rounds, "
          f"{copies[0]} / {copies[1]} copies in the last two ==")
    for when, snapshot in snapshots:
        _report(snapshot, when, args.top)
    print(f"-- traced peak {peak / MB:.1f} MB   peak RSS (traced) {rss_mb:.1f} MB --")
    return 0


if __name__ == "__main__":
    sys.exit(main())
