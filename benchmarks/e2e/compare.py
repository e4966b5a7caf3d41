"""Compare two result files of ``run.py --out``: parent ``A.json`` vs change ``B.json``.

    python3 benchmarks/e2e/compare.py A.json B.json

For every (workload, end-to-end metric) prints both medians, the ratio B/A
(base: A), the bound from ``BENCHMARK.json`` and a verdict:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — the run-to-run spread (first to third quartile over the
  median, known when a side holds >= 4 runs, ``run.py --repeat``) is wider
  than the bound and the two sides' runs overlap;
* ``ok``         — otherwise.

Exits non-zero on any ``regressed``, on a larger failed-op share in B, or when
a simulated statistic (``sim_digest``, counts) differs at equal seeds: a
speed-up that changes a simulated statistic is not a speed-up.  ``--quick``
results are plumbing checks and are rejected.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

__all__ = ["spread", "verdict", "compare", "main"]


def spread(runs: list[float]) -> float | None:
    """Inter-quartile distance as a share of the median (``None`` below 4 runs)."""
    if len(runs) < 4:
        return None
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return (q3 - q1) / statistics.median(runs)


def verdict(a_runs: list[float], b_runs: list[float], better: str, bound: float) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0
    a, b = statistics.median(a_runs), statistics.median(b_runs)
    worse_by = sign * (b - a) / a
    spreads = [s for s in (spread(a_runs), spread(b_runs)) if s is not None]
    if spreads and max(spreads) > bound:
        if max(sign * x for x in b_runs) < min(sign * x for x in a_runs):
            return "ok"  # every run of B reads better than every run of A
        return "unresolved"
    return "regressed" if worse_by > bound else "ok"


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], bool]:
    """Report lines and whether the comparison passes."""
    lines: list[str] = []
    passed = True
    header = f"{'workload':<16} {'metric':<18} {'A':>12} {'B':>12} {'B/A':>8} {'bound':>6}  verdict"
    lines.append(header)
    for name in a["workloads"]:
        if name not in b["workloads"]:
            lines.append(f"{name:<16} missing from B")
            passed = False
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in spec["end_to_end"]:
            m = metric["name"]
            if m not in wa["end_to_end"] or m not in wb["end_to_end"]:
                lines.append(f"{name:<16} {m:<18} not measured on both sides")
                passed = False
                continue
            ra, rb = wa["end_to_end"][m]["runs"], wb["end_to_end"][m]["runs"]
            va, vb = statistics.median(ra), statistics.median(rb)
            result = verdict(ra, rb, metric["better"], metric["bound"])
            passed &= result != "regressed"
            lines.append(
                f"{name:<16} {m:<18} {va:>12.4f} {vb:>12.4f} {vb / va:>8.4f} "
                f"{metric['bound']:>6.2f}  {result}  [{metric['unit']}; base A]"
            )
        share_a = wa["failed_ops"] / wa["ops"]
        share_b = wb["failed_ops"] / wb["ops"]
        worse = share_b > share_a
        passed &= not worse
        lines.append(
            f"{name:<16} failed_ops         {wa['failed_ops']:>6}/{wa['ops']:<5} "
            f"{wb['failed_ops']:>6}/{wb['ops']:<5} {'  larger failed share' if worse else '  ok'}"
        )
        if a["seed"] == b["seed"]:
            same = wa["sim_digest"] == wb["sim_digest"] and wa["counts"] == wb["counts"]
            passed &= same
            lines.append(
                f"{name:<16} sim_digest         "
                + ("identical, counts equal" if same else "SIMULATED STATISTICS DIFFER")
            )
    return lines, passed


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in args)
    if a["quick"] or b["quick"]:
        print("--quick results are plumbing checks, not measurements", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, passed = compare(a, b, spec)
    print("\n".join(lines))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
