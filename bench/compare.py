"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 bench/compare.py runs/parent/ runs/change/

Each directory holds ``bench/run.py --json`` files, one per run.  Run the
two sides alternately (parent, change, parent, change, ...) and name the
files so that sorting them keeps that order: the i-th file of A and the
i-th file of B form a pair.

For every workload and every end-to-end metric of ``BENCHMARK.json`` the
report gives each side's median and quartiles, the change of the median,
the share of pairs the change wins (ties count for neither side) and a
verdict:

- ``regression``  the change's median is worse than the parent's by more
  than the metric's bound;
- ``unresolved``  the spread between the quartiles of either side, as a
  share of its median, exceeds the bound, unless every run of the change
  beats every run of the parent;
- ``gain``        the change wins at least 9 of 10 pairs and the medians
  differ by more than the parent's quartile spread;
- ``same``        none of the above.

Exit status 1 when any metric regresses, else 0.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Verdicts from worst to best; a workload's row shows its worst.
ORDER = ("regression", "unresolved", "same", "gain")


def load_runs(directory: str) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values, in file-name order."""
    out: Dict[str, Dict[str, List[float]]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            run = json.load(fh)
        for workload, summary in run["workloads"].items():
            metrics = out.setdefault(workload, {})
            for name, m in summary["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
    return out


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: List[float], b: List[float], higher_better: bool,
            bound: float) -> dict:
    """Apply the comparison rules to one metric on one workload."""
    a1, am, a3 = quartiles(a)
    b1, bm, b3 = quartiles(b)
    sign = 1.0 if higher_better else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    win_frac = wins / len(pairs) if pairs else 0.0
    worse_by = sign * (am - bm) / abs(am) if am else 0.0
    spread = max((a3 - a1) / abs(am) if am else 0.0,
                 (b3 - b1) / abs(bm) if bm else 0.0)
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    if worse_by > bound:
        result = "regression"
    elif spread > bound and not all_better:
        result = "unresolved"
    elif win_frac >= 0.9 and abs(bm - am) > (a3 - a1):
        result = "gain"
    else:
        result = "same"
    return {"a": (a1, am, a3), "b": (b1, bm, b3),
            "change": (bm - am) / abs(am) if am else 0.0,
            "wins": wins, "pairs": len(pairs), "verdict": result}


def compare(a_dir: str, b_dir: str, benchmark: dict) -> List[dict]:
    a_runs, b_runs = load_runs(a_dir), load_runs(b_dir)
    rows = []
    for workload in sorted(set(a_runs) & set(b_runs)):
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a = a_runs[workload].get(name)
            b = b_runs[workload].get(name)
            if not a or not b:
                continue
            row = verdict(a, b, metric["better"] == "higher",
                          metric["bound"])
            row.update(workload=workload, metric=name, unit=metric["unit"],
                       bound=metric["bound"])
            rows.append(row)
    return rows


def render(rows: List[dict]) -> str:
    lines = [f"{'workload':16s} {'metric':20s} {'A median [q1, q3]':>30s} "
             f"{'B median [q1, q3]':>30s} {'change':>8s} {'wins':>6s} "
             f"{'bound':>6s}  verdict"]
    by_workload: Dict[str, List[dict]] = {}
    for row in rows:
        by_workload.setdefault(row["workload"], []).append(row)
    for workload, group in by_workload.items():
        worst = min((r["verdict"] for r in group), key=ORDER.index)
        lines.append(f"{workload:16s} {'(all metrics)':20s} {'':>30s} "
                     f"{'':>30s} {'':>8s} {'':>6s} {'':>6s}  {worst}")
        for r in group:
            a1, am, a3 = r["a"]
            b1, bm, b3 = r["b"]
            lines.append(
                f"{'':16s} {r['metric']:20s} "
                f"{f'{am:.5g} [{a1:.5g}, {a3:.5g}]':>30s} "
                f"{f'{bm:.5g} [{b1:.5g}, {b3:.5g}]':>30s} "
                f"{r['change']:>+8.1%} {r['wins']:>3d}/{r['pairs']:<2d} "
                f"{r['bound']:>6.0%}  {r['verdict']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two directories of bench/run.py --json files.")
    parser.add_argument("a", help="runs of the parent commit")
    parser.add_argument("b", help="runs of the change")
    parser.add_argument("--benchmark",
                        default=os.path.join(ROOT, "BENCHMARK.json"),
                        help="file with the metrics' directions and bounds")
    args = parser.parse_args(argv)
    with open(args.benchmark) as fh:
        benchmark = json.load(fh)
    rows = compare(args.a, args.b, benchmark)
    if not rows:
        print("no workload appears in both run sets", file=sys.stderr)
        return 2
    print(render(rows))
    return 1 if any(r["verdict"] == "regression" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
