#!/usr/bin/env python3
"""Compare two result files written by ``bench/run.py`` (suite mode).

    python3 bench/compare.py A.json B.json

One row per (workload, metric): both medians, the ratio **and its base**
(always A), each side's run-to-run spread (distance between the first and
third quartile over its median) and a verdict against the bound
``BENCHMARK.json`` fixes for the metric:

- ``regressed``  B's median is worse than A's by more than the bound, or B
  has failed operations;
- ``unresolved`` the spread of either side exceeds the bound, so "no
  change" cannot be told from a change of that size — unless every run of B
  reads better than every run of A;
- ``ok``         otherwise.

Per-layer metrics (traced files) have no bound and get no verdict, except
the exact ones (simulated results, schedule counts): those must be
identical seed by seed. Exit code 1 on any regression or inexact count.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Tuple

from run import EXACT, spec


def load(path: str) -> Dict[Tuple[str, int], List[dict]]:
    with open(path) as fh:
        runs = json.load(fh)["runs"]
    groups: Dict[Tuple[str, int], List[dict]] = {}
    for run in runs:
        groups.setdefault((run["workload"], run["trace"]), []).append(run)
    return groups


def spread(values: List[float]) -> float:
    """Interquartile distance over the median; 0 with fewer than two runs
    (nothing is known about the spread then, and the row says ``n=1``)."""
    if len(values) < 2 or not statistics.median(values):
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(a: List[float], b: List[float], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    if sign * (med_b - med_a) > bound * abs(med_a):
        return "regressed"
    b_always_better = max(sign * v for v in b) < min(sign * v for v in a)
    if max(spread(a), spread(b)) > bound and not b_always_better:
        return "unresolved"
    return "ok"


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    name_a, name_b = sys.argv[1:]
    a_groups, b_groups = load(name_a), load(name_b)
    declared = spec()
    bounds = {m["name"]: m for m in declared["end_to_end"]}
    bad = 0
    print(f"A = {name_a}\nB = {name_b}\nratio = B / A (base A)\n")
    print(f"{'workload':<14s} {'metric':<40s} {'A median':>12s} "
          f"{'B median':>12s} {'B/A':>7s} {'A spread':>9s} {'B spread':>9s} "
          f"{'n':>5s}  verdict")
    for key in sorted(set(a_groups) & set(b_groups)):
        workload, trace = key
        runs_a, runs_b = a_groups[key], b_groups[key]
        for metric, info in runs_a[0]["metrics"].items():
            a = [r["metrics"][metric]["value"] for r in runs_a]
            b = [r["metrics"][metric]["value"] for r in runs_b]
            med_a, med_b = statistics.median(a), statistics.median(b)
            if not med_a and not med_b:
                continue            # a layer this workload never enters
            if metric in bounds:
                v = verdict(a, b, bounds[metric]["better"],
                            bounds[metric]["bound"])
                v += f" (bound {bounds[metric]['bound']:.0%})"
            elif metric in EXACT:
                by_seed = {r["seed"]: r["metrics"][metric]["value"]
                           for r in runs_a}
                same = all(by_seed.get(r["seed"]) in (
                    None, r["metrics"][metric]["value"]) for r in runs_b)
                v = "identical" if same else "DIFFERS (exact count)"
            else:
                v = "-"
            bad += v.startswith(("regressed", "DIFFERS"))
            ratio = f"{med_b / med_a:7.3f}" if med_a else "    inf"
            print(f"{workload:<14s} {metric:<40s} {med_a:>12.6g} "
                  f"{med_b:>12.6g} {ratio} {spread(a):>9.1%} "
                  f"{spread(b):>9.1%} {len(a):>2d}/{len(b):<2d}  {v}")
        if trace == 0:
            failed = [sum(r["failed"] for r in runs) for runs in
                      (runs_a, runs_b)]
            tried = [sum(r["attempted"] for r in runs) for runs in
                     (runs_a, runs_b)]
            v = "regressed (bound 0, absolute)" if failed[1] else "ok"
            bad += bool(failed[1])
            print(f"{workload:<14s} {'failed_share':<40s} "
                  f"{failed[0]:>9d}/{tried[0]:<3d}{failed[1]:>9d}/"
                  f"{tried[1]:<3d} {'':>33s} {v}")
    print(f"\n{bad} regressed or inexact" if bad else "\nno regression")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
