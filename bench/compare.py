"""Compare two sets of benchmark runs under the bounds in BENCHMARK.json.

Usage, from the repository root::

    python3 bench/compare.py --base base/*.json --head head/*.json
    python3 bench/compare.py --base base/*.json --head head/*.json \\
        --claim insert-chain3:ingest_tps

Every input file is a ``BENCH_suite.json`` written by ``run.py``.  For each
(workload, end-to-end metric) the report gives both sides' median and
quartiles, the change of the head median against the base median (positive
is better), and a verdict:

``worse``       the head median is worse by more than the metric's bound;
``better``      the head median is better by more than the bound;
``unresolved``  one side's spread (quartile distance over median) is wider
                than the bound, and the runs do not separate: not every head
                run beats, or loses to, every base run;
``unchanged``   otherwise.

A ``setup_s`` change of the medians smaller than 1 ms is ``unchanged``,
however wide the spread.  A ``--claim`` names a
(workload, metric) that must improve: runs pair up in the order given, and
the claim holds when the head wins at least nine of every ten pairs (ties
count for neither) and the medians differ by more than the base runs'
quartile distance.  The exit status is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")

#: Changes of the medians below these are too small to matter: unchanged.
ABSOLUTE_FLOOR = {"setup_s": 0.001}

#: Share of pairs the head must win for a claim.
CLAIM_WINS = 0.9


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: List[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def improvement(base: float, head: float, higher_is_better: bool) -> float:
    """Relative change of ``head`` against ``base``; positive is better."""
    change = (head - base) / abs(base)
    return change if higher_is_better else -change


def verdict(base: List[float], head: List[float], bound: float, higher_is_better: bool,
            floor: float = 0.0) -> str:
    base_median, head_median = statistics.median(base), statistics.median(head)
    if abs(head_median - base_median) < floor:
        return "unchanged"
    change = improvement(base_median, head_median, higher_is_better)
    sign = 1 if higher_is_better else -1
    if max(spread(base), spread(head)) > bound:
        if all(sign * (h - b) > 0 for h in head for b in base):
            return "better"
        if change < -bound and all(sign * (h - b) < 0 for h in head for b in base):
            return "worse"
        return "unresolved"
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "unchanged"


def claim_holds(base: List[float], head: List[float], higher_is_better: bool) -> bool:
    """The head wins at least 9 of every 10 pairs and the medians differ by
    more than the base runs' quartile distance."""
    sign = 1 if higher_is_better else -1
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (h - b) > 0)
    q1, _, q3 = quartiles(base)
    gap = sign * (statistics.median(head) - statistics.median(base))
    return bool(pairs) and wins >= CLAIM_WINS * len(pairs) and gap > q3 - q1


def load_values(paths: List[str]) -> Dict[Tuple[str, str], List[float]]:
    """``(workload, metric) -> values`` over the correct runs, in file order."""
    values: Dict[Tuple[str, str], List[float]] = {}
    for path in paths:
        with open(path) as handle:
            document = json.load(handle)
        for workload, result in document["workloads"].items():
            if not result.get("correct"):
                print(f"compare: {path}: {workload} was not correct; skipped", file=sys.stderr)
                continue
            for metric, entry in result["metrics"].items():
                values.setdefault((workload, metric), []).append(entry["value"])
    return values


def compare(base: Dict[Tuple[str, str], List[float]], head: Dict[Tuple[str, str], List[float]],
            benchmark: dict) -> List[dict]:
    metrics = {entry["name"]: entry for entry in benchmark["end_to_end"]}
    rows = []
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        for name, entry in metrics.items():
            key = (workload, name)
            if key not in base or key not in head:
                rows.append({"workload": workload, "metric": name, "verdict": "missing"})
                continue
            higher = entry["better"] == "higher"
            base_q, head_q = quartiles(base[key]), quartiles(head[key])
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": entry["unit"],
                "base": base_q,
                "head": head_q,
                "change": improvement(base_q[1], head_q[1], higher),
                "verdict": verdict(base[key], head[key], entry["bound"], higher, ABSOLUTE_FLOOR.get(name, 0.0)),
            })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True, help="suite files of the parent commit")
    parser.add_argument("--head", nargs="+", required=True, help="suite files of the change")
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC",
                        help="a (workload, metric) the change claims to improve")
    args = parser.parse_args(argv)
    with open(BENCHMARK_JSON) as handle:
        benchmark = json.load(handle)
    base, head = load_values(args.base), load_values(args.head)
    rows = compare(base, head, benchmark)
    print(f"{'workload':<16} {'metric':<14} {'base median [q1, q3]':>34} {'head median [q1, q3]':>34} {'change':>8}  verdict")
    for row in rows:
        if row["verdict"] == "missing":
            print(f"{row['workload']:<16} {row['metric']:<14} {'':>34} {'':>34} {'':>8}  missing")
            continue
        cells = [f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]" for q in (row["base"], row["head"])]
        print(f"{row['workload']:<16} {row['metric']:<14} {cells[0]:>34} {cells[1]:>34} {row['change']:>+8.2%}  {row['verdict']}")
    directions = {entry["name"]: entry["better"] == "higher" for entry in benchmark["end_to_end"]}
    for claim in args.claim:
        workload, _, metric = claim.partition(":")
        key = (workload, metric)
        if key not in base or key not in head or metric not in directions:
            print(f"claim {claim}: no such end-to-end metric in both sets")
            continue
        held = claim_holds(base[key], head[key], directions[metric])
        print(f"claim {claim}: {'met' if held else 'not met'} ({len(base[key])} base, {len(head[key])} head runs)")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
