#!/usr/bin/env python3
"""Check the summaries of the committed benchmark records against their runs.

Every ``BENCH_*.json`` at the repository root summarises alternating
parent/change pairs of ``perfbench/run.py``. A workload that keeps its runs
(a ``runs`` list of ``{"pair", "side", <metric>: value, ...}``, also under
``earlier_runs``) is checked here:

- each side's q1, median and q3 of every metric equal
  ``statistics.quantiles(method='inclusive')`` of that side's runs within
  1e-4;
- each ``change_lower_in_pairs`` (``change_higher_in_pairs`` for a rate) is
  at least the pairs the change wins and at most those plus the tied pairs:
  the runs are stored rounded, so a pair won by less than the rounding
  reads as a tie;
- ``pairs`` is the number of pairs in the runs, each with one run per side.

Prints one line per mismatch and exits 1 if there is any, else prints how
many workloads were checked:

    python scripts/check_bench_records.py [BENCH_x.json ...]
"""

import glob
import json
import os
import statistics
import sys

TOLERANCE = 1e-4
SIDES = ("parent", "change")
COUNTS = {"change_lower_in_pairs": -1, "change_higher_in_pairs": 1}


def kept_runs(node, path=""):
    """Yield (path, workload) of every dict under node that keeps runs."""
    if isinstance(node, dict):
        if isinstance(node.get("runs"), list):
            yield path, node
        for key, value in node.items():
            if key != "runs":
                yield from kept_runs(value, "%s/%s" % (path, key))


def check_workload(workload) -> list:
    """Mismatches between one workload's summaries and its runs."""
    by_pair = {}
    for run in workload["runs"]:
        by_pair.setdefault(run["pair"], {}).setdefault(run["side"], []).append(run)
    problems = []
    if any(sorted(sides) != sorted(SIDES) or len(sides["parent"]) + len(sides["change"]) != 2
           for sides in by_pair.values()):
        problems.append("a pair lacks a side or has two runs of one side")
        return problems
    if workload.get("pairs", len(by_pair)) != len(by_pair):
        problems.append("pairs is %r, the runs hold %d" % (workload["pairs"], len(by_pair)))
    for name, summary in workload.items():
        if not (isinstance(summary, dict) and all(isinstance(summary.get(s), dict) for s in SIDES)):
            continue
        for side in SIDES:
            values = [run[name] for run in workload["runs"] if run["side"] == side]
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            for key, want in (("q1", q1), ("median", median), ("q3", q3)):
                got = summary[side].get(key)
                if got is None or abs(got - want) > TOLERANCE:
                    problems.append("%s %s %s is %r, the runs give %.6g" % (name, side, key, got, want))
        for key, sign in COUNTS.items():
            if key not in summary:
                continue
            gaps = [(sides["change"][0][name] - sides["parent"][0][name]) * sign for sides in by_pair.values()]
            wins, ties = sum(gap > 0 for gap in gaps), gaps.count(0)
            if not wins <= summary[key] <= wins + ties:
                problems.append("%s %s is %r, the runs give %d wins and %d ties" % (name, key, summary[key], wins, ties))
    return problems


def main(argv) -> int:
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    paths = argv or sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    checked, failures = 0, 0
    for path in paths:
        with open(path) as fh:
            record = json.load(fh)
        for where, workload in kept_runs(record):
            checked += 1
            for problem in check_workload(workload):
                failures += 1
                print("%s%s: %s" % (os.path.basename(path), where, problem))
    if failures:
        return 1
    print("%d workloads with runs match their summaries" % checked)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
