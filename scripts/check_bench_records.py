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
  older records store their runs rounded, so a pair won by less than the
  rounding reads as a tie; a ``tied_pairs`` count, where there is one, is
  the tied pairs;
- ``pairs`` is the number of pairs in the runs, each with one run per side.

Prints one line per mismatch and exits 1 if there is any, else prints how
many workloads were checked:

    python scripts/check_bench_records.py [BENCH_x.json ...]

``scripts/bench_pairs.py``, which writes the records, summarises runs with
the helpers here.
"""

import glob
import json
import os
import statistics
import sys

TOLERANCE = 1e-4
SIDES = ("parent", "change")
# the count each metric's summary keeps, and the sign that makes a win
# positive: lower is better, except for a rate
COUNTS = {"change_lower_in_pairs": -1, "change_higher_in_pairs": 1}


def kept_runs(node, path=""):
    """Yield (path, workload) of every dict under node that keeps runs."""
    if isinstance(node, dict):
        if isinstance(node.get("runs"), list):
            yield path, node
        for key, value in node.items():
            if key != "runs":
                yield from kept_runs(value, "%s/%s" % (path, key))


def quartiles(values) -> tuple:
    """(q1, median, q3) of values, by ``statistics.quantiles(method='inclusive')``;
    each is the value itself when there is only one."""
    if len(values) == 1:
        return tuple(values) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def pairs_of(runs):
    """{pair: {side: run}} of runs, or None unless every pair holds one run
    of each side."""
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {}).setdefault(run["side"], []).append(run)
    if any(sorted(sides) != sorted(SIDES) or len(sides["parent"]) + len(sides["change"]) != 2
           for sides in by_pair.values()):
        return None
    return {pair: {side: kept[0] for side, kept in sides.items()} for pair, sides in by_pair.items()}


def wins_and_ties(pairs, name, sign) -> tuple:
    """(pairs the change wins, tied pairs) on metric name; sign is the
    metric's ``COUNTS`` value."""
    gaps = [(sides["change"][name] - sides["parent"][name]) * sign for sides in pairs.values()]
    return sum(gap > 0 for gap in gaps), gaps.count(0)


def metric_summaries(workload) -> dict:
    """name -> summary of every metric a workload summarises per side."""
    return {name: summary for name, summary in workload.items()
            if isinstance(summary, dict) and all(isinstance(summary.get(s), dict) for s in SIDES)}


def check_workload(workload) -> list:
    """Mismatches between one workload's summaries and its runs."""
    pairs = pairs_of(workload["runs"])
    if pairs is None:
        return ["a pair lacks a side or has two runs of one side"]
    problems = []
    if workload.get("pairs", len(pairs)) != len(pairs):
        problems.append("pairs is %r, the runs hold %d" % (workload["pairs"], len(pairs)))
    for name, summary in metric_summaries(workload).items():
        for side in SIDES:
            values = [run[name] for run in workload["runs"] if run["side"] == side]
            for key, want in zip(("q1", "median", "q3"), quartiles(values)):
                got = summary[side].get(key)
                if got is None or abs(got - want) > TOLERANCE:
                    problems.append("%s %s %s is %r, the runs give %.6g" % (name, side, key, got, want))
        for key, sign in COUNTS.items():
            if key not in summary:
                continue
            wins, ties = wins_and_ties(pairs, name, sign)
            if not wins <= summary[key] <= wins + ties:
                problems.append("%s %s is %r, the runs give %d wins and %d ties" % (name, key, summary[key], wins, ties))
            if summary.get("tied_pairs", ties) != ties:
                problems.append("%s tied_pairs is %r, the runs give %d" % (name, summary["tied_pairs"], ties))
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
