#!/usr/bin/env python3
"""Run alternating parent/change pairs of the benchmark and write their record.

    python scripts/bench_pairs.py PARENT CHANGE --label NAME --workload window-leak \\
        --seed 13 --seconds 40 --pairs 10 [--claim window-leak:wall_s]
    python scripts/bench_pairs.py --check BENCH_x.json [BENCH_y.json ...]

PARENT and CHANGE are commits of this repository. Each is written by
``git archive`` into a fresh directory, ``parent`` and ``change`` side by
side in a temporary directory (under TMPDIR) that is removed at the end.
Nothing else is done to either copy, and every run sets
PYTHONDONTWRITEBYTECODE=1, so both sides compile their source on every run,
as a new checkout does. For each workload, pair k runs
``python3 perfbench/run.py --workload W --seed S --seconds T`` once in each
copy, the parent first in odd pairs and the change first in even ones.

``BENCH_<label>.json`` at the repository root is rewritten after every
pair; its ``notes`` are left empty for the reader's account. Per workload
it keeps every run unrounded in ``runs`` (pair, side, attempted, failed and
every metric the run reports but its error rate) and summarises each
metric per side by q1, median and q3, rounded to 4 places, and by the pairs
the change wins on unrounded values: ``change_higher_in_pairs`` for a rate
(a name ending in ``_per_s``), ``change_lower_in_pairs`` otherwise, with
``tied_pairs`` next to it. The quartile and pair helpers are those of
``check_bench_records.py``.

``--claim W:M`` prints whether the change won metric M of workload W in at
least 9 of every 10 pairs, and whether its median beats the parent's by
more than the parent's quartile spread (q3 - q1); it exits 1 unless both
hold. ``--check`` derives the summary of every workload that keeps its runs
in the given records and prints where the committed summary differs; it
exits 1 if one does. Runs stored rounded may tie, so there a committed
count may lie anywhere from the wins to the wins plus the ties.
"""

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from check_bench_records import (  # noqa: E402
    COUNTS, SIDES, check_workload, kept_runs, metric_summaries, pairs_of, quartiles, wins_and_ties,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_KEYS = ("pair", "side", "attempted", "failed")
METHOD = (
    "scripts/bench_pairs.py: alternating parent/change pairs on git archive copies of both commits "
    "in sibling directories named parent and change, prepared the same way, every run compiling "
    "its source (PYTHONDONTWRITEBYTECODE=1), the parent first in odd pairs; times in reference "
    "seconds except wall_raw_s; quartiles by statistics.quantiles(method='inclusive') of the runs; "
    "change_*_in_pairs counts wins on unrounded values and tied_pairs the exact ties; runs lists "
    "every run in pair order, unrounded; attempted and failed are summed over the runs"
)


def count_key(name: str) -> str:
    """The pair count a metric's summary keeps: rates are better higher."""
    return "change_higher_in_pairs" if name.endswith("_per_s") else "change_lower_in_pairs"


def summarise(runs, places=4) -> dict:
    """The summary of one workload's runs, which ``pairs_of`` accepts, its
    quartiles rounded to places (None: unrounded)."""
    pairs = pairs_of(runs)
    summary = {"pairs": len(pairs)}
    for key in ("attempted", "failed"):
        if all(key in run for run in runs):
            summary[key] = {side: sum(run[key] for run in runs if run["side"] == side) for side in SIDES}
    names = [name for name in runs[0] if name not in RUN_KEYS]
    for name in names:
        entry = {}
        for side in SIDES:
            values = quartiles([run[name] for run in runs if run["side"] == side])
            if places is not None:
                values = [round(value, places) for value in values]
            entry[side] = dict(zip(("q1", "median", "q3"), values))
        key = count_key(name)
        entry[key], entry["tied_pairs"] = wins_and_ties(pairs, name, COUNTS[key])
        summary[name] = entry
    return summary


def differences(derived, committed) -> list:
    """Where a committed workload summary is shaped otherwise than the one
    derived from its runs: other metrics, another pair count kept for one,
    or other summed operation counts. ``check_workload`` compares the
    quartiles and the pair counts."""
    problems = []
    for key in ("attempted", "failed"):
        if key in derived and derived[key] != committed.get(key):
            problems.append("%s is %r, the runs give %r" % (key, committed.get(key), derived[key]))
    mine, theirs = metric_summaries(derived), metric_summaries(committed)
    if set(mine) != set(theirs):
        problems.append("metrics %s, the runs give %s" % (sorted(theirs), sorted(mine)))
    for name in sorted(set(mine) & set(theirs)):
        if count_key(name) not in theirs[name]:
            problems.append("%s lacks %s" % (name, count_key(name)))
    return problems


def check(paths) -> int:
    failures = checked = 0
    for path in paths:
        with open(path) as fh:
            record = json.load(fh)
        for where, workload in kept_runs(record):
            checked += 1
            problems = check_workload(workload)
            if not problems:
                problems = differences(summarise(workload["runs"]), workload)
            for problem in problems:
                failures += 1
                print("%s%s: %s" % (os.path.basename(path), where, problem))
    if failures:
        return 1
    print("%d workload summaries equal those derived from their runs" % checked)
    return 0


def verdict(summary, metric) -> bool:
    """Print and return whether the change won metric in at least 9 of
    every 10 pairs, ties counting for neither side, and beat the parent's
    median by more than the parent's quartile spread."""
    entry = summary[metric]
    key = count_key(metric)
    wins, pairs = entry[key], summary["pairs"]
    parent, change = entry["parent"], entry["change"]
    gain = (change["median"] - parent["median"]) * COUNTS[key]
    spread = parent["q3"] - parent["q1"]
    often, far = 10 * wins >= 9 * pairs, gain > spread
    print("claim %s: change better in %d of %d pairs (9 in 10 needed: %s); median %.6g -> %.6g, "
          "a gain of %.4g against the parent's quartile spread %.4g (%s)"
          % (metric, wins, pairs, "met" if often else "NOT met", parent["median"], change["median"],
             gain, spread, "met" if far else "NOT met"))
    return often and far


def prepare(commit, where) -> None:
    """Write the tree of commit into the new directory where."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", commit],
                         stdout=subprocess.PIPE, check=True).stdout
    os.mkdir(where)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(where)


def run_once(where, workload, seed, seconds) -> dict:
    """The record ``perfbench/run.py`` writes of one untraced run in the
    copy where."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    subprocess.run(argv, cwd=where, env=env, stdout=subprocess.DEVNULL, check=True)
    with open(os.path.join(where, ".perfbench", "records", "%s-seed%d-trace0.json" % (workload, seed))) as fh:
        return json.load(fh)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("commits", nargs="*", metavar="COMMIT", help="the parent and the change")
    parser.add_argument("--check", nargs="+", metavar="RECORD", help="check committed records instead")
    parser.add_argument("--label")
    parser.add_argument("--workload", action="append", choices=("exact-verify", "window-leak", "transform-embed"))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC")
    args = parser.parse_args(argv)
    if not args.check:
        if len(args.commits) != 2:
            parser.error("give two commits, or --check")
        for flag in ("label", "workload", "seed", "seconds", "pairs"):
            if getattr(args, flag) is None:
                parser.error("--%s is required with two commits" % flag)
        if args.claim and (args.claim.count(":") != 1 or args.claim.split(":")[0] not in args.workload):
            parser.error("--claim must be WORKLOAD:METRIC with one of the --workload values")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.check:
        return check(args.check)
    shas = [subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", commit + "^{commit}"],
                           stdout=subprocess.PIPE, text=True, check=True).stdout.strip() for commit in args.commits]
    out = os.path.join(ROOT, "BENCH_%s.json" % args.label)
    claimed = dict(zip(("workload", "metric"), args.claim.split(":"))) if args.claim else None
    record = {
        "label": args.label,
        "parent": shas[0],
        "change": shas[1],
        "command": "python3 perfbench/run.py --workload <workload> --seed %d --seconds %g" % (args.seed, args.seconds),
        "machine": None,
        "method": METHOD,
        "claimed": claimed,
        "workloads": {},
        "notes": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as workdir:
        copies = {side: os.path.join(workdir, side) for side in SIDES}
        for side, sha in zip(SIDES, shas):
            prepare(sha, copies[side])
        for workload in args.workload:
            runs = []
            for pair in range(1, args.pairs + 1):
                for side in SIDES if pair % 2 else SIDES[::-1]:
                    done = run_once(copies[side], workload, args.seed, args.seconds)
                    record["machine"] = "%d CPUs (%s), Python %s, numpy %s" % (
                        os.cpu_count(), platform.machine(), done["python"], done["numpy"])
                    run = {"pair": pair, "side": side, "attempted": done["result"]["attempted"],
                           "failed": done["result"]["failed"]}
                    run.update((name, m["value"]) for name, m in done["metrics"].items() if name != "error_rate")
                    runs.append(run)
                    print(workload, " ".join("%s=%s" % item for item in run.items()), flush=True)
                key = "%s-seed%d" % (workload, args.seed)
                record["workloads"][key] = {"seed": args.seed, **summarise(runs), "runs": runs}
                with open(out, "w") as fh:
                    json.dump(record, fh, indent=2)
                    fh.write("\n")
    print("wrote %s" % out)
    if claimed:
        runs = record["workloads"]["%s-seed%d" % (claimed["workload"], args.seed)]["runs"]
        return 0 if verdict(summarise(runs, None), claimed["metric"]) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
