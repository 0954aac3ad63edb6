#!/usr/bin/env python3
"""Benchmark harness for the cryptogenography toolkit.

    python3 perfbench/run.py --workload exact-verify --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

Run from the root of a source checkout: the package is imported from
``src/``, and the run fails without printing a result when that source is
missing. One process is one closed-loop client: after set-up it runs the
workload's operations back to back, round robin, until ``--seconds`` is
used up (every operation runs at least once), checking each output outside
the timed region. Each time it reports is in reference seconds: the wall
time divided by that of the loop in ``reference.py``, sampled while the
operation runs, so that a slower or busier machine cancels out; and it is
the median over the run's repeats (see README.md).

With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end ones of BENCHMARK.json; with ``--trace 1`` it alternates
untraced and traced passes over the operations and reports the per-layer
metrics. Lines before it list every metric the workload exercises, and
``.perfbench/records/`` receives a record of the run (per-operation times,
report digests, exact counts, and for traced runs every span).
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("exact-verify", "window-leak", "transform-embed")
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import numpy, cryptogenography.cli; print(time.perf_counter() - t)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="cryptogenography benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


class NoProbe:
    """Stands in for ``reference.SpeedProbe`` when times are not normalised."""

    spent = 0.0

    def __enter__(self):
        return self

    def __exit__(self, *_exc) -> None:
        pass


class Runner:
    """Times operations, runs their checks and keeps the tallies."""

    def __init__(self, ops, calibrate=False):
        self.ops = ops
        self.durations = {op.name: [] for op in ops}
        self.calibrate = calibrate
        self.normalised = {op.name: [] for op in ops}
        self.digests: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def execute(self, op) -> float:
        """Runs one operation; its time excludes the speed samples taken
        while it ran, and is also kept normalised when calibrating."""
        with reference.SpeedProbe() if self.calibrate else NoProbe() as probe:
            started = time.perf_counter()
            try:
                result, error = op.run(), None
            except Exception as exc:  # a failed operation must not stop the run
                result, error = None, exc
            duration = time.perf_counter() - started - probe.spent
        self.durations[op.name].append(duration)
        if self.calibrate:
            self.normalised[op.name].append(probe.normalise(duration))
        if error is not None:
            self.attempted += 1
            self.failed += 1
            self.problems.append("%s: %s: %s" % (op.name, type(error).__name__, error))
            return duration
        items, problems, digest = op.check(result)
        if self.digests.setdefault(op.name, digest) != digest:
            problems = problems + ["report digest changed between repeats"]
        self.attempted += items
        self.failed += min(items, len(problems))
        self.problems.extend("%s: %s" % (op.name, p) for p in problems)
        return duration

    def run_pass(self) -> float:
        return sum(self.execute(op) for op in self.ops)

    def medians(self, times) -> dict:
        return {name: statistics.median(d) for name, d in times.items() if d}


def plain_run(runner, seconds) -> None:
    """Round robin until the next operation would end past the deadline."""
    deadline = time.perf_counter() + seconds
    while True:
        for op in runner.ops:
            history = runner.durations[op.name]
            ran_all = all(runner.durations.values())
            if ran_all and time.perf_counter() + statistics.median(history) > deadline:
                return
            runner.execute(op)


def traced_run(runner, seconds, tracer, targets) -> tuple:
    """Alternate untraced and traced passes; returns their wall times."""
    deadline = time.perf_counter() + seconds
    plain_walls, traced_walls = [], []
    while True:
        plain_walls.append(runner.run_pass())
        tracer.install(targets)
        try:
            wall = 0.0
            for op in runner.ops:
                tracer.op = (len(traced_walls), op.name)
                wall += runner.execute(op)
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        ahead = statistics.median(plain_walls) + statistics.median(traced_walls)
        if time.perf_counter() + ahead > deadline:
            return plain_walls, traced_walls


def quantile_ms(durations, q) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1000
    cuts = statistics.quantiles(durations, n=100, method="inclusive")
    return cuts[q - 1] * 1000


def layer_metrics(tracer, per_layer, overhead_name, plain_walls, traced_walls, runner) -> tuple:
    """Per-layer metrics (times: smallest over the traced passes; counts:
    exact, checked equal in every pass) and the exact counts of every span."""
    by_pass = tracer.totals(lambda span: span.op[0])
    passes = [by_pass.get(i, {}) for i in range(len(traced_walls))]
    metrics, counts = {}, {}
    for name, unit in per_layer.items():
        if name == overhead_name:
            value = min(traced_walls) / min(plain_walls)
            metrics[name] = metric(value, unit)
            continue
        target, stat = name.rsplit(".", 1)
        if target in tracer.missing:
            metrics[name] = metric(None, unit)
            continue
        if stat.endswith("_ms"):
            pooled = [d for p in passes for d in p.get(target, {}).get("durations", [])]
            value = quantile_ms(pooled, int(stat[1:3]))
        elif unit == "s":
            value = min(p.get(target, {}).get(stat, 0.0) for p in passes)
        else:
            values = [p.get(target, {}).get(stat, 0) for p in passes]
            if len(set(values)) > 1:
                runner.failed += 1
                runner.attempted += 1
                runner.problems.append("%s differs between passes: %s" % (name, values))
            value = values[0]
        metrics[name] = metric(value, unit)
    for target, stats in passes[0].items():
        for stat, value in stats.items():
            if stat not in ("s", "self_s", "durations"):
                counts["%s.%s" % (target, stat)] = value
    return metrics, counts


def per_op_split(tracer) -> dict:
    """Layer totals of the first traced pass, split by operation."""
    split = tracer.totals(lambda span: span.op)
    out: dict = {}
    for (pass_index, op_name), names in split.items():
        if pass_index != 0:
            continue
        out[op_name] = {
            name: {k: v for k, v in stats.items() if k != "durations"} for name, stats in names.items()
        }
    return out


def run_workload(args) -> int:
    if not (SRC / "cryptogenography" / "__init__.py").is_file():
        print("perfbench: no package source under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import cryptogenography
    import workloads

    if Path(cryptogenography.__file__).resolve().parent != (SRC / "cryptogenography").resolve():
        print("perfbench: imported %s, not the checkout's source" % cryptogenography.__file__, file=sys.stderr)
        return 2

    spec = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-" % args.workload, dir=OUT)
    try:
        import_times, setup_times, setup_norm = [], [], []
        for _ in range(SETUP_REPEATS):
            with reference.SpeedProbe() as probe:
                t0 = time.perf_counter()
                import_times.append(import_time())
                t1 = time.perf_counter()
                ops = spec["setup"](args.seed, workdir)
                t2 = time.perf_counter()
            setup_times.append(t2 - t1)
            setup_norm.append(probe.normalise(t2 - t0 - probe.spent))
        runner = Runner(ops, calibrate=not args.trace)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "sizes": spec["sizes"],
            "setup_runs_s": setup_times,
            "import_runs_s": import_times,
        }
        if args.trace:
            import layers
            from tracer import Tracer

            tracer = Tracer()
            plain_walls, traced_walls = traced_run(runner, args.seconds, tracer, layers.TARGETS)
            metrics, counts = layer_metrics(
                tracer, layers.PER_LAYER, layers.OVERHEAD, plain_walls, traced_walls, runner
            )
            record.update(
                plain_pass_s=plain_walls,
                traced_pass_s=traced_walls,
                missing=tracer.missing,
                counts=counts,
                per_op=per_op_split(tracer),
            )
            shown = metrics
        else:
            plain_run(runner, args.seconds)
            typical = runner.medians(runner.normalised)
            metrics = {
                "setup_s": metric(statistics.median(setup_norm), "s"),
                "wall_s": metric(sum(typical.values()), "s"),
                "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            record.update(normalised_s=runner.normalised)
            shown = dict(metrics)
            shown["wall_raw_s"] = metric(sum(runner.medians(runner.durations).values()), "s")
            for name, (unit, value_of) in spec["metrics"].items():
                shown[name] = metric(value_of(typical), unit)
            shown["error_rate"] = metric(runner.failed / runner.attempted, "ratio")
        result = {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": metrics,
        }
        record.update(
            durations_s=runner.durations,
            digests=runner.digests,
            problems=runner.problems,
            metrics=shown,
            result=result,
        )
        write_record(record, tracer.spans if args.trace else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, m in shown.items():
        value = "missing" if m["value"] is None else "%.6g" % m["value"]
        print("%-45s %14s %s" % (name, value, m["unit"]))
    print("operations: %s" % ", ".join("%s x%d" % (k, len(v)) for k, v in runner.durations.items()))
    if args.trace and tracer.missing:
        print("missing traced names: %s" % ", ".join(tracer.missing))
    for problem in runner.problems[:20]:
        print("FAILED %s" % problem)
    print(json.dumps(result))
    return 0


def import_time() -> float:
    """Seconds a fresh interpreter takes to import numpy and the CLI."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)], stdout=subprocess.PIPE, text=True, check=True
    )
    return float(proc.stdout)


def write_record(record, spans) -> None:
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (record["workload"], record["seed"], record["trace"])
    with open(records / (stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    if spans is not None:
        with open(records / (stem + ".spans.jsonl"), "w") as fh:
            for s in spans:
                fh.write(json.dumps([s.span_id, s.parent_id, s.op[0], s.op[1], s.name,
                                     s.start, s.duration, s.self_time, s.counts]) + "\n")


def run_all(args) -> int:
    """Every workload in its own process, so peak memory stays per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("== %s" % name)
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print("perfbench: workload %s exited with %d" % (name, proc.returncode), file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            total["metrics"]["%s.%s" % (name, key)] = m
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
