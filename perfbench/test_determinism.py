"""Checks on the benchmark itself, outside the package's test suite:

    python3 -m pytest perfbench -q

Two short traced runs of each workload on the same seed, under different
hash seeds, must agree on every report digest and every exact span count;
the traced counts must match the call structure stated in README.md; an
untraced run must report every gated metric; and the benchmark must refuse
to run where the package source is missing.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORDS = ROOT / ".perfbench" / "records"
WORKLOADS = ("exact-verify", "window-leak", "transform-embed")


def bench(workload, seed, cwd=ROOT, hash_seed="0", trace=1):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    argv = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=600)


def traced_record(workload, seed, hash_seed):
    proc = bench(workload, seed, hash_seed=hash_seed)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    return json.loads((RECORDS / ("%s-seed%d-trace1.json" % (workload, seed))).read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_digests_and_counts(workload):
    first = traced_record(workload, 7, "1")
    second = traced_record(workload, 7, "2")
    assert first["missing"] == []
    assert first["digests"] == second["digests"]
    assert first["counts"] == second["counts"]
    assert first["per_op"].keys() == second["per_op"].keys()
    if workload == "exact-verify":
        wide = first["per_op"]["verify_wide"]
        assert wide["probability.JointDist"]["calls"] == 663
        assert wide["suspicion.check_round_decomposition"]["calls"] == 2
        deep = first["per_op"]["verify_deep"]
        batch = first["sizes"]["deep"]["protocols"]
        assert deep["suspicion.check_round_decomposition"]["calls"] == 2 * batch


def test_untraced_run_reports_every_gated_metric():
    """Speed sampling during the operations leaves their outputs correct."""
    proc = bench("transform-embed", 3, trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    gated = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in gated}
    for m in gated:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("window-leak", 1, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
