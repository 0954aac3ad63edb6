"""The three workloads: inputs, operations and per-operation output checks.

Each operation calls the package the way a user does: the ``cryptogeno``
CLI in-process through ``cli.main(argv)`` with ``--out`` files, or the
public library calls behind acceptance criteria 06 and 08. Calls go
through module attributes (``cli.main``, ``protocols.binarize``) so that a
traced run sees them. Checks run outside the timed region, use no traced
function, and hold for any random stream except the one failure-rate bound
on the binary leak run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from cryptogenography import cli, coding, protocols
from cryptogenography.protocols import LeakScenario, ProtocolTree

import inputs

# sizes (recorded in README.md with why each was chosen)
WIDE = {"n": 4, "b": Fraction(1, 2), "c": Fraction(2, 3)}
DEEP = {"protocols": 6, "players": 3, "secrets": 3, "max_depth": 5, "nodes": 12, "stop_prob": 0.3, "c": Fraction(3, 4)}
LEAK_D2 = {"b": "1/2", "c": "2/3", "n": 200, "rate": "1/10", "trials": 16}
LEAK_D3 = {"b": "1/4", "c": "1/2", "n": 300, "rate": "1/20", "trials": 8}
LEAK_FIXED = {"l": 10, "n": 40, "c": "3/4", "rate": "1/10", "trials": 5}
DECODE = {"h": 20, "n": 200, "d": 2, "b": "1/2", "c": "2/3", "plant_below": 2**12}
SWEEP_N = 100
CAPACITY = {"c": "1/2,2/3,3/4", "b": "1/10,1/4,1/3"}
TRANSFORM = {"protocols": 100, "caps": (Fraction(3, 5), Fraction(2, 3), Fraction(3, 4), Fraction(4, 5))}
EMBED = {"n": 2, "b": Fraction(1, 2), "c": Fraction(2, 3), "chatter": (Fraction(1, 3), Fraction(2, 3)), "audit_depth": 40}

DEFAULT_DECODED_TARGET = Fraction(999_999, 1_000_000)
LOG2_E = math.log2(math.e)
FLOAT_TOL = 1e-9


@dataclass
class Op:
    """``run`` is timed; ``check(result)`` returns (items, problems, digest)."""

    name: str
    run: Callable
    check: Callable


def frac(obj) -> Fraction:
    return Fraction(obj["num"], obj["den"])


def run_cli(argv) -> tuple:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    return rc, err.getvalue()


def read_report(call) -> tuple:
    """(report or None, problem or None, raw bytes) of one CLI call."""
    rc, err, path = call
    if rc != 0:
        return None, "exit %d: %s" % (rc, err.strip()[-200:]), b""
    with open(path, "rb") as fh:
        raw = fh.read()
    return json.loads(raw), None, raw


def cli_batch(name: str, workdir: str, argvs) -> Callable:
    """Timed body running each argv once, every report to its own file."""

    def run():
        calls = []
        for i, argv in enumerate(argvs):
            out = os.path.join(workdir, "%s-%d.json" % (name, i))
            calls.append(run_cli(list(argv) + ["--out", out]) + (out,))
        return calls

    return run


def report_check(judge: Callable) -> Callable:
    """Per-report checks over a CLI batch; the digest covers every report."""

    def check(calls):
        problems = []
        digest = hashlib.sha256()
        for i, call in enumerate(calls):
            report, problem, raw = read_report(call)
            digest.update(raw)
            if problem is None:
                problem = judge(i, report)
            if problem:
                problems.append("item %d: %s" % (i, problem))
        return len(calls), problems, digest.hexdigest()[:16]

    return check


# ---------------------------------------------------------------------------
# exact-verify


def verify_judge(cap: Fraction, exact_cap: bool) -> Callable:
    def judge(_i, report):
        if not report["transcript_bound"]["holds"]:
            return "transcript bound fails"
        for r in report["rounds"]:
            certs = [r["speaker_cert"]] + list(r["listener_certs"].values())
            if not (r["holds"] and all(c["holds"] for c in certs)):
                return "round %r fails" % (r["prefix"],)
        if not report["all_rounds_hold"]:
            return "all_rounds_hold is false"
        bound = report["general_upper_bound"]
        if "skipped" not in bound and not bound["holds"]:
            return "general upper bound fails"
        safety = report["safety"]
        max_post = frac(safety["max_posterior"])
        if safety["safe"] != (max_post <= cap):
            return "safe=%s disagrees with max_posterior %s" % (safety["safe"], max_post)
        if exact_cap and not (safety["safe"] and max_post == cap):
            return "expected safe with max_posterior exactly %s, got %s" % (cap, max_post)
        return None

    return judge


def succ_cap(h: float, l: float, c: Fraction) -> float:
    """Closed-form cap 1 - (c h + l log(1-c) + l c log(e) - c) / h."""
    cf = float(c)
    return 1.0 - (cf * h + l * math.log2(1 - cf) + l * cf * LOG2_E - cf) / h


def game_judge(_i, report):
    succ = float(frac(report["succ"]))
    h, l = report["h"], report["l"]
    for k in range(1, 100):
        cap = succ_cap(h, l, Fraction(k, 100))
        if succ > cap + FLOAT_TOL:
            return "succ %r above the cap %r at c=%d/100" % (succ, cap, k)
    return None


def exact_verify(seed: int, workdir: str) -> list:
    rng = random.Random(seed)
    wide = inputs.window_instance(WIDE["b"], WIDE["c"], WIDE["n"])
    wide_files = (os.path.join(workdir, "wide-protocol.json"), os.path.join(workdir, "wide-scenario.json"))
    for path, obj in zip(wide_files, wide):
        inputs.write_json(path, obj)
    deep_files = []
    for i in range(DEEP["protocols"]):
        tree, scenario, _ = inputs.random_instance(
            rng, DEEP["players"], DEEP["secrets"], DEEP["max_depth"], DEEP["stop_prob"], DEEP["nodes"]
        )
        files = (os.path.join(workdir, "deep-%d-protocol.json" % i), os.path.join(workdir, "deep-%d-scenario.json" % i))
        inputs.write_json(files[0], tree)
        inputs.write_json(files[1], scenario)
        deep_files.append(files)

    def verify_args(files, cap):
        return ["verify", "--protocol", files[0], "--scenario", files[1], "--c", str(cap)]

    def game_args(files):
        return ["game", "--protocol", files[0], "--scenario", files[1]]

    return [
        Op(
            "verify_wide",
            cli_batch("verify-wide", workdir, [verify_args(wide_files, WIDE["c"])]),
            report_check(verify_judge(WIDE["c"], exact_cap=True)),
        ),
        Op(
            "verify_deep",
            cli_batch("verify-deep", workdir, [verify_args(f, DEEP["c"]) for f in deep_files]),
            report_check(verify_judge(DEEP["c"], exact_cap=False)),
        ),
        Op(
            "game",
            cli_batch("game", workdir, [game_args(f) for f in [wide_files] + deep_files]),
            report_check(game_judge),
        ),
    ]


# ---------------------------------------------------------------------------
# window-leak


def leak_judge(cap: str, max_failure_rate=None) -> Callable:
    def judge(_i, report):
        r = report["report"]
        if r["posterior_violations"] != 0:
            return "%d posterior violations" % r["posterior_violations"]
        if frac(r["max_posterior_seen"]) != Fraction(cap):
            return "max posterior %s is not exactly %s" % (frac(r["max_posterior_seen"]), cap)
        if max_failure_rate is not None and not r["failure_rate"] < max_failure_rate:
            return "failure rate %s not below %s" % (r["failure_rate"], max_failure_rate)
        return None

    return judge


def fixed_judge(_i, report):
    r = report["report"]
    if r["trials"] != LEAK_FIXED["trials"]:
        return "ran %d trials" % r["trials"]
    if r["failure_rate"] != (r["decode_errors"] + r["tie_errors"]) / r["trials"]:
        return "failure rate disagrees with its tallies"
    if (r["posterior_violations"] == 0) != (frac(r["max_posterior_seen"]) <= Fraction(LEAK_FIXED["c"])):
        return "violation count disagrees with the max posterior"
    return None


def capacity_judge(_i, report):
    for row in report["rows"]:
        b, c = float(Fraction(row["b"])), float(Fraction(row["c"]))
        fixed = -math.log2(1 - c) / c - LOG2_E
        indep = (-b * math.log2(1 - c) + c * math.log2(1 - b)) / c
        if abs(row["fixed_capacity"] - fixed) > FLOAT_TOL or abs(row["indep_capacity"] - indep) > FLOAT_TOL:
            return "capacity row %r disagrees with the closed forms" % (row,)
    return None


def ratio_sweep():
    return [(n, l, coding.ratio_bound_check(n, l)) for n in range(2, SWEEP_N + 1) for l in range(1, n)]


def check_sweep(rows):
    """The whole sweep is one operation; it fails if any (n, l) pair does."""
    bad = []
    digest = hashlib.sha256()
    for n, l, r in rows:
        digest.update(("%d %d %s %d %d %d;" % (n, l, r.max_ratio, r.argmax_k, r.all_at_most_two, r.unique_peak)).encode())
        if not (r.all_at_most_two and r.unique_peak and r.argmax_k == l):
            bad.append("n=%d l=%d" % (n, l))
    problems = ["%d pairs fail, first %s" % (len(bad), bad[:5])] if bad else []
    return 1, problems, digest.hexdigest()[:16]


def leak_args(spec, seed):
    return [
        "leak", "--mode", "indep", "--b", spec["b"], "--c", spec["c"], "--n", spec["n"],
        "--rate", spec["rate"], "--trials", spec["trials"], "--seed", seed,
    ]


def window_leak(seed: int, workdir: str) -> list:
    rng = random.Random(seed)
    d2_seed, d3_seed, fixed_seed, book_seed = (rng.randrange(2**31) for _ in range(4))
    planted = rng.randrange(DECODE["plant_below"])
    book_path = os.path.join(workdir, "codebook.json")
    transcript_path = os.path.join(workdir, "transcript.json")
    inputs.write_json(book_path, {"seed": book_seed, "h": DECODE["h"], "n": DECODE["n"], "d": DECODE["d"]})
    inputs.write_json(
        transcript_path, {"messages": inputs.codeword(book_seed, DECODE["n"], DECODE["d"], planted)}
    )

    def decode_judge(_i, report):
        if report["x_hat"] != planted:
            return "decoded %r, planted %d" % (report["x_hat"], planted)
        return None

    fixed = LEAK_FIXED
    fixed_args = [
        "leak", "--mode", "fixed", "--l", fixed["l"], "--n", fixed["n"], "--c", fixed["c"],
        "--rate", fixed["rate"], "--trials", fixed["trials"], "--seed", fixed_seed,
    ]
    decode_args = [
        "decode", "--codebook", book_path, "--transcript", transcript_path,
        "--b", DECODE["b"], "--c", DECODE["c"],
    ]
    return [
        Op("leak_d2", cli_batch("leak-d2", workdir, [leak_args(LEAK_D2, d2_seed)]),
           report_check(leak_judge(LEAK_D2["c"], max_failure_rate=0.2))),
        Op("leak_d3", cli_batch("leak-d3", workdir, [leak_args(LEAK_D3, d3_seed)]),
           report_check(leak_judge(LEAK_D3["c"]))),
        Op("decode", cli_batch("decode", workdir, [decode_args]), report_check(decode_judge)),
        Op("ratio_sweep", ratio_sweep, check_sweep),
        Op("capacity", cli_batch("capacity", workdir, [["capacity", "--c", CAPACITY["c"], "--b", CAPACITY["b"]]]),
           report_check(capacity_judge)),
        Op("leak_fixed", cli_batch("leak-fixed", workdir, [fixed_args]), report_check(fixed_judge)),
    ]


# ---------------------------------------------------------------------------
# transform-embed


def transform_chain(batch) -> Callable:
    """Criterion 08's chain on every (tree, scenario, cap) of the batch."""

    def run():
        results = []
        for tree, scenario, cap in batch:
            try:
                binary = protocols.binarize(tree, scenario)
                same_binary = protocols.equivalent(tree, binary, scenario)
                stopped = protocols.stop_at_c(binary, scenario, cap)
                same_stopped = protocols.equivalent(binary, stopped, scenario)
                landed = protocols.stop_at_c_postcondition(stopped, scenario, cap)
                muted = protocols.pretend_ignorance(tree, scenario, cap)
                safe = protocols.safety_report(muted, scenario, cap, include_prefixes=True).ok
            except Exception as exc:  # one failed item must not stop the run
                results.append(("%s: %s" % (type(exc).__name__, exc), None, None))
                continue
            flags = {"equivalent_binary": same_binary, "equivalent_stopped": same_stopped,
                     "postcondition": landed, "safe": safe}
            results.append((flags, stopped, muted))
        return results

    return run


def check_transforms(results):
    problems = []
    digest = hashlib.sha256()
    for i, (flags, stopped, muted) in enumerate(results):
        if stopped is None:
            problems.append("item %d: %s" % (i, flags))
            continue
        failed = [k for k, ok in flags.items() if not ok]
        if failed:
            problems.append("item %d: %s false" % (i, ", ".join(failed)))
        digest.update(json.dumps([stopped.to_jsonable(), muted.to_jsonable()], sort_keys=True).encode())
    return len(results), problems, digest.hexdigest()[:16]


def embed_judge(_i, report):
    audit = report["audit"]
    if not audit["ok"]:
        return "audit not ok: %d conditional mismatches" % audit["conditional_mismatches"]
    if frac(audit["decoded_mass"]) < DEFAULT_DECODED_TARGET:
        return "decoded mass %s below the default target" % frac(audit["decoded_mass"])
    return None


def transform_embed(seed: int, workdir: str) -> list:
    rng = random.Random(seed)
    batch = [
        (ProtocolTree.from_jsonable(tree), LeakScenario.from_jsonable(scenario), cap)
        for tree, scenario, cap in inputs.transform_batch(rng, TRANSFORM["protocols"], TRANSFORM["caps"])
    ]
    tree, scenario = inputs.window_instance(EMBED["b"], EMBED["c"], EMBED["n"])
    files = [os.path.join(workdir, "embed-%s.json" % part) for part in ("protocol", "scenario", "channel")]
    for path, obj in zip(files, (tree, scenario, inputs.chatter_json(EMBED["n"], EMBED["chatter"]))):
        inputs.write_json(path, obj)
    embed_args = [
        "embed", "--protocol", files[0], "--scenario", files[1], "--channel", files[2],
        "--audit-depth", EMBED["audit_depth"], "--seed", rng.randrange(2**31),
    ]
    return [
        Op("transform", transform_chain(batch), check_transforms),
        Op("embed", cli_batch("embed", workdir, [embed_args]), report_check(embed_judge)),
    ]


# ---------------------------------------------------------------------------
# registry


def leak_rate(spec, op):
    return lambda best: spec["trials"] / best[op]


WORKLOADS = {
    "exact-verify": {
        "setup": exact_verify,
        "sizes": {"wide": WIDE, "deep": DEEP},
        "metrics": {
            "verify_wide_s": ("s", lambda best: best["verify_wide"]),
            "verify_deep_s": ("s", lambda best: best["verify_deep"]),
            "game_s": ("s", lambda best: best["game"]),
        },
    },
    "window-leak": {
        "setup": window_leak,
        "sizes": {"leak_d2": LEAK_D2, "leak_d3": LEAK_D3, "leak_fixed": LEAK_FIXED, "decode": DECODE,
                  "sweep_n": SWEEP_N, "capacity": CAPACITY},
        "metrics": {
            "leak_d2_trials_per_s": ("1/s", leak_rate(LEAK_D2, "leak_d2")),
            "leak_d3_trials_per_s": ("1/s", leak_rate(LEAK_D3, "leak_d3")),
            "decode_s": ("s", lambda best: best["decode"]),
            "ratio_sweep_s": ("s", lambda best: best["ratio_sweep"]),
        },
    },
    "transform-embed": {
        "setup": transform_embed,
        "sizes": {"transform": TRANSFORM, "embed": EMBED},
        "metrics": {
            "transform_s": ("s", lambda best: best["transform"]),
            "embed_s": ("s", lambda best: best["embed"]),
        },
    },
}
