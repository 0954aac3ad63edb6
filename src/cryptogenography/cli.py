"""Batch front-end: load scenarios, protocols and channels from JSON, run
the verifications and experiments, emit machine-readable reports.

Reports are canonical JSON (sorted keys) or CSV projections; the same
config and seed always produce byte-identical files. Wall-clock timings go
to stderr only. Exit codes: 0 success, 1 runtime failure, 2 bad input.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str

from . import __version__, protocols
from .embedding import InnocentChannel, compose_run, equivalence_audit
from .game import best_upper_bound, succ_of_protocol
from .probability import as_probability, fraction_to_jsonable, label_to_jsonable
from .protocols import (
    BudgetExceededError,
    LeakScenario,
    ProtocolTree,
    non_revealing,
    safety_report,
    validate,
)
from .suspicion import (
    check_general_upper_bound,
    check_round_decomposition,
    check_transcript_bound,
    fixed_capacity,
    indep_capacity,
)


def _canonical_json(obj) -> str:
    """The report text: byte for byte ``json.dumps(obj, sort_keys=True,
    indent=2, ensure_ascii=True)`` and a newline, written in one direct pass
    (the stdlib writes indented JSON through its pure-Python encoder).

    Reports are dicts with str keys, lists, tuples, str, int, float, bool
    and None; anything else, a non-str key included, is a TypeError."""
    parts = []
    _encode(obj, parts.append, "\n")
    parts.append("\n")
    return "".join(parts)


def _encode(obj, emit, newline: str) -> None:
    """Append ``obj`` as indented JSON; ``newline`` is the line break and
    indent of the enclosing container's lines."""
    if isinstance(obj, str):
        emit(_encode_str(obj))
    elif obj is None:
        emit("null")
    elif obj is True:
        emit("true")
    elif obj is False:
        emit("false")
    elif isinstance(obj, int):
        emit(int.__repr__(obj))
    elif isinstance(obj, float):
        if obj != obj:
            emit("NaN")
        elif obj == math.inf:
            emit("Infinity")
        elif obj == -math.inf:
            emit("-Infinity")
        else:
            emit(float.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            emit("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            emit(sep)
            _encode(item, emit, inner)
            sep = "," + inner
        emit(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            emit("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError("report keys must be str, not %s" % type(key).__name__)
            emit(sep)
            emit(_encode_str(key))
            emit(": ")
            _encode(obj[key], emit, inner)
            sep = "," + inner
        emit(newline + "}")
    else:
        raise TypeError("Object of type %s is not JSON serializable" % type(obj).__name__)


def _config_hash(command: str, config: dict) -> str:
    """Hash of the semantic inputs: file arguments contribute their content,
    not their path, and commands without randomness omit the seed."""
    payload = {"command": command}
    for key, value in config.items():
        payload[key] = repr(value)
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def _emit(args, command: str, config: dict, payload: dict, csv: tuple = None) -> None:
    """The report as canonical JSON, or under ``--format csv`` the
    projection ``csv`` = (header, rows), a None cell as an empty field."""
    if csv is not None and args.format == "csv":
        header, rows = csv
        lines = [header] + [",".join("" if v is None else str(v) for v in row) for row in rows]
        _write(args, "\n".join(lines) + "\n")
    else:
        head = {"version": __version__, "config_hash": _config_hash(command, config)}
        _write(args, _canonical_json({**head, **payload}))


def _write(args, text: str) -> None:
    """The report text to ``--out``, or to stdout without it."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_input(args, flag: str, decode):
    """(decoded, digest) of the JSON file named by ``--<flag>``. Its bytes
    are read once: ``decode`` gets their ``json.loads`` and the digest is
    their sha256, so the config hash describes the bytes that were parsed.
    A file that cannot be read, a TypeError or AttributeError while
    decoding it (JSON of the wrong shape), a KeyError (a missing field), a
    ValueError (text that is not JSON, or a field's value refused) or a
    ZeroDivisionError (a fraction over 0) is a ValueError naming the flag
    and the path."""
    path = getattr(args, flag)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ValueError("--%s %s: %s" % (flag, path, exc.strerror or exc)) from exc
    try:
        value = decode(json.loads(data))
    except (TypeError, AttributeError) as exc:
        raise ValueError("--%s %s: wrong JSON shape: %s" % (flag, path, exc)) from exc
    except KeyError as exc:
        raise ValueError("--%s %s: missing field %s" % (flag, path, exc)) from exc
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError("--%s %s: %s" % (flag, path, exc)) from exc
    return value, hashlib.sha256(data).hexdigest()[:16]


def _load_instance(args) -> tuple:
    """(tree, scenario, config) from ``--protocol`` and ``--scenario``; the
    config holds the two files' digests, and each command adds its flags."""
    tree, tree_digest = _read_input(args, "protocol", ProtocolTree.from_jsonable)
    scenario, scenario_digest = _read_input(args, "scenario", LeakScenario.from_jsonable)
    return tree, scenario, {"protocol": tree_digest, "scenario": scenario_digest}


def cmd_capacity(args) -> int:
    cs = [Fraction(c) for c in args.c.split(",")]
    bs = [Fraction(b) for b in args.b.split(",")] if args.b else [None]
    rows = []
    for c in cs:
        for b in bs:
            row = {"c": str(c), "fixed_capacity": fixed_capacity(c)}
            if b is not None:
                row["b"] = str(b)
                row["indep_capacity"] = indep_capacity(b, c)
            rows.append(row)
    csv_rows = [(r.get("b"), r["c"], r.get("indep_capacity"), r["fixed_capacity"]) for r in rows]
    _emit(
        args,
        "capacity",
        {"b": args.b, "c": args.c},
        {"command": "capacity", "rows": rows},
        ("b,c,indep_capacity,fixed_capacity", csv_rows),
    )
    return 0


def cmd_verify(args) -> int:
    tree, scenario, config = _load_instance(args)
    issues = validate(tree, scenario)
    if issues:
        raise ValueError("invalid protocol: %s" % "; ".join(issues))
    transcript_cert = check_transcript_bound(tree, scenario, budget=args.budget)
    rounds = check_round_decomposition(tree, scenario, budget=args.budget)
    payload = {
        "command": "verify",
        "non_revealing": non_revealing(tree, scenario),
        "transcript_bound": transcript_cert.to_jsonable(),
        "rounds": [
            {
                "prefix": label_to_jsonable(r.prefix),
                "speaker": r.speaker,
                "speaker_cert": r.speaker_cert.to_jsonable(),
                "listener_certs": {
                    str(j): cert.to_jsonable() for j, cert in r.listener_certs.items()
                },
                "holds": r.holds,
            }
            for r in rounds
        ],
        "all_rounds_hold": all(r.holds for r in rounds),
    }
    try:
        general = check_general_upper_bound(tree, scenario, budget=args.budget)
        payload["general_upper_bound"] = general.to_jsonable()
        top = general.c  # the exact largest posterior, from safety_report's scan
    except ValueError as exc:
        payload["general_upper_bound"] = {"skipped": str(exc)}
        # set when the scan ran and only the bound itself was ruled out
        top = getattr(exc, "max_posterior", None)
    if args.c is not None:
        c = as_probability(args.c)
        if top is None:  # a premise check raised before the scan
            top = safety_report(tree, scenario, 1, budget=args.budget).max_posterior
        payload["safety"] = {
            "c": str(c),
            "safe": top <= c,
            "max_posterior": fraction_to_jsonable(top),
        }
    config.update(c=args.c, budget=args.budget)
    _emit(args, "verify", config, payload)
    return 0


def cmd_leak(args) -> int:
    # numpy loads only for the commands that run the window codes
    from .coding import exact_rate, fixed_two_group_run, run_indep_experiment

    started = time.perf_counter()
    if args.mode == "indep":
        report = run_indep_experiment(
            Fraction(args.b),
            Fraction(args.c),
            exact_rate(args.rate),
            args.n,
            args.trials,
            args.seed,
        )
    else:
        report = fixed_two_group_run(
            args.l,
            args.n,
            Fraction(args.c),
            exact_rate(args.rate),
            args.trials,
            args.seed,
            c_prime=Fraction(args.c_prime) if args.c_prime else None,
        )
    payload = {
        "command": "leak",
        "mode": args.mode,
        "report": report.to_jsonable(),
    }
    config = {
        "mode": args.mode,
        "c": args.c,
        "rate": args.rate,
        "n": args.n,
        "trials": args.trials,
        "seed": args.seed,
    }
    # only the flags the chosen mode reads, so an ignored value leaves
    # config_hash alone
    if args.mode == "indep":
        config["b"] = args.b
    else:
        config.update(c_prime=args.c_prime, l=args.l)
    print("wall_time_s=%.3f" % (time.perf_counter() - started), file=sys.stderr)
    _emit(args, "leak", config, payload)
    return 0


def cmd_game(args) -> int:
    tree, scenario, config = _load_instance(args)
    value = succ_of_protocol(tree, scenario, budget=args.budget)
    h = math.log2(len(scenario.x_support))
    l = float(sum(scenario.prior_leak(i) for i in range(1, scenario.n_players + 1)))
    # the cap assumes a secret uniform over its support (a label without
    # mass makes it skewed) with h > 0 bits; otherwise it is undefined
    uniform = len(set(scenario.joint.marginal_dist("X").probs)) == 1
    best_c, bound = best_upper_bound(h, l) if h and uniform else (None, None)
    protocol_id = hashlib.sha256(
        _canonical_json(tree.to_jsonable()).encode()
    ).hexdigest()[:12]
    payload = {
        "command": "game",
        "h": h,
        "l": l,
        "n": scenario.n_players,
        "protocol_id": protocol_id,
        "succ": fraction_to_jsonable(value.succ),
        "succ_float": float(value.succ),
        "best_bound_c": None if best_c is None else str(best_c),
        "bound": bound,
        "decisions": value.to_jsonable()["decisions"],
    }
    row = (h, l, scenario.n_players, protocol_id, float(value.succ), best_c, bound)
    config["budget"] = args.budget
    _emit(args, "game", config, payload, ("h,l,n,protocol_id,succ,best_bound_c,bound", [row]))
    return 0


def cmd_embed(args) -> int:
    tree, scenario, config = _load_instance(args)
    channel, channel_digest = _read_input(args, "channel", InnocentChannel.from_jsonable)
    run = compose_run(tree, channel, scenario, args.seed, args.max_rounds)
    payload = {
        "command": "embed",
        "run": {
            "x": label_to_jsonable(run.x),
            "lvec": list(run.lvec),
            "decoded": None if run.decoded is None else label_to_jsonable(run.decoded),
            "rounds_used": run.rounds_used,
            "innocent_transcript": [list(map(label_to_jsonable, row)) for row in run.innocent_transcript],
        },
    }
    if args.audit_depth:
        audit = equivalence_audit(tree, channel, scenario, args.audit_depth)
        payload["audit"] = audit.to_jsonable()
    config.update(
        channel=channel_digest,
        seed=args.seed,
        max_rounds=args.max_rounds,
        audit_depth=args.audit_depth,
    )
    _emit(args, "embed", config, payload)
    return 0


def cmd_decode(args) -> int:
    from .coding import Codebook, ml_decode, window_channel

    book, book_digest = _read_input(args, "codebook", Codebook.from_jsonable)
    transcript, transcript_digest = _read_input(args, "transcript", lambda data: data["messages"])
    ch = window_channel(Fraction(args.b), Fraction(args.c))
    guess = ml_decode(book, transcript, ch)
    config = {
        "codebook": book_digest,
        "transcript": transcript_digest,
        "b": args.b,
        "c": args.c,
    }
    _emit(
        args,
        "decode",
        config,
        {
            "command": "decode",
            "x_hat": guess,
            "tie": guess is None,
        },
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``cryptogeno`` parser, its ``--budget`` default the library's
    ``protocols.DEFAULT_ENUMERATION_BUDGET`` at call time. One parser is
    built per budget value and shared by every later call, so callers must
    not change it; parsing reads a parser without changing it."""
    return _parser(protocols.DEFAULT_ENUMERATION_BUDGET)


@functools.cache
def _parser(budget: int) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cryptogeno",
        description="capacities, certificates and experiments for deniable leaking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each command takes --out, and of these only the flags it reads
    shared = {
        "--format": dict(choices=("json", "csv"), default="json"),
        "--seed": dict(type=int, default=0),
        "--budget": dict(type=int, default=budget),
    }

    def common(p, *flags):
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        for flag in flags:
            p.add_argument(flag, **shared[flag])

    p = sub.add_parser("capacity", help="capacity formulas over a parameter grid")
    common(p, "--format")
    p.add_argument("--c", required=True, help="comma-separated posteriors in (0,1)")
    p.add_argument("--b", default=None, help="comma-separated leak priors")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("verify", help="suspicion certificates for a protocol")
    common(p, "--budget")
    p.add_argument("--protocol", required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--c", default=None, help="also check the safety predicate at this cap")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("leak", help="reliable-leakage Monte Carlo experiments")
    common(p, "--seed")
    p.add_argument("--mode", choices=("indep", "fixed"), default="indep")
    p.add_argument("--b", default="1/2")
    p.add_argument("--c", default="2/3")
    p.add_argument("--c-prime", dest="c_prime", default=None)
    p.add_argument("--rate", default="1/10")
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=cmd_leak)

    p = sub.add_parser("game", help="evaluate the leaker-hunting game exactly")
    common(p, "--format", "--budget")
    p.add_argument("--protocol", required=True)
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=cmd_game)

    p = sub.add_parser("embed", help="run a protocol inside innocent chatter")
    common(p, "--seed")
    p.add_argument("--protocol", required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--channel", required=True)
    p.add_argument("--max-rounds", dest="max_rounds", type=int, default=200)
    p.add_argument("--audit-depth", dest="audit_depth", type=int, default=0)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("decode", help="regenerate a codebook and ML-decode a transcript")
    common(p)
    p.add_argument("--codebook", required=True, help="JSON with seed, h, n, d and stream")
    p.add_argument("--transcript", required=True, help='JSON with "messages": [..]')
    p.add_argument("--b", default="1/2")
    p.add_argument("--c", default="2/3")
    p.set_defaults(func=cmd_decode)

    return parser


def _error_record(args, kind: str, exc: BaseException) -> None:
    # runtime failures leave an explicit record; validation failures do not
    # produce output files at all
    error = {"kind": kind, "message": str(exc)}
    _write(args, _canonical_json({"version": __version__, "error": error}))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, FileNotFoundError, ZeroDivisionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print("budget error: %s" % exc, file=sys.stderr)
        _error_record(args, "budget", exc)
        return 1
    except MemoryError as exc:
        print("memory budget error: %s" % exc, file=sys.stderr)
        _error_record(args, "memory", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
