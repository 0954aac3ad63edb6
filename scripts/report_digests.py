#!/usr/bin/env python3
"""sha256 of the exact reports on a fixed set of instances.

Prints one ``<digest>  <name>`` line per report: `verify --c 3/4` and
`game` on the n=3 window instance, two seeded deep random protocols and
the n=4 window instance, whose leakage meets the paper's cap with equality,
one digest of both reports over a seeded batch of small instances (random,
independent-leaker and fixed-count scenarios in turn),
`game` on the silent protocol with a skewed secret (no cap reported),
`embed --audit-depth` (the whole report file) on the one-speaker figure
instance and the n=2 and n=3 window instances under (1/3, 2/3) chatter,
`leak` at d = 2, 3, 4 and 9 and in fixed mode at d = 3 and 38, `decode`
of a noisy d = 3 codeword, of a noisy d = 4 codeword in a later chunk of a
streamed book, of a noisy d = 2 codeword of length 37 and of a tie, the JSON
and CSV `capacity` reports of a 3x3 grid, the ``float.hex`` of the
capacity and game-bound formulas over a fixed grid, and the
canonical JSON of `binarize`, `stop_at_c`, `pretend_ignorance` and the
trigger masses over a seeded batch of small random protocols, the
`posterior_measure` of each protocol of that batch, of its binarization and
of `stop_at_c` on that, and the
exact hypergeometric/binomial ratio bound of every pair 0 < l < n <= 200.
The codebooks behind `leak` and `decode` span several packing blocks. Run it
in two checkouts and diff the output to see whether a change moved any
report:

    PYTHONPATH=src python scripts/report_digests.py > after.txt

``scripts/report_digests.expected`` holds the current output, and CI diffs
a run against it, so a change that moves any report byte updates that file
and says why.
"""

import argparse
import hashlib
import json
import os
import random
import sys
import tempfile
from fractions import Fraction

import numpy as np

from cryptogenography.cli import main as cli_main
from cryptogenography.coding import (
    fixed_capacity,
    indep_capacity,
    ratio_bound_check,
    window,
    window_channel,
    window_protocol,
    window_scenario,
)
from cryptogenography.embedding import InnocentChannel
from cryptogenography.game import asymptotic_lower_rate, succ_upper_bound
from cryptogenography.probability import FiniteDist, fraction_to_jsonable
from cryptogenography.protocols import (
    LeakScenario,
    ProtocolNode,
    ProtocolTree,
    binarize,
    posterior_measure,
    pretend_ignorance,
    pretend_ignorance_trigger_mass,
    stop_at_c,
)

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
from genutil import random_protocol, random_scenario  # noqa: E402

F = Fraction


def protocol_instances():
    ch = window_channel(F(1, 2), F(2, 3))
    instances = {"window3": (window_protocol(ch, 3), window_scenario(ch, 3))}
    rng = random.Random(31)
    sc = random_scenario(rng, n_players=3)
    instances["deep-random"] = (random_protocol(rng, sc, max_depth=4, stop_prob=0.2), sc)
    rng = random.Random(34)
    sc = LeakScenario.independent(FiniteDist.uniform((0, 1, 2)), 3, F(1, 3))
    instances["deep-indep"] = (random_protocol(rng, sc, max_depth=4, stop_prob=0.2), sc)
    # the knife edge: the window protocol's leakage equals the cap
    instances["window4"] = (window_protocol(ch, 4), window_scenario(ch, 4))
    return instances


def batch_instances(count: int, seed: int):
    """Yield (protocol, scenario) of a seeded batch of small instances: a
    random scenario, independent leakers and a fixed leaker count in turn."""
    rng = random.Random(seed)
    for k in range(count):
        n = 2 + k % 2
        x = FiniteDist.uniform(tuple(range(2 + k % 3 // 2)))
        if k % 3 == 0:
            sc = random_scenario(rng, n_players=n)
        elif k % 3 == 1:
            sc = LeakScenario.independent(x, n, F(rng.randrange(1, 4), 4))
        else:
            sc = LeakScenario.fixed(x, rng.randrange(0, n + 1), n)
        yield random_protocol(rng, sc, max_depth=3), sc


def skewed_instance():
    """The silent protocol on X over {0, 1, 2, 3} with probabilities
    (97, 1, 1, 1)/100 and two players leaking independently with
    probability 1/10; its game value exceeds the uniform-secret cap."""
    x = FiniteDist((0, 1, 2, 3), (F(97, 100), F(1, 100), F(1, 100), F(1, 100)))
    return ProtocolTree(None), LeakScenario.independent(x, 2, F(1, 10))


def embed_instances():
    sc = LeakScenario.independent(FiniteDist.uniform((0, 1)), 1, F(1, 2))
    p_inn = FiniteDist(("a1", "a2"), (F(2, 5), F(3, 5)))
    p0 = FiniteDist(("a1", "a2"), (F(1), F(0)))
    p1 = FiniteDist(("a1", "a2"), (F(1, 5), F(4, 5)))
    node = ProtocolNode(1, ("a1", "a2"), p_inn, {0: p0, 1: p1}, {"a1": None, "a2": None})
    law = FiniteDist(("m1", "m2"), (F(3, 5), F(2, 5)))
    ch = window_channel(F(1, 2), F(2, 3))
    chatter = FiniteDist(("u", "v"), (F(1, 3), F(2, 3)))
    return {
        "figure": (ProtocolTree(node), sc, InnocentChannel(1, ({1: law},), True), "60"),
        "window2": (
            window_protocol(ch, 2),
            window_scenario(ch, 2),
            InnocentChannel(2, ({1: chatter, 2: chatter},), True),
            "40",
        ),
        "window3": (
            window_protocol(ch, 3),
            window_scenario(ch, 3),
            InnocentChannel(3, ({1: chatter, 2: chatter, 3: chatter},), True),
            "40",
        ),
    }


def window_cases(workdir) -> dict:
    """name -> argv of the `leak` and `decode` runs."""
    indep = ["leak", "--mode", "indep", "--b"]
    cases = {
        "leak-indep-d2": indep + ["1/2", "--c", "2/3", "--n", "200", "--rate", "1/10",
                                  "--trials", "16", "--seed", "3"],
        "leak-indep-d3": indep + ["1/4", "--c", "1/2", "--n", "300", "--rate", "1/20",
                                  "--trials", "8", "--seed", "5"],
        # a power of two above 2: two planes masked from the raw values
        "leak-indep-d4": indep + ["1/4", "--c", "4/7", "--n", "160", "--rate", "1/10",
                                  "--trials", "10", "--seed", "6"],
        "leak-indep-d9": indep + ["1/10", "--c", "1/2", "--n", "100", "--rate", "1/8",
                                  "--trials", "10", "--seed", "4"],
        "leak-fixed": ["leak", "--mode", "fixed", "--l", "10", "--n", "40", "--c", "3/4",
                       "--rate", "1/10", "--trials", "5", "--seed", "7"],
        # (a, d) = (3, 38): two 2^10 x 200 books, each over two draw blocks,
        # so the report pins every trial's draw order and its rows
        "leak-fixed-d38": ["leak", "--mode", "fixed", "--l", "10", "--n", "200", "--c", "3/4",
                           "--rate", "1", "--trials", "6", "--seed", "5"],
    }
    # the sent codeword is row 9999 of the book as numpy itself draws it:
    # at d = 3 block k of R = 1872 rows (a multiple of 8 near 2^17 symbols)
    # is one call 2^64 k raw words into the seed's stream, so decode finds
    # it only if the package regenerates that stream
    rng = np.random.default_rng(12)
    rng.bit_generator.advance(9999 // 1872 * 2**64)
    sent = rng.integers(1, 4, size=(1872, 70), dtype=np.uint8)[9999 % 1872]
    ch = window_channel(F(2, 5), F(1, 2))  # a=2, d=3
    noisy = [window(ch, int(s))[0] for s in sent]
    noisy[:10] = [i % 3 + 1 for i in range(10)]
    # a binary codeword whose length fills no whole byte, three bits flipped
    sent = np.random.default_rng(21).integers(1, 3, size=(2**13, 37), dtype=np.uint8)[4321]
    flipped = [3 - int(s) if i in (0, 8, 36) else int(s) for i, s in enumerate(sent)]
    # a d = 4 codeword with ten symbols changed, past the 2^16 rows of the
    # decoder's first chunk of this book, so it is drawn into a reused chunk
    sent = np.random.default_rng(41).integers(1, 5, size=(2**17, 100), dtype=np.uint8)[100003]
    changed = [int(s) % 4 + 1 if i < 10 else int(s) for i, s in enumerate(sent)]
    decodes = {
        "decode-d3": ({"seed": 12, "h": 14, "n": 70, "d": 3, "stream": 2}, noisy, "2/5", "1/2"),
        "decode-d4": ({"seed": 41, "h": 17, "n": 100, "d": 4}, changed, "1/4", "4/7"),
        "decode-d2-n37": ({"seed": 21, "h": 13, "n": 37, "d": 2}, flipped, "1/2", "2/3"),
        # eight codewords of this book tie on the alternating transcript
        "decode-tie": ({"seed": 16, "h": 14, "n": 16, "d": 2}, [1, 2] * 8, "1/2", "2/3"),
    }
    for name, (book, messages, b, c) in decodes.items():
        files = []
        for part, obj in (("codebook", book), ("transcript", {"messages": messages})):
            path = os.path.join(workdir, "%s-%s.json" % (name, part))
            with open(path, "w") as fh:
                json.dump(obj, fh)
            files += ["--" + part, path]
        cases[name] = ["decode"] + files + ["--b", b, "--c", c]
    return cases


def write(workdir, name, obj) -> str:
    path = os.path.join(workdir, name + ".json")
    with open(path, "w") as fh:
        json.dump(obj.to_jsonable(), fh)
    return path


def instance_files(workdir, pi, sc) -> list:
    """The ``--protocol`` and ``--scenario`` arguments of one instance."""
    return ["--protocol", write(workdir, "protocol", pi), "--scenario", write(workdir, "scenario", sc)]


def cli_report(workdir, argv) -> bytes:
    out = os.path.join(workdir, "report.json")
    code = cli_main(argv + ["--out", out])
    if code != 0:
        raise SystemExit("%s exited %d" % (" ".join(argv[:1]), code))
    with open(out, "rb") as fh:
        return fh.read()


def cli_digest(workdir, argv) -> str:
    return hashlib.sha256(cli_report(workdir, argv)).hexdigest()


def capacity_reports(workdir) -> bytes:
    """The JSON report of `capacity` on a 3x3 (c, b) grid, then its CSV."""
    argv = ["capacity", "--c", "1/2,2/3,3/4", "--b", "1/10,1/4,1/2"]
    return b"".join(cli_report(workdir, argv + ["--format", f]) for f in ("json", "csv"))


def rate_table() -> str:
    """``float.hex`` of the capacity and game-bound formulas, one line per
    grid point: c = k/97 for the capacities, b = j/97 <= c for
    ``indep_capacity``, p = k/97 for ``asymptotic_lower_rate`` and a few
    (h, l) pairs for ``succ_upper_bound``."""
    lines = []
    for k in range(1, 97):
        c = F(k, 97)
        lines.append("fixed %s %s\n" % (c, fixed_capacity(c).hex()))
        lines.append("lower %s %s\n" % (c, asymptotic_lower_rate(c).hex()))
        for j in range(1, k + 1, 7):
            lines.append("indep %s %s %s\n" % (F(j, 97), c, indep_capacity(F(j, 97), c).hex()))
        for h, l in ((1.0, 0.0), (2.5, 0.5), (10.0, 3.0)):
            lines.append("succ %r %r %s %s\n" % (h, l, c, succ_upper_bound(h, l, c).hex()))
    return "".join(lines)


def transform_batch(count: int, seed: int):
    """Yield (scenario, random protocol, its binarization, cap) per item of
    the seeded batch."""
    rng = random.Random(seed)
    caps = [F(3, 5), F(2, 3), F(3, 4), F(4, 5)]
    for k in range(count):
        sc = random_scenario(rng, n_players=2 + k % 2)
        tree = random_protocol(rng, sc, max_depth=3)
        yield sc, tree, binarize(tree, sc), caps[k % len(caps)]


def transform_records(count: int, seed: int) -> str:
    records = []
    for sc, _tree, pi, c in transform_batch(count, seed):
        record = {"binarize": pi.to_jsonable()}
        for name, transform in (("stop_at_c", stop_at_c), ("pretend_ignorance", pretend_ignorance)):
            try:
                record[name] = transform(pi, sc, c).to_jsonable()
            except ValueError:
                record[name] = "prior above cap"
        mass = pretend_ignorance_trigger_mass(pi, sc, c)
        record["trigger_mass"] = [[x, fraction_to_jsonable(m)] for x, m in mass.items()]
        records.append(record)
    return json.dumps(records, sort_keys=True)


def measure_records(count: int, seed: int) -> str:
    """``posterior_measure`` of each protocol of the transform batch, of its
    binarization and of ``stop_at_c`` on that, as [vector, mass] pairs in
    the measure's own order."""

    def jsonable(tree, sc):
        return [
            [[fraction_to_jsonable(p) for p in vector], fraction_to_jsonable(mass)]
            for vector, mass in posterior_measure(tree, sc).items()
        ]

    records = []
    for sc, tree, pi, c in transform_batch(count, seed):
        record = {"source": jsonable(tree, sc), "binarize": jsonable(pi, sc)}
        try:
            record["stop_at_c"] = jsonable(stop_at_c(pi, sc, c), sc)
        except ValueError:
            record["stop_at_c"] = "prior above cap"
        records.append(record)
    return json.dumps(records, sort_keys=True)


def ratio_sweep(n_max: int) -> str:
    """One line of RatioBound fields per pair 0 < l < n <= n_max."""
    lines = []
    for n in range(2, n_max + 1):
        for l in range(1, n):
            b = ratio_bound_check(n, l)
            lines.append("%d %d %s %d %d %d\n" % (
                n, l, b.max_ratio, b.argmax_k, b.all_at_most_two, b.unique_peak))
    return "".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--transforms", type=int, default=40, help="random protocols to transform")
    parser.add_argument("--seed", type=int, default=2024, help="seed of the transform batch")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as workdir:
        for name, (pi, sc) in protocol_instances().items():
            files = instance_files(workdir, pi, sc)
            print("%s  verify-%s" % (cli_digest(workdir, ["verify"] + files + ["--c", "3/4"]), name))
            print("%s  game-%s" % (cli_digest(workdir, ["game"] + files), name))
        batch = hashlib.sha256()
        for pi, sc in batch_instances(60, 17):
            files = instance_files(workdir, pi, sc)
            batch.update(cli_report(workdir, ["verify"] + files + ["--c", "3/4"]))
            batch.update(cli_report(workdir, ["game"] + files))
        print("%s  verify-game-batch" % batch.hexdigest())
        files = instance_files(workdir, *skewed_instance())
        print("%s  game-skewed" % cli_digest(workdir, ["game"] + files))
        for name, (pi, sc, channel, depth) in embed_instances().items():
            files = []
            for part, obj in (("protocol", pi), ("scenario", sc), ("channel", channel)):
                files += ["--" + part, write(workdir, part, obj)]
            argv = ["embed"] + files + ["--seed", "5", "--audit-depth", depth]
            print("%s  embed-%s" % (cli_digest(workdir, argv), name))
        for name, argv in window_cases(workdir).items():
            print("%s  %s" % (cli_digest(workdir, argv), name))
        print("%s  capacity" % hashlib.sha256(capacity_reports(workdir)).hexdigest())
    print("%s  rates" % hashlib.sha256(rate_table().encode()).hexdigest())
    text = transform_records(args.transforms, args.seed)
    print("%s  transforms" % hashlib.sha256(text.encode()).hexdigest())
    text = measure_records(args.transforms, args.seed)
    print("%s  posterior-measure" % hashlib.sha256(text.encode()).hexdigest())
    text = ratio_sweep(200)
    print("%s  ratio-sweep-200" % hashlib.sha256(text.encode()).hexdigest())


if __name__ == "__main__":
    main()
