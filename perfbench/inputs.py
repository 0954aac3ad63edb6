"""Seeded benchmark inputs, built without the package under test.

Every input is derived from the benchmark seed and written in the JSON
formats the CLI reads (see PAPER.md): scenarios as a joint table over
(X, L1..Ln), protocol trees as nested nodes keyed by ``str(label)``,
chatter channels as per-round law tables, codebooks as their regeneration
record. Only the standard library and numpy are used here, so neither a
refactor of the test helpers nor of the program's constructors can change
what the benchmark measures.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# JSON encodings


def frac_json(p: Fraction) -> dict:
    return {"num": p.numerator, "den": p.denominator}


def label_json(label):
    if isinstance(label, tuple):
        return [label_json(x) for x in label]
    return label


def dist_json(support, probs) -> dict:
    return {
        "support": [label_json(s) for s in support],
        "probs": [frac_json(Fraction(p)) for p in probs],
    }


def scenario_json(n_players: int, table: dict) -> dict:
    """``table`` maps (x, lvec) to an exact probability; zero rows are kept
    so every axis support is complete."""
    axes = ["X"] + ["L%d" % i for i in range(1, n_players + 1)]
    rows = [
        {"key": [label_json(x)] + list(lvec), "p": frac_json(p)}
        for (x, lvec), p in table.items()
    ]
    return {"n_players": n_players, "joint": {"axes": axes, "table": rows}}


def node_json(speaker, alphabet, p_innocent, p_leak, children) -> dict:
    """``p_innocent`` and each ``p_leak[x]`` are prob tuples over ``alphabet``."""
    return {
        "speaker": speaker,
        "alphabet": [label_json(m) for m in alphabet],
        "p_innocent": dist_json(alphabet, p_innocent),
        "p_leak": {str(x): dist_json(alphabet, law) for x, law in p_leak.items()},
        "children": {str(m): children[m] for m in alphabet},
    }


def tree_json(root, depth: int) -> dict:
    return {"length_bound": depth, "root": root}


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


# ---------------------------------------------------------------------------
# window instances


def window_params(b: Fraction, c: Fraction) -> tuple:
    """Smallest (a, d) with a/d = b(1-c) / (c(1-b))."""
    ratio = b * (1 - c) / (c * (1 - b))
    return ratio.numerator, ratio.denominator


def independent_table(xs, n_players: int, b: Fraction) -> dict:
    """Uniform X, each player leaking independently with probability b."""
    px = Fraction(1, len(xs))
    table = {}
    for x in xs:
        for lvec in itertools.product((0, 1), repeat=n_players):
            p = px
            for li in lvec:
                p *= b if li else 1 - b
            table[(x, lvec)] = p
    return table


def window_instance(b: Fraction, c: Fraction, n: int) -> tuple:
    """(protocol, scenario) JSON of the n-player window construction: each
    player speaks once, uniform over {1..d} when innocent, uniform over the
    a-symbol window of their own coordinate of X when leaking."""
    a, d = window_params(b, c)
    alphabet = tuple(range(1, d + 1))
    xs = tuple(itertools.product(alphabet, repeat=n))
    uniform = tuple(Fraction(1, d) for _ in alphabet)
    window_law = {}
    for j in alphabet:
        win = {((j - 1) * a + u) % d + 1 for u in range(a)}
        window_law[j] = tuple(Fraction(1, a) if m in win else Fraction(0) for m in alphabet)
    node = None
    for player in range(n, 0, -1):
        p_leak = {x: window_law[x[player - 1]] for x in xs}
        node = node_json(player, alphabet, uniform, p_leak, {m: node for m in alphabet})
    return tree_json(node, n), scenario_json(n, independent_table(xs, n, b))


def chatter_json(n_players: int, probs) -> dict:
    """Memoryless chatter: every player sends one of two labels with ``probs``."""
    entries = [
        {
            "player": p,
            "alphabet": ["u", "v"],
            "probs": [frac_json(Fraction(q)) for q in probs],
        }
        for p in range(1, n_players + 1)
    ]
    return {"players": n_players, "rounds": [entries], "repeat": True}


# ---------------------------------------------------------------------------
# random scenarios and protocols


def random_law(rng: random.Random, size: int, max_weight: int, positive: bool) -> tuple:
    """Exact law from small integer weights; ``positive`` forbids zero mass."""
    low = 1 if positive else 0
    while True:
        weights = [rng.randrange(low, max_weight + 1) for _ in range(size)]
        total = sum(weights)
        if total:
            return tuple(Fraction(w, total) for w in weights)


def random_table(rng: random.Random, n_players: int, n_secrets: int, positive: bool) -> dict:
    """Random joint over (X, L1..Ln) with small denominators in which every
    player is innocent with positive probability given every secret, so
    no suspicion is infinite before the protocol starts. ``positive``
    gives every outcome positive mass."""
    xs = tuple(range(n_secrets))
    lvecs = tuple(itertools.product((0, 1), repeat=n_players))
    low = 1 if positive else 0
    while True:
        weights = {(x, lv): rng.randrange(low, 5) for x in xs for lv in lvecs}
        if all(
            any(weights[(x, lv)] for lv in lvecs if not lv[i])
            for x in xs
            for i in range(n_players)
        ):
            break
    total = sum(weights.values())
    return {key: Fraction(w, total) for key, w in weights.items()}


def leak_priors(table: dict, n_players: int) -> list:
    """Every Pr(L_i = 1 | X = x) of the scenario, exactly."""
    x_mass: dict = {}
    leak_mass: dict = {}
    for (x, lvec), p in table.items():
        x_mass[x] = x_mass.get(x, 0) + p
        for i in range(n_players):
            if lvec[i]:
                leak_mass[(x, i)] = leak_mass.get((x, i), 0) + p
    return [leak_mass.get((x, i), 0) / m for x, m in x_mass.items() for i in range(n_players)]


def random_tree(rng, n_players: int, xs, max_depth: int, stop_prob: float, positive: bool) -> dict:
    """Random non-revealing binary protocol: the innocent law has full
    support, so every message a leaker sends an innocent could send too.
    ``positive`` gives the leak laws full support as well."""
    alphabet = (0, 1)

    def node(depth):
        speaker = rng.randrange(1, n_players + 1)
        p_innocent = random_law(rng, 2, 4, positive=True)
        p_leak = {x: random_law(rng, 2, 4, positive) for x in xs}
        children = {}
        for m in alphabet:
            stop = depth >= max_depth or rng.random() < stop_prob
            children[m] = None if stop else node(depth + 1)
        return node_json(speaker, alphabet, p_innocent, p_leak, children)

    return tree_json(node(1), max_depth)


def tree_shape(node, depth: int = 1) -> tuple:
    """(node count, depth) of a protocol JSON subtree."""
    if node is None:
        return 0, depth - 1
    shapes = [tree_shape(child, depth + 1) for child in node["children"].values()]
    return 1 + sum(n for n, _ in shapes), max(d for _, d in shapes)


def random_instance(rng, n_players, n_secrets, max_depth, stop_prob, nodes=None) -> tuple:
    """Random scenario and protocol. With ``nodes``, every outcome and leak
    law is positive and the tree is redrawn until it has exactly that many
    nodes and reaches ``max_depth``, so each prefix carries every outcome
    and a batch costs about the same on every seed."""
    positive = nodes is not None
    table = random_table(rng, n_players, n_secrets, positive)
    while True:
        tree = random_tree(rng, n_players, tuple(range(n_secrets)), max_depth, stop_prob, positive)
        if nodes is None or tree_shape(tree["root"]) == (nodes, max_depth):
            return tree, scenario_json(n_players, table), table


# (node count, depth) of the depth-2 trees in a transform batch, in the
# proportions random_tree draws them with stop_prob 0.4 (about 1 : 2 : 2).
TRANSFORM_SHAPES = ((1, 1), (2, 2), (2, 2), (3, 2), (3, 2))


def transform_batch(rng: random.Random, count: int, caps) -> list:
    """``count`` (protocol, scenario, cap) triples of 2-player depth-2
    protocols. Item i has cap ``caps[i % len(caps)]`` and the i-th shape of
    the cycle through every (cap, shape) pair, so each seed gets the same
    mix of shapes and caps and the batch costs about the same on every
    seed. A draw with some prior above its cap is redrawn, since no landing
    prefix can exist for it."""
    out = []
    while len(out) < count:
        cap = caps[len(out) % len(caps)]
        shape = TRANSFORM_SHAPES[len(out) // len(caps) % len(TRANSFORM_SHAPES)]
        table = random_table(rng, 2, 2, positive=False)
        if max(leak_priors(table, 2)) > cap:
            continue
        while True:
            tree = random_tree(rng, 2, (0, 1), 2, 0.4, positive=False)
            if tree_shape(tree["root"]) == shape:
                break
        out.append((tree, scenario_json(2, table), cap))
    return out


# ---------------------------------------------------------------------------
# codebooks


def codeword(seed: int, n: int, d: int, index: int) -> list:
    """Row ``index`` of the regenerable codebook: the rows of
    ``default_rng(seed).integers(1, d + 1, size=(count, n))`` form one
    stream, so generating the first index + 1 rows reproduces it."""
    dtype = np.uint8 if d < 256 else np.uint16
    rows = np.random.default_rng(seed).integers(1, d + 1, size=(index + 1, n), dtype=dtype)
    return [int(v) for v in rows[index]]
