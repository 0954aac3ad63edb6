"""Seeded random generators shared by the module tests and the acceptance
suite. Everything is exact-rational with small denominators so knife-edge
equality cases stay decidable and enumerations stay tiny."""

from fractions import Fraction

from cryptogenography.probability import FiniteDist, JointDist
from cryptogenography.protocols import LeakScenario, ProtocolNode, ProtocolTree


def random_rational_dist(rng, labels, max_weight=6, force=None):
    """Random exact distribution via small integer weights; `force` pins the
    result (used to plant equality cases)."""
    if force is not None:
        return force
    labels = tuple(labels)
    while True:
        weights = [rng.randrange(0, max_weight + 1) for _ in labels]
        if sum(weights) > 0:
            break
    total = sum(weights)
    return FiniteDist(labels, tuple(Fraction(w, total) for w in weights))


def random_single_message_model(rng):
    """Random (X, L, A) joint obeying the one-speaker model: given L=0 the
    message law is one shared p_?, given L=1 and X=x it is p_x. Roughly a
    third of draws plant p_x = p_? so the equality case is exercised."""
    n_x = rng.randrange(2, 4)
    n_a = rng.randrange(2, 4)
    xs = tuple(range(n_x))
    msgs = tuple("m%d" % i for i in range(n_a))
    x_dist = random_rational_dist(rng, xs)
    while any(p == 0 for p in x_dist.probs):
        x_dist = random_rational_dist(rng, xs)
    b_by_x = {x: Fraction(rng.randrange(0, 5), 8) for x in xs}
    p_innocent = random_rational_dist(rng, msgs)
    equality_case = rng.random() < 1 / 3
    p_leak = {
        x: (p_innocent if equality_case else random_rational_dist(rng, msgs)) for x in xs
    }
    table = {}
    for x, px in x_dist.items():
        b = b_by_x[x]
        for a in msgs:
            q0 = px * (1 - b) * p_innocent.prob(a)
            q1 = px * b * p_leak[x].prob(a)
            if q0 > 0:
                table[(x, 0, a)] = table.get((x, 0, a), Fraction(0)) + q0
            if q1 > 0:
                table[(x, 1, a)] = table.get((x, 1, a), Fraction(0)) + q1
    return JointDist(("X", "L", "A"), table)


def random_scenario(rng, n_players=2, n_x=2):
    """Random positive joint over (X, L1..Ln) with small denominators."""
    import itertools

    xs = tuple(range(n_x))
    axes = ("X",) + tuple("L%d" % i for i in range(1, n_players + 1))
    while True:
        table = {}
        for x in xs:
            for lvec in itertools.product((0, 1), repeat=n_players):
                table[(x,) + lvec] = Fraction(rng.randrange(0, 5))
        if all(
            any(table[(x,) + lv] > 0 for lv in itertools.product((0, 1), repeat=n_players))
            for x in xs
        ) and sum(table.values()) > 0:
            break
    total = sum(table.values())
    table = {k: v / total for k, v in table.items()}
    supports = (xs,) + ((0, 1),) * n_players
    return LeakScenario(n_players, JointDist(axes, table, axis_supports=supports))


def random_protocol(
    rng, scenario, max_depth=3, stop_prob=0.4, non_revealing_only=True, alphabet=(0, 1)
):
    """Random protocol tree for the given scenario, every node over
    ``alphabet`` (binary messages by default)."""
    xs = scenario.x_support

    def node(depth):
        speaker = rng.randrange(1, scenario.n_players + 1)
        while True:
            p_innocent = random_rational_dist(rng, alphabet, max_weight=4)
            if not non_revealing_only:
                break
            if all(p > 0 for p in p_innocent.probs):
                break
        p_leak = {}
        for x in xs:
            while True:
                d = random_rational_dist(rng, alphabet, max_weight=4)
                if not non_revealing_only:
                    break
                if all(
                    d.prob(m) == 0 or p_innocent.prob(m) > 0 for m in alphabet
                ):
                    break
            p_leak[x] = d
        children = {}
        for m in alphabet:
            if depth >= max_depth or rng.random() < stop_prob:
                children[m] = None
            else:
                children[m] = node(depth + 1)
        return ProtocolNode(speaker, alphabet, p_innocent, p_leak, children)

    return ProtocolTree(node(1))


def random_joint(rng, n_axes, n_labels):
    """Random positive joint over generic axes, for chain-rule style checks."""
    import itertools

    axes = tuple("A%d" % i for i in range(n_axes))
    labels = tuple(range(n_labels))
    while True:
        table = {
            key: Fraction(rng.randrange(0, 4))
            for key in itertools.product(labels, repeat=n_axes)
        }
        if sum(table.values()) > 0:
            break
    total = sum(table.values())
    return JointDist(axes, {k: v / total for k, v in table.items()})
