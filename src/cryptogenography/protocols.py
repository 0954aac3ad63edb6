"""Leak scenarios, protocol trees, exact enumeration and transformations.

A protocol tree prescribes, per node, who speaks, the message alphabet,
the distribution an innocent speaker uses and the per-secret distribution
a leaking speaker uses. Everything downstream (posteriors, equivalence,
the hunting game, embeddings) is computed from the exact rational joint
that a (protocol, scenario) pair induces.

The exact walk carries joint masses as ints over an implicit per-prefix
scale: a child's weights are the parent's times the node's ``int_laws``
(each probability times the lcm of the node's law denominators), and
``_children`` expands a node into every message's child in one pass. Every
test a scan makes is scale-free and decided by integer cross-multiplication;
a ``Fraction`` is made only where a probability leaves the walk. A node
built by a caller or read from a file derives its ``int_laws`` from its
laws on first read; the transformations build every node through ``_node``
with its int laws already known (the input node's, or ``_bit_node``'s from
one reduced int ratio per bit law), in exactly the form the derivation
would give. Their steps (binarize's shares, the doubling chain, the
stop-at-c gadget) are int ratios read from the input's ``int_laws`` and
tallies, with every inequality decided by cross-multiplication.

The deniability posterior Pr(L_i=1 | X=x, prefix) has one implementation,
``_Tally``: one pass over a prefix's int weights (the walk's, or a
JointDist's int view) sums the x-mass and the per-(player, x) leaking
mass; ``posterior`` divides and ``compare`` cross-multiplies against a cap.
``posteriors``, ``safety_report``, the transformations and their checks
here, and the game elsewhere, all read it. The largest posterior has one
scan, ``safety_report``; the general upper bound reads its cap from there.

Player indices are 1-based throughout, matching the axis names
"L1".."Ln". Transcripts are plain tuples of message labels.
"""

from __future__ import annotations

import ast
import itertools
import math
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from typing import Mapping, Optional

from .probability import (
    FiniteDist,
    JointDist,
    ZERO,
    _add_over_lcm,
    _count,
    _integral,
    _sample,
    _unique,
    as_probability,
    label_to_jsonable,
    label_from_jsonable,
)

__all__ = [
    "LeakScenario",
    "ProtocolNode",
    "ProtocolTree",
    "BudgetExceededError",
    "DEFAULT_ENUMERATION_BUDGET",
    "MAX_DOUBLING_ROUNDS",
    "MAX_GADGETS",
    "validate",
    "non_revealing",
    "simulate",
    "enumerate_joint",
    "posteriors",
    "prefix_conditionals",
    "binarize",
    "stop_at_c",
    "pretend_ignorance",
    "pretend_ignorance_trigger_mass",
    "equivalent",
    "posterior_measure",
    "SafetyReport",
    "safety_report",
    "tree_depth",
]

DEFAULT_ENUMERATION_BUDGET = 10**6
# binarize's cap on the digits of one doubling chain
MAX_DOUBLING_ROUNDS = 64
# stop_at_c's cap on gadget insertions per call
MAX_GADGETS = 10_000


class BudgetExceededError(RuntimeError):
    """An exact enumeration or transformation exceeded its state budget."""


# ---------------------------------------------------------------------------
# scenarios


class LeakScenario:
    """Joint law of the secret X and the leak indicators L1..Ln.

    The joint is over axes ("X", "L1", ..., "Ln") with each L in {0, 1}.
    Everyone (players, the decoder, the adversary) knows this law.
    ``weights`` ({(x, lvec): int} over ``scale``) is the joint's int view
    re-keyed: the root state of every exact walk, which none mutates.
    """

    __slots__ = ("n_players", "joint", "weights", "scale")

    def __init__(self, n_players: int, joint: JointDist):
        expected = ("X",) + tuple("L%d" % i for i in range(1, n_players + 1))
        if joint.axes != expected:
            raise ValueError("scenario axes must be %r, got %r" % (expected, joint.axes))
        self.n_players = n_players
        self.joint = joint
        self.scale, nums = joint._int_view()
        self.weights = {(key[0], key[1:]): n for key, n in nums.items()}
        for _x, lvec in self.weights:
            for li in lvec:
                if li not in (0, 1):
                    raise ValueError("leak indicators must be 0 or 1, got %r" % (li,))

    def __eq__(self, other):
        return (
            isinstance(other, LeakScenario)
            and self.n_players == other.n_players
            and self.joint == other.joint
        )

    def __repr__(self):
        return "LeakScenario(n=%d, |X|=%d)" % (self.n_players, len(self.x_support))

    @property
    def x_support(self) -> tuple:
        return self.joint.axis_supports[0]

    def outcomes(self):
        """Yield ((x, lvec), p) with lvec a tuple of 0/1, in canonical order."""
        for outcome, w in self.weights.items():
            yield outcome, Fraction(w, self.scale)

    def outcome_keys(self) -> tuple:
        return tuple(self.weights)

    def prior_leak(self, player: int) -> Fraction:
        return self.joint.prob_event({"L%d" % player: 1})

    @classmethod
    def independent(cls, x_dist: FiniteDist, n: int, b) -> "LeakScenario":
        """X independent of L; each player leaks independently with probability b."""
        b = as_probability(b)
        if not 0 <= b <= 1:
            raise ValueError("b must be in [0, 1]")
        lvecs = itertools.product((0, 1), repeat=n)
        law = {lv: math.prod(b if li else 1 - b for li in lv) for lv in lvecs}
        return cls._from_l_law(x_dist, n, law)

    @classmethod
    def fixed(cls, x_dist: FiniteDist, l: int, n: int) -> "LeakScenario":
        """X independent of L; the leaker set is a uniformly random l-subset of n."""
        if not 0 <= l <= n:
            raise ValueError("need 0 <= l <= n")
        p = Fraction(1, math.comb(n, l))
        lvecs = (tuple(int(i in s) for i in range(n)) for s in itertools.combinations(range(n), l))
        return cls._from_l_law(x_dist, n, dict.fromkeys(lvecs, p))

    @classmethod
    def _from_l_law(cls, x_dist: FiniteDist, n: int, l_law: Mapping) -> "LeakScenario":
        """X independent of L: Pr(X=x, L=lvec) = Pr(X=x) * l_law[lvec]."""
        table = {(x,) + lv: px * pl for x, px in x_dist.items() for lv, pl in l_law.items()}
        axes = ("X",) + tuple("L%d" % i for i in range(1, n + 1))
        supports = (x_dist.support,) + ((0, 1),) * n
        return cls(n, JointDist(axes, table, axis_supports=supports))

    def to_jsonable(self) -> dict:
        joint = self.joint.to_jsonable()
        # supports are written only when the reader would not restore them
        # from the table alone
        implied = _read_scenario_supports(self.joint._table_supports())
        if implied == _read_scenario_supports(self.joint.axis_supports):
            joint.pop("axis_supports", None)
        return {"n_players": self.n_players, "joint": joint}

    @classmethod
    def from_jsonable(cls, data: Mapping) -> "LeakScenario":
        joint = JointDist.from_jsonable(data["joint"])
        joint.axis_supports = _read_scenario_supports(joint.axis_supports)
        return cls(_count("scenario n_players", data["n_players"]), joint)


def _read_scenario_supports(supports: tuple) -> tuple:
    """The supports a scenario file reads back: X as given, each leak
    support in (0, 1) order."""
    return supports[:1] + tuple(tuple(li for li in (0, 1) if li in sup) for sup in supports[1:])


# ---------------------------------------------------------------------------
# protocol trees


@dataclass(frozen=True)
class ProtocolNode:
    """One speaking turn: alphabet, innocent law p_?, per-secret leak laws p_x.

    ``children`` maps every alphabet label to the next node or to None when
    the protocol stops after that message.
    """

    speaker: int
    alphabet: tuple
    p_innocent: FiniteDist
    p_leak: Mapping
    children: Mapping

    def law(self, x, leaking: int) -> FiniteDist:
        if leaking:
            try:
                return self.p_leak[x]
            except KeyError:
                raise ValueError("node has no leak law for secret %r" % (x,)) from None
        return self.p_innocent

    @cached_property
    def int_laws(self) -> tuple:
        """(scale, innocent, {secret: leak}): each law as its (message, q)
        pairs with q > 0 in the law's support order, q the probability times
        ``scale``, the lcm of the node's denominators, and the leak pairs in
        ``p_leak`` order. The one int form of a node's laws. A law whose
        support lacks an alphabet label, or that puts mass on a label outside
        the alphabet, is a ValueError.

        Derived here on first read, unless the node was built by ``_node``:
        the transformations seed the cache there with the int laws they
        already hold, which must equal this derivation exactly (the
        canonical scale included, never a multiple of it)."""
        laws = (self.p_innocent, *self.p_leak.values())
        scale = math.lcm(*(law._int_view()[0] for law in laws))
        ints = []
        for law in laws:
            for m in self.alphabet:
                if m not in law.support:
                    raise ValueError("alphabet label %r is not in a law's support" % (m,))
            den, nums = law._int_view()
            up = scale // den
            for m, n in zip(law.support, nums):
                if n and m not in self.alphabet:
                    raise ValueError("a law puts mass on %r, which is not in the alphabet" % (m,))
            ints.append(tuple((m, n * up) for m, n in zip(law.support, nums) if n))
        return scale, ints[0], dict(zip(self.p_leak, ints[1:]))

    def to_jsonable(self) -> dict:
        return self._jsonable({})

    def _jsonable(self, read_back: dict) -> dict:
        """``to_jsonable`` within one serialisation: ``read_back`` holds
        ``_match_str_key`` of each secret's string form seen so far."""
        if all(_memoised(read_back, str(x), _match_str_key) == x for x in self.p_leak):
            p_leak = {str(x): law.to_jsonable() for x, law in self.p_leak.items()}
        else:
            # some secret's string form reads back as another label
            p_leak = [
                {"secret": label_to_jsonable(x), "law": law.to_jsonable()}
                for x, law in self.p_leak.items()
            ]
        children = [
            None if self.children[m] is None else self.children[m]._jsonable(read_back)
            for m in self.alphabet
        ]
        if len({str(m) for m in self.alphabet}) == len(self.alphabet):
            children = dict(zip(map(str, self.alphabet), children))
        # else two labels share a string form: children stay in alphabet order
        return {
            "speaker": self.speaker,
            "alphabet": [label_to_jsonable(m) for m in self.alphabet],
            "p_innocent": self.p_innocent.to_jsonable(),
            "p_leak": p_leak,
            "children": children,
        }

    @classmethod
    def from_jsonable(cls, data: Mapping) -> "ProtocolNode":
        return cls._decoded(data, {}, {})

    @classmethod
    def _decoded(cls, data: Mapping, laws: dict, secrets: dict) -> "ProtocolNode":
        """``from_jsonable`` within one tree load: ``laws`` holds the laws
        decoded so far (``_decode_law``) and ``secrets`` the secret of each
        p_leak key, so each distinct law and key is decoded once."""
        alphabet = tuple(label_from_jsonable(m) for m in data["alphabet"])
        leak_raw = data["p_leak"]
        if isinstance(leak_raw, list):
            pairs = ((label_from_jsonable(e["secret"]), e["law"]) for e in leak_raw)
        else:
            pairs = (
                (_memoised(secrets, key, _match_str_key), sub) for key, sub in leak_raw.items()
            )
        p_leak = _unique("p_leak secret", ((x, _decode_law(sub, laws)) for x, sub in pairs))
        subs = data["children"]
        if not isinstance(subs, list):
            subs = [subs[str(m)] for m in alphabet]
        children = {
            m: None if sub is None else cls._decoded(sub, laws, secrets)
            for m, sub in zip(alphabet, subs, strict=True)
        }
        return cls(
            _integral("protocol speaker", data["speaker"], True),
            alphabet,
            _decode_law(data["p_innocent"], laws),
            p_leak,
            children,
        )


def _memoised(memo: dict, key, make):
    """``make(key)``, made once per key of ``memo``."""
    try:
        return memo[key]
    except KeyError:
        value = memo[key] = make(key)
        return value


def _decode_law(sub, laws: dict) -> FiniteDist:
    """``FiniteDist.from_jsonable(sub)``, shared by every equal law of one
    tree load (a ``FiniteDist`` is frozen). ``laws`` is keyed by the law's
    ``repr``, which tells 1, 1.0 and True and a list and a tuple apart, and
    a hit also needs content ``==`` to the cached one, in case a caller's
    object has a repr it shares with other content. A law that fails to
    decode is not cached."""
    text = repr(sub)
    hit = laws.get(text)
    if hit is not None and hit[0] == sub:
        return hit[1]
    law = FiniteDist.from_jsonable(sub)
    laws.setdefault(text, (sub, law))
    return law


def _match_str_key(key: str):
    # JSON object keys are strings; secrets are ints, strings or tuples.
    # Try int first, then a tuple literal, else keep the string.
    try:
        return int(key)
    except ValueError:
        pass
    if key.startswith("(") and key.endswith(")"):
        try:
            val = ast.literal_eval(key)
            if isinstance(val, tuple):
                return val
        except (ValueError, SyntaxError):
            pass
    return key


def _node(speaker: int, alphabet: tuple, p_innocent, p_leak, children, int_laws) -> ProtocolNode:
    """The one builder of a transformed node: a ``ProtocolNode`` whose
    ``int_laws`` cache holds ``int_laws``, which the caller knows to be what
    the derivation gives for these laws."""
    node = ProtocolNode(speaker, alphabet, p_innocent, p_leak, children)
    node.__dict__["int_laws"] = int_laws
    return node


@dataclass(frozen=True)
class ProtocolTree:
    """A whole protocol: root node (None means the empty protocol) and a length bound."""

    root: Optional[ProtocolNode]
    length_bound: int = 0

    def __post_init__(self):
        if self.length_bound <= 0:
            object.__setattr__(self, "length_bound", tree_depth(self.root))

    def to_jsonable(self) -> dict:
        return {
            "length_bound": self.length_bound,
            "root": None if self.root is None else self.root.to_jsonable(),
        }

    @classmethod
    def from_jsonable(cls, data: Mapping) -> "ProtocolTree":
        root = data.get("root")
        return cls(
            None if root is None else ProtocolNode.from_jsonable(root),
            _count("protocol length_bound", data.get("length_bound", 0)),
        )


def _nodes(root: Optional[ProtocolNode]):
    """Yield (path, node) for every node under ``root``, depth first, each
    node's children in its ``children`` order (a missing child is skipped)."""
    stack = [((), root)]
    while stack:
        path, node = stack.pop()
        if node is not None:
            yield path, node
            stack.extend((path + (m,), child) for m, child in reversed(node.children.items()))


def tree_depth(node: Optional[ProtocolNode]) -> int:
    return max((len(path) + 1 for path, _node in _nodes(node)), default=0)


def validate(tree: ProtocolTree, scenario: LeakScenario) -> list:
    """Structural issues, [] when valid: laws over the node alphabet, a leak law
    per secret, children complete, depth within the bound, speakers in range."""
    issues = []

    def visit(node: Optional[ProtocolNode], depth: int, path: tuple):
        if node is None:
            return
        if depth > tree.length_bound:
            issues.append("depth %d at %r exceeds length_bound %d" % (depth, path, tree.length_bound))
            return
        if len(node.alphabet) < 1:
            issues.append("empty alphabet at %r" % (path,))
            return
        if node.p_innocent.support != node.alphabet:
            issues.append("p_innocent support differs from alphabet at %r" % (path,))
        for x, dist in node.p_leak.items():
            if dist.support != node.alphabet:
                issues.append("p_leak[%r] support differs from alphabet at %r" % (x, path))
        if not 1 <= node.speaker <= scenario.n_players:
            issues.append("speaker %d out of range at %r" % (node.speaker, path))
        for x in scenario.x_support:
            if x not in node.p_leak:
                issues.append("missing leak law for secret %r at %r" % (x, path))
        missing = [m for m in node.alphabet if m not in node.children]
        if missing:
            issues.append("missing children for %r at %r" % (missing, path))
            return
        for m in node.alphabet:
            visit(node.children[m], depth + 1, path + (m,))

    visit(tree.root, 1, ())
    return issues


def non_revealing(tree: ProtocolTree, scenario: LeakScenario) -> bool:
    """True iff at every node, every message a leaker can send, an innocent can too."""
    for _path, node in _nodes(tree.root):
        for x in scenario.x_support:
            # read first, so a missing leak law raises wherever it is
            dist = node.law(x, 1)
            if any(dist.prob(m) > 0 and node.p_innocent.prob(m) == 0 for m in node.alphabet):
                return False
    return True


# ---------------------------------------------------------------------------
# exact enumeration

# (x, lvec) -> int, Pr(X=x, L=lvec, T^k = prefix) times the prefix's scale
Weights = Mapping


def _children(node: ProtocolNode, weights: dict) -> dict:
    """{message: the weights after it} for every alphabet message, at the
    parent's scale times the node's, from one pass over the weights. A
    message no outcome can send maps to {}; each child keeps the parent's
    key order."""
    _scale, innocent, leak = node.int_laws
    speaker = node.speaker - 1
    out = {m: {} for m in node.alphabet}
    try:
        for key, w in weights.items():
            for m, q in leak[key[0]] if key[1][speaker] else innocent:
                out[m][key] = w * q
    except KeyError as exc:
        raise ValueError("node has no leak law for secret %r" % exc.args) from None
    return out


class _StateBudget:
    """Outcome states charged against one budget: every walk and every
    transformation recursion charges the weights of each prefix it reads,
    internal and terminal. BudgetExceededError once they pass ``budget``
    (None: DEFAULT_ENUMERATION_BUDGET, read when the budget is made); its
    text says how many states and prefixes were read, the last included,
    and it carries ``limit``, ``states`` and ``prefixes`` as attributes."""

    __slots__ = ("limit", "states", "prefixes")

    def __init__(self, budget: Optional[int]):
        self.limit = DEFAULT_ENUMERATION_BUDGET if budget is None else budget
        self.states = 0
        self.prefixes = 0

    def charge(self, weights) -> None:
        self.states += len(weights)
        self.prefixes += 1
        if self.states > self.limit:
            err = BudgetExceededError(
                "enumeration exceeded %d outcome states (states read: %d, prefixes read: %d); "
                "raise the budget explicitly" % (self.limit, self.states, self.prefixes)
            )
            err.limit, err.states, err.prefixes = self.limit, self.states, self.prefixes
            raise err


class _Tally:
    """One pass over a prefix's weights: x-mass and per-(player, x) leaking
    mass, from which ``posterior`` reads Pr(L_i=1 | X=x, prefix) and
    ``compare`` decides it against a cap.

    Every posterior in the package is read from here. Weights are ints: the
    walk's, or a JointDist's int view; both tests are scale-free. Key order
    follows the weights, so scans over ``leak_mass`` are deterministic.
    """

    __slots__ = ("x_mass", "leak_mass")

    def __init__(self, weights: Weights):
        x_mass: dict = {}
        leak_mass: dict = {}
        for (x, lvec), p in weights.items():
            x_mass[x] = x_mass.get(x, 0) + p
            for i, li in enumerate(lvec, 1):
                if li:
                    pair = (i, x)
                    leak_mass[pair] = leak_mass.get(pair, 0) + p
        self.x_mass = x_mass
        self.leak_mass = leak_mass

    def posterior(self, player: int, x) -> Optional[Fraction]:
        """Pr(L_player=1 | X=x, prefix), or None when x has no mass here."""
        mass = self.x_mass.get(x)
        if not mass:
            return None
        return Fraction(self.leak_mass.get((player, x), 0), mass)

    def compare(self, player: int, x, c: Fraction) -> Optional[int]:
        """Sign of Pr(L_player=1 | X=x, prefix) - c, by cross-multiplication;
        None when x has no mass here."""
        mass = self.x_mass.get(x)
        if not mass:
            return None
        lhs = self.leak_mass.get((player, x), 0) * c.denominator
        rhs = mass * c.numerator
        return (lhs > rhs) - (lhs < rhs)


def _posterior_key(weights: Weights, keys: tuple) -> tuple:
    """The weights over their gcd in the canonical outcome order ``keys``:
    the one primitive int vector proportional to the posterior, so equal
    keys are equal posteriors whatever the weights' scale."""
    g = math.gcd(*weights.values())
    return tuple(weights.get(k, 0) // g for k in keys)


def _posterior_vector(key: tuple) -> tuple:
    """The normalized posterior that a ``_posterior_key`` stands for."""
    total = sum(key)
    return tuple(Fraction(w, total) for w in key)


def iter_prefixes(tree: ProtocolTree, scenario: LeakScenario, budget: Optional[int] = None):
    """Depth-first walk over positive-probability prefixes.

    Yields (prefix, node_or_None, weights, scale). ``node`` is None at
    terminal prefixes (complete transcripts). Weights are ints: the joint
    mass Pr(X=x, L=lvec, T^k = prefix) is ``Fraction(w, scale)``.

    Every exhaustive scan reads this walk, which keeps the state budget:
    BudgetExceededError once the outcome states yielded, internal and
    terminal, pass ``budget`` (None: DEFAULT_ENUMERATION_BUDGET at start).
    """
    states = _StateBudget(budget)
    stack = [((), tree.root, scenario.weights, scenario.scale)]
    while stack:
        prefix, node, weights, scale = stack.pop()
        states.charge(weights)
        yield prefix, node, weights, scale
        if node is None:
            continue
        child_scale = scale * node.int_laws[0]
        children = _children(node, weights)
        for m in reversed(node.alphabet):
            if children[m]:
                stack.append((prefix + (m,), node.children[m], children[m], child_scale))


def enumerate_joint(
    tree: ProtocolTree,
    scenario: LeakScenario,
    budget: Optional[int] = None,
) -> JointDist:
    """Exact joint of (X, L1..Ln, T) with T ranging over complete transcripts.

    Built in int form over the lcm of the terminal prefixes' scales."""
    terminals = [
        (prefix, weights, scale)
        for prefix, node, weights, scale in iter_prefixes(tree, scenario, budget)
        if node is None
    ]
    den = math.lcm(*(scale for _, _, scale in terminals))
    table = {}
    for prefix, weights, scale in terminals:
        up = den // scale
        for (x, lvec), w in weights.items():
            table[(x,) + lvec + (prefix,)] = w * up
    axes = scenario.joint.axes + ("T",)
    supports = scenario.joint.axis_supports + (tuple(prefix for prefix, _, _ in terminals),)
    return JointDist(axes, table, axis_supports=supports, den=den)


@dataclass
class PosteriorView:
    """Exact conditionals given a transcript prefix."""

    x_posterior: FiniteDist
    leak_probs: tuple  # per player, Pr(L_i = 1 | prefix)
    leak_probs_given_x: Mapping  # x -> per-player tuple, only for Pr(x | prefix) > 0


def _weights_at_prefix(tree: ProtocolTree, scenario: LeakScenario, prefix: tuple) -> dict:
    node = tree.root
    weights = scenario.weights
    for m in prefix:
        if node is None:
            raise ValueError("prefix %r runs past the end of the protocol" % (prefix,))
        if m not in node.children:
            raise ValueError("message %r not in alphabet at this node" % (m,))
        weights = _children(node, weights).get(m)
        if not weights:
            raise ValueError("prefix %r has probability zero" % (prefix,))
        node = node.children[m]
    return weights


def posteriors(tree: ProtocolTree, scenario: LeakScenario, prefix: tuple) -> PosteriorView:
    tally = _Tally(_weights_at_prefix(tree, scenario, prefix))
    total = sum(tally.x_mass.values())
    players = range(1, scenario.n_players + 1)
    x_support = scenario.x_support
    x_mass = tuple(tally.x_mass.get(x, 0) for x in x_support)
    x_posterior = FiniteDist(x_support, tuple(Fraction(w, total) for w in x_mass))
    leak_probs = tuple(
        Fraction(sum(tally.leak_mass.get((i, x), 0) for x in tally.x_mass), total) for i in players
    )
    leak_given_x = {
        x: tuple(tally.posterior(i, x) for i in players) for x in x_support if tally.x_mass.get(x)
    }
    return PosteriorView(x_posterior, leak_probs, leak_given_x)


def prefix_conditionals(tree: ProtocolTree, scenario: LeakScenario) -> dict:
    """Map every positive-probability prefix (incl. complete transcripts) to
    the normalized conditional vector over scenario outcomes, canonical order.
    The walk keeps the default state budget."""
    keys = scenario.outcome_keys()
    return {
        prefix: _posterior_vector(_posterior_key(weights, keys))
        for prefix, _node, weights, _scale in iter_prefixes(tree, scenario)
    }


def simulate(tree: ProtocolTree, scenario: LeakScenario, seed: int):
    """Sample (x, lvec, transcript); deterministic for a given seed."""
    rng = random.Random(seed)
    x, lvec = _sample(rng, scenario.outcomes())
    node = tree.root
    transcript = []
    while node is not None:
        m = _sample(rng, node.law(x, lvec[node.speaker - 1]).items())
        transcript.append(m)
        node = node.children[m]
    return x, lvec, tuple(transcript)


# ---------------------------------------------------------------------------
# posterior-measure equivalence


def _terminal_masses(tree: ProtocolTree, scenario: LeakScenario) -> dict:
    """{primitive int vector: transcript mass} in first-seen order.

    Each terminal is keyed by ``_posterior_key`` (as stop_at_c's memo is).
    Each key sums its terminals' int masses over the lcm of their scales
    and makes one Fraction.
    """
    keys = scenario.outcome_keys()
    sums: dict = {}
    for _prefix, node, weights, scale in iter_prefixes(tree, scenario):
        if node is None:
            _add_over_lcm(sums, _posterior_key(weights, keys), sum(weights.values()), scale)
    return {key: Fraction(total, den) for key, (total, den) in sums.items()}


def posterior_measure(tree: ProtocolTree, scenario: LeakScenario) -> dict:
    """Distribution of the end-of-protocol posterior over (X, L1..Ln).

    Returns {posterior-vector: total transcript probability} with the vector
    over scenario outcomes in canonical order, in first-seen order of the
    depth-first walk. Two protocols inducing the same measure are
    indistinguishable to any observer of the transcript. The vectors are
    built from ``_terminal_masses``' int keys, one per distinct posterior.
    """
    return {_posterior_vector(key): mass for key, mass in _terminal_masses(tree, scenario).items()}


def equivalent(a: ProtocolTree, b: ProtocolTree, scenario: LeakScenario) -> bool:
    """Exact comparison of the induced posterior-measure distributions.

    Compares the int-keyed ``_terminal_masses`` of the two walks: a primitive
    non-negative int vector is the unique representative of its normalized
    posterior, so equal key dicts are equal measures and no Fraction vector
    is built. Each walk keeps the default state budget on its own, as
    ``posterior_measure`` does.
    """
    return _terminal_masses(a, scenario) == _terminal_masses(b, scenario)


# ---------------------------------------------------------------------------
# safety predicate


@dataclass
class SafetyReport:
    ok: bool
    max_posterior: Fraction
    witness: Optional[tuple]  # (player, transcript, x) attaining the max


def safety_report(
    tree: ProtocolTree,
    scenario: LeakScenario,
    c,
    include_prefixes: bool = False,
    budget: Optional[int] = None,
) -> SafetyReport:
    """Check Pr(L_i=1 | T=t, X=x) <= c over all complete transcripts
    (and optionally all prefixes) with positive probability, exactly: one
    scan finds the exact maximum, which is then compared with c once."""
    c = as_probability(c)
    best = ZERO
    witness = None
    for prefix, node, weights, _scale in iter_prefixes(tree, scenario, budget):
        if node is not None and not include_prefixes:
            continue
        tally = _Tally(weights)
        for i, x in tally.leak_mass:
            if tally.compare(i, x, best) == 1:
                best = tally.posterior(i, x)
                witness = (i, prefix, x)
    return SafetyReport(best <= c, best, witness)


# ---------------------------------------------------------------------------
# binarize: bit alphabets with innocent bit probabilities in [1/3, 2/3]

BITS = (0, 1)
THIRD = Fraction(1, 3)
TWO_THIRDS = Fraction(2, 3)


def binarize(tree: ProtocolTree, scenario: LeakScenario) -> ProtocolTree:
    """Equivalent protocol over {0,1} messages.

    Alphabets are reduced with a deterministic Huffman bit tree on the
    innocent weights; any bit whose innocent probability falls outside
    [1/3, 2/3] is replaced by the gradual-reveal doubling scheme. Messages
    only a leaker could send (innocent probability zero) cannot be range
    bounded and are left as single bits; they do not occur in non-revealing
    protocols. A doubling chain longer than MAX_DOUBLING_ROUNDS digits (read
    when the chain is built) raises BudgetExceededError.

    A node that is already a bit node (``_is_bit_node``) keeps its law
    objects and int laws: the bit tree would rebuild the same laws, since a
    law over (0, 1) sends 1 with its share of one. Every share is read from
    the node's ``int_laws`` as an int ratio.
    """
    xs = scenario.x_support

    def convert(node):
        if node is None:
            return None
        if _is_bit_node(node, xs):
            scale, innocent, leak = node.int_laws
            children = {m: convert(node.children[m]) for m in BITS}
            # keyed by the scenario's secrets, as the rebuilt node would be
            p_leak = dict(zip(xs, node.p_leak.values()))
            int_laws = (scale, innocent, dict(zip(xs, leak.values())))
            kept = _node(node.speaker, BITS, node.p_innocent, p_leak, children, int_laws)
            return _range_fix(kept)
        _scale, innocent, leak = node.int_laws
        # {message: int mass} of the innocent law, then of each secret's
        masses = [dict(innocent)] + [dict(leak[x]) for x in xs]
        live = [m for m in node.alphabet if any(m in mass for mass in masses)]
        if not live:
            raise ValueError("node with no reachable message")
        if len(live) == 1:
            # the message carries no information; splice it out
            return convert(node.children[live[0]])
        order = _huffman_merge_order(node, live, masses[0])
        return emit_bits(node, order, masses)

    def emit_bits(node, shape, masses):
        if not isinstance(shape, tuple):
            return convert(node.children[shape])
        left, right = shape
        lab_left = _leaves(left)
        lab_right = _leaves(right)

        def share_of_one(mass, default):
            one = sum(mass.get(m, 0) for m in lab_right)
            total = one + sum(mass.get(m, 0) for m in lab_left)
            return (one, total) if total else default

        p_one = share_of_one(masses[0], (1, 2))
        ratios = [p_one] + [share_of_one(mass, p_one) for mass in masses[1:]]
        child0 = emit_bits(node, left, masses)
        child1 = emit_bits(node, right, masses)
        return _range_fix(_bit_node(node.speaker, xs, ratios, child0, child1))

    root = convert(tree.root)
    return ProtocolTree(root)


def _is_bits(labels: tuple) -> bool:
    """True iff ``labels`` is (0, 1) as ints: 0 == False == 0.0, but only
    the ints are the labels binarize writes."""
    return labels == BITS and type(labels[0]) is int and type(labels[1]) is int


def _is_bit_node(node: ProtocolNode, xs: tuple) -> bool:
    """True iff ``node`` is what binarize would build for it: alphabet (0, 1)
    with both messages live, every law over exactly (0, 1), and a leak law
    for each secret of ``xs`` and no other, in that order."""
    if not (_is_bits(node.alphabet) and tuple(node.p_leak) == xs):
        return False
    if not all(_is_bits(law.support) for law in (node.p_innocent, *node.p_leak.values())):
        return False
    _scale, innocent, leak = node.int_laws
    return len({m for pairs in (innocent, *leak.values()) for m, _q in pairs}) == 2


@lru_cache(maxsize=1024)
def _bit_law(num: int, den: int) -> FiniteDist:
    """The law over {0, 1} that sends 1 with probability num / den, for a
    reduced pair: one shared law per ratio, since the transformations of
    different trees keep needing the same few ratios."""
    return FiniteDist._from_coprime_ints(BITS, den, (den - num, num))


def _bit_node(speaker: int, secrets, ratios, child0, child1) -> ProtocolNode:
    """A node over {0, 1} from one (num, den) int pair per law, the
    probability num / den of sending 1: the innocent law's first, then one
    per secret of ``secrets`` in order. Each pair is reduced once; the laws
    are ``_bit_law``'s shared ones for the reduced pairs, and the int laws
    are over the lcm of their denominators, (0, (den - num) up) and
    (1, num up) where positive."""
    reduced = []
    for num, den in ratios:
        if not 0 <= num <= den:
            raise ValueError("bit probability must be in [0, 1], got %d/%d" % (num, den))
        g = math.gcd(num, den)
        reduced.append((num // g, den // g))
    scale = math.lcm(*(den for _num, den in reduced))
    laws = []
    ints = []
    for num, den in reduced:
        up = scale // den
        laws.append(_bit_law(num, den))
        ints.append(tuple((m, q) for m, q in ((0, (den - num) * up), (1, num * up)) if q))
    return _node(
        speaker,
        BITS,
        laws[0],
        dict(zip(secrets, laws[1:])),
        {0: child0, 1: child1},
        (scale, ints[0], dict(zip(secrets, ints[1:]))),
    )


def _leaves(shape):
    if isinstance(shape, tuple):
        return _leaves(shape[0]) + _leaves(shape[1])
    return (shape,)


def _huffman_merge_order(node, live, innocent: Mapping):
    """Deterministic Huffman merge over the innocent int masses ``innocent``;
    ties break on age."""
    import heapq

    if len(live) == 2 and tuple(live) == tuple(node.alphabet):
        # untouched binary nodes keep their orientation
        return (live[0], live[1])
    heap = []
    for i, m in enumerate(live):
        heapq.heappush(heap, (innocent.get(m, 0), i, m))
    counter = len(live)
    while len(heap) > 1:
        w1, _, s1 = heapq.heappop(heap)
        w2, _, s2 = heapq.heappop(heap)
        heapq.heappush(heap, (w1 + w2, counter, (s1, s2)))
        counter += 1
    return heap[0][2]


def _range_fix(bit_node: ProtocolNode) -> ProtocolNode:
    """``bit_node``, or its doubling chain when its innocent probability of
    0 is outside [1/3, 2/3] (and neither 0 nor 1), decided on its int laws."""
    scale, innocent, _leak = bit_node.int_laws
    zero = dict(innocent).get(0, 0)
    if zero in (0, scale) or scale <= 3 * zero <= 2 * scale:
        return bit_node
    return _doubling_chain(bit_node, 0 if 3 * zero < scale else 1)


def _doubling_chain(bit_node: ProtocolNode, rare) -> ProtocolNode:
    """Gradual reveal of a rare bit.

    The sender decides the real bit a, then conceptually picks a number
    uniform in (0, p_rare) if a is the rare value and in (p_rare, 1)
    otherwise, and announces its binary digits. A 1-digit proves a is the
    common value; once the rare posterior reaches 1/3 the bit is revealed
    outright. Innocent digit probabilities are exactly 1/2 and the final
    reveal lands in [1/3, 2/3).

    In the node's int laws over S, let the innocent law put a on the rare
    bit and a leak law b. After j zero digits the number may lie below
    2^-j, and Pr(only zero digits so far) is reach(b, j) over S 2^j (S - a);
    every probability below is an int ratio of these.
    """
    scale, innocent, leak = bit_node.int_laws
    a = dict(innocent).get(rare, 0)
    rare_mass = [dict(pairs).get(rare, 0) for pairs in leak.values()]

    def reach(b, j):
        return (b << j) * (scale - a) + (scale - b) * (scale - (a << j))

    levels = 0
    while (3 * a << levels) < scale:  # p_rare 2^levels < 1/3
        levels += 1
        if levels > MAX_DOUBLING_ROUNDS:
            g = math.gcd(a, scale)
            raise BudgetExceededError(
                "doubling scheme needs more than %d rounds for innocent bit probability %d/%d"
                % (MAX_DOUBLING_ROUNDS, a // g, scale // g)
            )

    # reveal node after `levels` zero digits: Pr(rare bit | only zero digits)
    if rare:
        ratios = [(a << levels, scale)]
        ratios += [((b << levels) * (scale - a), reach(b, levels)) for b in rare_mass]
    else:
        ratios = [(scale - (a << levels), scale)]
        ratios += [((scale - b) * (scale - (a << levels)), reach(b, levels)) for b in rare_mass]
    speaker, secrets = bit_node.speaker, tuple(leak)
    child_common = bit_node.children[1 - rare]
    node = _bit_node(speaker, secrets, ratios, bit_node.children[0], bit_node.children[1])
    for j in range(levels - 1, -1, -1):
        # digit 1 proves the common bit, sent with (S - b) / (2^(j+1) (S - a));
        # digit 0 keeps doubling
        ratios = [(1, 2)] + [(scale * (scale - b), 2 * reach(b, j)) for b in rare_mass]
        node = _bit_node(speaker, secrets, ratios, node, child_common)
    return node


def bit_probability_report(tree: ProtocolTree) -> list:
    """Innocent bit probabilities outside [1/3, 2/3] at positive-innocent nodes."""
    violations = []
    for path, node in _nodes(tree.root):
        p0 = node.p_innocent.prob(node.alphabet[0])
        if not (THIRD <= p0 <= TWO_THIRDS):
            violations.append((path, p0))
    return violations


# ---------------------------------------------------------------------------
# stop-at-c: land posteriors exactly on c before they may cross it


def _check_priors(scenario: LeakScenario, cap, cap_name: str) -> None:
    """Reject a scenario whose prior Pr(L_i=1 | X=x) already exceeds the cap."""
    prior = _Tally(scenario.weights)
    for i, x in _player_secret_pairs(scenario):
        post = prior.posterior(i, x)
        if post is not None and post > cap:
            raise ValueError(
                "prior Pr(L%d=1|X=%r) = %s already exceeds %s = %s" % (i, x, post, cap_name, cap)
            )


def _player_secret_pairs(scenario: LeakScenario) -> tuple:
    return tuple((i, x) for i in range(1, scenario.n_players + 1) for x in scenario.x_support)


def stop_at_c(tree: ProtocolTree, scenario: LeakScenario, c) -> ProtocolTree:
    """Equivalent protocol where no per-(player, x) posterior jumps past c:
    any prefix with posterior above c is preceded by one landing exactly on c.

    Requires binary messages (run binarize first) and priors at most c.
    Problematic nodes get a two-bit split: with mixing weight q solving
    c = q * c_high + (1 - q) * c_low, a sender who would send the safe bit
    forwards into the split with probability p(1-q)/(q(1-p)).

    Every prefix the recursion reads charges its outcome states to the
    walk's default state budget; MAX_GADGETS (read when the call starts)
    caps the insertions separately.
    """
    c = as_probability(c)
    if not 0 < c < 1:
        raise ValueError("c must be in (0, 1)")
    _check_priors(scenario, c, "c")
    pairs = _player_secret_pairs(scenario)
    max_gadgets = MAX_GADGETS
    gadgets_left = [max_gadgets]
    states = _StateBudget(None)
    keys = scenario.outcome_keys()
    memo: dict = {}

    def transform(node, weights, landed, tally=None):
        states.charge(weights)
        if node is None or not weights:
            return node
        if len(node.alphabet) != 2:
            raise ValueError("stop_at_c requires binary messages; run binarize first")
        # posteriors only depend on weights up to scale, so the posterior key
        # keys a memo that collapses the gadget's shared subtrees; each entry
        # holds its node so that the id cannot be reused
        key = (id(node), landed, _posterior_key(weights, keys))
        if key in memo:
            return memo[key][1]
        source = node
        if tally is None:
            tally = _Tally(weights)
        landed = landed.union(pair for pair in tally.leak_mass if tally.compare(*pair, c) == 0)
        while True:
            found, below = _first_problem(node, weights, tally, pairs, c, landed)
            if found is None:
                break
            gadgets_left[0] -= 1
            if gadgets_left[0] < 0:
                raise BudgetExceededError("stop_at_c exceeded %d gadget insertions" % max_gadgets)
            node = _insert_gadget(node, tally, found, below, c)
        # reuse the final node's children where _first_problem descended
        # and tallied them
        if below is None:
            below = {m: (w, None) for m, w in _children(node, weights).items()}
        children = {m: transform(node.children[m], w, landed, t) for m, (w, t) in below.items()}
        result = _node(node.speaker, node.alphabet, node.p_innocent, node.p_leak, children,
                       node.int_laws)
        memo[key] = (source, result)
        return result

    root = transform(tree.root, scenario.weights, frozenset())
    return ProtocolTree(root)


def _first_problem(node, weights, tally, pairs, c, landed):
    """(problem, below): the first unlanded (player, x) below c here that
    some message pushes above c, as (player, x, message), or None; and the
    children as {message: (weights, tally)}, or None when no pair was ever
    a candidate, since the children are descended only then."""
    below = None
    for i, x in pairs:
        if (i, x) in landed:
            continue
        now = tally.compare(i, x, c)
        if now is None or now >= 0:
            continue
        if below is None:
            below = {m: (w, _Tally(w)) for m, w in _children(node, weights).items()}
        for m, (_w, child) in below.items():
            if child.compare(i, x, c) == 1:
                return (i, x, m), below
    return None, below


def _insert_gadget(node, tally, problem, below, c):
    """Split ``node`` into two bits so that the problem's (player, x) lands
    exactly on c after ``m_star``, all in int ratios.

    With c_star and c_low the pair's posteriors after ``m_star`` and the
    other message, the mixing weight is q = (c - c_low) / (c_star - c_low)
    and the safe sender forwards into the inner bit with probability
    fwd = p (1 - q) / (q (1 - p)), p = Pr(m_star | X=x, prefix). A problem
    without 0 < p < q < 1 raises ArithmeticError."""
    i, x, m_star = problem
    m_low = next(m for m in node.alphabet if m != m_star)
    star, low = below[m_star][1], below[m_low][1]
    scale, innocent, leak = node.int_laws
    # c_star = ls / xs and c_low = ll / xl
    xs, ls = star.x_mass[x], star.leak_mass.get((i, x), 0)
    xl, ll = low.x_mass[x], low.leak_mass.get((i, x), 0)
    qn = (c.numerator * xl - c.denominator * ll) * xs
    qd = c.denominator * (ls * xl - ll * xs)
    if qd < 0:
        qn, qd = -qn, -qd
    # the children's weights carry the node's law scale on top of the tally's
    pn, pd = xs, tally.x_mass[x] * scale
    if not (0 < qd and 0 < pn and pn * qd < qn * pd and qn < qd):
        raise ArithmeticError(
            "gadget needs 0 < p < q < 1, got p = %d/%d and q = %d/%d" % (pn, pd, qn, qd)
        )
    fn, fd = pn * (qd - qn), qn * (pd - pn)
    if not 0 < fn < fd:
        raise ArithmeticError("gadget needs 0 < fwd < 1, got fwd = %d/%d" % (fn, fd))
    # per law, with hi and lo its masses on m_star and m_low over scale: the
    # outer bit sends 1 (go on) with (hi + lo fwd) / scale, the inner bit
    # sends 1 (m_star) with hi / (hi + lo fwd)
    go, inner = [], []
    for pairs in (innocent, *leak.values()):
        mass = dict(pairs)
        hi = mass.get(m_star, 0) * fd
        mixed = hi + mass.get(m_low, 0) * fn
        go.append((mixed, scale * fd))
        inner.append((hi, mixed))
    low_child, star_child = node.children[m_low], node.children[m_star]
    secrets = tuple(leak)
    inner_node = _bit_node(node.speaker, secrets, inner, low_child, star_child)
    return _bit_node(node.speaker, secrets, go, low_child, inner_node)


def stop_at_c_postcondition(tree: ProtocolTree, scenario: LeakScenario, c) -> bool:
    """Exhaustive scan: every prefix with posterior > c has an ancestor prefix
    (possibly the empty one) with posterior exactly c, for every (player, x)."""
    c = as_probability(c)
    pairs = _player_secret_pairs(scenario)
    landed = {}  # prefix -> pairs at exactly c there or at an ancestor
    for prefix, _node, weights, _scale in iter_prefixes(tree, scenario):
        tally = _Tally(weights)
        above = landed[prefix[:-1]] if prefix else frozenset()
        here = set()
        for pair in pairs:
            sign = tally.compare(*pair, c)
            if sign == 1 and pair not in above:
                return False
            if sign == 0:
                here.add(pair)
        landed[prefix] = above.union(here)
    return True


# ---------------------------------------------------------------------------
# pretend ignorance: absorbing switch to innocent play before a crossing


def _ignorance_walk(tree: ProtocolTree, scenario: LeakScenario, c_prime: Fraction) -> tuple:
    """(safe root, {x: Pr(X=x and x's switch fires)}): the one walk of the
    ignorance switch. Every prefix read charges its outcome states to the
    walk's default state budget."""
    players = range(1, scenario.n_players + 1)
    states = _StateBudget(None)
    fired = dict.fromkeys(scenario.x_support, ZERO)

    def build(node, weights, scale, ignoring):
        states.charge(weights)
        if node is None:
            return None
        child_weights = _children(node, weights)
        child_scale = scale * node.int_laws[0]
        tallies = () if all(ignoring.values()) else [_Tally(w) for w in child_weights.values()]
        switch = {}
        for x, off in ignoring.items():
            if not off and any(t.compare(i, x, c_prime) == 1 for t in tallies for i in players):
                # x's mass here is the sum of its mass in the children
                fired[x] += Fraction(sum(t.x_mass.get(x, 0) for t in tallies), child_scale)
                off = True
            switch[x] = off
        p_leak = {x: node.law(x, not off) for x, off in switch.items()}
        children = {
            m: build(node.children[m], child_weights[m], child_scale, switch) for m in node.alphabet
        }
        int_laws = _muted_int_laws(node, switch)
        return _node(node.speaker, node.alphabet, node.p_innocent, p_leak, children, int_laws)

    ignoring = dict.fromkeys(scenario.x_support, False)
    return build(tree.root, scenario.weights, scenario.scale, ignoring), fired


def _muted_int_laws(node: ProtocolNode, switch: Mapping) -> tuple:
    """The int laws of ``node`` rebuilt with each secret of ``switch`` that
    is on playing the innocent law and every other its own leak law, keyed
    in ``switch`` order. The pairs are ``node``'s; a law left out can only
    lower the scale, to the lcm of the laws kept, and the pairs follow it."""
    scale, innocent, leak = node.int_laws
    kept = [node.p_leak[x] for x, off in switch.items() if not off]
    if len(kept) < len(leak):
        low = math.lcm(*(law._int_view()[0] for law in (node.p_innocent, *kept)))
        if low != scale:
            down = scale // low
            innocent = tuple((m, q // down) for m, q in innocent)
            leak = {
                x: tuple((m, q // down) for m, q in leak[x]) for x, off in switch.items() if not off
            }
            scale = low
    return scale, innocent, {x: innocent if off else leak[x] for x, off in switch.items()}


def pretend_ignorance(tree: ProtocolTree, scenario: LeakScenario, c_prime) -> ProtocolTree:
    """Safe-at-c' variant of the protocol.

    Whenever the next message could push some Pr(L_i=1 | T, X=x) strictly
    above c', every player who knows x switches to the innocent law for the
    rest of the protocol (the switch is a function of the prefix and x, so
    an observer who knows x can compute it too). Posteriors are evaluated
    on the exact joint of the input protocol; a boundary hit (= c') does
    not trigger the switch. Every prefix read charges its outcome states
    to the walk's default state budget.
    """
    c_prime = as_probability(c_prime)
    if not 0 < c_prime < 1:
        raise ValueError("c_prime must be in (0, 1)")
    _check_priors(scenario, c_prime, "c'")
    root = _ignorance_walk(tree, scenario, c_prime)[0]
    return ProtocolTree(root)


def pretend_ignorance_trigger_mass(tree: ProtocolTree, scenario: LeakScenario, c_prime) -> dict:
    """Per-secret probability Pr(switch fires | X=x) of ``pretend_ignorance``,
    on the original protocol's law (0 for a secret without prior mass).

    This bounds the extra decode-failure mass of the safe variant. The walk
    and its state budget are ``pretend_ignorance``'s, but the priors are not
    checked against c', so the mass is defined where that raises.
    """
    fired = _ignorance_walk(tree, scenario, as_probability(c_prime))[1]
    prior = scenario.joint.marginal_dist("X")
    return {x: fired[x] / prior.prob(x) if fired[x] else ZERO for x in scenario.x_support}
