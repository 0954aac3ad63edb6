"""The suspicion measure and its bounds, packaged as checkable certificates.

Suspicion given an observation y is -log2 Pr(L=0 | Y=y): the surprisal of
"this player is innocent". Its expected increase caps the information a
message can carry about the secret, with equality exactly when the
message's marginal law matches its law under innocence. Certificates carry
both sides of each inequality; equality flags are decided on exact
rationals, never on float slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .probability import (
    FiniteDist,
    JointDist,
    LOG2_E,
    as_probability,
    _axes_tuple,
    _log2_ratio,
    _picker,
    fraction_to_jsonable,
    log2_fraction,
    mutual_information,
    neg_log2,
)
from .protocols import (
    LeakScenario,
    ProtocolTree,
    _Tally,
    _player_secret_pairs,
    enumerate_joint,
    iter_prefixes,
    safety_report,
)

__all__ = [
    "SuspicionCertificate",
    "suspicion_point",
    "expected_suspicion",
    "check_single_message",
    "check_listener_monotone",
    "check_transcript_bound",
    "check_round_decomposition",
    "RoundCheck",
    "general_upper_bound",
    "indep_capacity",
    "fixed_capacity",
    "check_general_upper_bound",
    "SLACK_TOL",
]

SLACK_TOL = 1e-9


@dataclass(frozen=True)
class SuspicionCertificate:
    """Both sides of one suspicion inequality, in bits.

    slack = rhs - lhs, or inf (never inf - inf) when the rhs is infinite,
    which passes trivially with equality False.
    The equality flag comes from an exact rational test, so it can disagree
    with |slack| being tiny only through float rounding, never the reverse.
    """

    lhs_bits: float
    rhs_bits: float
    equality: bool

    def __post_init__(self):
        if math.isinf(self.rhs_bits):
            object.__setattr__(self, "equality", False)

    @property
    def slack(self) -> float:
        return math.inf if math.isinf(self.rhs_bits) else self.rhs_bits - self.lhs_bits

    @property
    def holds(self) -> bool:
        return self.slack >= -SLACK_TOL

    def to_jsonable(self) -> dict:
        def enc(v):
            return "inf" if math.isinf(v) else v

        return {
            "lhs_bits": enc(self.lhs_bits),
            "rhs_bits": enc(self.rhs_bits),
            "slack": enc(self.slack),
            "equality": self.equality,
            "holds": self.holds,
        }


def _innocence_masses(joint: JointDist, player_axis: str, axes: Sequence[str]) -> tuple:
    """One pass over the joint's int view: (den, {y: [mass, innocent mass]})
    for every positive-probability value y of ``axes``, in first-seen order,
    where Pr(Y=y) = mass / den and Pr(Y=y, L=0) = innocent mass / den."""
    pick = _picker([joint.axis_index(a) for a in axes])
    l_idx = joint.axis_index(player_axis)
    den, nums = joint._int_view()
    masses: dict = {}
    for key, n in nums.items():
        y = pick(key)
        slot = masses.get(y)
        if slot is None:
            slot = masses[y] = [0, 0]
        slot[0] += n
        if key[l_idx] == 0:
            slot[1] += n
    return den, masses


def _expected(den: int, masses: Mapping) -> float:
    """E_y -log2 Pr(L=0 | y) over an innocence grouping at denominator
    ``den``; +inf as soon as some y is certainly guilty."""
    result = 0.0
    for py, innocent in masses.values():
        if innocent == 0:
            return math.inf
        # int true division rounds correctly: this is float(Fraction(py, den))
        result -= py / den * _log2_ratio(innocent, py)
    return result


def suspicion_point(joint: JointDist, player_axis: str, given: Mapping) -> float:
    """-log2 Pr(L=0 | given), +inf when that conditional probability is 0."""
    _den, masses = _innocence_masses(joint, player_axis, tuple(given))
    slot = masses.get(tuple(given.values()))
    if slot is None:
        raise ValueError("conditioning event %r has probability zero" % (given,))
    total, innocent = slot
    return neg_log2(Fraction(innocent, total))


def expected_suspicion(joint: JointDist, player_axis: str, axes: Sequence[str]) -> float:
    """E_y susp(Y=y) over the positive-probability values of the given axes.

    Returns +inf as soon as any positive-mass point is certainly guilty.
    """
    return _expected(*_innocence_masses(joint, player_axis, _axes_tuple(axes)))


def _law_matches_innocent_law(joint: JointDist) -> bool:
    """Exact test: marginal law of A equals law of A given L=0, on a joint
    where some outcome is innocent."""
    marginal = joint.marginal_dist("A")
    innocent = joint.condition({"L": 0}).marginal_dist("A")
    return marginal.probs == innocent.probs


def check_single_message(joint: JointDist) -> SuspicionCertificate:
    """One-message bound: I(X;A) <= susp(X,A) - susp(X), for a joint over
    the axes X (secret), L (the speaker leaks) and A (the message).

    The joint must satisfy the speaking model: given L=0 the message is
    independent of the secret. Equality holds iff the marginal law of A
    equals its law given L=0, decided exactly.
    """
    _validate_single_message_model(joint)
    lhs = mutual_information(joint, "X", "A")
    after = expected_suspicion(joint, "L", ("X", "A"))
    if math.isinf(after):
        # susp(X) is then infinite too (certain guilt given some x);
        # the certificate passes trivially per the +inf convention
        return SuspicionCertificate(lhs, math.inf, False)
    rhs = after - expected_suspicion(joint, "L", ("X",))
    equality = _law_matches_innocent_law(joint)
    return SuspicionCertificate(lhs, rhs, equality)


def _validate_single_message_model(joint):
    innocent_mass = joint.prob_event({"L": 0})
    if innocent_mass == 0:
        return  # nobody is ever innocent; the conditional model is vacuous
    innocent = joint.condition({"L": 0})
    x_dist = innocent.marginal_dist("X")
    reference: Optional[FiniteDist] = None
    for x, px in x_dist.items():
        if px == 0:
            continue
        law = innocent.conditional_dist("A", {"X": x})
        if reference is None:
            reference = law
        elif law.probs != reference.probs:
            raise ValueError(
                "model violation: message law given innocence depends on the secret "
                "(differs at X=%r)" % (x,)
            )


def check_listener_monotone(
    joint: JointDist,
    player_axis: str,
    y_axes: Sequence[str],
    b_axis: str,
) -> SuspicionCertificate:
    """Bystander bound: susp(Y) <= susp(Y, B) for any joint (Jensen direction).

    Equality iff, for every positive-probability y, the innocence posterior
    does not depend on B (exact rational test).
    """
    den, fine = _innocence_masses(joint, player_axis, _axes_tuple(y_axes) + (b_axis,))
    coarse: dict = {}
    for yb, (mass, innocent) in fine.items():
        slot = coarse.setdefault(yb[:-1], [0, 0])
        slot[0] += mass
        slot[1] += innocent
    # B leaves the posterior alone iff every (y, b) cell has y's innocence
    # ratio; cross-multiplied, so the test stays exact
    equality = all(
        innocent * coarse[yb[:-1]][0] == coarse[yb[:-1]][1] * mass
        for yb, (mass, innocent) in fine.items()
    )
    return SuspicionCertificate(_expected(den, coarse), _expected(den, fine), equality)


@dataclass
class RoundCheck:
    """Per-node decomposition: the speaker's one-message bound conditioned on
    the prefix, and every listener's monotonicity bound."""

    prefix: tuple
    speaker: int
    speaker_cert: SuspicionCertificate
    listener_certs: Mapping  # player -> SuspicionCertificate

    @property
    def holds(self) -> bool:
        return self.speaker_cert.holds and all(c.holds for c in self.listener_certs.values())


def check_round_decomposition(
    tree: ProtocolTree,
    scenario: LeakScenario,
    budget: Optional[int] = None,
) -> list:
    """Certify, at every positive-probability node, the speaker bound
    I(X;A|prefix) <= delta susp_speaker and every listener's susp monotonicity."""
    checks = []
    for prefix, node, weights, _scale in iter_prefixes(tree, scenario, budget):
        if node is None:
            continue
        joints = _node_message_joints(node, weights, scenario.n_players)
        speaker_cert = check_single_message(joints.pop(node.speaker))
        listeners = {
            j: check_listener_monotone(joint, "L", ("X",), "A") for j, joint in joints.items()
        }
        checks.append(RoundCheck(prefix, node.speaker, speaker_cert, listeners))
    return checks


def _node_message_joints(node, weights, n_players) -> dict:
    """{player: joint of (X, L_player, next message)} conditioned on the
    current prefix, every table filled in one pass over the walk's int
    weights and the node's ``int_laws``: each cell is sum w*q over (sum of
    the weights) * the node's law scale."""
    scale, innocent, leak = node.int_laws
    den = sum(weights.values()) * scale
    speaker = node.speaker - 1
    tables = [{} for _ in range(n_players)]
    try:
        for (x, lvec), w in weights.items():
            for a, q in leak[x] if lvec[speaker] else innocent:
                wq = w * q
                for li, table in zip(lvec, tables):
                    key = (x, li, a)
                    table[key] = table.get(key, 0) + wq
    except KeyError as exc:
        raise ValueError("node has no leak law for secret %r" % exc.args) from None
    return {j: JointDist(("X", "L", "A"), table, den=den) for j, table in enumerate(tables, 1)}


def check_transcript_bound(
    tree: ProtocolTree,
    scenario: LeakScenario,
    budget: Optional[int] = None,
) -> SuspicionCertificate:
    """Whole-protocol bound: I(X;T) <= sum_i (susp_i(X,T) - susp_i(X)).

    Equality is decided by the per-round decomposition: it holds iff every
    speaker certificate and every listener certificate is an equality.
    """
    joint = enumerate_joint(tree, scenario, budget=budget)
    lhs = mutual_information(joint, "X", "T")
    rhs = 0.0
    for i in range(1, scenario.n_players + 1):
        axis = "L%d" % i
        after = expected_suspicion(joint, axis, ("X", "T"))
        before = expected_suspicion(joint, axis, ("X",))
        if math.isinf(after):
            return SuspicionCertificate(lhs, math.inf, False)
        rhs += after - before
    rounds = check_round_decomposition(tree, scenario, budget=budget)
    equality = all(
        r.speaker_cert.equality and all(c.equality for c in r.listener_certs.values())
        for r in rounds
    )
    return SuspicionCertificate(lhs, rhs, equality)


def general_upper_bound(b, c, n: int) -> float:
    """Per-player leakage cap (-b log(1-c) + c log(1-b)) / c, times n players.

    Valid for leak priors Pr(L_i=1|X=x) = b and posterior caps c, 0 < b <= c < 1.
    """
    b = as_probability(b)
    c = as_probability(c)
    if not (0 < b <= c < 1):
        raise ValueError("need 0 < b <= c < 1, got b=%s c=%s" % (b, c))
    per_player = (-float(b) * log2_fraction(1 - c) + float(c) * log2_fraction(1 - b)) / float(c)
    return per_player * n


def indep_capacity(b, c) -> float:
    """Safe per-player capacity (-b log(1-c) + c log(1-b)) / c bits; 0 at b=c.
    This is the one-player case of ``general_upper_bound``."""
    return general_upper_bound(b, c, 1)


def fixed_capacity(c) -> float:
    """Per-leaker capacity -log(1-c)/c - log(e) bits when only the leaker
    count is bounded and the crowd can grow without limit."""
    c = as_probability(c)
    if not 0 < c < 1:
        raise ValueError("need 0 < c < 1, got c=%s" % (c,))
    return -log2_fraction(1 - c) / float(c) - LOG2_E


@dataclass
class GeneralBoundCheck:
    b: Fraction
    c: Fraction
    n: int
    bound_bits: float
    mi_bits: float

    @property
    def holds(self) -> bool:
        return self.mi_bits <= self.bound_bits + SLACK_TOL

    def to_jsonable(self) -> dict:
        return {
            "b": fraction_to_jsonable(self.b),
            "c": fraction_to_jsonable(self.c),
            "n": self.n,
            "bound_bits": self.bound_bits,
            "mi_bits": self.mi_bits,
            "holds": self.holds,
        }


def check_general_upper_bound(
    tree: ProtocolTree,
    scenario: LeakScenario,
    budget: Optional[int] = None,
) -> GeneralBoundCheck:
    """Verify the premises on the enumerated protocol and assert the cap.

    Premise: Pr(L_i=1 | X=x) is one constant b across players and secrets.
    The cap c is the largest complete-transcript posterior
    Pr(L_i=1 | T=t, X=x), read from ``safety_report``'s scan, so every
    posterior is at most c by construction. When the cap rules the bound out
    (c = 1), the ValueError carries that maximum as ``max_posterior``.
    """
    joint = enumerate_joint(tree, scenario, budget=budget)
    n = scenario.n_players
    prior = _Tally(scenario.weights)
    b = None
    for i, x in _player_secret_pairs(scenario):
        bx = prior.posterior(i, x)
        if bx is None:
            continue
        if b is not None and bx != b:
            raise ValueError(
                "premise violated: Pr(L_i=1|X=x) is not constant (player %d, X=%r)" % (i, x)
            )
        b = bx
    if b is None or b == 0:
        raise ValueError("premise violated: no leaking mass")
    c = safety_report(tree, scenario, 1, budget=budget).max_posterior
    try:
        bound = general_upper_bound(b, c, n)
    except ValueError as err:
        err.max_posterior = c
        raise
    mi = mutual_information(joint, "X", "T")
    return GeneralBoundCheck(b, c, n, bound, mi)
