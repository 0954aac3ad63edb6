"""The leaker-hunting game: exact optimal-play evaluation and closed bounds.

After the protocol runs, the friendly decoder (Frank) names a value of the
secret and the adversary (Eve), who also knows the true secret, names one
player. The group wins iff the named value is right and the named player
is innocent. Both observers maximize their winning probability, not their
accuracy, so Frank names

    argmax_x  Pr(X=x | T=t) * (1 - max_i Pr(L_i=1 | X=x, T=t))

and Eve, given Frank named x, picks argmax_i Pr(L_i=1 | X=x, T=t).
Ties break to the lowest index; a deviation scan in the tests confirms
tie choices never change the value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .probability import LOG2_E, ZERO, JointDist, _picker, as_probability, log2_fraction
from .protocols import LeakScenario, ProtocolTree, _Tally, iter_prefixes
from .suspicion import fixed_capacity

__all__ = [
    "GameValue",
    "succ_of_protocol",
    "game_value_from_joint",
    "succ_upper_bound",
    "best_upper_bound",
    "asymptotic_upper",
    "asymptotic_lower_rate",
]


@dataclass
class GameValue:
    """Exact group winning probability plus both observers' decision tables."""

    succ: Fraction
    frank_guess: Mapping  # transcript -> secret value
    eve_guess: Mapping  # transcript -> player index (given Frank's guess)
    win_by_transcript: Mapping  # transcript -> exact contribution Pr(t) * win prob

    def to_jsonable(self) -> dict:
        from .probability import fraction_to_jsonable, label_to_jsonable

        return {
            "succ": fraction_to_jsonable(self.succ),
            "decisions": [
                {
                    "transcript": label_to_jsonable(t),
                    "frank": label_to_jsonable(self.frank_guess[t]),
                    "eve_player": self.eve_guess[t],
                    "win_mass": fraction_to_jsonable(self.win_by_transcript[t]),
                }
                for t in self.frank_guess
            ],
        }


def _transcript_weights(joint: JointDist, n_players: int) -> list:
    """Group an (X, L1..Ln, T) joint's int view by transcript, in first-seen
    order: (t, {(x, lvec): mass}, den), each mass an int over the joint's
    denominator den."""
    x_idx = joint.axis_index("X")
    lvec = _picker([joint.axis_index("L%d" % i) for i in range(1, n_players + 1)])
    t_idx = joint.axis_index("T")
    den, nums = joint._int_view()
    groups: dict = {}
    for key, n in nums.items():
        slot = groups.setdefault(key[t_idx], {})
        outcome = (key[x_idx], lvec(key))
        slot[outcome] = slot.get(outcome, 0) + n
    return [(t, weights, den) for t, weights in groups.items()]


def _play(transcripts, x_support, n_players: int) -> GameValue:
    """Evaluate the game exactly over (t, weights, scale) transcripts, each
    Pr(X=x, L=lvec, T=t) = weights[(x, lvec)] / scale. With x's mass m and
    player i's leaking mass k_i, Pr(X=x, T=t) (1 - Pr(L_i=1 | x, t)) is
    (m - k_i) / scale, so every choice is an int comparison and each
    transcript's win mass is divided by its scale once."""
    frank: dict = {}
    eve: dict = {}
    win_mass: dict = {}
    players = range(1, n_players + 1)
    for t, weights, scale in transcripts:
        tally = _Tally(weights)
        best_val = best_x = best_eve = None
        for x in x_support:
            mass = tally.x_mass.get(x)
            if not mass:
                continue
            # Eve's pick: the most leaking mass, the lowest index on a tie
            worst_leak, neg_i = max((tally.leak_mass.get((i, x), 0), -i) for i in players)
            val = mass - worst_leak
            if best_val is None or val > best_val:
                best_val = val
                best_x = x
                best_eve = -neg_i
        frank[t] = best_x
        eve[t] = best_eve
        win_mass[t] = Fraction(best_val, scale)
    return GameValue(sum(win_mass.values(), ZERO), frank, eve, win_mass)


def game_value_from_joint(joint: JointDist, n_players: int) -> GameValue:
    """Evaluate the game on an explicit (X, L1..Ln, T) joint, exactly."""
    x_support = joint.axis_supports[joint.axis_index("X")]
    return _play(_transcript_weights(joint, n_players), x_support, n_players)


def succ_of_protocol(
    tree: ProtocolTree,
    scenario: LeakScenario,
    budget: Optional[int] = None,
) -> GameValue:
    walk = iter_prefixes(tree, scenario, budget)
    terminals = ((t, weights, scale) for t, node, weights, scale in walk if node is None)
    return _play(terminals, scenario.x_support, scenario.n_players)


def succ_upper_bound(h, l, c) -> float:
    """Closed-form cap 1 - (c h + l log(1-c) + l c log(e) - c) / h on the
    group's winning probability, valid for every c in (0,1).

    At l = 0 the expression is at least 1, so the cap is vacuous; it is
    still returned so grid sweeps stay total.
    """
    c = as_probability(c)
    if not 0 < c < 1:
        raise ValueError("c must be in (0, 1)")
    if h <= 0:
        raise ValueError("h must be positive")
    if l < 0:
        raise ValueError("l must be >= 0")
    cf = float(c)
    return 1.0 - (cf * h + l * log2_fraction(1 - c) + l * cf * LOG2_E - cf) / h


def best_upper_bound(h, l) -> tuple:
    """(best c, minimal cap) over the grid c = k/100, k = 1 .. 99; the
    first c wins a tie."""
    best_c = None
    best = math.inf
    for k in range(1, 100):
        c = Fraction(k, 100)
        val = succ_upper_bound(h, l, c)
        if val < best:
            best = val
            best_c = c
    return best_c, best


def asymptotic_upper(r: float) -> float:
    """Limiting cap log(r+1) / (r log e) for secrets of r log(e) bits per leaker."""
    if r <= 0:
        raise ValueError("r must be positive")
    return math.log2(r + 1.0) / (r * LOG2_E)


def asymptotic_lower_rate(p) -> float:
    """Bits per leaker at which the group still wins with probability p:
    (-log p)/(1-p) - log e, which is ``suspicion.fixed_capacity`` at cap
    c = 1 - p."""
    p = as_probability(p)
    if not 0 < p < 1:
        raise ValueError("p must be in (0, 1)")
    return fixed_capacity(1 - p)
