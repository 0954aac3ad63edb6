"""Running a leak protocol on top of innocent chatter.

An innocent channel describes what people already say: per round, a finite
message law for every player. To send a protocol message, the current
speaker's innocent law is laid out on [0,1) (the f-partition, cell lengths
equal to the innocent probabilities of the protocol messages); each
chatter message then shrinks a working interval through the g-partition
until it fits inside one f-cell, at which point that protocol message has
been said. A leaking speaker never materializes the random point alpha:
the lazy realization keeps the interval of still-possible alphas and emits
each chatter message with probability |g-cell intersect alpha| / |alpha|.

All interval arithmetic is exact; intervals are half-open [lo, hi), held
as ints (lo, hi, den) in lowest terms, and compared and intersected by
cross-multiplication. The audit keeps each state's opening masses as ints
grouped by commitment class, with one int factor per class over one
denominator; each chatter message multiplies the class factors by int step
factors, the masses are multiplied out only at a message boundary, and
conditionals are compared by cross-multiplication. The leaker step law and
the reported masses are Fractions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .probability import (
    FiniteDist,
    ZERO,
    ONE,
    _integral,
    _over_lcm,
    _sample,
    _unique,
    as_probability,
    fraction_from_jsonable,
    fraction_to_jsonable,
    label_to_jsonable,
    label_from_jsonable,
)
from .protocols import (
    BudgetExceededError,
    LeakScenario,
    ProtocolTree,
    iter_prefixes,
    non_revealing,
)

__all__ = [
    "NO_MESSAGE",
    "Interval",
    "UNIT",
    "InnocentChannel",
    "InterpreterState",
    "f_partition",
    "g_partition",
    "interpret_step",
    "embed_leaker_step",
    "informativeness_estimate",
    "ComposeResult",
    "compose_run",
    "AuditReport",
    "equivalence_audit",
    "DECODED_TARGET",
]

NO_MESSAGE = "-"
# the decoded mass equivalence_audit must reach within its round budget
DECODED_TARGET = Fraction(999_999, 1_000_000)


class Interval:
    """Half-open rational subinterval [lo, hi) of [0, 1).

    Held as the ints ``(lo, hi, den)`` with gcd(lo, hi, den) == 1, a
    canonical form, so ``==`` and ``hash`` compare int triples and
    ``contains`` and ``intersect`` cross-multiply. ``lo``, ``hi`` and
    ``length`` read as Fractions. Both ends are exact (int, Fraction or
    string) like every probability input: a float raises TypeError.
    """

    __slots__ = ("_ints",)

    def __init__(self, lo, hi):
        lo = as_probability(lo)
        hi = as_probability(hi)
        if not (0 <= lo < hi <= 1):
            raise ValueError("need 0 <= lo < hi <= 1, got [%s, %s)" % (lo, hi))
        # both are reduced, so no prime divides all three ints
        den, (lo, hi) = _over_lcm((lo, hi))
        self._ints = (lo, hi, den)

    @classmethod
    def _of(cls, lo: int, hi: int, den: int) -> "Interval":
        """[lo/den, hi/den) for ints 0 <= lo < hi <= den, reduced."""
        g = math.gcd(lo, hi, den)
        interval = object.__new__(cls)
        interval._ints = (lo // g, hi // g, den // g) if g > 1 else (lo, hi, den)
        return interval

    @property
    def lo(self) -> Fraction:
        return Fraction(self._ints[0], self._ints[2])

    @property
    def hi(self) -> Fraction:
        return Fraction(self._ints[1], self._ints[2])

    @property
    def length(self) -> Fraction:
        lo, hi, den = self._ints
        return Fraction(hi - lo, den)

    def __eq__(self, other):
        if other.__class__ is not Interval:
            return NotImplemented
        return self._ints == other._ints

    def __hash__(self):
        return hash(self._ints)

    def __repr__(self):
        return "Interval(lo=%r, hi=%r)" % (self.lo, self.hi)

    def contains(self, other: "Interval") -> bool:
        lo, hi, den = self._ints
        olo, ohi, oden = other._ints
        return lo * oden <= olo * den and ohi * den <= hi * oden

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        lo, hi, den = self._ints
        olo, ohi, oden = other._ints
        lo = max(lo * oden, olo * den)
        hi = min(hi * oden, ohi * den)
        if lo >= hi:
            return None
        return Interval._of(lo, hi, den * oden)

    def to_jsonable(self) -> dict:
        return {"lo": fraction_to_jsonable(self.lo), "hi": fraction_to_jsonable(self.hi)}


UNIT = Interval(ZERO, ONE)


@dataclass(frozen=True)
class InnocentChannel:
    """Memoryless chatter model: per round, a message law per player.

    Players missing from a round's table send the sentinel no-message with
    probability 1. With repeat=True the round table cycles forever.
    """

    n_players: int
    rounds: tuple  # tuple of {player: FiniteDist}
    repeat: bool = True

    _SILENT = FiniteDist((NO_MESSAGE,), (ONE,))

    def __post_init__(self):
        n = self.n_players
        for table in self.rounds:
            for player in table:
                if not 1 <= player <= n:
                    raise ValueError("channel player %d is outside 1..%d" % (player, n))

    def law(self, player: int, round_index: int) -> FiniteDist:
        if not 1 <= player <= self.n_players:
            raise ValueError("player %d out of range" % player)
        if not self.rounds:
            return self._SILENT
        if round_index >= len(self.rounds):
            if not self.repeat:
                return self._SILENT
            round_index %= len(self.rounds)
        return self.rounds[round_index].get(player, self._SILENT)

    @classmethod
    def iid_uniform(cls, n_players: int, alphabet: Sequence) -> "InnocentChannel":
        law = FiniteDist.uniform(tuple(alphabet))
        return cls(n_players, ({p: law for p in range(1, n_players + 1)},), True)

    def to_jsonable(self) -> dict:
        # one flat entry per round when a single player speaks that round;
        # rounds where several players have laws encode as lists of entries
        def entry(player, law):
            return {
                "player": player,
                "alphabet": [label_to_jsonable(m) for m in law.support],
                "probs": [fraction_to_jsonable(p) for p in law.probs],
            }

        rounds = []
        for table in self.rounds:
            entries = [entry(p, table[p]) for p in sorted(table)]
            rounds.append(entries[0] if len(entries) == 1 else entries)
        return {"players": self.n_players, "rounds": rounds, "repeat": self.repeat}

    @classmethod
    def from_jsonable(cls, data: Mapping) -> "InnocentChannel":
        players = _integral("channel players", data["players"], True)

        def law_of(entry):
            return _integral("channel player", entry["player"], True), FiniteDist(
                tuple(label_from_jsonable(m) for m in entry["alphabet"]),
                tuple(fraction_from_jsonable(p) for p in entry["probs"]),
            )

        rounds = []
        for item in data["rounds"]:
            entries = item if isinstance(item, list) else [item]
            rounds.append(_unique("channel round player", map(law_of, entries)))
        repeat = data.get("repeat", True)
        if not isinstance(repeat, bool):
            raise ValueError("channel repeat must be true or false, got %r" % (repeat,))
        return cls(players, tuple(rounds), repeat)


def f_partition(innocent_law: FiniteDist) -> dict:
    """Lay the protocol node's innocent law out on [0,1): cell lengths are
    exactly the innocent probabilities, in canonical support order.
    Zero-probability messages get no cell (they can never be decoded)."""
    return g_partition(UNIT, innocent_law)


def g_partition(current: Interval, innocent_law: FiniteDist) -> dict:
    """Subdivide the working interval in proportion to the chatter law.

    With the law as ints p_k over the lcm L of its denominators, cell k is
    [lo·L + acc_k·span, lo·L + (acc_k + p_k)·span) over den·L, where
    acc_k = p_1 + ... + p_(k-1) and span = hi - lo."""
    law_den, probs = innocent_law._int_view()
    lo, hi, den = current._ints
    span = hi - lo
    den *= law_den
    acc = lo * law_den
    cells = {}
    for label, p in zip(innocent_law.support, probs):
        if p:
            end = acc + p * span
            cells[label] = Interval._of(acc, end, den)
            acc = end
    return cells


@dataclass(frozen=True)
class InterpreterState:
    """Public decoding state: partial protocol transcript plus the working
    interval; the interval is exactly [0,1) right after a message boundary."""

    pi_transcript: tuple = ()
    interval: Interval = UNIT
    speaker: Optional[int] = None
    finished: bool = False


def interpret_step(
    state: InterpreterState,
    message,
    innocent_law: FiniteDist,
    f_cells: Mapping,
) -> InterpreterState:
    """Fold one chatter message of the scheduled speaker into the state.

    Either the interval shrinks to the message's g-cell, or, when that cell
    sits inside a single f-cell, the corresponding protocol message is
    emitted and the interval resets to [0,1). Frozen states pass through.
    """
    if state.finished:
        return state
    if innocent_law.prob(message) == 0:
        raise ValueError("message %r is not in the speaker's current alphabet" % (message,))
    cell = g_partition(state.interval, innocent_law)[message]
    emitted = _emitted(f_cells, cell)
    if emitted is None:
        return replace(state, interval=cell)
    return replace(state, pi_transcript=state.pi_transcript + (emitted,), interval=UNIT)


def _emitted(f_cells: Mapping, cell: Interval):
    """The protocol message whose f-cell contains ``cell``, or None."""
    for protocol_message, f_cell in f_cells.items():
        if f_cell.contains(cell):
            return protocol_message
    return None


def _leaker_law(alpha: Interval, g_cells: Mapping) -> dict:
    """A leaking speaker's next chatter message given the alpha interval:
    message -> (|cell & alpha| / |alpha|, cell & alpha), for every g-cell
    that meets alpha. ``compose_run`` samples it; the audit expands it."""
    lo, hi, den = alpha._ints
    width = hi - lo
    law = {}
    for message, cell in g_cells.items():
        overlap = cell.intersect(alpha)
        if overlap is not None:
            olo, ohi, oden = overlap._ints
            law[message] = (Fraction((ohi - olo) * den, width * oden), overlap)
    return law


def embed_leaker_step(rng, alpha: Interval, g_cells: Mapping):
    """One chatter message from a leaking speaker, lazily conditioned on the
    never-materialized uniform point alpha. Returns (message, new alpha)."""
    law = _leaker_law(alpha, g_cells)
    message = _sample(rng, ((m, q) for m, (q, _overlap) in law.items()))
    return message, law[message][1]


def informativeness_estimate(channel: InnocentChannel, player: int, horizon: int) -> Fraction:
    """Decay of the running best-guess product for one player: the exact
    prod_k max_m Pr(message_k = m) over the first ``horizon`` rounds.

    Informative chatter drives it to zero; a player whose rounds are all
    point masses keeps it at 1. Chatter laws are memoryless, so every
    trajectory has this same product and nothing is sampled.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    product = ONE
    for k in range(horizon):
        product *= max(channel.law(player, k).probs)
    return product


@dataclass
class ComposeResult:
    x: object
    lvec: tuple
    innocent_transcript: tuple  # per round, tuple of every player's message
    decoded: Optional[tuple]  # protocol transcript, or None if undecoded
    rounds_used: int


def compose_run(
    tree: ProtocolTree,
    channel: InnocentChannel,
    scenario: LeakScenario,
    seed: int,
    max_rounds: int,
) -> ComposeResult:
    """Sample one run of the protocol hidden inside the chatter.

    Innocents and non-scheduled players always follow the channel; the
    scheduled speaker follows it too unless leaking, in which case the lazy
    alpha scheme biases their chatter. Returns the decoded protocol
    transcript when interpretation completes within max_rounds.
    """
    if max_rounds < 0:
        raise ValueError("max_rounds must be >= 0, got %d" % max_rounds)
    if not non_revealing(tree, scenario):
        raise ValueError("the protocol must be non-revealing to hide among innocents")
    rng = random.Random(seed)
    x, lvec = _sample(rng, scenario.outcomes())

    def enter(node, state):
        """(state, f-cells, alpha) on reaching ``node``; a leaking speaker
        commits to the f-cell of a message drawn from their leak law."""
        if node is None:
            return replace(state, finished=True, speaker=None), None, None
        f_cells = f_partition(node.p_innocent)
        leaking = lvec[node.speaker - 1]
        alpha = f_cells[_sample(rng, node.p_leak[x].items())] if leaking else None
        return replace(state, speaker=node.speaker), f_cells, alpha

    node = tree.root
    state, f_cells, alpha = enter(node, InterpreterState())

    rows = []
    rounds_used = 0
    for r in range(max_rounds):
        if state.finished:
            break
        rounds_used = r + 1
        row = []
        for player in range(1, scenario.n_players + 1):
            law = channel.law(player, r)
            if player == state.speaker and alpha is not None:
                message, alpha = embed_leaker_step(rng, alpha, g_partition(state.interval, law))
            else:
                message = _sample(rng, law.items())
            row.append(message)
        rows.append(tuple(row))
        before = len(state.pi_transcript)
        speaker_law = channel.law(state.speaker, r)
        state = interpret_step(state, row[state.speaker - 1], speaker_law, f_cells)
        if len(state.pi_transcript) > before:
            node = node.children[state.pi_transcript[-1]]
            state, f_cells, alpha = enter(node, state)
    return ComposeResult(
        x, lvec, tuple(rows), state.pi_transcript if state.finished else None, rounds_used
    )


# ---------------------------------------------------------------------------
# exhaustive audit


@dataclass
class AuditReport:
    """Exact expansion summary for the composed process.

    Only the scheduled speaker's messages are expanded: every other
    player's chatter has a law that never depends on (X, L) or on the
    secret state, so it multiplies all branches by a common factor and
    cancels from every conditional. The report's ``noise_factored: true``
    records that this structural cancellation was relied on.
    """

    decoded_mass: Fraction
    undecoded_mass: Fraction
    rounds_used: int
    terminal_paths: int
    conditional_mismatches: int
    mass_bounds_ok: bool
    per_transcript_mass: Mapping

    @property
    def ok(self) -> bool:
        return self.conditional_mismatches == 0 and self.mass_bounds_ok

    def to_jsonable(self) -> dict:
        return {
            "decoded_mass": fraction_to_jsonable(self.decoded_mass),
            "undecoded_mass": fraction_to_jsonable(self.undecoded_mass),
            "rounds_used": self.rounds_used,
            "terminal_paths": self.terminal_paths,
            "conditional_mismatches": self.conditional_mismatches,
            "mass_bounds_ok": self.mass_bounds_ok,
            "noise_factored": True,
            "ok": self.ok,
            "per_transcript_mass": [
                {"transcript": label_to_jsonable(t), "p": fraction_to_jsonable(m)}
                for t, m in self.per_transcript_mass.items()
            ],
        }


def _multiplied_out(groups: dict, factors: dict, up: int) -> dict:
    """A state's entries as opening entries: each class's opening entries
    times its factor and ``up``, for the classes in ``factors``."""
    return {cls: {k: w * f * up for k, w in groups[cls].items()} for cls, f in factors.items()}


def _open_state(states: dict, key, groups: dict, den: int) -> None:
    """Store the opening entries ``groups`` ({class: {(x, lvec): int}} over
    ``den``) at ``key``, every class factor 1. A state already there is
    multiplied out and added, over the lcm of the two denominators; the
    result is divided by its gcd."""
    if key in states:
        old_groups, old_factors, old_den = states[key]
        common = math.lcm(old_den, den)
        merged = _multiplied_out(old_groups, old_factors, common // old_den)
        up = common // den
        for cls, entries in groups.items():
            slot = merged.setdefault(cls, {})
            for k, w in entries.items():
                slot[k] = slot.get(k, 0) + w * up
        groups, den = merged, common
    g = math.gcd(den, *(w for entries in groups.values() for w in entries.values()))
    if g > 1:
        groups = {cls: {k: w // g for k, w in entries.items()} for cls, entries in groups.items()}
        den //= g
    states[key] = (groups, dict.fromkeys(groups, 1), den)


def _carry_state(states: dict, key, groups: dict, factors: dict, den: int) -> None:
    """Store a state reached within a protocol message: its opening entries
    kept, its class factors and ``den`` over their gcd. Where another path
    already reached ``key`` (a chatter law with one possible message keeps
    the interval, so states of one prefix can meet), both are multiplied
    out and added (``_open_state``)."""
    if key in states:
        _open_state(states, key, _multiplied_out(groups, factors, 1), den)
        return
    g = math.gcd(den, *factors.values())
    if g > 1:
        factors = {cls: f // g for cls, f in factors.items()}
        den //= g
    states[key] = (groups, factors, den)


def equivalence_audit(
    tree: ProtocolTree,
    channel: InnocentChannel,
    scenario: LeakScenario,
    depth_budget: int,
) -> AuditReport:
    """Exhaustively expand the composed process and verify it leaks exactly
    the protocol transcript.

    Checks, all exact: (i) decoded mass reaches DECODED_TARGET (read when
    the call runs) within the round budget; (ii) at every message boundary
    and at every complete decode, the conditional law of (X, L) given the
    chatter path equals the protocol's conditional given the decoded
    transcript, decided by cross-multiplying the two int weightings against
    each other's totals; (iii) each decoded transcript's mass never exceeds
    its protocol probability and falls short by at most the total undecoded
    mass.

    A state holds its opening entries (the masses when the speaker's node
    was reached) grouped by class, innocent (None) or the committed
    protocol message, with one int factor per class and one denominator:
    within one protocol message every entry of a class moves by the same
    step factor. Per chatter message, the innocent factor p_k / L (the law
    as ints over the lcm L of its denominators) and each commitment's
    leaker factor |cell & alpha| / |alpha| (from ``_leaker_law``) become
    ints over one step denominator and multiply the class factors; the
    entries are multiplied out only at a message boundary, where the
    collapse reads each of them anyway, or where two paths reach one state
    (``_carry_state``). Intervals are ints too, and only the reported
    masses are Fractions.

    Raises BudgetExceededError when the budget runs out first.
    """
    if depth_budget < 0:
        raise ValueError("depth_budget must be >= 0, got %d" % depth_budget)
    if not non_revealing(tree, scenario):
        raise ValueError("the protocol must be non-revealing to hide among innocents")

    decoded: dict = {}
    mismatches = 0
    terminal_paths = 0

    if tree.root is None:
        return AuditReport(ONE, ZERO, 0, 1, 0, True, {(): ONE})

    # the protocol's own weights at every prefix with their total and node,
    # and the probability of every complete transcript, from one walk
    reference = {}
    transcript_mass = {}
    for prefix, node, weights, scale in iter_prefixes(tree, scenario):
        total = sum(weights.values())
        reference[prefix] = (weights, total, node)
        if node is None:
            transcript_mass[prefix] = Fraction(total, scale)

    def fresh_groups(node, base, den):
        # the speaker commits to a protocol message when leaking
        law_scale, _innocent, leak = node.int_laws
        speaker = node.speaker - 1
        groups: dict = {}
        for key, w in base.items():
            if key[1][speaker]:
                for a, q in leak[key[0]]:
                    groups.setdefault(a, {})[key] = w * q
            else:
                groups.setdefault(None, {})[key] = w * law_scale
        return groups, den * law_scale

    # state key: (pi prefix, interval); value: ({class: {(x, lvec): int}},
    # {class: int}, den), an entry's mass its opening int times its class
    # factor over the state's one denominator
    states: dict = {}
    _open_state(states, ((), UNIT), *fresh_groups(tree.root, scenario.weights, scenario.scale))
    f_cache = {(): f_partition(tree.root.p_innocent)}

    rounds_used = 0
    for r in range(depth_budget):
        if not states:
            break
        rounds_used = r + 1
        new_states: dict = {}
        for (prefix, interval), (groups, factors, den) in states.items():
            node = reference[prefix][2]
            f_cells = f_cache[prefix]
            law = channel.law(node.speaker, r)
            g_cells = g_partition(interval, law)
            # a committed class only reaches a state through a positive
            # overlap, so its alpha (f-cell & interval) is not empty
            leaker_laws = {}
            for commit, f_cell in f_cells.items():
                if commit in factors:
                    alpha = f_cell.intersect(interval)
                    if alpha is not None:
                        leaker_laws[commit] = _leaker_law(alpha, g_cells)
            law_den, law_probs = law._int_view()
            for message, p in zip(law.support, law_probs):
                if not p:
                    continue
                cell = g_cells[message]
                # this message's step factors as ints over one denominator:
                # p / law_den for innocents, the leaker law's for commitments
                steps = [(k, lk[message][0]) for k, lk in leaker_laws.items() if message in lk]
                step_den = math.lcm(law_den, *(q.denominator for _k, q in steps))
                step = {k: q.numerator * (step_den // q.denominator) for k, q in steps}
                step[None] = p * (step_den // law_den)
                moved = {cls: f * step[cls] for cls, f in factors.items() if cls in step}
                if not moved:
                    continue
                moved_den = den * step_den
                emitted = _emitted(f_cells, cell)
                if emitted is None:
                    _carry_state(new_states, (prefix, cell), groups, moved, moved_den)
                    continue
                # message boundary: collapse commitments and check that the
                # conditional is proportional to the protocol's own
                terminal_paths += 1
                new_prefix = prefix + (emitted,)
                collapsed: dict = {}
                for cls, f in moved.items():
                    if cls is not None and cls != emitted:
                        raise ArithmeticError(
                            "commitment %r reached the boundary of %r at %r" % (cls, emitted, cell)
                        )
                    for k, w in groups[cls].items():
                        collapsed[k] = collapsed.get(k, 0) + w * f
                total = sum(collapsed.values())
                ref, ref_total, child = reference[new_prefix]
                # both sides hold positive ints only, so equal key sets plus
                # cross-multiplied equality on them is the whole test. Over a
                # positive total the products alone already catch a key that
                # collapsed lacks; the key test keeps ref[k] from being read
                # at a key that only collapsed holds
                if collapsed.keys() != ref.keys() or any(
                    w * ref_total != ref[k] * total for k, w in collapsed.items()
                ):
                    mismatches += 1
                if child is None:
                    decoded[new_prefix] = decoded.get(new_prefix, ZERO) + Fraction(total, moved_den)
                    continue
                f_cache[new_prefix] = f_partition(child.p_innocent)
                _open_state(new_states, (new_prefix, UNIT), *fresh_groups(child, collapsed, moved_den))
        states = new_states

    undecoded = sum(
        Fraction(sum(sum(groups[cls].values()) * f for cls, f in factors.items()), den)
        for groups, factors, den in states.values()
    )
    decoded_total = sum(decoded.values()) if decoded else ZERO
    mass_ok = all(
        p_ref - undecoded <= decoded.get(t, ZERO) <= p_ref for t, p_ref in transcript_mass.items()
    )
    report = AuditReport(
        decoded_total, undecoded, rounds_used, terminal_paths, mismatches, mass_ok, decoded
    )
    if decoded_total < DECODED_TARGET:
        err = BudgetExceededError(
            "audit decoded mass %s below target %s after %d rounds"
            % (decoded_total, DECODED_TARGET, rounds_used),
        )
        err.report = report
        raise err
    return report
