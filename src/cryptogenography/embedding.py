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
cross-multiplication. The audit holds each state as one int factor per
commitment class over one denominator, a class's mass being its factor
times a per-prefix int total; each chatter message multiplies the factors
by int step factors, a leaker's from its int step law, and every boundary
test is an int cross-multiplication of factors against the protocol's int
laws. Only the reported masses are Fractions.
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
    _add_over_lcm,
    _count,
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
    _children,
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
        players = _count("channel players", data["players"])

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


def _leaker_law(alpha: Interval, g_cells: Mapping) -> tuple:
    """A leaking speaker's next chatter message given the alpha interval:
    (den, {message: n}), |cell & alpha| / |alpha| = n / den, for every g-cell
    that meets alpha. ``compose_run`` samples it; the audit expands it."""
    lo, hi, den = alpha._ints
    common = math.lcm(*(cell._ints[2] for cell in g_cells.values()))
    law = {}
    for message, cell in g_cells.items():
        clo, chi, cden = cell._ints
        span = min(chi * den, hi * cden) - max(clo * den, lo * cden)
        if span > 0:
            law[message] = span * (common // cden)
    return (hi - lo) * common, law


def embed_leaker_step(rng, alpha: Interval, g_cells: Mapping):
    """One chatter message from a leaking speaker, lazily conditioned on the
    never-materialized uniform point alpha. Returns (message, new alpha)."""
    message = _sample(rng, _leaker_law(alpha, g_cells)[1].items())
    return message, g_cells[message].intersect(alpha)


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


def _open_state(states: dict, key, factors: dict, den: int) -> None:
    """Store the class factors ``factors`` ({class: int}) over ``den`` at
    ``key``. A state already there has the same prefix, and so the same
    class totals: the two are added class by class over the lcm of their
    denominators. The result is divided by its gcd."""
    if key in states:
        old, old_den = states[key]
        common = math.lcm(old_den, den)
        up_old, up = common // old_den, common // den
        merged = {cls: f * up_old for cls, f in old.items()}
        for cls, f in factors.items():
            merged[cls] = merged.get(cls, 0) + f * up
        factors, den = merged, common
    g = math.gcd(den, *factors.values())
    if g > 1:
        factors = {cls: f // g for cls, f in factors.items()}
        den //= g
    states[key] = (factors, den)


def _carry_state(states: dict, key, factors: dict, den: int) -> None:
    """Store a state reached within a protocol message, as ``_open_state``
    stores one at a boundary. A chatter law with one possible message keeps
    the interval, so two paths of one prefix can meet here too."""
    _open_state(states, key, factors, den)


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
    transcript; (iii) each decoded transcript's mass never exceeds its
    protocol probability and falls short by at most the total undecoded
    mass.

    A state is ``(prefix, interval) -> ({class: int}, den)``: one factor
    per commitment class, innocent (None) or the committed protocol message.
    A prefix opens proportional to the protocol's weights w there, so a
    class's mass is its factor times the prefix's class total over ``den``:
    T_None = Σ w·L over innocents and T_a = Σ w·q_a(x) over leakers (L the
    node's int law scale, q its leak int laws), summed from the ``_children``
    expansion that the child check reads. Per chatter message, the chatter
    law's p_k and each commitment's n / den from ``_leaker_law`` go over the
    lcm of their denominators and multiply the factors. A boundary emitting
    a matches iff the protocol's child weights are the parent's times the
    node's int law for a, key set included (checked once per prefix), the
    innocent class is present exactly when innocents exist and p_a > 0 (p
    the innocent int law), class a exactly when T_a exists, and, with both
    present, L·f_None == p_a·f_a. The child opens with every factor equal to
    the mass Σ f_c·T_c, and two paths that reach one state add over the lcm
    (``_open_state``, ``_carry_state``).

    A collapse not proportional to the protocol's has no class form, so
    after a mismatch the child opens proportional to the protocol anyway:
    the first mismatch is counted exactly, later counts of a failing report
    may differ from an audit on (x, lvec) masses, and tests pin only > 0.

    Raises BudgetExceededError when the budget runs out first.
    """
    if depth_budget < 0:
        raise ValueError("depth_budget must be >= 0, got %d" % depth_budget)
    if not non_revealing(tree, scenario):
        raise ValueError("the protocol must be non-revealing to hide among innocents")

    mismatches = terminal_paths = 0

    if tree.root is None:
        return AuditReport(ONE, ZERO, 0, 1, 0, True, {(): ONE})

    # the protocol's own weights and node at every prefix, and the
    # probability of every complete transcript, from one walk
    reference = {}
    transcript_mass = {}
    for prefix, node, weights, scale in iter_prefixes(tree, scenario):
        reference[prefix] = (weights, node)
        if node is None:
            transcript_mass[prefix] = Fraction(sum(weights.values()), scale)

    tables: dict = {}

    def table(prefix):
        # (node, f-cells, class totals, their sum, L, p, {a: child check})
        weights, node = reference[prefix]
        law_scale, innocent, _leak = node.int_laws
        speaker = node.speaker - 1
        totals: dict = {}
        children_ok = {}
        for a, expected in _children(node, weights).items():
            # leakers add into class a, innocents (over every child) into None
            for key, v in expected.items():
                cls = a if key[1][speaker] else None
                totals[cls] = totals.get(cls, 0) + v
            got = reference.get(prefix + (a,), ({},))[0]
            got_total, expected_total = sum(got.values()), sum(expected.values())
            children_ok[a] = got.keys() == expected.keys() and all(
                w * got_total == got[k] * expected_total for k, w in expected.items()
            )
        tables[prefix] = entry = (node, f_partition(node.p_innocent), totals,
                                  sum(totals.values()), law_scale, dict(innocent), children_ok)
        return entry

    # state key: (pi prefix, interval); value: ({class: int}, den), a
    # class's mass its factor times the prefix's class total over den
    states: dict = {}
    root_totals, root_sum = table(())[2:4]
    _open_state(states, ((), UNIT), dict.fromkeys(root_totals, 1), root_sum)
    # transcript -> (int, den): its decoded mass, summed over the lcm
    decoded: dict = {}

    rounds_used = 0
    for r in range(depth_budget):
        if not states:
            break
        rounds_used = r + 1
        new_states: dict = {}
        for (prefix, interval), (factors, den) in states.items():
            node, f_cells, totals, _sum, law_scale, innocent, children_ok = tables[prefix]
            law = channel.law(node.speaker, r)
            g_cells = g_partition(interval, law)
            # a committed class only reaches a state through a positive
            # overlap, so its alpha (f-cell & interval) is not empty
            alpha_laws = {}
            for commit, f_cell in f_cells.items():
                if commit in factors:
                    alpha = f_cell.intersect(interval)
                    if alpha is not None:
                        alpha_laws[commit] = _leaker_law(alpha, g_cells)
            law_den, law_probs = law._int_view()
            for message, p in zip(law.support, law_probs):
                if not p:
                    continue
                cell = g_cells[message]
                # this message's step factors as ints over one denominator:
                # p / law_den for innocents, n / d of its law for a commitment
                steps = [(k, d, ns[message]) for k, (d, ns) in alpha_laws.items() if message in ns]
                step_den = math.lcm(law_den, *(d for _k, d, _n in steps))
                step = {k: n * (step_den // d) for k, d, n in steps}
                step[None] = p * (step_den // law_den)
                moved = {cls: f * step[cls] for cls, f in factors.items() if cls in step}
                if not moved:
                    continue
                moved_den = den * step_den
                emitted = _emitted(f_cells, cell)
                if emitted is None:
                    _carry_state(new_states, (prefix, cell), moved, moved_den)
                    continue
                # message boundary: collapse commitments and check that the
                # conditional is proportional to the protocol's own
                terminal_paths += 1
                for cls in moved:
                    if cls is not None and cls != emitted:
                        raise ArithmeticError(
                            "commitment %r reached the boundary of %r at %r" % (cls, emitted, cell)
                        )
                f_none, f_a = moved.get(None), moved.get(emitted)
                p_a = innocent.get(emitted, 0)
                if not (
                    children_ok.get(emitted, False)
                    and (f_none is not None) == (None in totals and p_a > 0)
                    and (f_a is not None) == (emitted in totals)
                    and (f_none is None or f_a is None or law_scale * f_none == p_a * f_a)
                ):
                    mismatches += 1
                mass = sum(f * totals[cls] for cls, f in moved.items())
                new_prefix = prefix + (emitted,)
                if reference[new_prefix][1] is None:
                    _add_over_lcm(decoded, new_prefix, mass, moved_den)
                    continue
                child = tables.get(new_prefix) or table(new_prefix)
                opened = dict.fromkeys(child[2], mass)
                _open_state(new_states, (new_prefix, UNIT), opened, moved_den * child[3])
        states = new_states

    undecoded = sum(
        Fraction(sum(tables[prefix][2][cls] * f for cls, f in factors.items()), den)
        for (prefix, _interval), (factors, den) in states.items()
    )
    decoded = {t: Fraction(mass, den) for t, (mass, den) in decoded.items()}
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
