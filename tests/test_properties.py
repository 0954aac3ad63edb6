"""Hypothesis-driven invariants spanning modules. Strategies build exact
small-denominator rationals so every generated case keeps knife-edge
comparisons decidable."""

import itertools
import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptogenography.coding import (
    Codebook,
    fixed_capacity,
    hyper_binom_ratio,
    in_window,
    indep_capacity,
    posterior_leak,
    random_codebook,
    ratio_bound_check,
    window_channel,
)
from cryptogenography.embedding import InnocentChannel, Interval, f_partition, g_partition
from cryptogenography.game import asymptotic_lower_rate, game_value_from_joint
from cryptogenography.probability import (
    FiniteDist,
    JointDist,
    log2_fraction,
    mutual_information,
    neg_log2,
    subset_entropy,
)
from cryptogenography.protocols import (
    LeakScenario,
    ProtocolNode,
    ProtocolTree,
    _Tally,
    _children,
    enumerate_joint,
    iter_prefixes,
    posteriors,
    safety_report,
)
from cryptogenography.suspicion import (
    _node_message_joints,
    check_listener_monotone,
    check_single_message,
    expected_suspicion,
    suspicion_point,
)

from genutil import random_protocol, random_scenario

F = Fraction


@st.composite
def exact_dists(draw, labels, max_weight=8):
    weights = draw(
        st.lists(
            st.integers(min_value=0, max_value=max_weight),
            min_size=len(labels),
            max_size=len(labels),
        ).filter(lambda w: sum(w) > 0)
    )
    total = sum(weights)
    return FiniteDist(tuple(labels), tuple(F(w, total) for w in weights))


@st.composite
def speaking_models(draw):
    """Joint over (X, L, A) obeying the one-speaker model."""
    n_x = draw(st.integers(min_value=2, max_value=3))
    n_a = draw(st.integers(min_value=2, max_value=3))
    xs = tuple(range(n_x))
    msgs = tuple(range(n_a))
    x_dist = draw(exact_dists(xs, max_weight=5).filter(lambda d: all(p > 0 for p in d.probs)))
    b_by_x = {x: draw(st.integers(min_value=0, max_value=4)) for x in xs}
    p_innocent = draw(exact_dists(msgs, max_weight=5))
    p_leak = {x: draw(exact_dists(msgs, max_weight=5)) for x in xs}
    table = {}
    for x, px in x_dist.items():
        b = F(b_by_x[x], 5)
        for a in msgs:
            q0 = px * (1 - b) * p_innocent.prob(a)
            q1 = px * b * p_leak[x].prob(a)
            if q0 > 0:
                table[(x, 0, a)] = table.get((x, 0, a), F(0)) + q0
            if q1 > 0:
                table[(x, 1, a)] = table.get((x, 1, a), F(0)) + q1
    return JointDist(("X", "L", "A"), table)


@settings(max_examples=150, deadline=None)
@given(speaking_models())
def test_single_message_bound_holds(joint):
    cert = check_single_message(joint)
    assert cert.slack >= -1e-9
    if cert.equality:
        assert abs(cert.slack) <= 1e-9


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        st.tuples(
            st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)
        ),
        st.integers(min_value=0, max_value=5),
        min_size=1,
    ).filter(lambda t: sum(t.values()) > 0)
)
def test_listener_suspicion_monotone(weights):
    total = sum(weights.values())
    table = {k: F(v, total) for k, v in weights.items() if v > 0}
    joint = JointDist(("L", "Y", "B"), table)
    cert = check_listener_monotone(joint, "L", ("Y",), "B")
    assert cert.slack >= -1e-9


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 1), st.integers(0, 2), st.integers(0, 1)),
        st.integers(min_value=0, max_value=5),
        min_size=1,
    ).filter(lambda t: sum(t.values()) > 0)
)
def test_suspicion_reads_match_conditioning(weights):
    """suspicion_point, expected_suspicion and the listener equality flag
    agree with the same quantities built from JointDist.condition."""
    total = sum(weights.values())
    joint = JointDist(("L", "Y", "B"), {k: F(v, total) for k, v in weights.items() if v > 0})

    def innocence(given):
        return joint.condition(given).prob_event({"L": 0})

    for axes in (("Y",), ("Y", "B")):
        expected = 0.0
        for key, p in joint.marginal(axes).table.items():
            given = dict(zip(axes, key))
            point = neg_log2(innocence(given))
            assert suspicion_point(joint, "L", given) == point
            expected += float(p) * point
        assert expected_suspicion(joint, "L", axes) == pytest.approx(expected, rel=1e-12)

    cells = joint.marginal(("Y", "B")).table
    flat = all(innocence({"Y": y, "B": b}) == innocence({"Y": y}) for y, b in cells)
    cert = check_listener_monotone(joint, "L", ("Y",), "B")
    assert cert.equality == (flat and not math.isinf(cert.rhs_bits))
    assert cert.lhs_bits == expected_suspicion(joint, "L", ("Y",))
    assert cert.rhs_bits == expected_suspicion(joint, "L", ("Y", "B"))


@settings(max_examples=150, deadline=None)
@given(
    exact_dists(("a", "b", "c", "d")),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=1, max_value=41),
)
def test_partitions_tile_any_interval(law, lo_num, width_num):
    lo = F(lo_num, 42)
    hi = min(lo + F(width_num, 42), F(1))
    base = Interval(lo, hi)
    cells = g_partition(base, law)
    assert sum(c.length for c in cells.values()) == base.length
    ordered = sorted(cells.values(), key=lambda c: c.lo)
    assert ordered[0].lo == base.lo and ordered[-1].hi == base.hi
    for u, v in zip(ordered, ordered[1:]):
        assert u.hi == v.lo
    # f over the unit interval is the g of [0, 1)
    f_cells = f_partition(law)
    unit_cells = g_partition(Interval(F(0), F(1)), law)
    assert f_cells == unit_cells


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=11),
    st.integers(min_value=1, max_value=11),
    st.integers(min_value=2, max_value=12),
)
def test_window_posterior_dichotomy(b_num, c_num, den):
    b = F(min(b_num, den - 1), den)
    c = F(min(c_num, den - 1), den)
    if not 0 < b < c < 1:
        return
    ch = window_channel(b, c)
    for x in range(1, ch.d + 1):
        for m in range(1, ch.d + 1):
            post = posterior_leak(m, x, ch)
            assert post == (c if in_window(ch, m, x) else 0)
    a, d = ch.a, ch.d
    assert b / a + (1 - b) / d == b / (a * c)
    mi = indep_capacity(b, c)
    assert mi >= -1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=60), st.data())
def test_ratio_bound_everywhere(n, data):
    l = data.draw(st.integers(min_value=1, max_value=n - 1))
    bound = ratio_bound_check(n, l)
    assert bound.max_ratio <= 2
    assert bound.argmax_k == l
    assert bound.all_at_most_two and bound.unique_peak


def _scanned_ratio_bound(n, l):
    """The O(n) neighbour scan: ratio(k+1) / ratio(k) = up / down orders
    each pair of neighbours; the exact ratio is taken at every local
    maximum. Returns the RatioBound fields as a tuple."""
    lo, hi = max(0, 2 * l - n), min(2 * l, n)
    unique_peak = True
    peaks = []
    rising = True
    for k in range(lo, hi):
        up = (2 * l - k) * (n - l)
        down = (n - 2 * l + k + 1) * l
        if not (up > down if k < l else up < down):
            unique_peak = False
        if rising and up <= down:
            peaks.append(k)
        rising = up > down
    if rising:
        peaks.append(hi)
    ratios = {k: _quotient_ratio(n, l, k) for k in peaks}
    argmax_k = max(peaks, key=ratios.__getitem__)
    return ratios[argmax_k], argmax_k, ratios[argmax_k] <= 2, unique_peak


def _quotient_ratio(n, l, k):
    hyper = F(math.comb(2 * l, k) * math.comb(2 * (n - l), n - k), math.comb(2 * n, n))
    binom = F(math.comb(n, k) * l**k * (n - l) ** (n - k), n**n)
    return hyper / binom


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=200), st.data())
def test_ratio_bound_matches_neighbour_scan(n, data):
    l = data.draw(st.integers(min_value=1, max_value=n - 1))
    bound = ratio_bound_check(n, l)
    fields = (bound.max_ratio, bound.argmax_k, bound.all_at_most_two, bound.unique_peak)
    assert fields == _scanned_ratio_bound(n, l)
    for k in range(max(0, 2 * l - n), min(2 * l, n) + 1):
        assert hyper_binom_ratio(n, l, k) == _quotient_ratio(n, l, k), k


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=199))
def test_game_rate_identity(k):
    p = F(k, 200)
    assert math.isclose(
        asymptotic_lower_rate(p), fixed_capacity(1 - p), rel_tol=0, abs_tol=1e-12
    )


def _truncated(node, depth):
    """The protocol cut after ``depth`` messages."""
    if node is None or depth == 0:
        return None
    return replace(node, children={m: _truncated(c, depth - 1) for m, c in node.children.items()})


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=2, max_value=3),
    st.sampled_from([F(1, 2), F(2, 3), F(3, 4)]),
)
def test_posterior_tally_matches_brute_force(seed, n_players, n_x, c):
    """posteriors at every prefix, the safety maximum and the game's
    decisions agree with the same quantities read off the enumerated joint
    one event at a time. A prefix of length k is a complete transcript of
    the protocol cut after k messages."""
    rng = random.Random(seed)
    sc = random_scenario(rng, n_players=n_players, n_x=n_x)
    pi = random_protocol(rng, sc, max_depth=3, non_revealing_only=rng.random() < 0.5)
    players = range(1, n_players + 1)
    joints = {}

    def leak_given_x(joint, t, i, x):
        mass = joint.prob_event({"T": t, "X": x})
        return None if mass == 0 else joint.prob_event({"T": t, "X": x, "L%d" % i: 1}) / mass

    worst = F(0)
    worst_complete = F(0)
    for prefix, node, _weights, _scale in iter_prefixes(pi, sc):
        k = len(prefix)
        if k not in joints:
            joints[k] = enumerate_joint(ProtocolTree(_truncated(pi.root, k)), sc)
        joint = joints[k]
        p_t = joint.prob_event({"T": prefix})
        view = posteriors(pi, sc, prefix)
        for x in sc.x_support:
            assert view.x_posterior.prob(x) == joint.prob_event({"T": prefix, "X": x}) / p_t
            given_x = tuple(leak_given_x(joint, prefix, i, x) for i in players)
            if given_x[0] is None:
                assert x not in view.leak_probs_given_x
                continue
            assert view.leak_probs_given_x[x] == given_x
            worst = max(worst, *given_x)
            if node is None:
                worst_complete = max(worst_complete, *given_x)
        for i in players:
            assert view.leak_probs[i - 1] == joint.prob_event({"T": prefix, "L%d" % i: 1}) / p_t
    every = safety_report(pi, sc, c, include_prefixes=True)
    assert every.max_posterior == worst and every.ok == (worst <= c)
    assert safety_report(pi, sc, c).max_posterior == worst_complete

    joint = enumerate_joint(pi, sc)
    value = game_value_from_joint(joint, n_players)
    transcripts = joint.axis_supports[joint.axis_index("T")]
    assert list(value.frank_guess) == list(transcripts)

    def win(t, x):
        mass = joint.prob_event({"T": t, "X": x})
        if mass == 0:
            return None
        return mass * (1 - max(leak_given_x(joint, t, i, x) for i in players))

    for t in transcripts:
        wins = [w for w in (win(t, x) for x in sc.x_support) if w is not None]
        frank = value.frank_guess[t]
        assert value.win_by_transcript[t] == win(t, frank) == max(wins)
        eve = value.eve_guess[t]
        assert leak_given_x(joint, t, eve, frank) == max(
            leak_given_x(joint, t, i, frank) for i in players
        )
    assert value.succ == sum(value.win_by_transcript.values())


def _sign(a, b):
    return (a > b) - (a < b)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=12), st.integers(min_value=1, max_value=12))
        .filter(lambda nd: nd[0] <= nd[1])
        .map(lambda nd: F(*nd)),
        min_size=1,
        max_size=4,
    ),
)
def test_integer_walk_matches_fraction_oracle(seed, n_players, n_x, caps):
    """At every prefix the walk yields, w / scale is the joint mass a
    Fraction oracle builds from ``node.law``, and every tally comparison
    with a cap (random caps plus the posterior itself, a knife edge) agrees
    with comparing Fraction posteriors, for int and Fraction weights."""
    rng = random.Random(seed)
    sc = random_scenario(rng, n_players=n_players, n_x=n_x)
    pi = random_protocol(rng, sc, max_depth=3, non_revealing_only=rng.random() < 0.5)
    oracle = {(): {(x, lvec): p for (x, lvec), p in sc.outcomes()}}
    seen = 0
    for prefix, node, weights, scale in iter_prefixes(pi, sc):
        seen += 1
        if prefix:
            parent, m = oracle[prefix[:-1]], prefix[-1]
            at = pi.root
            for step in prefix[:-1]:
                at = at.children[step]
            oracle[prefix] = {
                (x, lvec): p * q
                for (x, lvec), p in parent.items()
                if (q := at.law(x, lvec[at.speaker - 1]).prob(m)) > 0
            }
        want = oracle[prefix]
        assert all(isinstance(w, int) for w in weights.values())
        assert {k: F(w, scale) for k, w in weights.items()} == want
        tallies = (_Tally(weights), _Tally(want))
        for i in range(1, n_players + 1):
            for x in sc.x_support:
                x_mass = sum(p for (xx, _), p in want.items() if xx == x)
                if x_mass == 0:
                    assert all(t.compare(i, x, F(1, 2)) is None for t in tallies)
                    continue
                leak = sum(p for (xx, lvec), p in want.items() if xx == x and lvec[i - 1])
                post = leak / x_mass
                for tally in tallies:
                    assert tally.posterior(i, x) == post
                    for cap in caps + [post]:
                        assert tally.compare(i, x, cap) == _sign(post, cap)
    assert seen == len(oracle)


@st.composite
def mixed_tables(draw, forms=False):
    """A JointDist over 2-4 axes of 2-3 int labels each, entries with mixed
    denominators, some zero and some cells absent, in a shuffled order.

    With ``forms`` set, the same joint built three ways: from the Fractions,
    in int form over the lcm of their denominators, and in int form over k
    times that lcm for some k > 1."""
    sizes = draw(st.lists(st.integers(min_value=2, max_value=3), min_size=2, max_size=4))
    cells = draw(st.permutations(list(itertools.product(*(range(k) for k in sizes)))))
    entry = st.tuples(st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=12))
    raw = draw(
        st.lists(st.one_of(st.none(), entry.map(lambda nd: F(*nd))), min_size=len(cells), max_size=len(cells))
        .filter(lambda ws: any(ws))
    )
    total = sum(w for w in raw if w is not None)
    table = {key: w / total for key, w in zip(cells, raw) if w is not None}
    axes = tuple("A%d" % i for i in range(len(sizes)))
    joint = JointDist(axes, table)
    if not forms:
        return joint
    lcm = math.lcm(*(p.denominator for p in table.values()))

    def over(den):
        return JointDist(axes, {key: p.numerator * den // p.denominator for key, p in table.items()}, den=den)

    return joint, over(lcm), over(lcm * draw(st.integers(min_value=2, max_value=7)))


def _ref_cells(joint, idx, keep=lambda key: True):
    """Plain-Fraction sums of the table by sub-key, first-seen order."""
    out = {}
    for key, p in joint.table.items():
        if keep(key):
            sub = tuple(key[i] for i in idx)
            out[sub] = out.get(sub, F(0)) + p
    return out


def _ref_entropy(cells):
    return -sum(float(p) * log2_fraction(p) for p in cells.values() if p > 0) + 0.0


def _ref_innocence(joint, idx):
    masses = {}
    for key, p in joint.table.items():
        slot = masses.setdefault(tuple(key[i] for i in idx), [F(0), F(0)])
        slot[0] += p
        if key[0] == 0:
            slot[1] += p
    return masses


def _ref_expected(masses):
    result = 0.0
    for py, innocent in masses.values():
        if innocent == 0:
            return math.inf
        result += float(py) * -log2_fraction(innocent / py)
    return result


def _subsets(items):
    return [c for r in range(1, len(items) + 1) for c in itertools.combinations(items, r)]


@settings(max_examples=80, deadline=None)
@given(mixed_tables())
def test_int_view_matches_fraction_reference(joint):
    """Every reader of the joint's int view equals a plain-Fraction
    reference: exact values, key and support order, and floats bit for bit
    (axis A0 plays the leak indicator for the suspicion reads)."""
    axes = joint.axes
    for idx in _subsets(range(len(axes))):
        names = tuple(axes[i] for i in idx)
        want = _ref_cells(joint, idx)
        if len(idx) < len(axes):
            got = joint.marginal(names)
            assert list(got.table.items()) == list(want.items())
            assert got.axis_supports == tuple(joint.axis_supports[i] for i in idx)
        assert subset_entropy(joint, names).hex() == _ref_entropy(want).hex()
        for values in itertools.product(*(joint.axis_supports[i] for i in idx)):
            assignment = dict(zip(names, values))
            event = lambda key: all(key[i] == v for i, v in zip(idx, values))  # noqa: E731
            mass = sum((p for key, p in joint.table.items() if event(key)), F(0))
            assert joint.prob_event(assignment) == mass
            if len(idx) == len(axes):
                continue
            keep = [i for i in range(len(axes)) if i not in idx]
            if mass == 0:
                with pytest.raises(ValueError, match="probability zero"):
                    joint.condition(assignment)
                continue
            got = joint.condition(assignment)
            want_cond = {k: p / mass for k, p in _ref_cells(joint, keep, event).items()}
            assert list(got.table.items()) == list(want_cond.items())
            assert got.axis_supports == tuple(joint.axis_supports[i] for i in keep)
    for i, axis in enumerate(axes):
        dist = joint.marginal_dist(axis)
        want = _ref_cells(joint, (i,))
        assert dist.support == joint.axis_supports[i]
        assert dist.probs == tuple(want.get((s,), F(0)) for s in dist.support)
    for a_idx in _subsets(range(len(axes))):
        rest = [i for i in range(len(axes)) if i not in a_idx]
        for b_idx in _subsets(rest):
            a = tuple(axes[i] for i in a_idx)
            b = tuple(axes[i] for i in b_idx)
            want = (
                _ref_entropy(_ref_cells(joint, a_idx))
                + _ref_entropy(_ref_cells(joint, b_idx))
                - _ref_entropy(_ref_cells(joint, a_idx + b_idx))
            )
            assert mutual_information(joint, a, b).hex() == want.hex()
    others = range(1, len(axes))
    for y_idx in _subsets(others):
        y = tuple(axes[i] for i in y_idx)
        fine_want = _ref_innocence(joint, y_idx)
        assert expected_suspicion(joint, "A0", y).hex() == _ref_expected(fine_want).hex()
        for b in others:
            if b in y_idx:
                continue
            fine = _ref_innocence(joint, y_idx + (b,))
            coarse = _ref_innocence(joint, y_idx)
            cert = check_listener_monotone(joint, "A0", y, axes[b])
            flat = all(
                inn / mass == coarse[yb[:-1]][1] / coarse[yb[:-1]][0]
                for yb, (mass, inn) in fine.items()
            )
            rhs = _ref_expected(fine)
            assert cert.equality == (flat and not math.isinf(rhs))
            assert cert.lhs_bits.hex() == _ref_expected(coarse).hex()
            assert cert.rhs_bits.hex() == rhs.hex()


def _cert_bits(cert):
    return cert.lhs_bits.hex(), cert.rhs_bits.hex(), cert.slack.hex(), cert.equality


@settings(max_examples=60, deadline=None)
@given(mixed_tables(forms=True))
def test_int_form_matches_fraction_form(joints):
    """A joint built in int form, over the lcm or over a multiple of it,
    reads exactly like the one built from Fractions: table, supports, ==,
    JSON bytes, every marginal and conditional, and the information and
    suspicion floats bit for bit (axis A0 plays the leak indicator)."""
    ref = joints[0]
    axes = ref.axes
    for joint in joints[1:]:
        assert list(joint.table.items()) == list(ref.table.items())
        assert joint.axis_supports == ref.axis_supports
        assert joint == ref
        assert json.dumps(joint.to_jsonable()) == json.dumps(ref.to_jsonable())
        for idx in _subsets(range(len(axes))):
            names = tuple(axes[i] for i in idx)
            if len(idx) == len(axes):
                continue
            got, want = joint.marginal(names), ref.marginal(names)
            assert list(got.table.items()) == list(want.table.items())
            assert got.axis_supports == want.axis_supports
            for values in itertools.product(*(ref.axis_supports[i] for i in idx)):
                assignment = dict(zip(names, values))
                if ref.prob_event(assignment) == 0:
                    continue
                got, want = joint.condition(assignment), ref.condition(assignment)
                assert list(got.table.items()) == list(want.table.items())
                assert got.axis_supports == want.axis_supports
        for a_idx in _subsets(range(len(axes))):
            rest = [i for i in range(len(axes)) if i not in a_idx]
            for b_idx in _subsets(rest):
                a = tuple(axes[i] for i in a_idx)
                b = tuple(axes[i] for i in b_idx)
                assert mutual_information(joint, a, b).hex() == mutual_information(ref, a, b).hex()
        others = range(1, len(axes))
        for y_idx in _subsets(others):
            y = tuple(axes[i] for i in y_idx)
            assert expected_suspicion(joint, "A0", y).hex() == expected_suspicion(ref, "A0", y).hex()
            for b in others:
                if b not in y_idx:
                    got = check_listener_monotone(joint, "A0", y, axes[b])
                    want = check_listener_monotone(ref, "A0", y, axes[b])
                    assert _cert_bits(got) == _cert_bits(want)


def _reversed_laws(node):
    """The same node with every law's support listed back to front."""
    def rev(law):
        return FiniteDist(law.support[::-1], law.probs[::-1])

    return ProtocolNode(
        node.speaker,
        node.alphabet,
        rev(node.p_innocent),
        {x: rev(law) for x, law in node.p_leak.items()},
        node.children,
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
)
def test_node_message_joint_matches_fraction_construction(seed, n_players, n_x):
    """At every node of a random protocol, the int-built (X, L_j, A) joint
    equals the one built from Fraction(w, total) times ``node.law``, in the
    law's support order, also when that order is not the alphabet's."""
    rng = random.Random(seed)
    sc = random_scenario(rng, n_players=n_players, n_x=n_x)
    pi = random_protocol(rng, sc, max_depth=3, non_revealing_only=rng.random() < 0.5)
    for _prefix, node, weights, _scale in iter_prefixes(pi, sc):
        if node is None:
            continue
        total = sum(weights.values())
        for at in (node, _reversed_laws(node)):
            joints = _node_message_joints(at, weights, n_players)
            for player in range(1, n_players + 1):
                table = {}
                for (x, lvec), w in weights.items():
                    for a, q in at.law(x, lvec[at.speaker - 1]).items():
                        if q:
                            key = (x, lvec[player - 1], a)
                            table[key] = table.get(key, F(0)) + F(w, total) * q
                got = joints[player]
                assert list(got.table.items()) == list(table.items())
                assert got.axis_supports == JointDist(("X", "L", "A"), table).axis_supports


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
)
def test_children_split_the_weights_by_the_node_laws(seed, n_players, n_x):
    """At every internal prefix of a random protocol, ``_children`` covers
    the alphabet, its masses summed over the messages are the parent's
    weights times the node's law scale, key by key, and each child equals
    the parent's weights times ``node.law(x, l_speaker).prob(m)``, in the
    parent's key order."""
    rng = random.Random(seed)
    sc = random_scenario(rng, n_players=n_players, n_x=n_x)
    pi = random_protocol(rng, sc, max_depth=3, non_revealing_only=rng.random() < 0.5)
    for _prefix, node, weights, _scale in iter_prefixes(pi, sc):
        if node is None:
            continue
        scale = node.int_laws[0]
        children = _children(node, weights)
        assert list(children) == list(node.alphabet)
        summed = dict.fromkeys(weights, 0)
        for child in children.values():
            for key, w in child.items():
                summed[key] += w
        assert summed == {key: w * scale for key, w in weights.items()}
        for m, child in children.items():
            want = {}
            for (x, lvec), w in weights.items():
                q = node.law(x, lvec[node.speaker - 1]).prob(m)
                if q:
                    want[(x, lvec)] = w * q
            assert [(k, F(w, scale)) for k, w in child.items()] == list(want.items())


# Lossless JSON: labels that JSON can confuse are ints, strings, strings
# that read as ints or tuple literals, and nested tuples of all of these.
_label_atoms = st.one_of(
    st.integers(min_value=-3, max_value=12),
    st.integers(min_value=-3, max_value=12).map(str),
    st.text(alphabet="ab7 (),-", max_size=4),
    st.sampled_from(["(1, 2)", "()", "(7,)", " 7", "[1]", "null"]),
)
json_labels = st.recursive(
    _label_atoms, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=5
)


def _label_sets(min_size=1, max_size=4):
    # either drawn freely or among labels whose string forms coincide
    shared = st.sampled_from([7, "7", (1, 2), "(1, 2)", (7,), "(7,)"])
    return st.one_of(
        st.lists(json_labels, min_size=min_size, max_size=max_size, unique=True),
        st.lists(shared, min_size=min_size, max_size=max_size, unique=True),
    ).map(tuple)


def _through_json(obj):
    return json.loads(json.dumps(obj.to_jsonable()))


def _drawn_table(draw, supports):
    """Positive masses on some keys over ``supports``, listed in a drawn
    order, so a support's order need not be the table's first-seen one."""
    keys = list(itertools.product(*supports))
    weights = draw(st.lists(st.integers(0, 3), min_size=len(keys), max_size=len(keys)))
    weights[draw(st.integers(0, len(keys) - 1))] += 1
    total = sum(weights)
    return {keys[i]: F(weights[i], total) for i in draw(st.permutations(range(len(keys))))
            if weights[i]}


@st.composite
def json_joints(draw):
    """A joint whose supports hold zero-mass labels in a drawn order."""
    axes = tuple(draw(st.lists(st.sampled_from("XYZ"), min_size=1, max_size=3, unique=True)))
    supports = tuple(draw(_label_sets(max_size=3)) for _ in axes)
    return JointDist(axes, _drawn_table(draw, supports), axis_supports=supports)


@st.composite
def json_scenarios(draw):
    n_players = draw(st.integers(min_value=1, max_value=2))
    # the reader keeps X's order and lists each leak support as (0, 1)
    supports = (draw(_label_sets()),) + ((0, 1),) * n_players
    axes = ("X",) + tuple("L%d" % i for i in range(1, n_players + 1))
    joint = JointDist(axes, _drawn_table(draw, supports), axis_supports=supports)
    return LeakScenario(n_players, joint)


@st.composite
def json_nodes(draw, secrets, depth):
    alphabet = draw(_label_sets())
    children = {
        m: draw(json_nodes(secrets, depth - 1)) if depth > 1 and draw(st.booleans()) else None
        for m in alphabet
    }
    return ProtocolNode(
        draw(st.integers(min_value=1, max_value=3)),
        alphabet,
        draw(exact_dists(alphabet, max_weight=4)),
        {x: draw(exact_dists(alphabet, max_weight=4)) for x in secrets},
        children,
    )


@st.composite
def json_channels(draw):
    n_players = draw(st.integers(min_value=1, max_value=3))
    rounds = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        players = draw(st.sets(st.integers(min_value=1, max_value=n_players)))
        rounds.append({p: draw(exact_dists(draw(_label_sets()), max_weight=4)) for p in players})
    return InnocentChannel(n_players, tuple(rounds), draw(st.booleans()))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_json_round_trip_is_lossless(data):
    support = data.draw(_label_sets())
    dist = data.draw(exact_dists(support, max_weight=4))
    back = FiniteDist.from_jsonable(_through_json(dist))
    assert back == dist and back.support == support

    joint = data.draw(json_joints())
    back = JointDist.from_jsonable(_through_json(joint))
    assert back == joint
    assert back.axis_supports == joint.axis_supports
    assert list(back.table) == list(joint.table)

    sc = data.draw(json_scenarios())
    back = LeakScenario.from_jsonable(_through_json(sc))
    assert back == sc
    assert back.joint.axis_supports == sc.joint.axis_supports

    secrets = data.draw(_label_sets())
    root = data.draw(st.none() | json_nodes(secrets, depth=2))
    tree = ProtocolTree(root, data.draw(st.integers(min_value=0, max_value=3)))
    assert ProtocolTree.from_jsonable(_through_json(tree)) == tree

    channel = data.draw(json_channels())
    assert InnocentChannel.from_jsonable(_through_json(channel)) == channel

    h, n, d, seed = (data.draw(st.integers(min_value=lo, max_value=hi))
                     for lo, hi in ((0, 6), (1, 20), (1, 5), (0, 2**32)))
    book = random_codebook(h, n, d, seed)
    back = Codebook.from_jsonable(_through_json(book))
    assert back == book and (back.seed, back.h_bits, back.n, back.d) == (seed, h, n, d)
