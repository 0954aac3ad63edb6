import hashlib
import itertools
import json
import random
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptogenography import protocols
from cryptogenography.coding import window_channel, window_protocol, window_scenario
from cryptogenography.game import succ_of_protocol
from cryptogenography.probability import FiniteDist, fraction_to_jsonable, mutual_information
from cryptogenography.protocols import (
    BudgetExceededError,
    LeakScenario,
    ProtocolNode,
    ProtocolTree,
    binarize,
    bit_probability_report,
    enumerate_joint,
    equivalent,
    iter_prefixes,
    posterior_measure,
    posteriors,
    pretend_ignorance,
    pretend_ignorance_trigger_mass,
    safety_report,
    stop_at_c,
    stop_at_c_postcondition,
)

from genutil import random_protocol, random_scenario

F = Fraction


def leaf_node(speaker, p_innocent, p_leak):
    alphabet = p_innocent.support
    return ProtocolNode(speaker, alphabet, p_innocent, p_leak, {m: None for m in alphabet})


@pytest.fixture
def coin_scenario():
    return LeakScenario.fixed(FiniteDist.uniform((0, 1)), 1, 2)


class TestEquivalent:
    def test_self(self, coin_scenario):
        rng = random.Random(4)
        pi = random_protocol(rng, coin_scenario)
        assert equivalent(pi, pi, coin_scenario)

    def test_relabeled_messages(self, coin_scenario):
        p_inn = FiniteDist((0, 1), (F(1, 3), F(2, 3)))
        p0 = FiniteDist((0, 1), (F(2, 3), F(1, 3)))
        p1 = FiniteDist((0, 1), (F(1, 6), F(5, 6)))
        a = ProtocolTree(leaf_node(1, p_inn, {0: p0, 1: p1}))
        swapped = ProtocolTree(
            leaf_node(
                1,
                FiniteDist(("hi", "lo"), (F(2, 3), F(1, 3))),
                {
                    0: FiniteDist(("hi", "lo"), (F(1, 3), F(2, 3))),
                    1: FiniteDist(("hi", "lo"), (F(5, 6), F(1, 6))),
                },
            )
        )
        assert equivalent(a, swapped, coin_scenario)

    def test_detects_difference(self, coin_scenario):
        u = FiniteDist.uniform((0, 1))
        silent = ProtocolTree(leaf_node(1, u, {0: u, 1: u}))
        p1 = FiniteDist((0, 1), (F(1, 4), F(3, 4)))
        loud = ProtocolTree(leaf_node(1, u, {0: u, 1: p1}))
        assert not equivalent(silent, loud, coin_scenario)

    def test_same_posteriors_other_masses(self):
        # Pr(L1=1 | t) is 1/5, 1/2 and 4/5 in both protocols, with masses
        # (1/3, 1/3, 1/3) against (1/4, 1/2, 1/4): the same mean, so only
        # the masses tell the measures apart
        sc = LeakScenario.independent(FiniteDist.uniform((0,)), 1, F(1, 2))
        msgs = ("m1", "m2", "m3")

        def ternary(innocent, leak):
            return ProtocolTree(leaf_node(1, FiniteDist(msgs, innocent), {0: FiniteDist(msgs, leak)}))

        thirds = ternary((F(8, 15), F(1, 3), F(2, 15)), (F(2, 15), F(1, 3), F(8, 15)))
        quarters = ternary((F(2, 5), F(1, 2), F(1, 10)), (F(1, 10), F(1, 2), F(2, 5)))
        assert set(posterior_measure(thirds, sc)) == set(posterior_measure(quarters, sc))
        assert not equivalent(thirds, quarters, sc)


def transcript_cells(tree, scenario):
    """{transcript: {(x, lvec): mass}} from the Fraction table of the exact
    joint, in first-seen order."""
    cells = {}
    for key, p in enumerate_joint(tree, scenario).table.items():
        cell = cells.setdefault(key[-1], {})
        outcome = (key[0], key[1:-1])
        cell[outcome] = cell.get(outcome, F(0)) + p
    return cells


def reference_measure(tree, scenario):
    """The posterior measure with Fractions throughout: each transcript's
    conditional vector over the scenario outcomes, masses summed per vector."""
    keys = scenario.outcome_keys()
    measure = {}
    for cell in transcript_cells(tree, scenario).values():
        total = sum(cell.values())
        vector = tuple(cell.get(k, F(0)) / total for k in keys)
        measure[vector] = measure.get(vector, F(0)) + total
    return measure


def sharpened(tree, scenario):
    """(copy, differs): a copy whose root speaker s, leaking secret x, always
    sends m, the first message of a transcript t that maximizes
    Pr(X=x, L_s=1 | t).

    When that maximum lies strictly between 0 and 1 and the old law sent m
    with probability below 1, the transcripts through m gain leaking mass
    and the rest lose all of it, so the highest Pr(X=x, L_s=1 | t) over the
    measure rises: the two measures differ (``differs`` is True)."""
    root = tree.root
    s = root.speaker
    post, x, t = max(
        (sum(p for (xx, lvec), p in cell.items() if xx == x and lvec[s - 1]) / sum(cell.values()), x, t)
        for t, cell in transcript_cells(tree, scenario).items()
        for x in scenario.x_support
    )
    m = t[0]
    law = FiniteDist(root.alphabet, tuple(F(int(a == m)) for a in root.alphabet))
    copy = ProtocolTree(replace(root, p_leak={**root.p_leak, x: law}))
    return copy, 0 < post < 1 and root.p_leak[x].prob(m) < 1


def walk_states(tree, scenario):
    return sum(len(weights) for _p, _n, weights, _s in iter_prefixes(tree, scenario))


random_instances = st.tuples(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
)


def draw_instance(seed, n_players, depth):
    rng = random.Random(seed)
    scenario = random_scenario(rng, n_players=n_players)
    return rng, scenario, random_protocol(rng, scenario, max_depth=depth)


class TestPosteriorMeasure:
    @settings(max_examples=60, deadline=None)
    @given(random_instances)
    def test_matches_fraction_reference(self, instance):
        _rng, sc, tree = draw_instance(*instance)
        binary = binarize(tree, sc)
        trees = [tree, binary]
        try:
            # gadgets give several transcripts one posterior
            trees.append(stop_at_c(binary, sc, F(4, 5)))
        except ValueError:
            pass
        for pi in trees:
            # the same vectors and masses, in the same first-seen order
            assert list(posterior_measure(pi, sc).items()) == list(reference_measure(pi, sc).items())

    @settings(max_examples=60, deadline=None)
    @given(random_instances)
    def test_equivalent_is_measure_equality(self, instance):
        rng, sc, tree = draw_instance(*instance)
        copy, differs = sharpened(tree, sc)
        others = [binarize(tree, sc), random_protocol(rng, sc, max_depth=2), copy]
        for other in others:
            same = reference_measure(tree, sc) == reference_measure(other, sc)
            assert (posterior_measure(tree, sc) == posterior_measure(other, sc)) == same
            assert equivalent(tree, other, sc) == equivalent(other, tree, sc) == same
        assert equivalent(tree, others[0], sc)
        if differs:
            assert not equivalent(tree, copy, sc)

    @settings(max_examples=40, deadline=None)
    @given(random_instances)
    def test_budget_is_per_walk(self, instance):
        rng, sc, tree = draw_instance(*instance)
        other = binarize(random_protocol(rng, sc, max_depth=2), sc)
        need = max(walk_states(tree, sc), walk_states(other, sc))
        own = walk_states(tree, sc)

        def budget(n):
            # the walks read the module budget when they start
            return mock.patch.object(protocols, "DEFAULT_ENUMERATION_BUDGET", n)

        for a, b in ((tree, other), (other, tree)):
            with budget(need - 1):
                with pytest.raises(BudgetExceededError, match="exceeded %d outcome states" % (need - 1)):
                    equivalent(a, b, sc)
            with budget(need):
                equivalent(a, b, sc)
        with budget(own - 1):
            with pytest.raises(BudgetExceededError):
                posterior_measure(tree, sc)
        with budget(own):
            posterior_measure(tree, sc)


class TestBinarize:
    def test_already_binary_unchanged(self, coin_scenario):
        u = FiniteDist.uniform((0, 1))
        p0 = FiniteDist((0, 1), (F(1, 3), F(2, 3)))
        node = leaf_node(1, u, {0: p0, 1: p0})
        out = binarize(ProtocolTree(node), coin_scenario)
        assert out.root == node
        # the bit node keeps its own law objects rather than equal rebuilt ones
        assert out.root.p_innocent is node.p_innocent
        assert all(out.root.p_leak[x] is node.p_leak[x] for x in (0, 1))

    def test_bool_labelled_bits_are_written_as_ints(self, coin_scenario):
        # False == 0 and True == 1, but binarize writes the int labels 0 and 1
        bits = (False, True)
        p0 = FiniteDist(bits, (F(1, 3), F(2, 3)))
        node = leaf_node(1, FiniteDist.uniform(bits), {0: p0, 1: p0})
        out = binarize(ProtocolTree(node), coin_scenario).root
        labels = [out.alphabet, out.p_innocent.support, *(law.support for law in out.p_leak.values())]
        assert all(type(m) is int for m in itertools.chain(*labels))

    def test_ternary_half_quarter_quarter(self, coin_scenario):
        p_inn = FiniteDist(("a", "b", "c"), (F(1, 2), F(1, 4), F(1, 4)))
        p0 = FiniteDist(("a", "b", "c"), (F(1, 4), F(1, 2), F(1, 4)))
        pi = ProtocolTree(leaf_node(1, p_inn, {0: p0, 1: p_inn}))
        out = binarize(pi, coin_scenario)
        # two-level bit tree, innocent bit probabilities 1/2 at both levels
        assert out.root.alphabet == (0, 1)
        assert out.root.p_innocent.prob(0) == F(1, 2)
        inner = [c for c in out.root.children.values() if c is not None]
        assert len(inner) == 1 and inner[0].p_innocent.prob(0) == F(1, 2)
        assert equivalent(pi, out, coin_scenario)
        assert bit_probability_report(out) == []

    def test_equal_bit_ratios_share_one_law_across_trees(self, coin_scenario):
        """binarize builds one law per reduced bit ratio: two different
        trees whose root bits need the same ratio hold one law object."""
        p_inn = FiniteDist(("a", "b", "c"), (F(1, 2), F(1, 4), F(1, 4)))
        p0 = FiniteDist(("a", "b", "c"), (F(1, 4), F(1, 2), F(1, 4)))
        p1 = FiniteDist(("a", "b", "c"), (F(1, 6), F(1, 3), F(1, 2)))
        first = binarize(ProtocolTree(leaf_node(1, p_inn, {0: p0, 1: p_inn})), coin_scenario)
        second = binarize(ProtocolTree(leaf_node(2, p_inn, {0: p1, 1: p0})), coin_scenario)
        assert first.root.p_innocent == FiniteDist.uniform((0, 1))
        assert second.root.p_innocent is first.root.p_innocent
        assert second.root.p_leak[1] is first.root.p_leak[0]

    def rare_bit_protocol(self):
        p_inn = FiniteDist((0, 1), (F(1, 10), F(9, 10)))
        p0 = FiniteDist((0, 1), (F(1, 2), F(1, 2)))
        return ProtocolTree(leaf_node(1, p_inn, {0: p0, 1: p0}))

    def test_rare_bit_doubling(self, coin_scenario):
        pi = self.rare_bit_protocol()
        out = binarize(pi, coin_scenario)
        assert out.length_bound > 1
        assert equivalent(pi, out, coin_scenario)
        assert bit_probability_report(out) == []

    def test_doubling_round_cap(self, monkeypatch, coin_scenario):
        # 1/10 needs two doublings to reach 1/3: two digits, then the reveal
        pi = self.rare_bit_protocol()
        monkeypatch.setattr(protocols, "MAX_DOUBLING_ROUNDS", 2)
        assert binarize(pi, coin_scenario).length_bound == 3
        monkeypatch.setattr(protocols, "MAX_DOUBLING_ROUNDS", 1)
        with pytest.raises(BudgetExceededError) as err:
            binarize(pi, coin_scenario)
        assert str(err.value) == (
            "doubling scheme needs more than 1 rounds for innocent bit probability 1/10"
        )

    def test_rare_bit_on_other_side(self, coin_scenario):
        p_inn = FiniteDist((0, 1), (F(14, 15), F(1, 15)))
        p0 = FiniteDist((0, 1), (F(1, 2), F(1, 2)))
        pi = ProtocolTree(leaf_node(1, p_inn, {0: p0, 1: p0}))
        out = binarize(pi, coin_scenario)
        assert equivalent(pi, out, coin_scenario)
        assert bit_probability_report(out) == []

    def test_window_alphabets(self):
        ch = window_channel(F(2, 5), F(1, 2))  # a=2, d=3
        pi = window_protocol(ch, 1)
        sc = window_scenario(ch, 1)
        out = binarize(pi, sc)
        assert equivalent(pi, out, sc)
        assert bit_probability_report(out) == []

    def test_node_with_one_reachable_message_is_spliced_out(self, coin_scenario):
        u = FiniteDist.uniform((0, 1))
        point = FiniteDist((0, 1), (F(1), F(0)))
        inner = leaf_node(1, u, {0: FiniteDist((0, 1), (F(1, 3), F(2, 3))), 1: u})
        pi = ProtocolTree(ProtocolNode(2, (0, 1), point, {0: point, 1: point}, {0: inner, 1: None}))
        out = binarize(pi, coin_scenario)
        assert out.root == inner
        assert out.length_bound == 1
        assert equivalent(pi, out, coin_scenario)

    def test_report_names_each_out_of_range_node_by_its_path(self):
        u = FiniteDist.uniform((0, 1))
        skewed = FiniteDist((0, 1), (F(1, 4), F(3, 4)))
        low = leaf_node(1, skewed, {0: skewed, 1: u})
        fine = leaf_node(1, u, {0: u, 1: u})
        mid = ProtocolNode(2, (0, 1), u, {0: u, 1: u}, {0: fine, 1: low})
        root = ProtocolNode(1, (0, 1), skewed, {0: u, 1: u}, {0: mid, 1: low})
        assert bit_probability_report(ProtocolTree(root)) == [
            ((), F(1, 4)),
            ((0, 1), F(1, 4)),
            ((1,), F(1, 4)),
        ]

    def test_random_protocols(self, coin_scenario):
        rng = random.Random(500)
        for _ in range(60):
            sc = random_scenario(rng, n_players=2)
            pi = random_protocol(rng, sc, max_depth=2)
            out = binarize(pi, sc)
            assert equivalent(pi, out, sc)
            assert bit_probability_report(out) == []


class TestStopAtC:
    def make_jump_node(self):
        # posterior 1/2 -> {4/5 on bit 1, 1/5 on bit 0}
        x = FiniteDist.point_mass(("s",), "s")
        sc = LeakScenario.independent(x, 1, F(1, 2))
        p_inn = FiniteDist((0, 1), (F(4, 5), F(1, 5)))
        p_leak = FiniteDist((0, 1), (F(1, 5), F(4, 5)))
        pi = ProtocolTree(leaf_node(1, p_inn, {"s": p_leak}))
        return pi, sc

    def test_unchanged_when_never_exceeding(self):
        pi, sc = self.make_jump_node()
        out = stop_at_c(pi, sc, F(9, 10))
        assert out.root == pi.root

    def test_hand_computed_gadget(self):
        pi, sc = self.make_jump_node()
        out = stop_at_c(pi, sc, F(3, 5))
        pv = posteriors(out, sc, (1,))
        assert pv.leak_probs[0] == F(3, 5)  # lands exactly on c
        assert equivalent(pi, out, sc)
        assert stop_at_c_postcondition(out, sc, F(3, 5))

    def test_gadget_cap(self, monkeypatch):
        # the jump needs exactly one gadget
        pi, sc = self.make_jump_node()
        monkeypatch.setattr(protocols, "MAX_GADGETS", 1)
        assert stop_at_c_postcondition(stop_at_c(pi, sc, F(3, 5)), sc, F(3, 5))
        monkeypatch.setattr(protocols, "MAX_GADGETS", 0)
        with pytest.raises(BudgetExceededError) as err:
            stop_at_c(pi, sc, F(3, 5))
        assert str(err.value) == "stop_at_c exceeded 0 gadget insertions"

    def test_prior_above_c_rejected(self):
        pi, sc = self.make_jump_node()
        with pytest.raises(ValueError):
            stop_at_c(pi, sc, F(1, 4))

    def test_requires_binary(self, coin_scenario):
        tri = FiniteDist.uniform(("a", "b", "c"))
        pi = ProtocolTree(leaf_node(1, tri, {0: tri, 1: tri}))
        with pytest.raises(ValueError):
            stop_at_c(pi, coin_scenario, F(3, 4))

    def test_random_small_protocols(self):
        rng = random.Random(808)
        cs = [F(3, 5), F(2, 3), F(3, 4), F(4, 5)]
        done = 0
        while done < 50:
            sc = random_scenario(rng, n_players=2)
            pi = binarize(random_protocol(rng, sc, max_depth=2), sc)
            c = cs[done % len(cs)]
            try:
                out = stop_at_c(pi, sc, c)
            except ValueError:
                continue  # prior above c; draw again
            done += 1
            assert equivalent(pi, out, sc)
            assert stop_at_c_postcondition(out, sc, c)

    def test_postcondition_refuses_a_crossing_that_never_lands(self):
        """The n=1 window protocol's in-window posterior, 2/3, crosses the
        cap 3/5 without any prefix landing on it."""
        ch = window_channel(F(1, 2), F(2, 3))
        pi, sc = window_protocol(ch, 1), window_scenario(ch, 1)
        assert safety_report(pi, sc, 1).max_posterior == F(2, 3)
        assert not stop_at_c_postcondition(pi, sc, F(3, 5))
        assert stop_at_c_postcondition(stop_at_c(binarize(pi, sc), sc, F(3, 5)), sc, F(3, 5))

    def test_out_of_order_problem_is_an_arithmetic_error(self):
        """A problem naming the message that lowers the posterior has
        c_star = 1/5 < c < c_low = 4/5, so q = 1/3 lies below
        p = Pr(m_star | X=s) = 1/2: the gadget refuses it with the values,
        also under ``python -O``."""
        pi, sc = self.make_jump_node()
        children = protocols._children(pi.root, sc.weights)
        below = {m: (w, protocols._Tally(w)) for m, w in children.items()}
        tally = protocols._Tally(sc.weights)
        with pytest.raises(ArithmeticError, match=r"0 < p < q < 1, got p = 5/10 and q = 25/75"):
            protocols._insert_gadget(pi.root, tally, (1, "s", 0), below, F(3, 5))


class TestPretendIgnorance:
    def test_already_safe_unchanged_behavior(self, coin_scenario):
        u = FiniteDist.uniform((0, 1))
        p1 = FiniteDist((0, 1), (F(2, 5), F(3, 5)))
        pi = ProtocolTree(leaf_node(1, u, {0: u, 1: p1}))
        assert safety_report(pi, coin_scenario, F(2, 3)).ok
        out = pretend_ignorance(pi, coin_scenario, F(2, 3))
        assert out.root == pi.root
        assert equivalent(pi, out, coin_scenario)

    def test_announcer_muted_at_root(self):
        # one leaker announcing a 3-valued secret: posterior would hit 3/5 > 1/2
        xs = ("a", "b", "c")
        sc = LeakScenario.independent(FiniteDist.uniform(xs), 1, F(1, 3))
        u = FiniteDist.uniform(xs)
        pi = ProtocolTree(
            leaf_node(1, u, {v: FiniteDist.point_mass(xs, v) for v in xs})
        )
        assert not safety_report(pi, sc, F(1, 2)).ok
        out = pretend_ignorance(pi, sc, F(1, 2))
        joint = enumerate_joint(out, sc)
        assert abs(mutual_information(joint, "X", "T")) < 1e-9
        assert safety_report(out, sc, F(1, 2)).ok
        mass = pretend_ignorance_trigger_mass(pi, sc, F(1, 2))
        assert all(m == 1 for m in mass.values())

    def test_boundary_does_not_trigger(self):
        # posterior lands exactly on c' = 2/3: no switch, protocol unchanged
        ch = window_channel(F(1, 2), F(2, 3))
        pi = window_protocol(ch, 1)
        sc = window_scenario(ch, 1)
        out = pretend_ignorance(pi, sc, F(2, 3))
        assert out.root == pi.root

    def test_window_instance_made_safe(self):
        # cap below the window posterior 2/3: everything mutes, decode dies
        ch = window_channel(F(1, 2), F(2, 3))
        pi = window_protocol(ch, 2)
        sc = window_scenario(ch, 2)
        out = pretend_ignorance(pi, sc, F(3, 5))
        rep = safety_report(out, sc, F(3, 5), include_prefixes=True)
        assert rep.ok
        mass = pretend_ignorance_trigger_mass(pi, sc, F(3, 5))
        assert all(m == 1 for m in mass.values())

    def test_random_protocols_safe(self):
        rng = random.Random(909)
        done = 0
        while done < 50:
            sc = random_scenario(rng, n_players=2)
            pi = random_protocol(rng, sc, max_depth=2)
            c = [F(3, 5), F(2, 3), F(3, 4)][done % 3]
            try:
                out = pretend_ignorance(pi, sc, c)
            except ValueError:
                continue
            done += 1
            assert safety_report(out, sc, c, include_prefixes=True).ok

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=2, max_value=3),
        st.integers(min_value=1, max_value=9),
    )
    def test_unchanged_exactly_when_nothing_fires(self, seed, n_players, n_x, step):
        """The safe tree equals its input exactly when every trigger mass is
        0: a switch that fires where x has mass moves a leak law that differs
        from the innocent one, and one where x has no mass cannot fire."""
        rng = random.Random(seed)
        sc = random_scenario(rng, n_players=n_players, n_x=n_x)
        pi = random_protocol(rng, sc, max_depth=3)
        top = max(max(p) for p in posteriors(pi, sc, ()).leak_probs_given_x.values())
        if top == 1:
            return  # no cap in (0, 1) lies above this prior
        c_prime = top + (1 - top) * F(step, 10)
        mass = pretend_ignorance_trigger_mass(pi, sc, c_prime)
        out = pretend_ignorance(pi, sc, c_prime)
        assert (out == pi) == all(m == 0 for m in mass.values())

    def test_trigger_mass_bounds_decode_failure_gap(self):
        # risky window-style instance: the safe variant changes the law of
        # the transcript given x by at most the trigger mass, so any
        # decoder's failure probability grows by at most that much
        ch = window_channel(F(1, 2), F(2, 3))
        pi = window_protocol(ch, 2)
        sc = window_scenario(ch, 2)
        c_prime = F(3, 5)
        out = pretend_ignorance(pi, sc, c_prime)
        mass = pretend_ignorance_trigger_mass(pi, sc, c_prime)
        before = enumerate_joint(pi, sc)
        after = enumerate_joint(out, sc)
        mi_drop = mutual_information(before, "X", "T") - mutual_information(after, "X", "T")
        assert mi_drop >= -1e-9
        assert all(0 <= m <= 1 for m in mass.values())
        for x in sc.x_support:
            t_before = before.condition({"X": x}).marginal_dist("T")
            t_after = after.condition({"X": x}).marginal_dist("T")
            lookup = dict(t_after.items())
            tv = (
                sum(
                    abs(p - lookup.get(t, F(0)))
                    for t, p in t_before.items()
                )
                + sum(p for t, p in t_after.items() if t not in dict(t_before.items()))
            ) / 2
            assert tv <= mass[x]


class TestEquivalentProtocolsSameGameValue:
    def test_binarize_preserves_game_value(self, coin_scenario):
        rng = random.Random(66)
        for _ in range(10):
            pi = random_protocol(rng, coin_scenario, max_depth=2)
            out = binarize(pi, coin_scenario)
            assert (
                succ_of_protocol(pi, coin_scenario).succ
                == succ_of_protocol(out, coin_scenario).succ
            )

    def test_stop_at_c_preserves_game_value(self, coin_scenario):
        rng = random.Random(67)
        done = 0
        while done < 10:
            pi = binarize(random_protocol(rng, coin_scenario, max_depth=2), coin_scenario)
            try:
                out = stop_at_c(pi, coin_scenario, F(3, 4))
            except ValueError:
                continue
            done += 1
            assert (
                succ_of_protocol(pi, coin_scenario).succ
                == succ_of_protocol(out, coin_scenario).succ
            )


def distinct_nodes(tree):
    seen = {}
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node is not None and id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.children.values())
    return len(seen)


def test_stop_at_c_sharing_repeats():
    # the memo must key on nodes it keeps alive: a memo entry for a freed
    # gadget node whose id is reused would share a subtree that a fresh
    # call builds anew, so the output's node objects would vary by call
    rng = random.Random(8)
    sc = random_scenario(rng, n_players=2)
    pi = binarize(random_protocol(rng, sc, max_depth=4, stop_prob=0.2), sc)
    first = stop_at_c(pi, sc, F(3, 5))
    # free some node-sized blocks and keep others, so that the second call
    # allocates its gadget nodes at other addresses than the first
    kept = [binarize(pi, sc) for _ in range(5)][::2]
    second = stop_at_c(pi, sc, F(3, 5))
    assert len(kept) == 3 and equivalent(first, second, sc)
    assert distinct_nodes(first) == distinct_nodes(second) == 57


def assert_seeded_int_laws(tree):
    """Every node of a transformation's output was built with its int laws,
    and they are exactly those the node would derive from its laws."""
    for _path, node in protocols._nodes(tree.root):
        assert "int_laws" in vars(node)
        seeded = vars(node)["int_laws"]
        assert seeded == ProtocolNode.int_laws.func(node)
        assert list(seeded[2]) == list(node.p_leak)


@pytest.mark.parametrize("alphabet", [(0, 1), ("a", "b", "c")])
def test_transformed_nodes_carry_their_int_laws(alphabet):
    rng = random.Random(1729)
    caps = [F(3, 5), F(2, 3), F(3, 4), F(4, 5)]
    gadgets = rescaled = 0
    for k in range(40):
        sc = random_scenario(rng, n_players=1 + k % 3, n_x=2 + k % 2)
        pi = random_protocol(rng, sc, max_depth=3, alphabet=alphabet)
        binary = binarize(pi, sc)
        assert_seeded_int_laws(binary)
        c = caps[k % len(caps)]
        try:
            stopped = stop_at_c(binary, sc, c)
            muted = pretend_ignorance(pi, sc, c)
        except ValueError:
            continue  # prior above c
        assert_seeded_int_laws(stopped)
        assert_seeded_int_laws(muted)
        gadgets += len(list(protocols._nodes(stopped.root))) > len(list(protocols._nodes(binary.root)))
        # a muted secret's own law can be the only one with some denominator
        rescaled += any(
            out.int_laws[0] < node.int_laws[0]
            for (_p, out), (_q, node) in zip(protocols._nodes(muted.root), protocols._nodes(pi.root))
        )
    # both the gadgets and the lowered scales were exercised
    assert gadgets and rescaled


# Fraction reference: the gadget and doubling-chain formulas on Fractions,
# building plain nodes whose int laws derive on first read


def ref_bit_node(speaker, p_one, leak_one, child0, child1):
    def law(p):
        return FiniteDist((0, 1), (1 - p, p))

    p_leak = {x: law(p) for x, p in leak_one.items()}
    return ProtocolNode(speaker, (0, 1), law(p_one), p_leak, {0: child0, 1: child1})


def ref_insert_gadget(node, tally, problem, below, c):
    i, x, m_star = problem
    m_low = next(m for m in node.alphabet if m != m_star)
    star_tally = below[m_star][1]
    c_star = star_tally.posterior(i, x)
    c_low = below[m_low][1].posterior(i, x)
    # the children's weights carry the node's law scale on top of the tally's
    p_star = F(star_tally.x_mass[x], tally.x_mass[x] * node.int_laws[0])
    q = (c - c_low) / (c_star - c_low)
    assert 0 < p_star < q < 1
    fwd = p_star * (1 - q) / (q * (1 - p_star))
    assert 0 < fwd < 1

    def two_step(dist):
        hi, lo = dist.prob(m_star), dist.prob(m_low)
        go = hi + lo * fwd
        return go, hi / go

    go_inn, inner_inn = two_step(node.p_innocent)
    steps = {xx: two_step(dist) for xx, dist in node.p_leak.items()}
    low, star = node.children[m_low], node.children[m_star]
    inner = ref_bit_node(node.speaker, inner_inn, {xx: s[1] for xx, s in steps.items()}, low, star)
    return ref_bit_node(node.speaker, go_inn, {xx: s[0] for xx, s in steps.items()}, low, inner)


def ref_doubling_chain(bit_node, rare):
    common = 1 - rare
    p_r = bit_node.p_innocent.prob(rare)
    leak_rare_bit = {x: law.prob(rare) for x, law in bit_node.p_leak.items()}

    def reach(pr, t):  # Pr(only zero digits while the number may lie below t)
        return pr + (1 - pr) * (t - p_r) / (1 - p_r)

    def one(p):  # the probability of sending 1, from that of the rare bit
        return p if rare else 1 - p

    levels = 0
    while p_r * 2**levels < F(1, 3):
        levels += 1
        if levels > protocols.MAX_DOUBLING_ROUNDS:
            raise BudgetExceededError("doubling scheme needs more than %d rounds" % levels)
    inn_rare = p_r * 2**levels
    reveal = {x: one(pr / reach(pr, F(1, 2**levels))) for x, pr in leak_rare_bit.items()}
    node = ref_bit_node(bit_node.speaker, one(inn_rare), reveal, *(bit_node.children[m] for m in (0, 1)))
    for j in range(levels - 1, -1, -1):
        two_j = F(1, 2**j)
        leak_one = {}
        for x, pr in leak_rare_bit.items():
            said_one = (1 - pr) * (two_j / 2) / (1 - p_r)
            leak_one[x] = said_one / reach(pr, two_j)
        node = ref_bit_node(bit_node.speaker, F(1, 2), leak_one, node, bit_node.children[common])
    return node


def reference_steps(monkeypatch, transform, *args):
    """``transform(*args)`` with the gadget and the doubling chain on the
    Fraction reference."""
    with monkeypatch.context() as patch:
        patch.setattr(protocols, "_insert_gadget", ref_insert_gadget)
        patch.setattr(protocols, "_doubling_chain", ref_doubling_chain)
        return transform(*args)


def assert_same_nodes(got, want):
    """Node by node: the same speakers, alphabets and laws (leak laws in the
    same order), and ``got``'s seeded int laws exactly those that ``want``'s
    laws derive."""
    for (path, node), (want_path, ref) in zip(
        protocols._nodes(got.root), protocols._nodes(want.root), strict=True
    ):
        assert path == want_path
        assert (node.speaker, node.alphabet, node.p_innocent) == (ref.speaker, ref.alphabet, ref.p_innocent)
        assert list(node.p_leak.items()) == list(ref.p_leak.items())
        assert vars(node)["int_laws"] == ProtocolNode.int_laws.func(ref)


@pytest.mark.parametrize("alphabet", [(0, 1), ("a", "b", "c")])
def test_int_steps_match_fraction_reference(monkeypatch, alphabet):
    rng = random.Random(4242)
    caps = [F(3, 5), F(2, 3), F(3, 4), F(4, 5)]
    gadgets = chains = 0
    for k in range(40):
        sc = random_scenario(rng, n_players=1 + k % 3, n_x=2 + k % 2)
        pi = random_protocol(rng, sc, max_depth=3, alphabet=alphabet)
        binary = binarize(pi, sc)
        assert_same_nodes(binary, reference_steps(monkeypatch, binarize, pi, sc))
        # a Huffman bit tree is at most len(alphabet) - 1 bits deep, so a
        # deeper output holds a doubling chain
        chains += binary.length_bound > pi.length_bound * (len(alphabet) - 1)
        c = caps[k % len(caps)]
        try:
            stopped = stop_at_c(binary, sc, c)
        except ValueError:
            continue  # prior above c
        assert_same_nodes(stopped, reference_steps(monkeypatch, stop_at_c, binary, sc, c))
        gadgets += len(list(protocols._nodes(stopped.root))) > len(list(protocols._nodes(binary.root)))
    assert gadgets and chains


def test_hand_computed_gadget_matches_fraction_reference(monkeypatch):
    pi, sc = TestStopAtC().make_jump_node()
    out = stop_at_c(pi, sc, F(3, 5))
    assert_same_nodes(out, reference_steps(monkeypatch, stop_at_c, pi, sc, F(3, 5)))
    # posterior 1/2 -> 4/5 after bit 1: q = 2/3, p = 1/2, fwd = 1/2; the
    # outer bit goes on with 3/5 innocently and 9/10 when leaking
    assert out.root.p_innocent.prob(1) == F(3, 5)
    assert out.root.p_leak["s"].prob(1) == F(9, 10)


@pytest.mark.parametrize(
    "p_one, levels",
    [
        (F(1, 10), 2),
        (F(14, 15), 3),
        (F(1, 7), 2),
        (F(1, 3 * 2**10), 10),
        (F(3 * 2**64 - 1, 3 * 2**64), 64),
    ],
)
def test_rare_bits_match_fraction_reference(monkeypatch, p_one, levels):
    # every doubling depth down to MAX_DOUBLING_ROUNDS, on either side,
    # with leak laws at both ends, at the innocent law and in between
    sc = LeakScenario.fixed(FiniteDist.uniform(range(5)), 1, 2)
    leaks = [F(0), F(1), p_one, F(1, 2), 1 - p_one]
    law = {p: FiniteDist((0, 1), (1 - p, p)) for p in [p_one] + leaks}
    pi = ProtocolTree(leaf_node(2, law[p_one], {x: law[p] for x, p in enumerate(leaks)}))
    out = binarize(pi, sc)
    assert out.length_bound == levels + 1 <= protocols.MAX_DOUBLING_ROUNDS + 1
    assert_same_nodes(out, reference_steps(monkeypatch, binarize, pi, sc))
    assert equivalent(pi, out, sc)


def transform_golden_batch():
    """Canonical JSON of stop_at_c and pretend_ignorance outputs and the
    trigger masses on a fixed batch of small random protocols."""
    rng = random.Random(2024)
    caps = [F(3, 5), F(2, 3), F(3, 4), F(4, 5)]
    records = []
    for k in range(20):
        sc = random_scenario(rng, n_players=2 + k % 2)
        pi = binarize(random_protocol(rng, sc, max_depth=3), sc)
        c = caps[k % len(caps)]
        record = {}
        for name, transform in (("stop_at_c", stop_at_c), ("pretend_ignorance", pretend_ignorance)):
            try:
                record[name] = transform(pi, sc, c).to_jsonable()
            except ValueError:
                record[name] = "prior above cap"
        mass = pretend_ignorance_trigger_mass(pi, sc, c)
        record["trigger_mass"] = [[x, fraction_to_jsonable(m)] for x, m in mass.items()]
        records.append(record)
    return json.dumps(records, sort_keys=True)


def test_transform_golden_digest():
    # recorded before the posterior tallies were folded into one helper
    digest = hashlib.sha256(transform_golden_batch().encode()).hexdigest()
    assert digest == "ba62f42f861428a260f95249547fb09c9875225a04272e6dcbc2cb68cebd84ce"
