import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cryptogenography.embedding import (
    UNIT,
    AuditReport,
    InnocentChannel,
    Interval,
    InterpreterState,
    compose_run,
    embed_leaker_step,
    equivalence_audit,
    f_partition,
    g_partition,
    informativeness_estimate,
    interpret_step,
)
from cryptogenography import protocols
from cryptogenography.probability import FiniteDist
from cryptogenography.protocols import (
    BudgetExceededError,
    LeakScenario,
    ProtocolNode,
    ProtocolTree,
    enumerate_joint,
)

from genutil import random_protocol, random_scenario

F = Fraction


def leaf_node(speaker, p_innocent, p_leak):
    alphabet = p_innocent.support
    return ProtocolNode(speaker, alphabet, p_innocent, p_leak, {m: None for m in alphabet})


def figure_instance():
    """One speaker; protocol alphabet {a1, a2} with innocent law (0.4, 0.6);
    chatter alphabet {m1, m2} with law (0.6, 0.4)."""
    sc = LeakScenario.independent(FiniteDist.uniform((0, 1)), 1, F(1, 2))
    p_inn = FiniteDist(("a1", "a2"), (F(2, 5), F(3, 5)))
    p0 = FiniteDist(("a1", "a2"), (F(1), F(0)))
    p1 = FiniteDist(("a1", "a2"), (F(1, 5), F(4, 5)))
    pi = ProtocolTree(leaf_node(1, p_inn, {0: p0, 1: p1}))
    law = FiniteDist(("m1", "m2"), (F(3, 5), F(2, 5)))
    channel = InnocentChannel(1, ({1: law},), True)
    return pi, channel, sc, law


# Fraction reference: intervals as (lo, hi) pairs of Fractions


def ref_length(iv):
    return iv[1] - iv[0]


def ref_intersect(a, b):
    lo, hi = max(a[0], b[0]), min(a[1], b[1])
    return (lo, hi) if lo < hi else None


def ref_contains(a, b):
    return a[0] <= b[0] and b[1] <= a[1]


def ref_partition(iv, law):
    cells = {}
    acc = F(0)
    for label, p in law.items():
        if p:
            cells[label] = (iv[0] + acc * ref_length(iv), iv[0] + (acc + p) * ref_length(iv))
            acc += p
    return cells


def same_interval(got, ref):
    """``got`` is the Interval of the reference pair, with its hash."""
    want = Interval(*ref)
    return got == want and hash(got) == hash(want) and (got.lo, got.hi) == ref


@st.composite
def ref_intervals(draw):
    den = draw(st.integers(min_value=1, max_value=36))
    lo = draw(st.integers(min_value=0, max_value=den - 1))
    hi = draw(st.integers(min_value=lo + 1, max_value=den))
    return F(lo, den), F(hi, den)


@st.composite
def chatter_laws(draw, sizes=(2, 3, 4), non_dyadic=False):
    size = draw(st.sampled_from(sizes))
    weights = draw(st.lists(st.integers(0, 7), min_size=size, max_size=size))
    assume(sum(weights) > 0)
    labels = tuple("m%d" % k for k in range(size))
    law = FiniteDist(labels, tuple(F(w, sum(weights)) for w in weights))
    if non_dyadic:
        assume(any(p.denominator & (p.denominator - 1) for p in law.probs))
    return law


class TestInterval:
    def test_validation(self):
        with pytest.raises(ValueError):
            Interval(F(1, 2), F(1, 2))
        with pytest.raises(ValueError):
            Interval(F(-1, 2), F(1, 2))

    @pytest.mark.parametrize("lo, hi", [(0.1, F(1, 2)), (0, 0.5), (0.25, 0.75), (0.0, 1)])
    def test_rejects_floats(self, lo, hi):
        # Fraction(0.1) would silently widen the end to 2^-55 precision
        with pytest.raises(TypeError, match="got float"):
            Interval(lo, hi)

    def test_exact_ends_stay_valid(self):
        assert Interval(0, "1/3") == Interval(F(0), F(1, 3))
        assert Interval("1/4", 1).length == F(3, 4)

    def test_intersect(self):
        a = Interval(F(0), F(1, 2))
        b = Interval(F(1, 4), F(3, 4))
        assert a.intersect(b) == Interval(F(1, 4), F(1, 2))
        assert a.intersect(Interval(F(1, 2), F(1))) is None

    def test_contains(self):
        assert UNIT.contains(Interval(F(1, 3), F(2, 3)))
        assert not Interval(F(0), F(1, 2)).contains(UNIT)

    def test_equal_values_are_one_interval(self):
        a = Interval(F(1, 2), 1)
        b = Interval(F(2, 4), F(4, 4))
        assert a == b and hash(a) == hash(b)
        # a cell reached through int arithmetic over a larger denominator
        law = FiniteDist(("x", "y", "z"), (F(1, 4), F(1, 4), F(1, 2)))
        cell = g_partition(UNIT, law)["z"]
        assert cell == a and hash(cell) == hash(a)
        assert {a: 1}[cell] == 1
        assert (a.lo, a.hi, a.length) == (F(1, 2), F(1), F(1, 2))

    @settings(max_examples=300, deadline=None)
    @given(ref_intervals(), ref_intervals(), chatter_laws())
    def test_matches_fraction_reference(self, a, b, law):
        ia, ib = Interval(*a), Interval(*b)
        assert same_interval(ia, a) and ia.length == ref_length(a)
        assert (ia == ib) == (a == b)
        if a == b:
            assert hash(ia) == hash(ib)
        assert ia.contains(ib) == ref_contains(a, b)
        want = ref_intersect(a, b)
        got = ia.intersect(ib)
        assert got is None if want is None else same_interval(got, want)
        cells = g_partition(ia, law)
        ref = ref_partition(a, law)
        assert list(cells) == list(ref)
        for label, cell in cells.items():
            assert same_interval(cell, ref[label])
        # the cells tile the interval exactly
        ordered = list(cells.values())
        assert ordered[0].lo == a[0] and ordered[-1].hi == a[1]
        assert all(u.hi == v.lo for u, v in zip(ordered, ordered[1:]))
        assert sum(c.length for c in ordered) == ia.length


class TestPartitions:
    def test_figure_f(self):
        law = FiniteDist(("a1", "a2"), (F(2, 5), F(3, 5)))
        cells = f_partition(law)
        assert cells["a1"] == Interval(F(0), F(2, 5))
        assert cells["a2"] == Interval(F(2, 5), F(1))

    def test_uniform_quarters(self):
        cells = f_partition(FiniteDist.uniform(("a", "b", "c", "d")))
        assert cells["c"] == Interval(F(1, 2), F(3, 4))

    def test_point_mass_single_cell(self):
        cells = f_partition(FiniteDist.point_mass(("a", "b"), "a"))
        assert cells == {"a": UNIT}

    def test_figure_g_unit(self):
        law = FiniteDist(("m1", "m2"), (F(3, 5), F(2, 5)))
        cells = g_partition(UNIT, law)
        assert cells["m1"] == Interval(F(0), F(3, 5))

    def test_figure_g_nested(self):
        law = FiniteDist(("m1", "m2"), (F(3, 5), F(2, 5)))
        cells = g_partition(Interval(F(0), F(3, 5)), law)
        assert cells["m1"] == Interval(F(0), F(9, 25))

    def test_degenerate_alphabet_keeps_interval(self):
        law = FiniteDist.point_mass(("-",), "-")
        iv = Interval(F(1, 8), F(5, 8))
        assert g_partition(iv, law) == {"-": iv}

    def test_partitions_tile_exactly(self):
        rng = random.Random(6)
        for _ in range(100):
            n = rng.randrange(2, 5)
            weights = [rng.randrange(0, 5) for _ in range(n)]
            if sum(weights) == 0:
                continue
            law = FiniteDist(
                tuple(range(n)), tuple(F(w, sum(weights)) for w in weights)
            )
            base = Interval(F(1, 7), F(6, 7))
            cells = list(g_partition(base, law).values())
            assert sum(c.length for c in cells) == base.length
            cells.sort(key=lambda c: c.lo)
            assert cells[0].lo == base.lo and cells[-1].hi == base.hi
            for u, v in zip(cells, cells[1:]):
                assert u.hi == v.lo


class TestInterpretStep:
    def test_figure_walkthrough(self):
        _, _, _, law = figure_instance()
        f_cells = f_partition(FiniteDist(("a1", "a2"), (F(2, 5), F(3, 5))))
        st = InterpreterState(speaker=1)
        st = interpret_step(st, "m1", law, f_cells)
        assert st.pi_transcript == () and st.interval == Interval(F(0), F(3, 5))
        st = interpret_step(st, "m1", law, f_cells)
        assert st.pi_transcript == ("a1",) and st.interval == UNIT

    def test_exact_cell_match_emits(self):
        # g-cell equal to an f-cell counts as contained
        p_pi = FiniteDist(("a", "b"), (F(3, 5), F(2, 5)))
        law = FiniteDist(("m1", "m2"), (F(3, 5), F(2, 5)))
        st = interpret_step(InterpreterState(speaker=1), "m1", law, f_partition(p_pi))
        assert st.pi_transcript == ("a",)

    def test_frozen_state(self):
        _, _, _, law = figure_instance()
        st = InterpreterState(pi_transcript=("a1",), finished=True)
        assert interpret_step(st, "m1", law, {}) is st

    def test_never_emits_zero_innocent_message(self):
        # non-revealing precondition: f-cells only exist for innocent-possible
        # messages, so decoding can only ever name those
        p_pi = FiniteDist(("a", "b"), (F(1), F(0)))
        cells = f_partition(p_pi)
        assert "b" not in cells

    def test_unknown_chatter_message_rejected(self):
        _, _, _, law = figure_instance()
        with pytest.raises(ValueError):
            interpret_step(InterpreterState(speaker=1), "nope", law, {})


class TestLeakerStep:
    def test_figure_probabilities(self):
        _, _, _, law = figure_instance()
        alpha = Interval(F(0), F(2, 5))  # committed to a1
        g = g_partition(UNIT, law)
        # round 1: g(m1) = [0, 3/5) covers alpha entirely
        overlap = g["m1"].intersect(alpha)
        assert overlap.length / alpha.length == 1
        rng = random.Random(0)
        m, alpha = embed_leaker_step(rng, alpha, g)
        assert m == "m1" and alpha == Interval(F(0), F(2, 5))
        # round 2 on the shrunk interval
        g2 = g_partition(Interval(F(0), F(3, 5)), law)
        assert g2["m1"].intersect(alpha).length / alpha.length == F(9, 10)

    def test_matching_laws_reduce_to_innocent_chatter(self):
        # when the leaker's protocol law equals the innocent one, the lazy
        # alpha induces exactly the chatter law, message for message
        p_pi = FiniteDist(("a", "b"), (F(2, 5), F(3, 5)))
        law = FiniteDist(("m1", "m2", "m3"), (F(1, 6), F(1, 2), F(1, 3)))
        f_cells = f_partition(p_pi)
        g = g_partition(UNIT, law)
        for m in law.support:
            total = F(0)
            for a, pa in p_pi.items():
                alpha = f_cells[a]
                overlap = g[m].intersect(alpha)
                if overlap is not None:
                    total += pa * overlap.length / alpha.length
            assert total == law.prob(m)


class TestInformativeness:
    def test_uniform_binary_decays_dyadically(self):
        ch = InnocentChannel.iid_uniform(1, (0, 1))
        assert informativeness_estimate(ch, 1, horizon=10) == F(1, 2**10)

    def test_silent_player_not_informative(self):
        law = FiniteDist.point_mass(("x",), "x")
        ch = InnocentChannel(1, ({1: law},), True)
        assert informativeness_estimate(ch, 1, horizon=8) == 1

    def test_mixed_channel_geometric_decay(self):
        law = FiniteDist((0, 1), (F(9, 10), F(1, 10)))
        ch = InnocentChannel(1, ({1: law},), True)
        assert informativeness_estimate(ch, 1, horizon=12) == F(9, 10) ** 12


class TestComposeRun:
    def test_empty_protocol_decodes_immediately(self):
        _, channel, sc, _ = figure_instance()
        run = compose_run(ProtocolTree(None), channel, sc, seed=5, max_rounds=10)
        assert run.decoded == ()
        assert run.rounds_used == 0

    def test_seed_replay(self):
        pi, channel, sc, _ = figure_instance()
        a = compose_run(pi, channel, sc, seed=9, max_rounds=300)
        b = compose_run(pi, channel, sc, seed=9, max_rounds=300)
        assert a == b

    @pytest.mark.parametrize("max_rounds", [-1, -2])
    def test_negative_max_rounds_rejected(self, max_rounds):
        pi, channel, sc, _ = figure_instance()
        with pytest.raises(ValueError, match="max_rounds must be >= 0"):
            compose_run(pi, channel, sc, seed=1, max_rounds=max_rounds)

    def test_revealing_protocol_rejected(self):
        sc = LeakScenario.independent(FiniteDist.uniform((0, 1)), 1, F(1, 2))
        p_inn = FiniteDist(("a", "b"), (F(1), F(0)))
        p_leak = FiniteDist(("a", "b"), (F(0), F(1)))
        pi = ProtocolTree(leaf_node(1, p_inn, {0: p_leak, 1: p_leak}))
        channel = InnocentChannel.iid_uniform(1, (0, 1))
        with pytest.raises(ValueError):
            compose_run(pi, channel, sc, seed=0, max_rounds=10)

    def test_runs_decode_with_enough_rounds(self):
        pi, channel, sc, _ = figure_instance()
        decoded = 0
        for seed in range(200):
            run = compose_run(pi, channel, sc, seed=seed, max_rounds=400)
            if run.decoded is not None:
                decoded += 1
                assert run.decoded[0] in ("a1", "a2")
        assert decoded == 200  # horizon 400 leaves ~0.6^400 undecoded mass

    def test_empirical_matches_protocol_marginal(self):
        pi, channel, sc, _ = figure_instance()
        joint = enumerate_joint(pi, sc)
        want_a1 = float(joint.prob_event({"T": ("a1",)}))
        n = 3000
        got = sum(
            compose_run(pi, channel, sc, seed=s, max_rounds=500).decoded == ("a1",)
            for s in range(n)
        )
        import math

        sigma = math.sqrt(n * want_a1 * (1 - want_a1))
        assert abs(got - n * want_a1) < 4 * sigma


class TestEquivalenceAudit:
    def test_figure_instance_exact(self):
        pi, channel, sc, _ = figure_instance()
        rep = equivalence_audit(pi, channel, sc, depth_budget=80)
        assert rep.ok
        assert rep.conditional_mismatches == 0
        assert rep.mass_bounds_ok
        assert rep.decoded_mass >= F(999999, 1000000)
        assert rep.decoded_mass + rep.undecoded_mass == 1

    def test_empty_protocol_decodes_the_empty_transcript(self):
        sc = LeakScenario.independent(FiniteDist.uniform((0, 1)), 1, F(1, 2))
        channel = InnocentChannel.iid_uniform(1, ("m1", "m2"))
        rep = equivalence_audit(ProtocolTree(None), channel, sc, depth_budget=5)
        assert rep.ok
        assert (rep.decoded_mass, rep.undecoded_mass) == (1, 0)
        assert (rep.rounds_used, rep.terminal_paths) == (0, 1)
        assert rep.per_transcript_mass == {(): 1}

    def test_trivial_when_laws_match(self):
        # p_x = p_? everywhere: the composed process is exactly the chatter
        sc = LeakScenario.independent(FiniteDist.uniform((0, 1)), 1, F(1, 2))
        p_inn = FiniteDist(("a", "b"), (F(2, 5), F(3, 5)))
        pi = ProtocolTree(leaf_node(1, p_inn, {0: p_inn, 1: p_inn}))
        channel = InnocentChannel.iid_uniform(1, ("m1", "m2"))
        rep = equivalence_audit(pi, channel, sc, depth_budget=60)
        assert rep.ok

    def test_two_player_two_round_exact(self):
        sc = LeakScenario.fixed(FiniteDist.uniform((0, 1)), 1, 2)
        pqA = FiniteDist((0, 1), (F(1, 3), F(2, 3)))
        plA0 = FiniteDist((0, 1), (F(2, 3), F(1, 3)))
        plA1 = FiniteDist((0, 1), (F(1, 6), F(5, 6)))
        pqB = FiniteDist((0, 1), (F(1, 2), F(1, 2)))
        plB0 = FiniteDist((0, 1), (F(3, 4), F(1, 4)))
        plB1 = FiniteDist((0, 1), (F(1, 4), F(3, 4)))
        nodeB = ProtocolNode(2, (0, 1), pqB, {0: plB0, 1: plB1}, {0: None, 1: None})
        nodeA = ProtocolNode(1, (0, 1), pqA, {0: plA0, 1: plA1}, {0: nodeB, 1: nodeB})
        pi = ProtocolTree(nodeA)
        channel = InnocentChannel.iid_uniform(2, (0, 1))
        rep = equivalence_audit(pi, channel, sc, depth_budget=120)
        assert rep.ok and rep.conditional_mismatches == 0

    def test_budget_error_carries_partial_report(self):
        pi, channel, sc, _ = figure_instance()
        with pytest.raises(BudgetExceededError) as err:
            equivalence_audit(pi, channel, sc, depth_budget=3)
        assert err.value.report.decoded_mass < F(999999, 1000000)

    def test_reference_walk_keeps_the_state_budget(self, monkeypatch):
        pi, channel, sc, _ = figure_instance()
        monkeypatch.setattr(protocols, "DEFAULT_ENUMERATION_BUDGET", 5)
        with pytest.raises(BudgetExceededError, match="exceeded 5 outcome states") as err:
            equivalence_audit(pi, channel, sc, depth_budget=80)
        # the walk stops before the first round, so there is no partial report
        assert not hasattr(err.value, "report")

    @pytest.mark.parametrize("depth", [-1, -3])
    def test_negative_depth_rejected(self, depth):
        pi, channel, sc, _ = figure_instance()
        with pytest.raises(ValueError, match="depth_budget must be >= 0"):
            equivalence_audit(pi, channel, sc, depth_budget=depth)

    def test_biased_leaker_law_is_a_mismatch(self, monkeypatch):
        """The cross-multiplied check can say "different": a leaker who sends
        every chatter message that meets alpha with equal probability,
        rather than in proportion to the overlap, skews the conditional of
        (X, L) at some message boundary."""
        from cryptogenography import embedding

        exact_law = embedding._leaker_law

        def uniform_law(alpha, g_cells):
            law = exact_law(alpha, g_cells)
            return {m: (F(1, len(law)), overlap) for m, (_q, overlap) in law.items()}

        pi, channel, sc, _ = figure_instance()
        assert equivalence_audit(pi, channel, sc, depth_budget=80).ok
        monkeypatch.setattr(embedding, "_leaker_law", uniform_law)
        rep = equivalence_audit(pi, channel, sc, depth_budget=80)
        assert rep.conditional_mismatches > 0
        assert not rep.ok

    def test_leaker_missing_from_a_boundary_is_a_mismatch(self, monkeypatch):
        """A leaker who never sends the last chatter message that meets
        alpha never reaches the a2 boundary that m2 decides at once, though
        the protocol gives (x=1, leaking) positive mass after a2: the
        collapsed conditional there holds the innocent keys only. The lost
        leaker mass also leaves the decoded target out of reach."""
        from cryptogenography import embedding

        exact_law = embedding._leaker_law

        def dropping_law(alpha, g_cells):
            law = exact_law(alpha, g_cells)
            if len(law) > 1:
                law.pop(list(law)[-1])
            return law

        pi, channel, sc, _ = figure_instance()
        monkeypatch.setattr(embedding, "_leaker_law", dropping_law)
        with pytest.raises(BudgetExceededError) as exc:
            equivalence_audit(pi, channel, sc, depth_budget=40)
        rep = exc.value.report
        assert rep.conditional_mismatches > 0
        assert not rep.ok

    def test_key_only_the_chatter_reaches_is_a_mismatch(self, monkeypatch):
        """The key-set test: when the reference lacks an (x, lvec) that the
        chatter brings to a boundary, the audit counts a mismatch there
        rather than reading the reference at that key."""
        from cryptogenography import embedding

        walk = embedding.iter_prefixes

        def short_walk(tree, scenario, budget=None):
            for prefix, node, weights, scale in walk(tree, scenario, budget):
                if prefix == ("a2",):
                    weights = dict(weights)
                    del weights[next(k for k, w in weights.items() if w)]
                yield prefix, node, weights, scale

        pi, channel, sc, _ = figure_instance()
        monkeypatch.setattr(embedding, "iter_prefixes", short_walk)
        rep = equivalence_audit(pi, channel, sc, depth_budget=80)
        assert rep.conditional_mismatches > 0
        assert not rep.ok

    def test_commitment_at_another_boundary_is_an_arithmetic_error(self, monkeypatch):
        """A leaker committed to a1 whose chatter is read as emitting a2 is
        refused with the values, also under ``python -O``."""
        from cryptogenography import embedding

        emitted = embedding._emitted

        def swapped(f_cells, cell):
            message = emitted(f_cells, cell)
            return {"a1": "a2", "a2": "a1"}.get(message)

        pi, channel, sc, _ = figure_instance()
        monkeypatch.setattr(embedding, "_emitted", swapped)
        with pytest.raises(ArithmeticError, match="commitment 'a(1|2)' reached the boundary of 'a(2|1)'"):
            equivalence_audit(pi, channel, sc, depth_budget=40)

    def test_decoded_masses_never_exceed_protocol_masses(self):
        pi, channel, sc, _ = figure_instance()
        rep = equivalence_audit(pi, channel, sc, depth_budget=40)
        joint = enumerate_joint(pi, sc)
        for t, mass in rep.per_transcript_mass.items():
            assert mass <= joint.prob_event({"T": t})


def reference_audit(tree, channel, scenario, depth_budget):
    """The audit on Fraction intervals and Fraction masses, in the same
    state order as ``equivalence_audit``; returns its report unchecked
    against the decoded-mass target."""
    protocol = {}  # prefix -> (node, {(x, lvec): mass})

    def walk(node, prefix, masses):
        protocol[prefix] = (node, masses)
        if node is None:
            return
        for m in node.alphabet:
            law = {key: node.p_leak[key[0]] if key[1][node.speaker - 1] else node.p_innocent
                   for key in masses}
            nxt = {key: w * law[key].prob(m) for key, w in masses.items() if law[key].prob(m)}
            if nxt:
                walk(node.children[m], prefix + (m,), nxt)

    walk(tree.root, (), dict(scenario.outcomes()))

    def fresh(node, masses):
        entries = {}
        for (x, lvec), w in masses.items():
            if lvec[node.speaker - 1]:
                for a, q in node.p_leak[x].items():
                    if q:
                        entries[(x, lvec, a)] = w * q
            else:
                entries[(x, lvec, None)] = w
        return entries

    def add(states, key, entries):
        slot = states.setdefault(key, {})
        for k, w in entries.items():
            slot[k] = slot.get(k, F(0)) + w

    unit = (F(0), F(1))
    states = {((), unit): fresh(tree.root, protocol[()][1])}
    decoded, mismatches, terminal_paths, rounds_used = {}, 0, 0, 0
    for r in range(depth_budget):
        if not states:
            break
        rounds_used = r + 1
        new_states = {}
        for (prefix, iv), entries in states.items():
            node = protocol[prefix][0]
            f_cells = ref_partition(unit, node.p_innocent)
            law = channel.law(node.speaker, r)
            for message, cell in ref_partition(iv, law).items():
                moved = {}
                for key, w in entries.items():
                    if key[2] is None:
                        factor = law.prob(message)
                    else:
                        alpha = ref_intersect(f_cells[key[2]], iv)
                        overlap = ref_intersect(cell, alpha)
                        factor = ref_length(overlap) / ref_length(alpha) if overlap else 0
                    if factor:
                        moved[key] = w * factor
                if not moved:
                    continue
                emitted = next((a for a, f in f_cells.items() if ref_contains(f, cell)), None)
                if emitted is None:
                    add(new_states, (prefix, cell), moved)
                    continue
                terminal_paths += 1
                new_prefix = prefix + (emitted,)
                collapsed = {}
                for (x, lvec, _commit), w in moved.items():
                    collapsed[(x, lvec)] = collapsed.get((x, lvec), F(0)) + w
                total = sum(collapsed.values())
                child, ref = protocol[new_prefix]
                ref_total = sum(ref.values())
                keys = set(ref) | set(collapsed)
                if any(collapsed.get(k, 0) / total != ref.get(k, 0) / ref_total for k in keys):
                    mismatches += 1
                if child is None:
                    decoded[new_prefix] = decoded.get(new_prefix, F(0)) + total
                else:
                    add(new_states, (new_prefix, unit), fresh(child, collapsed))
        states = new_states
    undecoded = sum((w for entries in states.values() for w in entries.values()), F(0))
    mass_ok = all(
        sum(masses.values()) - undecoded <= decoded.get(t, F(0)) <= sum(masses.values())
        for t, (node, masses) in protocol.items()
        if node is None
    )
    return AuditReport(
        sum(decoded.values(), F(0)), undecoded, rounds_used, terminal_paths, mismatches,
        mass_ok, decoded,
    )


def audit_report(tree, channel, scenario, depth):
    """The audit's report, also when it stops short of the decoded target."""
    try:
        return equivalence_audit(tree, channel, scenario, depth)
    except BudgetExceededError as err:
        return err.report


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=1, max_value=3),
    chatter_laws(sizes=(3,), non_dyadic=True),
    st.lists(chatter_laws(sizes=(2, 3), non_dyadic=True), min_size=2, max_size=2),
    st.integers(min_value=0, max_value=12),
)
def test_audit_matches_fraction_reference(seed, n_players, three_labels, laws, depth):
    rng = random.Random(seed)
    scenario = random_scenario(rng, n_players=n_players)
    tree = random_protocol(rng, scenario, max_depth=2)
    laws = [three_labels, *laws]
    channel = InnocentChannel(n_players, ({p: laws[p - 1] for p in range(1, n_players + 1)},))
    report = audit_report(tree, channel, scenario, depth)
    want = reference_audit(tree, channel, scenario, depth)
    assert report.to_jsonable() == want.to_jsonable()


def count_state_meetings(monkeypatch):
    """Patch the audit to record each state carried within a protocol
    message that another path of the same round can reach: one that some
    path reached already, or an unshrunk [0, 1), which is where the message
    boundaries open the states of a prefix."""
    from cryptogenography import embedding

    carry = embedding._carry_state
    meetings = []

    def counting(states, key, *rest):
        meetings.extend([key] if key in states or key[1] == UNIT else [])
        carry(states, key, *rest)

    monkeypatch.setattr(embedding, "_carry_state", counting)
    return meetings


def test_interval_states_never_meet_under_one_law_per_player(monkeypatch):
    """With one chatter law per player, each with two or more possible
    messages, every chatter message shrinks the interval, so the states of
    one prefix lie in disjoint cells of one nested partition: no two paths
    reach one interval state, and the lazy class factors are never
    multiplied out before a boundary."""
    meetings = count_state_meetings(monkeypatch)
    three = FiniteDist(("u", "v", "w"), (F(1, 3), F(1, 6), F(1, 2)))
    two = FiniteDist(("u", "v"), (F(2, 5), F(3, 5)))
    rng = random.Random(31)
    for k in range(25):
        n_players = 1 + k % 3
        scenario = random_scenario(rng, n_players=n_players)
        tree = random_protocol(rng, scenario, max_depth=2)
        laws = {p: three if p % 2 else two for p in range(1, n_players + 1)}
        audit_report(tree, InnocentChannel(n_players, (laws,)), scenario, 10)
    assert meetings == []


def test_meeting_interval_states_are_added_exactly(monkeypatch):
    """A chatter law with one possible message keeps the interval: player
    2's point-mass rounds carry the (0,) and (1,) states over unshrunk while
    player 1's chatter opens them anew, so two paths meet there. The audit
    multiplies both out and adds them, as the Fraction reference does."""
    meetings = count_state_meetings(monkeypatch)
    sc = LeakScenario.fixed(FiniteDist.uniform((0, 1)), 1, 2)
    pq = FiniteDist((0, 1), (F(1, 3), F(2, 3)))
    pl = {0: FiniteDist((0, 1), (F(2, 3), F(1, 3))), 1: FiniteDist((0, 1), (F(1, 6), F(5, 6)))}
    second = ProtocolNode(2, (0, 1), pq, pl, {0: None, 1: None})
    # the root's halves take one or more quarter splits to decide, so it
    # emits in rounds of both parities, before and after a carried state
    half = FiniteDist.uniform((0, 1))
    tree = ProtocolTree(ProtocolNode(1, (0, 1), half, pl, {0: second, 1: second}))
    quarter = FiniteDist(("u", "v"), (F(1, 4), F(3, 4)))
    point = FiniteDist(("u", "v"), (F(1), F(0)))
    channel = InnocentChannel(2, ({1: quarter, 2: point}, {1: quarter, 2: quarter}))
    report = audit_report(tree, channel, sc, 16)
    assert meetings
    assert report.to_jsonable() == reference_audit(tree, channel, sc, 16).to_jsonable()
    assert report.ok


class TestIntervalEvolution:
    def test_shrinks_between_boundaries_resets_at_emission(self):
        # drive the interpreter along every chatter path to depth 6 and check
        # the interval never grows and resets to [0,1) exactly at emissions
        pi, channel, sc, law = figure_instance()
        f_cells = f_partition(pi.root.p_innocent)

        def walk(state, depth):
            if depth == 0:
                return
            for m in law.support:
                nxt = interpret_step(state, m, law, f_cells)
                if len(nxt.pi_transcript) > len(state.pi_transcript):
                    assert nxt.interval == UNIT
                else:
                    assert state.interval.contains(nxt.interval)
                    assert nxt.interval.length < state.interval.length
                if not nxt.pi_transcript:
                    walk(nxt, depth - 1)

        walk(InterpreterState(speaker=1), 6)


class TestChannelJson:
    def test_flat_schema_roundtrip(self):
        _, channel, _, _ = figure_instance()
        data = channel.to_jsonable()
        assert isinstance(data["rounds"][0], dict)
        assert InnocentChannel.from_jsonable(data) == channel

    def test_multi_speaker_round_roundtrip(self):
        ch = InnocentChannel.iid_uniform(2, (0, 1))
        data = ch.to_jsonable()
        assert isinstance(data["rounds"][0], list)
        assert InnocentChannel.from_jsonable(data) == ch

    @pytest.mark.parametrize(
        "path, value",
        [
            (("players",), 2.9),
            (("players",), "2"),
            (("rounds", 0, "player"), True),
            (("rounds", 0, "player"), 1.5),
        ],
    )
    def test_integer_fields_do_not_truncate(self, path, value):
        data = InnocentChannel(2, ({1: FiniteDist.uniform((0, 1))},), True).to_jsonable()
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ValueError, match="channel %s must be an integer" % path[-1]):
            InnocentChannel.from_jsonable(data)

    def test_player_named_twice_in_a_round_is_rejected(self):
        # the second law would otherwise replace the first
        data = InnocentChannel.iid_uniform(2, (0, 1)).to_jsonable()
        data["rounds"][0][1]["player"] = 1
        with pytest.raises(ValueError, match="^channel round player 1 appears twice$"):
            InnocentChannel.from_jsonable(data)

    @pytest.mark.parametrize("player", [0, 3])
    def test_player_outside_the_crowd_is_rejected(self, player):
        # such a law would otherwise be kept and never read
        data = InnocentChannel.iid_uniform(2, (0, 1)).to_jsonable()
        data["rounds"][0][1]["player"] = player
        with pytest.raises(ValueError, match="^channel player %d is outside 1..2$" % player):
            InnocentChannel.from_jsonable(data)

    @pytest.mark.parametrize("player", [0, 3])
    def test_constructor_rejects_a_player_outside_the_crowd(self, player):
        # the constructor and the reader share one check
        law = FiniteDist.uniform((0, 1))
        with pytest.raises(ValueError, match="^channel player %d is outside 1..2$" % player):
            InnocentChannel(2, ({1: law}, {player: law}))

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_repeat_must_be_a_json_boolean(self, value):
        data = InnocentChannel(2, ({1: FiniteDist.uniform((0, 1))},), True).to_jsonable()
        data["repeat"] = value
        with pytest.raises(ValueError, match="repeat must be true or false"):
            InnocentChannel.from_jsonable(data)

    def test_repeat_defaults_to_true_and_reads_false(self):
        ch = InnocentChannel(2, ({1: FiniteDist.uniform((0, 1))},), False)
        data = ch.to_jsonable()
        assert InnocentChannel.from_jsonable(data) == ch
        del data["repeat"]
        assert InnocentChannel.from_jsonable(data).repeat is True

    def test_silent_default(self):
        ch = InnocentChannel(2, ({1: FiniteDist.uniform((0, 1))},), True)
        law = ch.law(2, 0)
        assert law.support == ("-",)
