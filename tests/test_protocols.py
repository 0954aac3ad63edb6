import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from cryptogenography import protocols
from cryptogenography.coding import window_channel, window_protocol, window_scenario
from cryptogenography.probability import FiniteDist, JointDist, mutual_information
from cryptogenography.protocols import (
    BudgetExceededError,
    LeakScenario,
    ProtocolNode,
    ProtocolTree,
    enumerate_joint,
    equivalent,
    iter_prefixes,
    non_revealing,
    posterior_measure,
    posteriors,
    prefix_conditionals,
    pretend_ignorance,
    pretend_ignorance_trigger_mass,
    safety_report,
    simulate,
    stop_at_c,
    stop_at_c_postcondition,
    validate,
)
from cryptogenography.suspicion import check_round_decomposition

from genutil import random_protocol, random_scenario

F = Fraction


def leaf_node(speaker, p_innocent, p_leak):
    alphabet = p_innocent.support
    return ProtocolNode(speaker, alphabet, p_innocent, p_leak, {m: None for m in alphabet})


@pytest.fixture
def coin_scenario():
    return LeakScenario.fixed(FiniteDist.uniform((0, 1)), 1, 2)


class TestScenario:
    def test_independent_prior(self):
        sc = LeakScenario.independent(FiniteDist.uniform((0, 1)), 3, F(1, 4))
        for i in (1, 2, 3):
            assert sc.prior_leak(i) == F(1, 4)
        assert sum(p for _, p in sc.outcomes()) == 1

    def test_fixed_counts(self):
        sc = LeakScenario.fixed(FiniteDist.uniform((0, 1)), 2, 4)
        for (x, lvec), p in sc.outcomes():
            assert sum(lvec) == 2
        assert sc.prior_leak(1) == F(1, 2)

    def test_axis_names_enforced(self):
        j = JointDist(("X", "Lx"), {(0, 0): F(1)})
        with pytest.raises(ValueError):
            LeakScenario(1, j)

    def test_weights_are_the_rekeyed_int_view(self):
        x_dist = FiniteDist((0, 1, 2), (F(1, 2), F(1, 3), F(1, 6)))
        from_fractions = LeakScenario.independent(x_dist, 2, F(1, 4))
        # an int-form joint over 12, while its entries' lcm is 6
        joint = JointDist(("X", "L1"), {(1, 0): 4, (0, 1): 6, (0, 0): 2}, den=12)
        int_form = LeakScenario(1, joint)
        assert int_form.scale == 12
        assert from_fractions.scale == 96
        for sc in (from_fractions, int_form):
            den, nums = sc.joint._int_view()
            assert sc.scale == den
            assert sc.weights == {(key[0], key[1:]): n for key, n in nums.items()}
            assert {k: F(w, sc.scale) for k, w in sc.weights.items()} == dict(sc.outcomes())
            # outcome order is the table's
            table_order = tuple((key[0], key[1:]) for key in sc.joint.table)
            assert sc.outcome_keys() == tuple(sc.weights) == table_order
        assert int_form.outcome_keys() == ((1, (0,)), (0, (1,)), (0, (0,)))

    def test_leak_indicators_checked_on_positive_entries(self):
        j = JointDist(("X", "L1"), {(0, 0): F(1, 2), (0, 2): F(1, 2)})
        with pytest.raises(ValueError, match="leak indicators must be 0 or 1, got 2"):
            LeakScenario(1, j)
        # a zero-mass entry is not part of the law
        j = JointDist(("X", "L1"), {(0, 0): F(1), (0, 2): F(0)})
        assert LeakScenario(1, j).weights == {(0, (0,)): 1}

    def test_json_roundtrip(self):
        sc = LeakScenario.fixed(FiniteDist.uniform(("a", "b")), 1, 2)
        assert LeakScenario.from_jsonable(sc.to_jsonable()) == sc

    def test_json_roundtrip_keeps_zero_mass_labels(self):
        x_dist = FiniteDist((0, 1, 2), (F(1, 2), F(1, 2), F(0)))
        for b in (F(0), F(1, 3)):
            sc = LeakScenario.independent(x_dist, 2, b)
            back = LeakScenario.from_jsonable(sc.to_jsonable())
            assert back == sc
            assert back.x_support == (0, 1, 2)
            assert back.joint.axis_supports == sc.joint.axis_supports

    def test_json_roundtrip_keeps_leak_support_order(self):
        # the table lists L1=1 first, but the leak supports are (0, 1)
        sc = LeakScenario.fixed(FiniteDist.uniform((0, 1)), 1, 2)
        back = LeakScenario.from_jsonable(sc.to_jsonable())
        assert back.joint.axis_supports == sc.joint.axis_supports
        assert back.joint.marginal_dist("L1").support == (0, 1)
        # the reader restores that order, so the file stays without supports
        assert "axis_supports" not in sc.to_jsonable()["joint"]

    def test_json_roundtrip_keeps_secret_support_order(self):
        # every secret has mass, but the table sees X=1 before X=0
        table = {(1, 0): F(1, 2), (0, 1): F(1, 2)}
        sc = LeakScenario(1, JointDist(("X", "L1"), table, axis_supports=((0, 1), (0, 1))))
        back = LeakScenario.from_jsonable(sc.to_jsonable())
        assert back.x_support == (0, 1)
        assert back.joint.axis_supports == sc.joint.axis_supports


class TestValidate:
    def test_empty_tree_valid(self, coin_scenario):
        assert validate(ProtocolTree(None), coin_scenario) == []

    def test_bad_distribution_flagged(self, coin_scenario):
        # p_innocent support mismatching the alphabet
        bad = ProtocolNode(
            1,
            (0, 1),
            FiniteDist(("x", "y"), (F(1, 2), F(1, 2))),
            {0: FiniteDist((0, 1), (F(1, 2), F(1, 2))), 1: FiniteDist((0, 1), (F(1), F(0)))},
            {0: None, 1: None},
        )
        issues = validate(ProtocolTree(bad), coin_scenario)
        assert issues

    def test_depth_exceeding_bound_flagged(self, coin_scenario):
        u = FiniteDist.uniform((0, 1))
        inner = leaf_node(1, u, {0: u, 1: u})
        outer = ProtocolNode(1, (0, 1), u, {0: u, 1: u}, {0: inner, 1: None})
        issues = validate(ProtocolTree(outer, length_bound=1), coin_scenario)
        assert issues
        assert any("length_bound" in issue for issue in issues)

    def test_missing_child_is_reported_not_raised(self, coin_scenario):
        # the tree's depth skips the missing child, so validate can name it
        u = FiniteDist.uniform((0, 1))
        tree = ProtocolTree(ProtocolNode(1, (0, 1), u, {0: u, 1: u}, {0: None}))
        assert tree.length_bound == 1
        assert validate(tree, coin_scenario) == ["missing children for [1] at ()"]


class TestNonRevealing:
    def test_identical_laws(self, coin_scenario):
        u = FiniteDist.uniform((0, 1))
        pi = ProtocolTree(leaf_node(1, u, {0: u, 1: u}))
        assert non_revealing(pi, coin_scenario)

    def test_leaker_only_message(self, coin_scenario):
        p_inn = FiniteDist((0, 1), (F(1), F(0)))
        p_leak = FiniteDist((0, 1), (F(1, 2), F(1, 2)))
        pi = ProtocolTree(leaf_node(1, p_inn, {0: p_leak, 1: p_leak}))
        assert not non_revealing(pi, coin_scenario)

    def test_window_protocol_non_revealing(self):
        ch = window_channel(F(2, 5), F(1, 2))
        assert non_revealing(window_protocol(ch, 2), window_scenario(ch, 2))


class TopRng:
    """random.Random stand-in that always returns the top of its range."""

    def __init__(self, seed=None):
        pass

    def random(self):
        return 1 - 2.0**-53

    def randrange(self, stop):
        return stop - 1


class TestSimulate:
    def test_top_draw_skips_zero_mass_message(self, monkeypatch):
        # ten messages of mass 1/10 then one of mass 0: float partial sums
        # of the ten reach 1 - 2**-53, so a float CDF draw at that value
        # fell through to the zero-mass message
        labels = tuple(range(10)) + ("never",)
        law = FiniteDist(labels, (F(1, 10),) * 10 + (F(0),))
        sc = LeakScenario.independent(FiniteDist.uniform((0, 1)), 1, F(1, 2))
        pi = ProtocolTree(leaf_node(1, law, {0: law, 1: law}))
        monkeypatch.setattr(protocols.random, "Random", TopRng)
        _, _, transcript = simulate(pi, sc, seed=0)
        assert transcript == (9,)

    def test_seed_replay(self, coin_scenario):
        rng = random.Random(3)
        pi = random_protocol(rng, coin_scenario)
        a = simulate(pi, coin_scenario, seed=123)
        b = simulate(pi, coin_scenario, seed=123)
        assert a == b

    def test_point_mass_unique_path(self, coin_scenario):
        p0 = FiniteDist.point_mass((0, 1), 0)
        pi = ProtocolTree(leaf_node(1, p0, {0: p0, 1: p0}))
        for seed in range(5):
            _, _, t = simulate(pi, coin_scenario, seed)
            assert t == (0,)

    def test_frequencies_match_enumeration(self, coin_scenario):
        rng = random.Random(11)
        pi = random_protocol(rng, coin_scenario, max_depth=2)
        joint = enumerate_joint(pi, coin_scenario)
        t_idx = joint.axis_index("T")
        expected = {}
        for key, p in joint.table.items():
            expected[key[t_idx]] = expected.get(key[t_idx], F(0)) + p
        n = 100_000
        counts = Counter(simulate(pi, coin_scenario, seed)[2] for seed in range(n))
        for t, p in expected.items():
            mean = float(p) * n
            sigma = math.sqrt(n * float(p) * (1 - float(p)))
            assert abs(counts.get(t, 0) - mean) <= 3.5 * sigma + 1


class TestEnumerateJoint:
    def test_empty_protocol_is_scenario(self, coin_scenario):
        joint = enumerate_joint(ProtocolTree(None), coin_scenario)
        for key, p in joint.table.items():
            assert key[-1] == ()
            assert coin_scenario.joint.table[key[:-1]] == p

    def test_independent_uniform_message_is_product(self, coin_scenario):
        u = FiniteDist.uniform((0, 1))
        pi = ProtocolTree(leaf_node(1, u, {0: u, 1: u}))
        joint = enumerate_joint(pi, coin_scenario)
        for key, p in joint.table.items():
            base = coin_scenario.joint.table[key[:-1]]
            assert p == base / 2

    def test_window_two_players_mi(self):
        ch = window_channel(F(1, 2), F(2, 3))
        joint = enumerate_joint(window_protocol(ch, 2), window_scenario(ch, 2))
        assert mutual_information(joint, "X", "T") == pytest.approx(
            2 * 0.1887218755408671, abs=1e-9
        )

    def test_budget_enforced(self, coin_scenario):
        rng = random.Random(1)
        pi = random_protocol(rng, coin_scenario, max_depth=3, stop_prob=0.0)
        with pytest.raises(BudgetExceededError):
            enumerate_joint(pi, coin_scenario, budget=3)

    def test_walk_budget_counts_every_outcome_state(self):
        ch = window_channel(F(1, 2), F(2, 3))
        pi, sc = window_protocol(ch, 2), window_scenario(ch, 2)
        states = sum(len(w) for _, _, w, _ in iter_prefixes(pi, sc))
        assert len(list(iter_prefixes(pi, sc, budget=states))) > 1
        with pytest.raises(BudgetExceededError, match="exceeded %d " % (states - 1)):
            list(iter_prefixes(pi, sc, budget=states - 1))

    def test_budget_error_says_how_far_the_walk_got(self):
        # the states and prefixes read, the one that ran over included
        ch = window_channel(F(1, 2), F(2, 3))
        pi, sc = window_protocol(ch, 2), window_scenario(ch, 2)
        walk = [len(w) for _, _, w, _ in iter_prefixes(pi, sc)]
        budget = sum(walk[:3])
        with pytest.raises(BudgetExceededError) as err:
            list(iter_prefixes(pi, sc, budget=budget))
        assert str(err.value) == (
            "enumeration exceeded %d outcome states (states read: %d, prefixes read: 4); "
            "raise the budget explicitly" % (budget, sum(walk[:4]))
        )

    def test_budget_error_carries_its_counts(self, monkeypatch):
        # the numbers of the text as attributes, from a transformation's budget
        ch = window_channel(F(1, 2), F(2, 3))
        pi, sc = window_protocol(ch, 2), window_scenario(ch, 2)
        monkeypatch.setattr(protocols, "DEFAULT_ENUMERATION_BUDGET", 10)
        with pytest.raises(BudgetExceededError) as err:
            pretend_ignorance(pi, sc, F(3, 4))
        e = err.value
        assert e.limit == 10 and e.states > 10 and 1 <= e.prefixes < e.states
        assert str(e) == (
            "enumeration exceeded 10 outcome states (states read: %d, prefixes read: %d); "
            "raise the budget explicitly" % (e.states, e.prefixes)
        )

    @pytest.mark.parametrize("missing_from", ["innocent", "leak"])
    def test_law_without_an_alphabet_label_raises(self, coin_scenario, missing_from):
        """A law whose support lacks a message of the node's alphabet is a
        ValueError, whichever law it is."""
        full = FiniteDist.uniform((0, 1, 2))
        short = FiniteDist.uniform((0, 1))
        p_innocent, p_leak_1 = (short, full) if missing_from == "innocent" else (full, short)
        children = dict.fromkeys((0, 1, 2))
        node = ProtocolNode(1, (0, 1, 2), p_innocent, {0: full, 1: p_leak_1}, children)
        with pytest.raises(ValueError, match="not in"):
            enumerate_joint(ProtocolTree(node), coin_scenario)

    @pytest.mark.parametrize(
        "walk",
        [
            posterior_measure,
            lambda tree, sc: safety_report(tree, sc, F(1, 2)),
            check_round_decomposition,
            lambda tree, sc: stop_at_c(tree, sc, F(2, 3)),
            enumerate_joint,
        ],
        ids=[
            "posterior_measure",
            "safety_report",
            "check_round_decomposition",
            "stop_at_c",
            "enumerate_joint",
        ],
    )
    def test_law_mass_outside_the_alphabet_is_refused_by_every_walk(self, coin_scenario, walk):
        """A law that puts mass on a label the node cannot send would lose
        that mass from every child; each walk refuses it by name."""
        wide = FiniteDist.uniform((0, 1, 2))
        node = ProtocolNode(1, (0, 1), wide, {0: wide, 1: wide}, dict.fromkeys((0, 1)))
        with pytest.raises(ValueError, match="mass on 2, which is not in the alphabet"):
            walk(ProtocolTree(node), coin_scenario)

    def test_marginal_over_transcript_is_scenario(self, coin_scenario):
        rng = random.Random(21)
        for _ in range(20):
            pi = random_protocol(rng, coin_scenario, max_depth=3)
            joint = enumerate_joint(pi, coin_scenario)
            assert joint.marginal(("X", "L1", "L2")) == coin_scenario.joint


class TestScanBudgets:
    """Every exhaustive scan keeps the walk's default budget, read when the
    walk starts; the transformations' own recursions charge the same
    counter."""

    @pytest.mark.parametrize(
        "scan",
        [
            lambda pi, sc: safety_report(pi, sc, F(2, 3), include_prefixes=True),
            lambda pi, sc: stop_at_c_postcondition(pi, sc, F(2, 3)),
            lambda pi, sc: prefix_conditionals(pi, sc),
            lambda pi, sc: equivalent(pi, pi, sc),
            lambda pi, sc: stop_at_c(pi, sc, F(2, 3)),
            lambda pi, sc: pretend_ignorance(pi, sc, F(2, 3)),
            lambda pi, sc: pretend_ignorance_trigger_mass(pi, sc, F(2, 3)),
        ],
        ids=[
            "safety_report",
            "stop_at_c_postcondition",
            "prefix_conditionals",
            "equivalent",
            "stop_at_c",
            "pretend_ignorance",
            "pretend_ignorance_trigger_mass",
        ],
    )
    def test_default_budget_enforced(self, monkeypatch, scan):
        ch = window_channel(F(1, 2), F(2, 3))
        pi, sc = window_protocol(ch, 2), window_scenario(ch, 2)
        scan(pi, sc)
        monkeypatch.setattr(protocols, "DEFAULT_ENUMERATION_BUDGET", 20)
        with pytest.raises(BudgetExceededError, match="exceeded 20 outcome states"):
            scan(pi, sc)

    def test_safety_report_budget_overrides_default(self, monkeypatch):
        ch = window_channel(F(1, 2), F(2, 3))
        pi, sc = window_protocol(ch, 2), window_scenario(ch, 2)
        monkeypatch.setattr(protocols, "DEFAULT_ENUMERATION_BUDGET", 20)
        assert safety_report(pi, sc, F(2, 3), budget=10**6).ok

    def test_transform_budgets_count_what_the_walk_counts(self, monkeypatch):
        """On a protocol stop_at_c leaves alone, each transformation reads
        exactly the outcome states the walk yields: that count passes as the
        default budget and one fewer raises."""
        ch = window_channel(F(1, 2), F(2, 3))
        pi, sc = window_protocol(ch, 2), window_scenario(ch, 2)
        assert stop_at_c(pi, sc, F(2, 3)) == pi
        states = sum(len(w) for _, _, w, _ in iter_prefixes(pi, sc))
        for transform in (stop_at_c, pretend_ignorance, pretend_ignorance_trigger_mass):
            monkeypatch.setattr(protocols, "DEFAULT_ENUMERATION_BUDGET", states)
            transform(pi, sc, F(2, 3))
            monkeypatch.setattr(protocols, "DEFAULT_ENUMERATION_BUDGET", states - 1)
            with pytest.raises(BudgetExceededError, match="exceeded %d outcome" % (states - 1)):
                transform(pi, sc, F(2, 3))


class TestSafetyReport:
    @pytest.mark.parametrize("include_prefixes", [False, True])
    def test_ok_is_the_exact_maximum_against_c(self, include_prefixes):
        """The maximum is the largest posterior of the scanned prefixes, its
        witness attains it, and ok is max_posterior <= c: true at the
        maximum and a hair above it, false a hair below."""
        rng = random.Random(20)
        hair = F(1, 10**12)
        for _ in range(12):
            n = rng.randrange(1, 4)
            sc = random_scenario(rng, n_players=n, n_x=rng.randrange(1, 4))
            pi = random_protocol(rng, sc, max_depth=3, non_revealing_only=rng.random() < 0.5)
            report = safety_report(pi, sc, F(1, 2), include_prefixes)
            best = report.max_posterior
            scanned = [p for p, node, _w, _s in iter_prefixes(pi, sc) if include_prefixes or node is None]
            views = {p: posteriors(pi, sc, p).leak_probs_given_x for p in scanned}
            assert best == max(max(v) for view in views.values() for v in view.values())
            if best == 0:
                assert report.witness is None
                continue
            i, prefix, x = report.witness
            assert views[prefix][x][i - 1] == best
            for c, ok in ((best, True), (best + hair, True), (best - hair, False)):
                assert safety_report(pi, sc, c, include_prefixes).ok is ok


class TestPosteriors:
    def test_empty_prefix_is_prior(self, coin_scenario):
        rng = random.Random(2)
        pi = random_protocol(rng, coin_scenario)
        pv = posteriors(pi, coin_scenario, ())
        assert pv.x_posterior.probs == (F(1, 2), F(1, 2))
        assert pv.leak_probs == (F(1, 2), F(1, 2))

    def test_window_bayes(self):
        ch = window_channel(F(1, 2), F(2, 3))
        assert (ch.a, ch.d) == (1, 2)
        pi = window_protocol(ch, 1)
        sc = window_scenario(ch, 1)
        pv = posteriors(pi, sc, (1,))
        # message 1 from player 1: inside the window of x=1, outside for x=2
        assert pv.leak_probs_given_x[(1,)][0] == F(2, 3)
        assert pv.leak_probs_given_x[(2,)][0] == F(0)

    def test_zero_probability_prefix(self, coin_scenario):
        p0 = FiniteDist.point_mass((0, 1), 0)
        pi = ProtocolTree(leaf_node(1, p0, {0: p0, 1: p0}))
        with pytest.raises(ValueError):
            posteriors(pi, coin_scenario, (1,))


class TestProtocolJson:
    @pytest.mark.parametrize(
        "field, value",
        [("speaker", 1.7), ("speaker", True), ("speaker", "1"), ("length_bound", "2"), ("length_bound", 0.5)],
    )
    def test_integer_fields_do_not_truncate(self, field, value):
        law = FiniteDist.uniform((0, 1))
        data = ProtocolTree(leaf_node(1, law, {0: law})).to_jsonable()
        (data["root"] if field == "speaker" else data)[field] = value
        with pytest.raises(ValueError, match="protocol %s must be an integer" % field):
            ProtocolTree.from_jsonable(data)

    def test_integral_float_fields_read_as_ints(self):
        law = FiniteDist.uniform((0, 1))
        pi = ProtocolTree(leaf_node(1, law, {0: law}))
        data = pi.to_jsonable()
        data["root"]["speaker"] = 1.0
        data["length_bound"] = 1.0
        assert ProtocolTree.from_jsonable(data) == pi

    @pytest.mark.parametrize("value", [1.5, True, "1"])
    def test_scenario_n_players_does_not_truncate(self, value):
        data = LeakScenario.fixed(FiniteDist.uniform((0, 1)), 1, 1).to_jsonable()
        data["n_players"] = value
        with pytest.raises(ValueError, match="scenario n_players must be an integer"):
            LeakScenario.from_jsonable(data)

    def test_boolean_probability_rejected(self):
        data = LeakScenario.fixed(FiniteDist.uniform((0, 1)), 1, 1).to_jsonable()
        data["joint"]["table"] = [{"key": [0, 1], "p": True}]
        with pytest.raises(ValueError, match="cannot decode rational"):
            LeakScenario.from_jsonable(data)

    def test_roundtrip_window_instance(self):
        ch = window_channel(F(2, 5), F(1, 2))
        pi = window_protocol(ch, 2)
        sc = window_scenario(ch, 2)
        assert ProtocolTree.from_jsonable(pi.to_jsonable()) == pi
        assert LeakScenario.from_jsonable(sc.to_jsonable()) == sc

    @pytest.mark.parametrize("secrets", [("7", "8"), (7, "7"), ((1, 2), "(1, 2)")])
    def test_roundtrip_secrets_whose_string_reads_back_differently(self, secrets):
        sc = LeakScenario.independent(FiniteDist.uniform(secrets), 1, F(1, 2))
        p_inn = FiniteDist((0, 1), (F(1, 2), F(1, 2)))
        laws = (FiniteDist((0, 1), (F(3, 4), F(1, 4))), FiniteDist((0, 1), (F(1, 4), F(3, 4))))
        pi = ProtocolTree(leaf_node(1, p_inn, dict(zip(secrets, laws))))
        back = ProtocolTree.from_jsonable(json.loads(json.dumps(pi.to_jsonable())))
        assert back == pi
        assert validate(back, sc) == []

    @pytest.mark.parametrize("alphabet", [(7, "7"), ((1, 2), "(1, 2)"), ("a", 7, "7")])
    def test_roundtrip_children_of_messages_sharing_a_string(self, alphabet):
        # a children object keyed by str(m) would hold one entry for both
        law = FiniteDist.uniform(alphabet)
        leaf = leaf_node(1, law, {0: law})
        children = {m: (leaf if i == 1 else None) for i, m in enumerate(alphabet)}
        pi = ProtocolTree(ProtocolNode(1, alphabet, law, {0: law}, children))
        back = ProtocolTree.from_jsonable(json.loads(json.dumps(pi.to_jsonable())))
        assert back == pi
        assert [back.root.children[m] for m in alphabet] == [children[m] for m in alphabet]

    def test_children_stay_an_object_when_strings_differ(self):
        law = FiniteDist.uniform((7, "8"))
        pi = ProtocolTree(ProtocolNode(1, (7, "8"), law, {0: law}, {7: None, "8": None}))
        assert pi.to_jsonable()["root"]["children"] == {"7": None, "8": None}

    def test_roundtrip_random(self, coin_scenario):
        rng = random.Random(41)
        for _ in range(10):
            pi = random_protocol(rng, coin_scenario, max_depth=2)
            assert ProtocolTree.from_jsonable(pi.to_jsonable()) == pi

    def test_equal_laws_load_as_one_object(self):
        # every node holds its own law objects; a load shares the equal ones
        def node(depth):
            pairs = ((0, F(1, 3)), (1, F(2, 3)), (2, F(1, 2)))
            p_leak = {x: FiniteDist((0, 1), (p, 1 - p)) for x, p in pairs}
            children = {m: node(depth - 1) if depth else None for m in (0, 1)}
            return ProtocolNode(1, (0, 1), FiniteDist.uniform((0, 1)), p_leak, children)

        def laws(node):
            if node is None:
                return []
            own = [node.p_innocent, *node.p_leak.values()]
            return own + [law for child in node.children.values() for law in laws(child)]

        pi = ProtocolTree(node(3))
        assert len({id(law) for law in laws(pi.root)}) == 15 * 4
        back = ProtocolTree.from_jsonable(json.loads(json.dumps(pi.to_jsonable())))
        assert back == pi
        assert laws(back.root) == laws(pi.root)
        assert len({id(law) for law in laws(back.root)}) == 3

    @pytest.mark.parametrize("form", ["list", "object"])
    def test_secret_named_twice_is_rejected(self, form):
        # the second law would otherwise replace the first
        laws = [{"support": [0, 1], "probs": [p, 1 - p]} for p in (0, 1)]
        if form == "list":
            p_leak = [{"secret": 1, "law": law} for law in laws]
        else:
            p_leak = dict(zip(("1", "01"), laws))
        leaf = {"speaker": 1, "alphabet": [0, 1], "p_innocent": laws[0], "p_leak": p_leak}
        leaf["children"] = [None, None]
        with pytest.raises(ValueError, match="^p_leak secret 1 appears twice$"):
            ProtocolTree.from_jsonable({"root": leaf})

    def test_repeated_invalid_law_raises_its_own_error(self):
        bad = {"support": [0, 1], "probs": ["1/2", "1/4"]}
        leaf = {"speaker": 1, "alphabet": [0, 1], "p_innocent": bad, "p_leak": {"0": bad}}
        leaf["children"] = {"0": None, "1": None}
        root = dict(leaf, children={"0": leaf, "1": leaf})
        for data in (root, json.loads(json.dumps(root))):
            with pytest.raises(ValueError, match="^probabilities must sum to exactly 1, got 3/4$"):
                ProtocolTree.from_jsonable({"root": data})

    def test_python_content_decodes_as_each_law_alone(self):
        """A library caller's content decodes as when each law is read on
        its own, also where its repr is that of another law."""

        class Zero:
            def __repr__(self):
                return "0"

        good = {"support": [0, 1], "probs": ["1/2", "1/2"]}
        node = {"speaker": 1, "alphabet": [0, 1], "p_leak": {"0": good}, "children": [None, None]}
        zero = Zero()
        node["p_innocent"] = {"support": [zero, 1], "probs": ["1/2", "1/2"]}
        assert ProtocolNode.from_jsonable(node).p_innocent.support == (zero, 1)
        node["p_innocent"] = {"support": [([0],), 1], "probs": ["1/2", "1/2"]}
        with pytest.raises(TypeError, match="unhashable"):
            ProtocolNode.from_jsonable(node)
        node["p_innocent"] = {"support": [0, 1], "probs": [F(1, 2), F(1, 2)]}
        with pytest.raises(ValueError, match="cannot decode rational"):
            ProtocolNode.from_jsonable(node)
        node["p_innocent"] = {"support": (0, 1), "probs": ("1/2", "1/2")}
        assert ProtocolNode.from_jsonable(node).p_innocent == FiniteDist.uniform((0, 1))

    def test_secrets_sharing_a_string_form_in_different_nodes(self):
        # each node decides its own p_leak form: 1 reads back from "1",
        # True and "1" do not
        law = FiniteDist.uniform((0, 1))
        children = {0: leaf_node(1, law, {True: law}), 1: leaf_node(1, law, {"1": law})}
        pi = ProtocolTree(ProtocolNode(1, (0, 1), law, {1: law}, children))
        data = json.loads(json.dumps(pi.to_jsonable()))
        assert data["root"]["p_leak"] == {"1": law.to_jsonable()}
        for m, secret in (("0", True), ("1", "1")):
            entry = data["root"]["children"][m]["p_leak"]
            assert entry == [{"secret": secret, "law": law.to_jsonable()}]
        back = ProtocolTree.from_jsonable(data)
        assert back == pi
        keys = [next(iter(back.root.children[m].p_leak)) for m in (0, 1)]
        assert [type(k) for k in keys] == [bool, str]
