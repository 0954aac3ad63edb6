import math
import random
from fractions import Fraction

import pytest

from cryptogenography.coding import one_shot_joint, window_channel, window_protocol, window_scenario
from cryptogenography.probability import FiniteDist, JointDist, mutual_information
from cryptogenography.protocols import LeakScenario, ProtocolNode, ProtocolTree, enumerate_joint
from cryptogenography.suspicion import (
    SuspicionCertificate,
    check_general_upper_bound,
    check_listener_monotone,
    check_round_decomposition,
    check_single_message,
    check_transcript_bound,
    expected_suspicion,
    general_upper_bound,
    suspicion_point,
)

from genutil import random_protocol, random_rational_dist, random_scenario, random_single_message_model

F = Fraction


def two_var_joint(c_low):
    """(L, Y) joint with Pr(L=1|Y=y) = given values, Y uniform."""
    table = {}
    per_y = F(1, len(c_low))
    for y, c in enumerate(c_low):
        if c > 0:
            table[(1, y)] = per_y * c
        if c < 1:
            table[(0, y)] = per_y * (1 - c)
    return JointDist(("L", "Y"), table)


class TestCertificate:
    def test_infinite_rhs_holds_without_equality(self):
        for lhs in (0.25, math.inf):
            cert = SuspicionCertificate(lhs, math.inf, True)
            assert cert.equality is False
            assert cert.slack == math.inf
            assert cert.holds
        assert SuspicionCertificate(0.25, math.inf, True).to_jsonable() == {
            "lhs_bits": 0.25,
            "rhs_bits": "inf",
            "slack": "inf",
            "equality": False,
            "holds": True,
        }

    def test_finite_slack_is_rhs_minus_lhs(self):
        for lhs, rhs, equality in ((0.1, 0.3, False), (1 / 3, 1 / 3, True), (0.7, 0.2, False)):
            cert = SuspicionCertificate(lhs, rhs, equality)
            assert cert.slack.hex() == (rhs - lhs).hex()
            assert cert.equality is equality
            assert cert.holds == (rhs - lhs >= -1e-9)

    def test_slack_is_not_an_argument(self):
        with pytest.raises(TypeError):
            SuspicionCertificate(0.1, 0.3, 0.2, False)


class TestSuspicionPoint:
    def test_certainly_innocent(self):
        j = two_var_joint([F(0), F(1, 2)])
        assert suspicion_point(j, "L", {"Y": 0}) == 0.0

    def test_half(self):
        j = two_var_joint([F(1, 2)])
        assert suspicion_point(j, "L", {"Y": 0}) == 1.0

    def test_three_quarters(self):
        j = two_var_joint([F(3, 4)])
        assert suspicion_point(j, "L", {"Y": 0}) == 2.0

    def test_zero_probability_event(self):
        j = two_var_joint([F(1, 2)])
        with pytest.raises(ValueError):
            suspicion_point(j, "L", {"Y": 5})

    def test_infinite_at_certain_guilt(self):
        j = two_var_joint([F(1), F(0)])
        assert suspicion_point(j, "L", {"Y": 0}) == math.inf


class TestExpectedSuspicion:
    def test_independent_conditioning(self):
        # L independent of Y, Pr(L=1) = 1/2: susp = 1 under any conditioning
        table = {(l, y): F(1, 4) for l in (0, 1) for y in (0, 1)}
        j = JointDist(("L", "Y"), table)
        assert expected_suspicion(j, "L", ("Y",)) == pytest.approx(1.0, abs=1e-12)

    def test_revealing_conditioning_is_infinite(self):
        j = JointDist(("L", "Y"), {(0, 0): F(1, 2), (1, 1): F(1, 2)})
        assert expected_suspicion(j, "L", ("Y",)) == math.inf

    def test_two_point_mixture(self):
        j = two_var_joint([F(0), F(1, 2)])
        assert expected_suspicion(j, "L", ("Y",)) == pytest.approx(0.5, abs=1e-12)


class TestSingleMessageBound:
    def test_independent_message(self):
        # A independent of (X, L): zero information, zero suspicion change
        table = {}
        for x in (0, 1):
            for l in (0, 1):
                for a in (0, 1):
                    table[(x, l, a)] = F(1, 8)
        cert = check_single_message(JointDist(("X", "L", "A"), table))
        assert cert.holds and cert.equality
        assert cert.lhs_bits == pytest.approx(0.0, abs=1e-12)
        assert cert.rhs_bits == pytest.approx(0.0, abs=1e-12)

    def test_window_channel_equality(self):
        ch = window_channel(F(1, 2), F(2, 3))
        cert = check_single_message(one_shot_joint(ch))
        assert cert.holds and cert.equality
        assert cert.lhs_bits == pytest.approx(0.1887218755408671, abs=1e-9)
        assert cert.slack == pytest.approx(0.0, abs=1e-9)

    def test_full_reveal_infinite_rhs(self):
        # leaker announces X, innocent sends a blank: guilt certain on announce
        table = {}
        for x in (0, 1):
            table[(x, 0, "blank")] = F(1, 4)
            table[(x, 1, x)] = F(1, 4)
        j = JointDist(
            ("X", "L", "A"),
            table,
            axis_supports=((0, 1), (0, 1), ("blank", 0, 1)),
        )
        cert = check_single_message(j)
        assert cert.rhs_bits == math.inf
        assert cert.holds and not cert.equality

    def test_finite_strict_inequality(self):
        # innocents mix over everything, leaker tilts toward the secret
        msgs = ("blank", 0, 1)
        p_inn = FiniteDist.uniform(msgs)
        table = {}
        for x in (0, 1):
            for a in msgs:
                table[(x, 0, a)] = F(1, 2) * F(1, 2) * p_inn.prob(a)
            table[(x, 1, x)] = F(1, 2) * F(1, 2) * F(1, 10)
            table[(x, 1, "blank")] = F(1, 2) * F(1, 2) * F(9, 10)
        cert = check_single_message(JointDist(("X", "L", "A"), table))
        assert cert.holds and not cert.equality
        assert math.isfinite(cert.rhs_bits)
        assert cert.slack > 1e-6

    def test_model_violation_detected(self):
        # innocent law depends on x: not a legal speaking model
        table = {
            (0, 0, 0): F(1, 4),
            (1, 0, 1): F(1, 4),
            (0, 1, 0): F(1, 4),
            (1, 1, 1): F(1, 4),
        }
        with pytest.raises(ValueError, match="model violation"):
            check_single_message(JointDist(("X", "L", "A"), table))

    def test_random_models_bound_and_equality_iff(self):
        rng = random.Random(424242)
        for _ in range(300):
            j = random_single_message_model(rng)
            cert = check_single_message(j)
            assert cert.holds
            # independent exact computation of the equality condition
            marginal = j.marginal_dist("A")
            innocent = j.condition({"L": 0}).marginal_dist("A")
            laws_equal = marginal.probs == innocent.probs
            if math.isinf(cert.rhs_bits):
                assert not cert.equality
            else:
                assert cert.equality == laws_equal
            if cert.equality:
                assert abs(cert.slack) <= 1e-9


class TestListenerMonotone:
    def test_independent_bystander(self):
        table = {}
        for l in (0, 1):
            for y in (0, 1):
                for b in (0, 1):
                    table[(l, y, b)] = F(1, 8)
        cert = check_listener_monotone(JointDist(("L", "Y", "B"), table), "L", ("Y",), "B")
        assert cert.holds and cert.equality
        assert cert.slack == pytest.approx(0.0, abs=1e-12)

    def test_full_revelation(self):
        table = {(0, 0, 0): F(1, 4), (0, 1, 0): F(1, 4), (1, 0, 1): F(1, 4), (1, 1, 1): F(1, 4)}
        cert = check_listener_monotone(JointDist(("L", "Y", "B"), table), "L", ("Y",), "B")
        assert cert.rhs_bits == math.inf
        assert cert.lhs_bits == pytest.approx(1.0, abs=1e-12)
        assert cert.holds and not cert.equality

    def test_random_joints(self):
        rng = random.Random(5150)
        import itertools

        for _ in range(1000):
            while True:
                table = {
                    key: F(rng.randrange(0, 4))
                    for key in itertools.product((0, 1), repeat=3)
                }
                if sum(table.values()) > 0:
                    break
            total = sum(table.values())
            j = JointDist(("L", "Y", "B"), {k: v / total for k, v in table.items()})
            cert = check_listener_monotone(j, "L", ("Y",), "B")
            assert cert.holds


class TestTranscriptBound:
    def test_empty_protocol(self):
        sc = LeakScenario.fixed(FiniteDist.uniform((0, 1)), 1, 2)
        cert = check_transcript_bound(ProtocolTree(None), sc)
        assert cert.lhs_bits == pytest.approx(0.0, abs=1e-12)
        assert cert.rhs_bits == pytest.approx(0.0, abs=1e-12)
        assert cert.holds

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_window_players_tight(self, n):
        ch = window_channel(F(1, 2), F(2, 3))
        pi = window_protocol(ch, n)
        sc = window_scenario(ch, n)
        cert = check_transcript_bound(pi, sc)
        assert cert.holds and cert.equality
        assert cert.lhs_bits == pytest.approx(n * 0.1887218755408671, abs=1e-9)
        assert cert.rhs_bits == pytest.approx(n * 0.1887218755408671, abs=1e-9)

    def test_random_protocols(self):
        rng = random.Random(77)
        for _ in range(60):
            sc = random_scenario(rng, n_players=2)
            pi = random_protocol(rng, sc, max_depth=2, non_revealing_only=False)
            cert = check_transcript_bound(pi, sc)
            assert cert.holds


class TestRoundDecomposition:
    def test_every_node_certified(self):
        rng = random.Random(88)
        for _ in range(40):
            sc = random_scenario(rng, n_players=2)
            pi = random_protocol(rng, sc, max_depth=2, non_revealing_only=False)
            for rc in check_round_decomposition(pi, sc):
                assert rc.speaker_cert.holds
                assert all(c.holds for c in rc.listener_certs.values())

    def test_missing_leak_law_is_a_value_error(self):
        # secret 1 leaks with mass 1/4 but the node has a law for 0 only
        sc = LeakScenario.independent(FiniteDist.uniform((0, 1)), 1, F(1, 2))
        law = FiniteDist.uniform(("a", "b"))
        node = ProtocolNode(1, ("a", "b"), law, {0: law}, {"a": None, "b": None})
        with pytest.raises(ValueError, match=r"no leak law for secret 1$"):
            check_round_decomposition(ProtocolTree(node), sc)


class TestGeneralUpperBound:
    def test_cancellation_at_b_equal_c(self):
        assert general_upper_bound(F(1, 2), F(1, 2), 5) == pytest.approx(0.0, abs=1e-12)

    def test_three_window_players(self):
        assert general_upper_bound(F(1, 2), F(2, 3), 3) == pytest.approx(
            3 * 0.1887218755408671, abs=1e-9
        )
        assert general_upper_bound(F(1, 2), F(2, 3), 3) == pytest.approx(0.566166, abs=1e-6)

    def test_tenth_half(self):
        # 10 * (-0.1 log(1/2) + 0.5 log(9/10)) / 0.5
        want = 10 * (-0.1 * math.log2(0.5) + 0.5 * math.log2(0.9)) / 0.5
        assert general_upper_bound(F(1, 10), F(1, 2), 10) == pytest.approx(want, abs=1e-12)
        assert general_upper_bound(F(1, 10), F(1, 2), 10) == pytest.approx(0.47997, abs=1e-4)
        # matches n copies of the enumerated one-shot channel
        ch = window_channel(F(1, 10), F(1, 2))
        per_player = mutual_information(one_shot_joint(ch), "X", "A")
        assert general_upper_bound(F(1, 10), F(1, 2), 10) == pytest.approx(
            10 * per_player, abs=1e-9
        )

    def test_range_violation(self):
        with pytest.raises(ValueError):
            general_upper_bound(F(2, 3), F(1, 2), 1)

    # at n=4 the float mi_bits lies just above bound_bits, so the check
    # holds there only within SLACK_TOL
    @pytest.mark.parametrize("n", [2, 4])
    def test_premise_checker_on_window_instance(self, n):
        ch = window_channel(F(1, 2), F(2, 3))
        pi = window_protocol(ch, n)
        sc = window_scenario(ch, n)
        check = check_general_upper_bound(pi, sc)
        assert check.holds
        assert check.b == F(1, 2)
        assert check.c == F(2, 3)
        assert check.mi_bits == pytest.approx(check.bound_bits, abs=1e-9)

    def test_cap_is_the_largest_transcript_posterior(self):
        """c is the largest Pr(L_i=1 | T=t, X=x) over the enumerated joint's
        positive (t, x), on seeded random protocols."""
        rng = random.Random(20)
        for _ in range(12):
            n = rng.randrange(1, 4)
            x_dist = random_rational_dist(rng, range(rng.randrange(1, 4)))
            sc = LeakScenario.independent(x_dist, n, F(rng.randrange(1, 8), 8))
            # non-revealing, so every posterior and the cap stay below 1
            pi = random_protocol(rng, sc, max_depth=3)
            joint = enumerate_joint(pi, sc)
            reference = max(
                joint.condition({"T": t, "X": x}).prob_event({"L%d" % i: 1})
                for t in joint.axis_supports[joint.axis_index("T")]
                for x in sc.x_support
                if joint.prob_event({"T": t, "X": x})
                for i in range(1, n + 1)
            )
            assert check_general_upper_bound(pi, sc).c == reference

    def test_premise_checker_rejects_nonconstant_prior(self):
        # two players with different leak priors
        import itertools

        table = {}
        for x in (0, 1):
            for l1, l2 in itertools.product((0, 1), repeat=2):
                p1 = F(1, 2) if l1 else F(1, 2)
                p2 = F(1, 4) if l2 else F(3, 4)
                table[(x, l1, l2)] = F(1, 2) * p1 * p2
        sc = LeakScenario(2, JointDist(("X", "L1", "L2"), table))
        pi = ProtocolTree(None)
        with pytest.raises(ValueError, match="premise"):
            check_general_upper_bound(pi, sc)


class TestLinearSuspicionBound:
    def test_grid(self):
        # -log(1-q) <= (-log(1-c)/c) q for q in {0, c/10, ..., c}
        for c in (F(1, 4), F(1, 2), F(2, 3), F(9, 10)):
            slope = -math.log2(1 - c) / float(c)
            for k in range(11):
                q = c * k / 10
                lhs = -math.log2(1 - q) if q < 1 else math.inf
                assert lhs <= slope * float(q) + 1e-12
