import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptogenography.probability import (
    FiniteDist,
    JointDist,
    _sample,
    as_probability,
    conditional_mutual_information,
    cross_entropy_gap,
    entropy,
    fano_lower_bound,
    fraction_from_jsonable,
    mutual_information,
    neg_log2,
)

from genutil import random_joint

F = Fraction


class TestFiniteDist:
    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            FiniteDist((0, 1), (0.5, 0.5))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            FiniteDist((0, 1), (F(1, 2), F(2, 5)))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            FiniteDist((0, 0), (F(1, 2), F(1, 2)))

    def test_point_mass_and_uniform(self):
        pm = FiniteDist.point_mass(("a", "b"), "b")
        assert pm.prob("b") == 1 and pm.prob("a") == 0
        u = FiniteDist.uniform(range(5))
        assert all(p == F(1, 5) for p in u.probs)

    def test_json_roundtrip(self):
        d = FiniteDist(("a", (1, 2)), (F(1, 3), F(2, 3)))
        assert FiniteDist.from_jsonable(d.to_jsonable()) == d


class TestEntropy:
    def test_uniform_four(self):
        assert entropy(FiniteDist.uniform(range(4))) == 2.0

    def test_point_mass(self):
        assert entropy(FiniteDist.point_mass((0, 1), 0)) == 0.0

    def test_quarter_three_quarters(self):
        d = FiniteDist((0, 1), (F(1, 4), F(3, 4)))
        expected = 0.25 * 2 + 0.75 * math.log2(4 / 3)
        assert entropy(d) == pytest.approx(expected, abs=1e-12)
        assert entropy(d) == pytest.approx(0.8112781244591328, abs=1e-12)

    def test_bounded_by_log_support(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randrange(2, 6)
            weights = [rng.randrange(0, 9) for _ in range(n)]
            if sum(weights) == 0:
                continue
            d = FiniteDist(
                tuple(range(n)), tuple(F(w, sum(weights)) for w in weights)
            )
            assert -1e-12 <= entropy(d) <= math.log2(n) + 1e-12


class TestMutualInformation:
    def test_product_is_zero(self):
        j = JointDist(
            ("X", "Y"),
            {(x, y): F(1, 4) for x in (0, 1) for y in (0, 1)},
        )
        assert abs(mutual_information(j, "X", "Y")) < 1e-12

    def test_identity_coupling(self):
        j = JointDist(("X", "Y"), {(0, 0): F(1, 2), (1, 1): F(1, 2)})
        assert mutual_information(j, "X", "Y") == pytest.approx(1.0, abs=1e-12)

    def test_binary_symmetric_quarter_noise(self):
        j = JointDist(
            ("X", "Y"),
            {(0, 0): F(3, 8), (0, 1): F(1, 8), (1, 0): F(1, 8), (1, 1): F(3, 8)},
        )
        expected = 1 - entropy(FiniteDist((0, 1), (F(1, 4), F(3, 4))))
        assert mutual_information(j, "X", "Y") == pytest.approx(expected, abs=1e-12)
        assert mutual_information(j, "X", "Y") == pytest.approx(0.188722, abs=1e-6)

    def test_symmetry_and_nonnegativity(self):
        rng = random.Random(13)
        for _ in range(200):
            j = random_joint(rng, 2, 3)
            mi = mutual_information(j, "A0", "A1")
            assert mi >= -1e-12
            assert mi == pytest.approx(mutual_information(j, "A1", "A0"), abs=1e-12)

    def test_unknown_axis(self):
        j = JointDist(("X", "Y"), {(0, 0): F(1, 1)})
        with pytest.raises(ValueError):
            mutual_information(j, "X", "Z")


class TestConditionalMutualInformation:
    def test_irrelevant_conditioning(self):
        # Z independent of an (X, Y) pair with some correlation
        base = {(0, 0): F(3, 8), (0, 1): F(1, 8), (1, 0): F(1, 8), (1, 1): F(3, 8)}
        j = JointDist(
            ("X", "Y", "Z"),
            {(x, y, z): p / 2 for (x, y), p in base.items() for z in (0, 1)},
        )
        want = mutual_information(JointDist(("X", "Y"), base), "X", "Y")
        assert conditional_mutual_information(j, "X", "Y", "Z") == pytest.approx(
            want, abs=1e-12
        )

    def test_z_determines_both(self):
        j = JointDist(("X", "Y", "Z"), {(0, 0, 0): F(1, 2), (1, 1, 1): F(1, 2)})
        assert conditional_mutual_information(j, "X", "Y", "Z") == pytest.approx(
            0.0, abs=1e-12
        )

    def test_chain_rule_random_2x2x2(self):
        rng = random.Random(99)
        for _ in range(100):
            j = random_joint(rng, 3, 2)
            lhs = mutual_information(j, "A0", ("A1", "A2"))
            rhs = mutual_information(j, "A0", "A1") + conditional_mutual_information(
                j, "A0", "A2", "A1"
            )
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_chain_rule_bulk(self):
        # 1000 random joints, up to 4 axes of up to 3 labels, 1e-9 absolute
        rng = random.Random(2024)
        for _ in range(1000):
            n_axes = rng.randrange(2, 5)
            n_labels = rng.randrange(2, 4)
            j = random_joint(rng, n_axes, n_labels)
            ts = j.axes[1:]
            lhs = mutual_information(j, "A0", ts)
            rhs = sum(
                conditional_mutual_information(j, "A0", ts[i], ts[:i])
                for i in range(len(ts))
            )
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_entropy_chain(self):
        rng = random.Random(5)
        for _ in range(100):
            j = random_joint(rng, 2, 3)
            from cryptogenography.probability import subset_entropy

            h_joint = subset_entropy(j, ("A0", "A1"))
            h_a = subset_entropy(j, ("A0",))
            # H(B|A) via explicit conditioning
            h_cond = 0.0
            da = j.marginal_dist("A0")
            for a, pa in da.items():
                if pa > 0:
                    h_cond += float(pa) * entropy(j.conditional_dist("A1", {"A0": a}))
            assert h_joint == pytest.approx(h_a + h_cond, abs=1e-9)


class TestCrossEntropyGap:
    def test_equal_is_exact_zero(self):
        p = FiniteDist((0, 1), (F(1, 3), F(2, 3)))
        assert cross_entropy_gap(p, p) == 0.0

    def test_point_vs_uniform(self):
        p = FiniteDist((0, 1), (F(1), F(0)))
        q = FiniteDist((0, 1), (F(1, 2), F(1, 2)))
        assert cross_entropy_gap(p, q) == pytest.approx(1.0, abs=1e-12)

    def test_half_vs_quarter(self):
        p = FiniteDist((0, 1), (F(1, 2), F(1, 2)))
        q = FiniteDist((0, 1), (F(1, 4), F(3, 4)))
        assert cross_entropy_gap(p, q) == pytest.approx(0.2075187496394219, abs=1e-12)

    def test_infinite_when_q_misses_mass(self):
        p = FiniteDist((0, 1), (F(1, 2), F(1, 2)))
        q = FiniteDist((0, 1), (F(1), F(0)))
        assert cross_entropy_gap(p, q) == math.inf

    def test_support_mismatch(self):
        p = FiniteDist((0, 1), (F(1, 2), F(1, 2)))
        q = FiniteDist((1, 0), (F(1, 2), F(1, 2)))
        with pytest.raises(ValueError):
            cross_entropy_gap(p, q)

    def test_zero_iff_equal(self):
        rng = random.Random(31)
        for _ in range(300):
            n = rng.randrange(2, 5)
            labels = tuple(range(n))

            def rand_dist():
                while True:
                    w = [rng.randrange(0, 7) for _ in labels]
                    if sum(w) > 0:
                        return FiniteDist(labels, tuple(F(x, sum(w)) for x in w))

            p, q = rand_dist(), rand_dist()
            gap = cross_entropy_gap(p, q)
            if p == q:
                assert gap == 0.0
            else:
                assert gap != 0.0 and gap > 0


class TestFano:
    def test_vanishing_numerator(self):
        assert fano_lower_bound(1.0, 2) == 0.0

    def test_half(self):
        assert fano_lower_bound(3.0, 16) == 0.5

    def test_clamped(self):
        assert fano_lower_bound(0.5, 8) == 0.0

    def test_small_support_rejected(self):
        with pytest.raises(ValueError):
            fano_lower_bound(1.0, 1)


class TestJointDist:
    def test_marginalize_condition_commute(self):
        rng = random.Random(17)
        for _ in range(100):
            j = random_joint(rng, 3, 2)
            da = j.marginal_dist("A0")
            for a in (0, 1):
                if da.prob(a) == 0:
                    continue
                # condition then marginalize
                left = j.condition({"A0": a}).marginal_dist("A1")
                # marginalize (drop A2) then condition
                right = j.marginal(("A0", "A1")).conditional_dist("A1", {"A0": a})
                assert left.probs == right.probs  # label-for-label, exact

    def test_condition_zero_event(self):
        j = JointDist(("X", "Y"), {(0, 0): F(1)})
        with pytest.raises(ValueError):
            j.condition({"X": 1})

    def test_json_roundtrip(self):
        j = JointDist(
            ("X", "T"),
            {(0, ("a", "b")): F(1, 2), (1, ("a",)): F(1, 2)},
        )
        back = JointDist.from_jsonable(j.to_jsonable())
        assert back == j
        assert back.axis_supports == j.axis_supports

    def test_json_keeps_zero_mass_labels(self):
        # X=2 and Y="b" carry no mass: the table alone would drop them
        j = JointDist(
            ("X", "Y"),
            {(0, "a"): F(1, 2), (1, "a"): F(1, 2), (2, "b"): F(0)},
            axis_supports=((0, 1, 2), ("a", "b")),
        )
        data = j.to_jsonable()
        assert data["axis_supports"] == [[0, 1, 2], ["a", "b"]]
        back = JointDist.from_jsonable(data)
        assert back == j
        assert back.axis_supports == j.axis_supports

    def test_json_keeps_support_order(self):
        # every label has mass, but the table sees A=1 before A=0
        j = JointDist(
            ("A", "B"), {(1, 0): F(1, 2), (0, 1): F(1, 2)}, axis_supports=((0, 1), (0, 1))
        )
        back = JointDist.from_jsonable(j.to_jsonable())
        assert back == j
        assert back.axis_supports == ((0, 1), (0, 1))
        assert back.marginal_dist("A").support == (0, 1)

    def test_json_rejects_a_repeated_key(self):
        # the repeated row would otherwise overwrite the first and the law
        # read back as {0: 1/2, 1: 1/2}
        row = {"key": [0], "p": "1/2"}
        data = {"axes": ["X"], "table": [row, row, {"key": [1], "p": "1/2"}]}
        with pytest.raises(ValueError, match=r"^joint table key \(0,\) appears twice$"):
            JointDist.from_jsonable(data)

    def test_json_omits_supports_the_table_implies(self):
        j = JointDist(("X", "Y"), {(0, "a"): F(1, 4), (1, "b"): F(3, 4)})
        assert "axis_supports" not in j.to_jsonable()

    def test_neg_log2_inf_only_at_zero(self):
        assert neg_log2(F(0)) == math.inf
        assert neg_log2(F(1, 2)) == 1.0

    @pytest.mark.parametrize("sign", [1, -1])
    def test_rejects_totals_a_hair_off_one(self, sign):
        # the hair lands on the entry with the largest denominator, so only
        # the exact total over every denominator can tell
        eps = sign * F(1, 10**40)
        total = 1 + eps
        table = {(0, "a"): F(1, 3), (1, "a"): F(1, 6), (2, "b"): F(1, 2) + eps}
        with pytest.raises(ValueError, match="sum to exactly 1, got %s$" % total):
            JointDist(("X", "Y"), table)
        probs = (F(1, 3), F(1, 7), F(11, 21) + eps)
        with pytest.raises(ValueError, match="sum to exactly 1, got %s$" % total):
            FiniteDist((0, 1, 2), probs)

    def test_accepts_mixed_denominators_summing_to_one(self):
        j = JointDist(("X",), {(0,): F(1, 3), (1,): F(1, 6), (2,): F(1, 2)})
        assert j.marginal_dist("X").probs == (F(1, 3), F(1, 6), F(1, 2))
        assert j.prob_event({"X": 1}) == F(1, 6)

    def test_construction_checks_still_hold(self):
        with pytest.raises(ValueError, match="wrong arity"):
            JointDist(("X", "Y"), {(0,): F(1)})
        with pytest.raises(ValueError, match="probability must be >= 0"):
            JointDist(("X",), {(0,): F(3, 2), (1,): F(-1, 2)})
        with pytest.raises(TypeError):
            JointDist(("X",), {(0,): 0.5, (1,): F(1, 2)})
        with pytest.raises(ValueError, match="missing labels"):
            JointDist(("X",), {(0,): F(1)}, axis_supports=((1,),))
        with pytest.raises(ValueError, match="got 0$"):
            JointDist(("X",), {(0,): F(0)})


class TestJointDistIntForm:
    def test_entries_over_den(self):
        j = JointDist(("X", "Y"), {(0, "a"): 2, (1, "b"): 6}, den=8)
        assert j.table == {(0, "a"): F(1, 4), (1, "b"): F(3, 4)}
        assert j == JointDist(("X", "Y"), {(0, "a"): F(1, 4), (1, "b"): F(3, 4)})
        assert j.prob_event({"Y": "b"}) == F(3, 4)

    def test_zero_entries_dropped_but_their_labels_kept(self):
        j = JointDist(("X",), {(0,): 0, (1,): 5}, den=5)
        assert j.table == {(1,): F(1)}
        assert j.axis_supports == ((0, 1),)

    def test_fraction_input_table_is_made_on_first_read(self):
        j = JointDist(("X",), {(2,): F(2, 6), (0,): F(0), (1,): F(2, 3)})
        assert j._table is None
        assert list(j.table.items()) == [((2,), F(1, 3)), ((1,), F(2, 3))]
        assert j._table is j.table

    def test_loaded_scenario_keeps_no_table_until_read(self):
        from cryptogenography.protocols import LeakScenario, ProtocolTree, simulate

        made = LeakScenario.fixed(FiniteDist((0, 1, 2), (F(1, 6), F(1, 3), F(1, 2))), 1, 2)
        sc = LeakScenario.from_jsonable(made.to_jsonable())
        assert sc.joint._table is None
        outcomes = [((key[0], key[1:]), p) for key, p in made.joint.table.items()]
        assert list(sc.outcomes()) == outcomes
        draws = {simulate(ProtocolTree(None), sc, seed)[:2] for seed in range(20)}
        assert draws <= set(dict(outcomes))
        assert sc.joint._table is None
        assert sc == made and sc.joint._table is not None

    @pytest.mark.parametrize("entry", [True, F(1), 1.0, np.int64(1)], ids=["bool", "fraction", "float", "numpy"])
    def test_rejects_entries_that_are_not_python_ints(self, entry):
        with pytest.raises(ValueError, match="ints >= 0"):
            JointDist(("X",), {(0,): entry}, den=1)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="ints >= 0"):
            JointDist(("X",), {(0,): -1, (1,): 2}, den=1)

    @pytest.mark.parametrize("den", [3, 1])
    def test_rejects_a_total_other_than_den(self, den):
        with pytest.raises(ValueError, match="sum to exactly 1, got %s$" % F(2, den)):
            JointDist(("X",), {(0,): 1, (1,): 1}, den=den)

    @pytest.mark.parametrize("den", [0, -2, True, F(2), 2.0])
    def test_rejects_a_den_that_is_not_a_positive_int(self, den):
        with pytest.raises(ValueError, match="den must be a positive int"):
            JointDist(("X",), {(0,): 1, (1,): 1}, den=den)

    def test_shared_checks_hold_for_int_entries(self):
        with pytest.raises(ValueError, match="wrong arity"):
            JointDist(("X", "Y"), {(0,): 1}, den=1)
        with pytest.raises(ValueError, match="missing labels"):
            JointDist(("X",), {(0,): 1}, axis_supports=((1,),), den=1)

    @pytest.mark.parametrize("den", [None, 2])
    def test_rejects_a_label_repeated_in_a_given_support(self, den):
        table = {(0, "a"): 1, (1, "a"): 1} if den else {(0, "a"): F(1, 2), (1, "a"): F(1, 2)}
        with pytest.raises(ValueError, match="axis Y support repeats label 'a'"):
            JointDist(("X", "Y"), table, axis_supports=((0, 1), ("a", "b", "a")), den=den)

    @pytest.mark.parametrize(
        "nums, den",
        [((0, 3, 3), 6), ((2, 4, 6), 12), ((1, 0), 1), ((5,), 5), ((3, 7), 10)],
    )
    def test_law_from_ints_is_the_fraction_built_law(self, nums, den):
        support = tuple(range(len(nums)))
        law = FiniteDist._from_ints(support, den, nums)
        ref = FiniteDist(support, tuple(F(n, den) for n in nums))
        assert law == ref
        assert law._int_view() == ref._int_view()
        assert law.prob(support[-1]) == ref.prob(support[-1])

    @pytest.mark.parametrize(
        "nums, den", [((7, 3), 10), ((1, 0), 1), ((0, 1), 1), ((1, 1), 2), ((4, 7, 4), 15)]
    )
    def test_law_from_coprime_ints_is_the_fraction_built_law(self, nums, den):
        support = tuple(range(len(nums)))
        law = FiniteDist._from_coprime_ints(support, den, nums)
        ref = FiniteDist(support, tuple(F(n, den) for n in nums))
        assert law == ref and hash(law.probs) == hash(ref.probs)
        assert law._int_view() == ref._int_view()
        for p, q in zip(law.probs, ref.probs):
            assert (type(p), p.numerator, p.denominator, str(p)) == (F, q.numerator, q.denominator, str(q))

    def test_marginal_law_keeps_zero_mass_labels_and_reduces(self):
        table = {(0, "a"): 2, (2, "a"): 2, (2, "b"): 4}
        j = JointDist(("X", "Y"), table, axis_supports=((0, 1, 2), ("a", "b")), den=8)
        law = j.marginal_dist("X")
        ref = FiniteDist((0, 1, 2), (F(1, 4), F(0), F(3, 4)))
        assert law == ref and law._int_view() == ref._int_view() == (4, (1, 0, 3))


class TestAsProbability:
    def test_exact_fraction_comes_back_unchanged(self):
        p = F(2, 7)
        assert as_probability(p) is p
        assert as_probability(F(0)) == 0

    def test_coerces_ints_and_strings(self):
        assert as_probability(3) == F(3) and type(as_probability(3)) is F
        assert as_probability("2/6") == F(1, 3)

    def test_negative_fraction_rejected(self):
        with pytest.raises(ValueError, match=r"^probability must be >= 0, got -1/3$"):
            as_probability(F(-1, 3))

    @pytest.mark.parametrize("value", [0.5, 0.0, float("nan")])
    def test_floats_rejected(self, value):
        with pytest.raises(TypeError, match="got float"):
            as_probability(value)

    @pytest.mark.parametrize("value", [np.float32(0.5), np.float64(0.25), np.float16(1)])
    def test_numpy_floats_rejected_with_the_float_message(self, value):
        with pytest.raises(TypeError, match="got float"):
            as_probability(value)

    @pytest.mark.parametrize("value", [True, False, np.True_])
    def test_booleans_rejected(self, value):
        # a JSON true must not read as probability 1
        with pytest.raises(TypeError, match="got boolean"):
            as_probability(value)

    def test_joint_rejects_a_boolean_entry(self):
        with pytest.raises(TypeError, match="got boolean"):
            JointDist(("X",), {(0,): True})


class TestFractionFromJsonable:
    def test_reads_ints_strings_and_num_den_objects(self):
        assert fraction_from_jsonable(3) == F(3)
        assert fraction_from_jsonable("2/6") == F(1, 3)
        assert fraction_from_jsonable({"num": 2, "den": 6}) == F(1, 3)

    @pytest.mark.parametrize(
        "data",
        [
            True,
            False,
            {"num": True, "den": 2},
            {"num": 1, "den": True},
            {"num": 1.5, "den": 2},
            {"num": 1, "den": "2"},
        ],
    )
    def test_booleans_and_non_integer_parts_rejected(self, data):
        with pytest.raises(ValueError):
            fraction_from_jsonable(data)


class StepRng:
    """Stands in for random.Random: randrange returns the values it is given."""

    def __init__(self, values):
        self.values = iter(values)

    def randrange(self, stop):
        r = next(self.values)
        assert 0 <= r < stop
        return r


class TestSample:
    def test_every_point_of_the_range(self):
        # weights over the common denominator 12: 0, 3, 0, 2, 6, 1
        weighted = [("z0", F(0)), ("a", F(1, 4)), ("z1", F(0)), ("b", F(1, 6)),
                    ("c", F(1, 2)), ("d", F(1, 12))]
        rng = StepRng(range(12))
        drawn = [_sample(rng, weighted) for _ in range(12)]
        assert drawn == ["a"] * 3 + ["b"] * 2 + ["c"] * 6 + ["d"]

    def test_unnormalized_weights(self):
        weighted = [("a", F(2, 15)), ("b", F(1, 5)), ("z", F(0))]  # 2 : 3 over 15
        rng = StepRng(range(5))
        assert [_sample(rng, weighted) for _ in range(5)] == ["a"] * 2 + ["b"] * 3

    def test_top_of_range_skips_trailing_zero_mass(self):
        weighted = [(k, F(1, 10)) for k in range(10)] + [("never", F(0))]
        assert _sample(StepRng([9]), weighted) == 9

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            _sample(StepRng([]), [("a", F(0)), ("b", F(0))])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=9), min_size=2, max_size=5).filter(
        lambda w: sum(w) > 0
    )
)
def test_entropy_nonnegative_hypothesis(weights):
    total = sum(weights)
    d = FiniteDist(tuple(range(len(weights))), tuple(F(w, total) for w in weights))
    assert entropy(d) >= 0.0
