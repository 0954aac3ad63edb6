import math
import random
from fractions import Fraction

import pytest

from cryptogenography.coding import fixed_capacity
from cryptogenography.game import (
    asymptotic_lower_rate,
    asymptotic_upper,
    best_upper_bound,
    game_value_from_joint,
    succ_of_protocol,
    succ_upper_bound,
)
from cryptogenography.probability import FiniteDist, JointDist
from cryptogenography.protocols import LeakScenario, ProtocolNode, ProtocolTree

from genutil import random_protocol, random_scenario

F = Fraction


def footnote_joint():
    """Classic worked posterior: {(L1,X=0): 0.97, (L1,X=1): 0.01, (L2,X=1): 0.02}."""
    return JointDist(
        ("X", "L1", "L2", "T"),
        {
            (0, 1, 0, ()): F(97, 100),
            (1, 1, 0, ()): F(1, 100),
            (1, 0, 1, ()): F(2, 100),
        },
    )


class TestGameEvaluation:
    def test_footnote_decision(self):
        gv = game_value_from_joint(footnote_joint(), 2)
        assert gv.frank_guess[()] == 1  # names the unlikely secret on purpose
        assert gv.eve_guess[()] == 2
        assert gv.succ == F(1, 100)

    def test_empty_protocol_quarter(self):
        sc = LeakScenario.fixed(FiniteDist.uniform((0, 1)), 1, 2)
        gv = succ_of_protocol(ProtocolTree(None), sc)
        assert gv.succ == F(1, 4)

    def test_protocol_game_is_played_on_the_walk(self, monkeypatch):
        """succ_of_protocol builds no JointDist, and its value and decisions,
        in transcript order, are the game on the enumerated joint."""
        from cryptogenography.protocols import enumerate_joint

        rng = random.Random(44)
        cases = []
        for _ in range(20):
            sc = random_scenario(rng, n_players=2)
            pi = random_protocol(rng, sc, max_depth=3)
            cases.append((pi, sc, game_value_from_joint(enumerate_joint(pi, sc), sc.n_players)))
        built = []
        init = JointDist.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(JointDist, "__init__", counted)
        for pi, sc, expected in cases:
            assert succ_of_protocol(pi, sc).to_jsonable() == expected.to_jsonable()
        assert built == []

    def test_succ_within_unit_interval(self):
        rng = random.Random(123)
        for _ in range(30):
            sc = random_scenario(rng, n_players=2)
            pi = random_protocol(rng, sc, max_depth=2)
            gv = succ_of_protocol(pi, sc)
            assert 0 <= gv.succ <= 1

    def test_frank_deviation_never_helps(self):
        # exchanging the implemented argmax for any other guess cannot
        # increase the group's winning mass, including at tie nodes
        rng = random.Random(321)
        for _ in range(30):
            sc = random_scenario(rng, n_players=2)
            pi = random_protocol(rng, sc, max_depth=2)
            from cryptogenography.protocols import enumerate_joint

            joint = enumerate_joint(pi, sc)
            gv = game_value_from_joint(joint, sc.n_players)
            t_idx = joint.axis_index("T")
            by_t = {}
            for key, p in joint.table.items():
                by_t.setdefault(key[t_idx], {})[key[:-1]] = p
            for t, cells in by_t.items():
                chosen = gv.win_by_transcript[t]
                for x in sc.x_support:
                    mass = sum(p for key, p in cells.items() if key[0] == x)
                    if mass == 0:
                        continue
                    worst = max(
                        (
                            sum(
                                p
                                for key, p in cells.items()
                                if key[0] == x and key[i] == 1
                            )
                            / mass
                            for i in range(1, sc.n_players + 1)
                        ),
                    )
                    assert mass * (1 - worst) <= chosen

    def test_padding_monotone_in_h(self):
        # announcing one extra uniform secret bit first can only help:
        # Succ(h, l, n, pi) <= Succ(h-1, l, n, padded pi)
        sc2 = LeakScenario.fixed(FiniteDist.uniform((0, 1, 2, 3)), 1, 2)
        sc1 = LeakScenario.fixed(FiniteDist.uniform((0, 1)), 1, 2)
        rng = random.Random(55)

        def leak_laws(bit):
            # speaker leans toward announcing the selected bit of x
            return {
                x: FiniteDist((0, 1), (F(3, 4), F(1, 4)))
                if ((x >> bit) & 1) == 0
                else FiniteDist((0, 1), (F(1, 4), F(3, 4)))
                for x in (0, 1, 2, 3)
            }

        u = FiniteDist.uniform((0, 1))
        inner2 = ProtocolNode(2, (0, 1), u, leak_laws(0), {0: None, 1: None})
        pi2 = ProtocolTree(ProtocolNode(1, (0, 1), u, leak_laws(1), {0: inner2, 1: inner2}))

        # padded variant for the 1-bit secret: player 1 announces a uniform
        # bit y (independent of leaking), then everyone plays pi2 on x' = x + 2y...
        # equivalently the leak laws index by (y, x)
        def pad_laws(bit, y):
            return {
                x: FiniteDist((0, 1), (F(3, 4), F(1, 4)))
                if (((x + 2 * y) >> bit) & 1) == 0
                else FiniteDist((0, 1), (F(1, 4), F(3, 4)))
                for x in (0, 1)
            }

        subtrees = {}
        for y in (0, 1):
            inner1 = ProtocolNode(2, (0, 1), u, pad_laws(0, y), {0: None, 1: None})
            subtrees[y] = ProtocolNode(1, (0, 1), u, pad_laws(1, y), {0: inner1, 1: inner1})
        announce = ProtocolNode(1, (0, 1), u, {0: u, 1: u}, {0: subtrees[0], 1: subtrees[1]})
        pi1 = ProtocolTree(announce)

        s2 = succ_of_protocol(pi2, sc2).succ
        s1 = succ_of_protocol(pi1, sc1).succ
        assert s2 <= s1


class TestClosedFormBounds:
    def test_value_h2_l1_chalf(self):
        assert succ_upper_bound(2, 1, F(1, 2)) == pytest.approx(0.889326, abs=1e-6)

    def test_l0_vacuous(self):
        assert succ_upper_bound(1, 0, F(1, 2)) >= 1.0

    def test_grid_dominates_empty_protocol(self):
        for k in range(1, 10):
            c = F(k, 10)
            assert succ_upper_bound(1, 1, c) >= 0.25 - 1e-12

    def test_bound_dominates_random_protocols(self):
        rng = random.Random(777)
        sc = LeakScenario.fixed(FiniteDist.uniform((0, 1)), 1, 2)
        for _ in range(20):
            pi = random_protocol(rng, sc, max_depth=2)
            succ = float(succ_of_protocol(pi, sc).succ)
            _, bound = best_upper_bound(1, 1)
            assert succ <= bound + 1e-9

    def test_range_violations(self):
        with pytest.raises(ValueError):
            succ_upper_bound(2, 1, F(3, 2))
        with pytest.raises(ValueError):
            succ_upper_bound(0, 1, F(1, 2))


class TestAsymptotics:
    def test_upper_at_one_is_ln2(self):
        assert asymptotic_upper(1.0) == pytest.approx(math.log(2), abs=1e-12)

    def test_upper_small_r_limit(self):
        assert asymptotic_upper(1e-6) == pytest.approx(1.0, abs=1e-5)

    def test_upper_at_e_minus_one(self):
        r = math.e - 1
        assert asymptotic_upper(r) == pytest.approx(1 / (math.e - 1), abs=1e-12)

    def test_lower_rate_values(self):
        assert asymptotic_lower_rate(F(1, 2)) == pytest.approx(0.557305, abs=1e-6)
        assert asymptotic_lower_rate(F(1, 4)) == pytest.approx(1.223972, abs=1e-6)

    def test_lower_rate_near_one(self):
        assert asymptotic_lower_rate(F(999999, 1000000)) == pytest.approx(0.0, abs=1e-5)

    def test_lower_rate_is_fixed_capacity(self):
        for k in range(1, 50):
            p = F(k, 50)
            assert asymptotic_lower_rate(p) == pytest.approx(
                fixed_capacity(1 - p), abs=1e-12
            )

    def test_range_violations(self):
        with pytest.raises(ValueError):
            asymptotic_upper(0.0)
        with pytest.raises(ValueError):
            asymptotic_lower_rate(F(1))
