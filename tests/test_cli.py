import hashlib
import json
import math
import random
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cryptogenography import protocols
from cryptogenography.cli import _canonical_json, build_parser, main
from cryptogenography.coding import window_channel, window_protocol, window_scenario
from cryptogenography.embedding import InnocentChannel
from cryptogenography.probability import FiniteDist, fraction_to_jsonable
from cryptogenography.protocols import LeakScenario, ProtocolNode, ProtocolTree

from genutil import random_protocol, random_scenario

F = Fraction


def write_instance(tmp_path, tree, scenario) -> tuple:
    p = tmp_path / "protocol.json"
    s = tmp_path / "scenario.json"
    p.write_text(json.dumps(tree.to_jsonable()))
    s.write_text(json.dumps(scenario.to_jsonable()))
    return str(p), str(s)


@pytest.fixture
def window_files(tmp_path):
    ch = window_channel(F(1, 2), F(2, 3))
    return write_instance(tmp_path, window_protocol(ch, 2), window_scenario(ch, 2))


@pytest.fixture
def footnote_files(tmp_path):
    from cryptogenography.probability import JointDist

    joint = JointDist(
        ("X", "L1", "L2"),
        {(0, 1, 0): F(97, 100), (1, 1, 0): F(1, 100), (1, 0, 1): F(2, 100)},
    )
    sc = LeakScenario(2, joint)
    pi = ProtocolTree(None)
    p = tmp_path / "empty.json"
    s = tmp_path / "footnote.json"
    p.write_text(json.dumps(pi.to_jsonable()))
    s.write_text(json.dumps(sc.to_jsonable()))
    return str(p), str(s)


def run_cli(args, out_path=None):
    argv = list(args)
    if out_path is not None:
        argv += ["--out", str(out_path)]
    return main(argv)


def decode_argv(tmp_path, name, book_json, messages, b, c):
    cb = tmp_path / ("%s-book.json" % name)
    tr = tmp_path / ("%s-transcript.json" % name)
    cb.write_text(json.dumps(book_json))
    tr.write_text(json.dumps({"messages": messages}))
    return ["decode", "--codebook", str(cb), "--transcript", str(tr), "--b", b, "--c", c]


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    st.floats(),
    st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 1e300, 5e-324]),
    st.text(),
)
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4),
    ),
    max_leaves=25,
)


class TestCanonicalJson:
    @settings(deadline=None)
    @given(JSON_TREES)
    @example({"\u00e9\x00\n\u2028": [[], {}, ()], "": {"b": [{}], "a": -0.0}})
    @example([math.nan, math.inf, -math.inf, 10**40, -(10**40), "\ud800\x7f"])
    def test_writes_what_json_dumps_writes(self, obj):
        expected = json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"
        assert _canonical_json(obj) == expected

    @pytest.mark.parametrize(
        "obj", [{1: "a"}, {"a": {None: 1}}, [Fraction(1, 2)], {"a": {1, 2}}, b"x"]
    )
    def test_rejects_what_a_report_does_not_hold(self, obj):
        with pytest.raises(TypeError):
            _canonical_json(obj)


class TestCapacity:
    def test_fixed_value(self, tmp_path, capsys):
        assert run_cli(["capacity", "--c", "1/2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rows"][0]["fixed_capacity"] == pytest.approx(0.557305, abs=1e-6)

    def test_indep_zero_at_b_equals_c(self, capsys):
        assert run_cli(["capacity", "--c", "1/3", "--b", "1/3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rows"][0]["indep_capacity"] == pytest.approx(0.0, abs=1e-12)

    def test_malformed_c_exits_2_no_file(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(["capacity", "--c", "3/2"], out_path=out)
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "grid", [["--c", "0"], ["--c", "1"], ["--c", "1/2", "--b", "3/4"], ["--c", "1/2", "--b", "0"]]
    )
    def test_out_of_range_grid_exits_2(self, tmp_path, grid):
        out = tmp_path / "report.json"
        assert run_cli(["capacity"] + grid, out_path=out) == 2
        assert not out.exists()

    def test_csv_projection(self, capsys):
        assert run_cli(["capacity", "--c", "1/2", "--b", "1/4", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "b,c,indep_capacity,fixed_capacity"
        assert lines[1].startswith("1/4,1/2,")


class TestVerify:
    def test_window_instance_certificates(self, window_files, tmp_path):
        protocol, scenario = window_files
        out = tmp_path / "verify.json"
        assert run_cli(
            ["verify", "--protocol", protocol, "--scenario", scenario, "--c", "2/3"],
            out_path=out,
        ) == 0
        data = json.loads(out.read_text())
        assert data["non_revealing"] is True
        assert data["transcript_bound"]["equality"] is True
        assert data["transcript_bound"]["holds"] is True
        assert data["all_rounds_hold"] is True
        assert data["safety"]["safe"] is True
        assert data["general_upper_bound"]["holds"] is True

    def test_revealing_protocol_flagged(self, tmp_path):
        sc = LeakScenario.independent(FiniteDist.uniform((0, 1)), 1, F(1, 2))
        p_inn = FiniteDist((0, 1), (F(1), F(0)))
        p_leak = FiniteDist((0, 1), (F(1, 2), F(1, 2)))
        node = ProtocolNode(1, (0, 1), p_inn, {0: p_leak, 1: p_leak}, {0: None, 1: None})
        p = tmp_path / "p.json"
        s = tmp_path / "s.json"
        p.write_text(json.dumps(ProtocolTree(node).to_jsonable()))
        s.write_text(json.dumps(sc.to_jsonable()))
        out = tmp_path / "v.json"
        assert run_cli(["verify", "--protocol", str(p), "--scenario", str(s)], out_path=out) == 0
        assert json.loads(out.read_text())["non_revealing"] is False

    def test_byte_identical_reruns(self, window_files, tmp_path):
        protocol, scenario = window_files
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run_cli(["verify", "--protocol", protocol, "--scenario", scenario], a) == 0
        assert run_cli(["verify", "--protocol", protocol, "--scenario", scenario], b) == 0
        assert a.read_bytes() == b.read_bytes()


    def test_library_written_string_secrets(self, tmp_path):
        # secrets whose JSON key would read back as ints
        xs = FiniteDist.uniform(("7", "8"))
        sc = LeakScenario.independent(xs, 1, F(1, 2))
        p_inn = FiniteDist((0, 1), (F(1, 2), F(1, 2)))
        p_leak = {
            "7": FiniteDist((0, 1), (F(3, 4), F(1, 4))),
            "8": FiniteDist((0, 1), (F(1, 4), F(3, 4))),
        }
        pi = ProtocolTree(ProtocolNode(1, (0, 1), p_inn, p_leak, {0: None, 1: None}))
        p, s = tmp_path / "protocol.json", tmp_path / "scenario.json"
        p.write_text(json.dumps(pi.to_jsonable()))
        s.write_text(json.dumps(sc.to_jsonable()))
        out = tmp_path / "verify.json"
        assert run_cli(["verify", "--protocol", str(p), "--scenario", str(s)], out_path=out) == 0
        assert json.loads(out.read_text())["all_rounds_hold"] is True

    def test_scenario_repeating_a_secret_label_is_rejected(self, window_files, tmp_path, capsys):
        """A scenario file whose X support lists a label twice exits 2 in
        verify and game alike, naming the axis and the label."""
        protocol, _ = window_files
        data = LeakScenario.independent(FiniteDist.uniform((0, 1)), 1, F(1, 2)).to_jsonable()
        data["joint"]["axis_supports"] = [[0, 1, 1], [0, 1]]
        scenario = tmp_path / "repeats.json"
        scenario.write_text(json.dumps(data))
        for command in ("verify", "game"):
            out = tmp_path / ("%s.json" % command)
            argv = [command, "--protocol", protocol, "--scenario", str(scenario)]
            assert run_cli(argv, out_path=out) == 2
            assert not out.exists()
            assert capsys.readouterr().err == (
                "error: --scenario %s: axis X support repeats label 1\n" % scenario
            )

    def test_scenario_repeating_a_table_key_is_rejected(self, window_files, tmp_path, capsys):
        """A scenario table row whose key an earlier row already gave exits
        2 naming the key, rather than replacing the earlier row's mass."""
        protocol, _ = window_files
        data = LeakScenario.independent(FiniteDist.uniform((0, 1)), 1, F(1, 2)).to_jsonable()
        data["joint"]["table"][1]["key"] = data["joint"]["table"][0]["key"]
        scenario = tmp_path / "repeats.json"
        scenario.write_text(json.dumps(data))
        out = tmp_path / "verify.json"
        assert run_cli(["verify", "--protocol", protocol, "--scenario", str(scenario)], out) == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: --scenario %s: joint table key (0, 0) appears twice\n" % scenario

    @staticmethod
    def count_max_posterior_scans(monkeypatch) -> list:
        """The cap argument of every ``safety_report`` call, through each
        module that calls it."""
        from cryptogenography import cli, suspicion

        caps = []

        def counted(tree, scenario, c, *args, **kwargs):
            caps.append(c)
            return protocols.safety_report(tree, scenario, c, *args, **kwargs)

        monkeypatch.setattr(cli, "safety_report", counted)
        monkeypatch.setattr(suspicion, "safety_report", counted)
        return caps

    @pytest.mark.parametrize("c, safe", [("3/5", False), ("2/3", True)])
    def test_c_is_compared_with_the_general_bounds_cap(self, tmp_path, monkeypatch, c, safe):
        """With the bound's premise holding, its cap is the largest
        posterior, so verify scans for that maximum once and compares it
        with --c."""
        ch = window_channel(F(1, 2), F(2, 3))
        tree, scenario = window_protocol(ch, 3), window_scenario(ch, 3)
        protocol, scenario_path = write_instance(tmp_path, tree, scenario)
        caps = self.count_max_posterior_scans(monkeypatch)
        out = tmp_path / "verify.json"
        argv = ["verify", "--protocol", protocol, "--scenario", scenario_path, "--c", c]
        assert run_cli(argv, out) == 0
        assert len(caps) == 1
        data = json.loads(out.read_text())
        top = fraction_to_jsonable(protocols.safety_report(tree, scenario, 1).max_posterior)
        assert top == fraction_to_jsonable(F(2, 3))
        assert data["general_upper_bound"]["c"] == top
        assert data["safety"] == {"c": c, "safe": safe, "max_posterior": top}

    def test_c_scans_once_when_the_premise_fails(self, tmp_path, monkeypatch):
        """A scenario whose leak prior depends on the secret skips the
        bound before it reads a cap; verify then scans for the maximum
        itself, once."""
        rng = random.Random(2)
        scenario = random_scenario(rng, n_players=2)
        tree = random_protocol(rng, scenario, max_depth=5, stop_prob=0.1)
        assert tree.length_bound == 5
        protocol, scenario_path = write_instance(tmp_path, tree, scenario)
        caps = self.count_max_posterior_scans(monkeypatch)
        out = tmp_path / "verify.json"
        argv = ["verify", "--protocol", protocol, "--scenario", scenario_path, "--c", "1/2"]
        assert run_cli(argv, out) == 0
        assert len(caps) == 1
        data = json.loads(out.read_text())
        assert data["general_upper_bound"]["skipped"].startswith("premise violated")
        report = protocols.safety_report(tree, scenario, F(1, 2))
        assert data["safety"] == {
            "c": "1/2",
            "safe": report.ok,
            "max_posterior": fraction_to_jsonable(report.max_posterior),
        }

    def test_c_scans_once_when_the_largest_posterior_is_one(self, tmp_path, monkeypatch):
        """The revealing protocol's largest posterior is 1, which rules the
        bound out after its scan; verify reads that scan's maximum from the
        error instead of scanning again."""
        sc = LeakScenario.independent(FiniteDist.uniform((0, 1)), 1, F(1, 2))
        p_inn = FiniteDist((0, 1), (F(1), F(0)))
        p_leak = FiniteDist((0, 1), (F(1, 2), F(1, 2)))
        node = ProtocolNode(1, (0, 1), p_inn, {0: p_leak, 1: p_leak}, {0: None, 1: None})
        protocol, scenario_path = write_instance(tmp_path, ProtocolTree(node), sc)
        caps = self.count_max_posterior_scans(monkeypatch)
        out = tmp_path / "verify.json"
        argv = ["verify", "--protocol", protocol, "--scenario", scenario_path, "--c", "2/3"]
        assert run_cli(argv, out) == 0
        assert caps == [1]
        data = json.loads(out.read_text())
        assert data["general_upper_bound"]["skipped"] == "need 0 < b <= c < 1, got b=1/2 c=1"
        assert data["safety"] == {"c": "2/3", "safe": False, "max_posterior": fraction_to_jsonable(F(1))}


class TestLeak:
    def test_rate_zero_no_errors(self, tmp_path):
        out = tmp_path / "leak.json"
        assert run_cli(
            ["leak", "--mode", "indep", "--b", "1/2", "--c", "2/3", "--rate", "0",
             "--n", "20", "--trials", "30", "--seed", "5"],
            out_path=out,
        ) == 0
        data = json.loads(out.read_text())
        assert data["report"]["decode_errors"] == 0
        assert data["report"]["tie_errors"] == 0
        assert data["report"]["posterior_violations"] == 0

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = ["leak", "--mode", "indep", "--b", "1/2", "--c", "2/3", "--rate", "1/10",
                "--n", "30", "--trials", "40", "--seed", "9"]
        run_cli(args, a)
        run_cli(args, b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "argv, ignored",
        [
            (["--mode", "fixed", "--l", "5", "--n", "20", "--c", "2/3"], ["--b", "1/3"]),
            (["--mode", "indep", "--b", "1/4", "--n", "20", "--c", "2/3"],
             ["--l", "7", "--c-prime", "3/5"]),
        ],
    )
    def test_flags_the_mode_ignores_leave_the_report(self, tmp_path, argv, ignored):
        """A flag the chosen mode does not read changes neither config_hash
        nor any other report byte."""
        argv = ["leak"] + argv + ["--rate", "1/10", "--trials", "5", "--seed", "1"]
        plain = tmp_path / "plain.json"
        extra = tmp_path / "extra.json"
        assert run_cli(argv, plain) == 0
        assert run_cli(argv + ignored, extra) == 0
        assert extra.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("mode", [["--mode", "indep"], ["--mode", "fixed", "--l", "0"]])
    def test_negative_trials_exit_2(self, tmp_path, mode):
        out = tmp_path / "leak.json"
        assert run_cli(["leak"] + mode + ["--n", "20", "--trials", "-3"], out_path=out) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--mode", "fixed", "--n", "0"], "need n >= 1 and 0 <= l <= n, got l=0, n=0"),
            (["--mode", "fixed", "--l", "-1", "--n", "10"], "need n >= 1 and 0 <= l <= n, got l=-1, n=10"),
            (["--mode", "fixed", "--l", "11", "--n", "10"], "need n >= 1 and 0 <= l <= n, got l=11, n=10"),
            (["--mode", "indep", "--n", "-3"], "n must be >= 0, got -3"),
        ],
    )
    def test_bad_crowd_sizes_are_named(self, tmp_path, capsys, argv, message):
        """A crowd size or leaker count out of range exits 2 with a message
        that names the values."""
        out = tmp_path / "leak.json"
        assert run_cli(["leak"] + argv + ["--trials", "2"], out_path=out) == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: %s\n" % message

    @pytest.mark.parametrize(
        "mode", [["--mode", "indep"], ["--mode", "fixed", "--l", "2", "--c", "1/2"]]
    )
    def test_negative_rate_is_named(self, tmp_path, capsys, mode):
        """A negative rate exits 2 naming the rate, not the codebook size it
        would have made."""
        out = tmp_path / "leak.json"
        assert run_cli(["leak"] + mode + ["--n", "20", "--rate=-1"], out_path=out) == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: rate must be >= 0, got -1\n"

    def test_fixed_mode(self, tmp_path):
        out = tmp_path / "fixed.json"
        assert run_cli(
            ["leak", "--mode", "fixed", "--l", "5", "--n", "10", "--c", "3/4",
             "--c-prime", "2/3", "--rate", "1/10", "--trials", "20", "--seed", "2"],
            out_path=out,
        ) == 0
        data = json.loads(out.read_text())
        assert data["report"]["trials"] == 20


class TestGame:
    def test_footnote_decision_trace(self, footnote_files, tmp_path):
        protocol, scenario = footnote_files
        out = tmp_path / "game.json"
        assert run_cli(["game", "--protocol", protocol, "--scenario", scenario], out_path=out) == 0
        data = json.loads(out.read_text())
        assert data["succ"] == {"num": 1, "den": 100}
        decision = data["decisions"][0]
        assert decision["frank"] == 1
        assert decision["eve_player"] == 2

    def test_csv_columns(self, footnote_files, capsys):
        protocol, scenario = footnote_files
        assert run_cli(
            ["game", "--protocol", protocol, "--scenario", scenario, "--format", "csv"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "h,l,n,protocol_id,succ,best_bound_c,bound"
        assert lines[1].split(",")[4] == "0.01"

    def test_one_secret_has_no_cap(self, tmp_path, capsys):
        """With |X| = 1 (h = 0) the cap is undefined: the report carries it
        as null in JSON and as empty fields in CSV, and the game is still
        evaluated. verify accepts the same files."""
        sc = LeakScenario.independent(FiniteDist.uniform(("only",)), 2, F(1, 3))
        pi = random_protocol(random.Random(3), sc, max_depth=2)
        files = []
        for name, obj in (("protocol", pi), ("scenario", sc)):
            path = tmp_path / ("%s.json" % name)
            path.write_text(json.dumps(obj.to_jsonable()))
            files += ["--" + name, str(path)]
        out = tmp_path / "game.json"
        assert run_cli(["game"] + files, out_path=out) == 0
        data = json.loads(out.read_text())
        assert data["h"] == 0.0
        assert data["best_bound_c"] is None and data["bound"] is None
        assert data["succ"]["num"] > 0
        assert run_cli(["game"] + files + ["--format", "csv"]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert row.startswith("0.0,") and row.endswith(",,")
        assert run_cli(["verify"] + files, out_path=tmp_path / "verify.json") == 0

    @pytest.mark.parametrize(
        "probs, b, succ",
        [
            ((F(97, 100), F(1, 100), F(1, 100), F(1, 100)), F(0), F(97, 100)),
            ((F(97, 100), F(1, 100), F(1, 100), F(1, 100)), F(1, 10), F(873, 1000)),
            # a label without mass makes the secret skewed too
            ((F(1, 2), F(1, 2), F(0)), F(1, 3), F(1, 3)),
        ],
    )
    def test_skewed_secret_has_no_cap(self, tmp_path, capsys, probs, b, succ):
        """The cap assumes a secret uniform over its support. The silent
        protocol on a skewed secret wins with probability above the
        uniform-secret cap (0.873 against 0.716 at b = 1/10), so the report
        carries no cap: null in JSON, empty fields in CSV."""
        x_dist = FiniteDist(tuple(range(len(probs))), probs)
        sc = LeakScenario.independent(x_dist, 2, b)
        files = []
        for name, obj in (("protocol", ProtocolTree(None)), ("scenario", sc)):
            path = tmp_path / ("%s.json" % name)
            path.write_text(json.dumps(obj.to_jsonable()))
            files += ["--" + name, str(path)]
        out = tmp_path / "game.json"
        assert run_cli(["game"] + files, out_path=out) == 0
        data = json.loads(out.read_text())
        assert data["succ"] == {"num": succ.numerator, "den": succ.denominator}
        assert data["best_bound_c"] is None and data["bound"] is None
        assert run_cli(["game"] + files + ["--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[1].endswith(",%s,," % float(succ))


class TestEmbed:
    def test_missing_leak_law_names_the_secret(self, tmp_path, capsys):
        """A protocol without a leak law for some scenario secret exits 2
        with the message game and verify give, not a bare KeyError."""
        sc = LeakScenario.independent(FiniteDist.uniform((0, 1, 2)), 1, F(1, 2))
        law = FiniteDist(("a1", "a2"), (F(2, 5), F(3, 5)))
        node = ProtocolNode(1, ("a1", "a2"), law, {0: law, 1: law}, {"a1": None, "a2": None})
        channel = InnocentChannel.iid_uniform(1, ("m1", "m2"))
        files = {"protocol": ProtocolTree(node), "scenario": sc, "channel": channel}
        args = ["embed"]
        for name, obj in files.items():
            path = tmp_path / ("%s.json" % name)
            path.write_text(json.dumps(obj.to_jsonable()))
            args += ["--" + name, str(path)]
        out = tmp_path / "embed.json"
        assert run_cli(args, out) == 2
        assert capsys.readouterr().err == "error: node has no leak law for secret 2\n"
        assert not out.exists()

    def test_replay_determinism_and_audit(self, tmp_path):
        sc = LeakScenario.independent(FiniteDist.uniform((0, 1)), 1, F(1, 2))
        p_inn = FiniteDist(("a1", "a2"), (F(2, 5), F(3, 5)))
        p0 = FiniteDist(("a1", "a2"), (F(1), F(0)))
        p1 = FiniteDist(("a1", "a2"), (F(1, 5), F(4, 5)))
        node = ProtocolNode(1, ("a1", "a2"), p_inn, {0: p0, 1: p1}, {"a1": None, "a2": None})
        law = FiniteDist(("m1", "m2"), (F(3, 5), F(2, 5)))
        channel = InnocentChannel(1, ({1: law},), True)
        p = tmp_path / "p.json"
        s = tmp_path / "s.json"
        c = tmp_path / "c.json"
        p.write_text(json.dumps(ProtocolTree(node).to_jsonable()))
        s.write_text(json.dumps(sc.to_jsonable()))
        c.write_text(json.dumps(channel.to_jsonable()))
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = ["embed", "--protocol", str(p), "--scenario", str(s), "--channel", str(c),
                "--seed", "33", "--max-rounds", "200", "--audit-depth", "60"]
        assert run_cli(args, a) == 0
        run_cli(args, b)
        assert a.read_bytes() == b.read_bytes()
        data = json.loads(a.read_text())
        assert data["audit"]["ok"] is True
        assert data["run"]["decoded"] is not None

    @pytest.mark.parametrize("flag, value", [("--audit-depth", "-3"), ("--max-rounds", "-2")])
    def test_negative_round_counts_exit_2(self, tmp_path, flag, value):
        """A negative audit depth or round budget is a usage error: exit 2,
        with no report and no budget error record."""
        sc = LeakScenario.independent(FiniteDist.uniform((0, 1)), 1, F(1, 2))
        law = FiniteDist(("a1", "a2"), (F(2, 5), F(3, 5)))
        node = ProtocolNode(1, ("a1", "a2"), law, {0: law, 1: law}, {"a1": None, "a2": None})
        channel = InnocentChannel.iid_uniform(1, ("m1", "m2"))
        files = {"protocol": ProtocolTree(node), "scenario": sc, "channel": channel}
        args = ["embed"]
        for name, obj in files.items():
            path = tmp_path / ("%s.json" % name)
            path.write_text(json.dumps(obj.to_jsonable()))
            args += ["--" + name, str(path)]
        out = tmp_path / "embed.json"
        assert run_cli(args + [flag, value], out) == 2
        assert not out.exists()

    def test_channel_probabilities_as_strings(self, tmp_path):
        sc = LeakScenario.independent(FiniteDist.uniform((0, 1)), 1, F(1, 2))
        law = FiniteDist(("a1", "a2"), (F(2, 5), F(3, 5)))
        node = ProtocolNode(1, ("a1", "a2"), law, {0: law, 1: law}, {"a1": None, "a2": None})
        p = tmp_path / "p.json"
        s = tmp_path / "s.json"
        c = tmp_path / "c.json"
        p.write_text(json.dumps(ProtocolTree(node).to_jsonable()))
        s.write_text(json.dumps(sc.to_jsonable()))
        c.write_text(json.dumps({
            "players": 1,
            "rounds": [{"player": 1, "alphabet": ["m1", "m2"], "probs": ["1/3", "2/3"]}],
        }))
        out = tmp_path / "embed.json"
        args = ["embed", "--protocol", str(p), "--scenario", str(s), "--channel", str(c),
                "--audit-depth", "60"]
        assert run_cli(args, out) == 0
        assert json.loads(out.read_text())["audit"]["ok"] is True


class TestDecode:
    def test_roundtrip(self, tmp_path):
        from cryptogenography.coding import random_codebook

        book = random_codebook(3, 16, 2, seed=77)
        cb = tmp_path / "book.json"
        cb.write_text(json.dumps(book.to_jsonable()))
        x = 5
        tr = tmp_path / "transcript.json"
        tr.write_text(json.dumps({"messages": [int(v) for v in book.row(x)]}))
        out = tmp_path / "decode.json"
        assert run_cli(
            ["decode", "--codebook", str(cb), "--transcript", str(tr),
             "--b", "1/2", "--c", "2/3"],
            out_path=out,
        ) == 0
        data = json.loads(out.read_text())
        assert data["x_hat"] == x

    def test_missing_file_exits_2(self, tmp_path):
        code = run_cli(
            ["decode", "--codebook", str(tmp_path / "nope.json"),
             "--transcript", str(tmp_path / "nope2.json")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "book_json,messages,b,c",
        [
            # messages below, above and (on d=2) just past the alphabet
            ({"seed": 1, "h": 3, "n": 6, "d": 3, "stream": 2}, [0] * 6, "1/4", "1/2"),
            ({"seed": 1, "h": 3, "n": 6, "d": 3, "stream": 2}, [1, 2, 3, 7, 1, 2], "1/4", "1/2"),
            ({"seed": 2, "h": 3, "n": 5, "d": 2}, [1, 2, 3, 1, 2], "1/2", "2/3"),
            # a binary book read through the d=3 channel
            ({"seed": 2, "h": 3, "n": 5, "d": 2}, [1, 2, 2, 1, 2], "1/4", "1/2"),
            # fractional, boolean and string messages used to be truncated
            # or parsed into 1..d and decoded with exit code 0
            ({"seed": 1, "h": 3, "n": 6, "d": 3, "stream": 2}, [1.5, 2.5, 1.5, 3.5, 2.5, 1.5], "1/4", "1/2"),
            ({"seed": 1, "h": 3, "n": 6, "d": 3, "stream": 2}, [1, 2, True, 3, 1, 2], "1/4", "1/2"),
            ({"seed": 2, "h": 3, "n": 5, "d": 2}, [True] * 5, "1/2", "2/3"),
            ({"seed": 1, "h": 3, "n": 6, "d": 3, "stream": 2}, ["1", "2", "3", "1", "2", "3"], "1/4", "1/2"),
        ],
    )
    def test_invalid_transcript_or_alphabet_exits_2(self, tmp_path, book_json, messages, b, c):
        argv = decode_argv(tmp_path, "bad", book_json, messages, b, c)
        out = tmp_path / "decode.json"
        assert run_cli(argv, out_path=out) == 2
        assert not out.exists()

    def test_codebook_without_stream_field(self, tmp_path, capsys):
        """A book written without a ``stream`` field is stream 1, the draw
        of one generator call: read at d = 2, where it is this package's
        book, and refused at d = 3, where it is another book."""
        import numpy as np

        sent = np.random.default_rng(8).integers(1, 3, size=(2**10, 40), dtype=np.uint8)[700]
        argv = decode_argv(tmp_path, "d2", {"seed": 8, "h": 10, "n": 40, "d": 2},
                           [int(s) for s in sent], "1/2", "2/3")
        out = tmp_path / "decode.json"
        assert run_cli(argv, out_path=out) == 0
        assert json.loads(out.read_text())["x_hat"] == 700
        out.unlink()
        argv = decode_argv(tmp_path, "d3", {"seed": 8, "h": 10, "n": 40, "d": 3}, [1] * 40, "1/4", "1/2")
        assert run_cli(argv, out_path=out) == 2
        assert capsys.readouterr().err == (
            "error: --codebook %s: codebook stream 1 names another book than stream 2 at d=3; "
            "they agree only at d = 1 and at powers of two\n" % argv[2]
        )
        assert not out.exists()

    @pytest.mark.parametrize("stream", [0, 3, "2", None])
    def test_unknown_codebook_stream_names_the_field(self, tmp_path, capsys, stream):
        book = {"seed": 8, "h": 4, "n": 6, "d": 2, "stream": stream}
        argv = decode_argv(tmp_path, "stream", book, [1] * 6, "1/2", "2/3")
        out = tmp_path / "decode.json"
        assert run_cli(argv, out_path=out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --codebook %s: codebook stream must be " % argv[2])
        assert not out.exists()

    @pytest.mark.parametrize(
        "messages,shape",
        # a nested list once read as "length 6" and a scalar as "length 1"
        [([[1, 1, 1], [1, 1, 1]], "(2, 3)"), (5, "()"), ([1, 2, 1], "(3,)")],
    )
    def test_misshapen_transcript_states_its_shape(self, tmp_path, capsys, messages, shape):
        argv = decode_argv(tmp_path, "shape", {"seed": 1, "h": 3, "n": 6, "d": 2}, messages, "1/2", "2/3")
        out = tmp_path / "decode.json"
        assert run_cli(argv, out_path=out) == 2
        assert capsys.readouterr().err == "error: transcript must be n=6 messages, got shape %s\n" % shape
        assert not out.exists()

    @pytest.mark.parametrize(
        "field,value",
        [
            # a fractional n or d used to be truncated and decode against
            # another book with exit code 0
            ("n", 4.9),
            ("d", 2.5),
            ("seed", 1.5),
            ("n", "4"),
            ("d", True),
            # these used to end in an uncaught TypeError (exit code 1)
            ("h", -2),
            ("h", "3"),
            # out of the range of a codebook, whichever way it is drawn
            ("d", 0),
            ("d", -3),
            ("d", 65536),
            ("n", -1),
        ],
    )
    def test_malformed_codebook_exits_2(self, tmp_path, field, value):
        book_json = dict({"seed": 2, "h": 3, "n": 4, "d": 2}, **{field: value})
        argv = decode_argv(tmp_path, "malformed", book_json, [1, 2, 2, 1], "1/2", "2/3")
        out = tmp_path / "decode.json"
        assert run_cli(argv, out_path=out) == 2
        assert not out.exists()


def input_files(tmp_path) -> dict:
    """A well-formed file for each CLI input flag, by flag name."""
    ch = window_channel(F(1, 2), F(2, 3))
    objs = {
        "protocol": window_protocol(ch, 2).to_jsonable(),
        "scenario": window_scenario(ch, 2).to_jsonable(),
        "channel": InnocentChannel.iid_uniform(2, ("m1", "m2")).to_jsonable(),
        "codebook": {"seed": 1, "h": 3, "n": 6, "d": 2},
        "transcript": {"messages": [1, 2, 1, 1, 2, 2]},
    }
    paths = {}
    for name, obj in objs.items():
        paths[name] = tmp_path / ("%s.json" % name)
        paths[name].write_text(json.dumps(obj))
    return paths


def fraction_json(num, den) -> dict:
    """A fraction as the JSON files write it, with any denominator."""
    return {"num": num, "den": den}


def with_field(keys, value):
    """A spoiler that sets the field at the path ``keys`` of a well-formed
    file to ``value``."""

    def write(path):
        data = json.loads(path.read_text())
        *outer, last = keys
        node = data
        for key in outer:
            node = node[key]
        node[last] = value
        path.write_text(json.dumps(data))

    return write


# (command, flag, how the flag's file is spoiled, what the error says):
# None puts a directory at the path, whose error is worded by the platform;
# a str is the file's whole text
MALFORMED_INPUTS = [
    pytest.param("verify", "protocol", None, "", id="verify-protocol-directory"),
    pytest.param("verify", "protocol", "[]", "wrong JSON shape", id="verify-protocol-list"),
    pytest.param("verify", "scenario", "[]", "wrong JSON shape", id="verify-scenario-list"),
    pytest.param("game", "scenario", with_field(("joint", "table"), 5), "wrong JSON shape",
                 id="game-scenario-table-5"),
    pytest.param("embed", "channel", with_field(("rounds",), 5), "wrong JSON shape",
                 id="embed-channel-rounds-5"),
    pytest.param("embed", "channel", None, "", id="embed-channel-directory"),
    pytest.param("decode", "codebook", "[]", "wrong JSON shape", id="decode-codebook-list"),
    pytest.param("decode", "transcript", "[]", "wrong JSON shape", id="decode-transcript-list"),
    pytest.param("decode", "transcript", '"messages"', "wrong JSON shape", id="decode-transcript-string"),
    # `{}` is the silent protocol, so the protocol's empty object is its root
    pytest.param("verify", "protocol", '{"root": {}}', "missing field 'alphabet'", id="verify-protocol-empty-root"),
    pytest.param("verify", "scenario", "{}", "missing field 'joint'", id="verify-scenario-empty"),
    pytest.param("embed", "channel", "{}", "missing field 'players'", id="embed-channel-empty"),
    pytest.param("decode", "codebook", "{}", "missing field 'n'", id="decode-codebook-empty"),
    pytest.param("decode", "transcript", "{}", "missing field 'messages'", id="decode-transcript-empty"),
    # a value the file's reader refuses, or text that is not JSON
    pytest.param("verify", "protocol", with_field(("root", "p_innocent", "probs"), [fraction_json(1, 2), fraction_json(1, 3)]),
                 "probabilities must sum to exactly 1, got 5/6", id="verify-protocol-law-sum"),
    pytest.param("verify", "protocol", "{", "Expecting property name", id="verify-protocol-not-json"),
    pytest.param("verify", "scenario", with_field(("joint", "table", 0, "p"), fraction_json(-1, 4)),
                 "probability must be >= 0, got -1/4", id="verify-scenario-negative"),
    pytest.param("game", "scenario", with_field(("joint", "table", 0, "p"), fraction_json(1, 0)),
                 "Fraction(1, 0)", id="game-scenario-over-zero"),
    pytest.param("game", "scenario", with_field(("n_players",), 0),
                 "scenario axes must be ('X',), got ('X', 'L1', 'L2')", id="game-scenario-players"),
    pytest.param("embed", "channel", with_field(("rounds", 0, 0, "probs"), [fraction_json(1, 3), fraction_json(1, 3)]),
                 "probabilities must sum to exactly 1, got 2/3", id="embed-channel-law-sum"),
]

class TestInputFiles:
    @pytest.mark.parametrize("command,flag,spoil,reason", MALFORMED_INPUTS)
    def test_unreadable_or_misshapen_file_exits_2(self, tmp_path, capsys, command, flag, spoil, reason):
        """A file that cannot be read, is not JSON, whose JSON has the
        wrong shape, lacks a field or holds a refused value is bad input:
        exit 2, one error line naming the flag and saying why, no report."""
        paths = input_files(tmp_path)
        if spoil is None:
            paths[flag].unlink()
            paths[flag].mkdir()
        elif isinstance(spoil, str):
            paths[flag].write_text(spoil)
        else:
            spoil(paths[flag])
        argv = [command]
        for option in MINIMAL_ARGV[command][::2]:
            argv += [option, str(paths[option[2:]])]
        out = tmp_path / "report.json"
        assert run_cli(argv, out) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: --%s %s: " % (flag, paths[flag]))
        assert reason in err
        assert not out.exists()

    def test_utf8_bom_is_read(self, tmp_path):
        """Each input is parsed from its bytes, so a UTF-8 byte order mark
        is accepted; the config hash still describes the file's bytes."""
        paths = input_files(tmp_path)
        argv = ["verify", "--protocol", str(paths["protocol"]), "--scenario", str(paths["scenario"])]
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        assert run_cli(argv, plain) == 0
        paths["scenario"].write_bytes(b"\xef\xbb\xbf" + paths["scenario"].read_bytes())
        assert run_cli(argv, marked) == 0
        plain, marked = json.loads(plain.read_text()), json.loads(marked.read_text())
        assert plain.pop("config_hash") != marked.pop("config_hash")
        assert plain == marked


def golden_cases(tmp_path):
    """name -> argv of the small runs whose reports are pinned below."""
    from cryptogenography.coding import random_codebook, window

    ch = window_channel(F(2, 5), F(1, 2))  # a=2, d=3
    noisy = [window(ch, int(s))[0] for s in random_codebook(8, 70, 3, seed=12).row(37)]
    noisy[:20] = [i % 3 + 1 for i in range(20)]
    indep = ["leak", "--mode", "indep", "--b"]
    book_d3 = {"seed": 12, "h": 8, "n": 70, "d": 3, "stream": 2}
    book_tie = {"seed": 15, "h": 3, "n": 4, "d": 2}
    return {
        "leak-indep-d2": indep + ["1/2", "--c", "2/3", "--n", "70", "--rate", "1/10",
                                  "--trials", "30", "--seed", "2"],
        "leak-indep-d3": indep + ["2/5", "--c", "1/2", "--n", "13", "--rate", "1/5",
                                  "--trials", "40", "--seed", "1"],
        "leak-indep-d9": indep + ["1/10", "--c", "1/2", "--n", "65", "--rate", "1/10",
                                  "--trials", "20", "--seed", "3"],
        "leak-fixed": ["leak", "--mode", "fixed", "--l", "3", "--n", "17", "--c", "1/2",
                       "--rate", "1/4", "--trials", "30", "--seed", "7"],
        "decode-d3": decode_argv(tmp_path, "d3", book_d3, noisy, "2/5", "1/2"),
        "decode-tie": decode_argv(tmp_path, "tie", book_tie, [1, 2, 1, 2], "1/2", "2/3"),
    }


# sha256 of each report, recorded with the one-transcript-at-a-time
# decoder: a change to any report, or to the random streams behind it,
# fails here
GOLDEN = {
    "leak-indep-d2": "9baec98577724f22a2542b593931e0a9bd79976172041291ff6387de8d064b15",
    "leak-indep-d3": "2474d00b55a54a3748af4efbef9edf760a99eab850d08b016290dae2afac598b",
    "leak-indep-d9": "6d19f817c13ef9d3c4237f74c1c9ed8627124f9747d124c0f13da7ffaf0f6345",
    "leak-fixed": "29ffdd14e89e15497b90d0663b31b62793532722964893b34c8eec3efc3bf2e5",
    "decode-d3": "9facb982afbd8b2dac2f37993672bc6db69c3de502d81c83732b3b9c67e4769a",
    "decode-tie": "d98e2f6edbf241decd745856a66f414e9883dc228566e9dd1c7cf458f53a0f25",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report_digest(tmp_path, name):
    out = tmp_path / "report.json"
    assert run_cli(golden_cases(tmp_path)[name], out_path=out) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[name]


def protocol_golden_cases(tmp_path):
    """name -> argv of `verify --c` and `game` runs on the n=3 window instance
    and two seeded random deep protocols, one on a random scenario and one
    on an independent scenario (so the general upper bound is not skipped)."""
    ch = window_channel(F(1, 2), F(2, 3))
    instances = {"window3": (window_protocol(ch, 3), window_scenario(ch, 3))}
    rng = random.Random(31)
    sc = random_scenario(rng, n_players=3)
    instances["deep-random"] = (random_protocol(rng, sc, max_depth=4, stop_prob=0.2), sc)
    rng = random.Random(34)
    sc = LeakScenario.independent(FiniteDist.uniform((0, 1, 2)), 3, F(1, 3))
    instances["deep-indep"] = (random_protocol(rng, sc, max_depth=4, stop_prob=0.2), sc)
    cases = {}
    for name, (pi, sc) in instances.items():
        p = tmp_path / ("%s-protocol.json" % name)
        s = tmp_path / ("%s-scenario.json" % name)
        p.write_text(json.dumps(pi.to_jsonable()))
        s.write_text(json.dumps(sc.to_jsonable()))
        files = ["--protocol", str(p), "--scenario", str(s)]
        cases["verify-" + name] = ["verify"] + files + ["--c", "3/4"]
        cases["game-" + name] = ["game"] + files
    return cases


# sha256 of each report, recorded before the posterior tallies were folded
# into one helper: the verify and game reports must not move
PROTOCOL_GOLDEN = {
    "game-deep-indep": "f5995909efc034c08737c110fc77bc59c067dfbaa63eaee63978f01e01bd1f3e",
    "game-deep-random": "47e88bb82717870d882d06f912557876144afe732ae9dcd018d9aae908dac552",
    "game-window3": "e32b30168d18b93a88d94e54954811b68480ba3543ec5bccb46253f07a8fcb0a",
    "verify-deep-indep": "8e0618371ded090eb93e12192c9b442025e84eb8f1e3656a935bfca89ad9bbed",
    "verify-deep-random": "1b5bde25defb7c0896100454c6f9b535e46e95a8c2a49910611f7f41909d1f19",
    "verify-window3": "5f80dba40657eacfafea38817100a788275651f1172c4c44e35ef397d8ef86b6",
}


@pytest.mark.parametrize("name", sorted(PROTOCOL_GOLDEN))
def test_protocol_golden_report_digest(tmp_path, name):
    out = tmp_path / "report.json"
    assert run_cli(protocol_golden_cases(tmp_path)[name], out_path=out) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PROTOCOL_GOLDEN[name]


def embed_golden_cases(tmp_path):
    """name -> argv of `embed --audit-depth` runs on the figure instance of
    TestEmbed and on the n=2 and n=3 window instances under (1/3, 2/3)
    chatter."""
    sc = LeakScenario.independent(FiniteDist.uniform((0, 1)), 1, F(1, 2))
    p_inn = FiniteDist(("a1", "a2"), (F(2, 5), F(3, 5)))
    p0 = FiniteDist(("a1", "a2"), (F(1), F(0)))
    p1 = FiniteDist(("a1", "a2"), (F(1, 5), F(4, 5)))
    node = ProtocolNode(1, ("a1", "a2"), p_inn, {0: p0, 1: p1}, {"a1": None, "a2": None})
    law = FiniteDist(("m1", "m2"), (F(3, 5), F(2, 5)))
    ch = window_channel(F(1, 2), F(2, 3))
    chatter = FiniteDist(("u", "v"), (F(1, 3), F(2, 3)))
    instances = {
        "figure": (ProtocolTree(node), sc, InnocentChannel(1, ({1: law},), True), "60"),
        "window2": (
            window_protocol(ch, 2),
            window_scenario(ch, 2),
            InnocentChannel(2, ({1: chatter, 2: chatter},), True),
            "40",
        ),
        "window3": (
            window_protocol(ch, 3),
            window_scenario(ch, 3),
            InnocentChannel(3, ({1: chatter, 2: chatter, 3: chatter},), True),
            "40",
        ),
    }
    cases = {}
    for name, (pi, scenario, channel, depth) in instances.items():
        files = []
        for part, obj in (("protocol", pi), ("scenario", scenario), ("channel", channel)):
            path = tmp_path / ("%s-%s.json" % (name, part))
            path.write_text(json.dumps(obj.to_jsonable()))
            files += ["--" + part, str(path)]
        cases[name] = ["embed"] + files + ["--seed", "5", "--audit-depth", depth]
    return cases


# sha256 of the `audit` object of each embed report, recorded before the
# samplers and the leaker step law were folded (window3: before intervals
# became ints): the sampled `run` may move with the random stream, the
# exact audit must not
EMBED_AUDIT_GOLDEN = {
    "figure": "ae8c782b43c2ea023cc3b6b1fe281b9e99bb215e9e15185dca9f5f8a49aea5bf",
    "window2": "adc1149d7fd5064948ffddf5a93159841cc3a509b7de2ec1c77a2552ca67fcce",
    "window3": "e68097135f180f3cfcfcf8ca6fad968c98a99d8c27f63d1c90eacc6a8bcd51d9",
}


@pytest.mark.parametrize("name", sorted(EMBED_AUDIT_GOLDEN))
def test_embed_audit_golden_digest(tmp_path, name):
    out = tmp_path / "report.json"
    assert run_cli(embed_golden_cases(tmp_path)[name], out_path=out) == 0
    audit = json.loads(out.read_text())["audit"]
    text = json.dumps(audit, sort_keys=True, indent=2, ensure_ascii=True)
    assert hashlib.sha256(text.encode()).hexdigest() == EMBED_AUDIT_GOLDEN[name]


class TestBudgetErrors:
    def test_verify_budget_exhaustion_leaves_error_record(self, window_files, tmp_path):
        protocol, scenario = window_files
        out = tmp_path / "verify.json"
        code = run_cli(
            ["verify", "--protocol", protocol, "--scenario", scenario, "--budget", "2"],
            out_path=out,
        )
        assert code == 1
        record = json.loads(out.read_text())
        assert record["error"]["kind"] == "budget"


    def test_verify_budget_reaches_every_walk(self, window_files, tmp_path, monkeypatch):
        # with the library default too small, only --budget lets verify finish
        protocol, scenario = window_files
        monkeypatch.setattr(protocols, "DEFAULT_ENUMERATION_BUDGET", 2)
        argv = ["verify", "--protocol", protocol, "--scenario", scenario, "--c", "2/3"]
        argv += ["--budget", str(10**6)]
        assert run_cli(argv, out_path=tmp_path / "verify.json") == 0
        assert json.loads((tmp_path / "verify.json").read_text())["safety"]["safe"] is True

    def test_budget_flag_defaults_to_library_budget(self, window_files, tmp_path, monkeypatch):
        # without --budget, verify keeps the library's default state budget
        protocol, scenario = window_files
        monkeypatch.setattr(protocols, "DEFAULT_ENUMERATION_BUDGET", 2)
        out = tmp_path / "verify.json"
        assert run_cli(["verify", "--protocol", protocol, "--scenario", scenario], out) == 1
        assert json.loads(out.read_text())["error"] == {
            "kind": "budget",
            "message": "enumeration exceeded 2 outcome states (states read: 16, prefixes read: 1); "
            "raise the budget explicitly",
        }
        argv = ["game", "--protocol", protocol, "--scenario", scenario]
        assert build_parser().parse_args(argv).budget == 2


def leak_peak_rss(args) -> tuple:
    """(report, peak RSS in KiB) of one `leak` run. The run goes in a
    grandchild so that RUSAGE_CHILDREN of the middle process sees it alone."""
    leak = [sys.executable, "-m", "cryptogenography.cli", "leak"] + args
    probe = (
        "import json, resource, subprocess, sys\n"
        "proc = subprocess.run(json.loads(sys.argv[1]), capture_output=True, text=True)\n"
        "print(json.dumps([proc.returncode, proc.stdout, proc.stderr,\n"
        "                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe, json.dumps(leak)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    code, stdout, stderr, maxrss_kib = json.loads(proc.stdout)
    assert code == 0, stderr
    return json.loads(stdout)["report"], maxrss_kib


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss units differ off Linux")
def test_binary_leak_peak_memory():
    """The 2^20 x 200 binary book of the window-leak benchmark is streamed
    through the decoder and never held: the run peaks near 38 MB. Holding
    its 34 MB of bit-planes peaked near 71 MB, and building its 210 MB
    symbol matrix first at about 270 MB."""
    report, maxrss_kib = leak_peak_rss(["--mode", "indep", "--b", "1/2", "--c", "2/3", "--n", "200",
                                        "--rate", "1/10", "--trials", "16", "--seed", "3"])
    assert report["trials"] == 16
    assert maxrss_kib < 160 * 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss units differ off Linux")
def test_ternary_leak_peak_memory():
    """A 2^20 x 200 book over d = 3 is streamed, once to read the trials'
    codewords and once through the decoder, and never held: the run peaks
    near 39 MB. Keeping its 67 MB of bit-planes for the trials' rows peaked
    near 103 MB, and drawing its 210 MB symbol matrix in one call near
    700 MB."""
    report, maxrss_kib = leak_peak_rss(["--mode", "indep", "--b", "1/4", "--c", "1/2", "--n", "200",
                                        "--rate", "1/10", "--trials", "8", "--seed", "3"])
    assert report["trials"] == 8
    assert maxrss_kib < 64 * 1024


# the fewest arguments each subcommand parses with
MINIMAL_ARGV = {
    "capacity": ["--c", "1/2"],
    "verify": ["--protocol", "p.json", "--scenario", "s.json"],
    "leak": [],
    "game": ["--protocol", "p.json", "--scenario", "s.json"],
    "embed": ["--protocol", "p.json", "--scenario", "s.json", "--channel", "i.json"],
    "decode": ["--codebook", "book.json", "--transcript", "t.json"],
}

# shared flags a subcommand does not read, so does not accept
UNREAD_FLAGS = [
    ("capacity", "--seed"),
    ("capacity", "--budget"),
    ("verify", "--format"),
    ("verify", "--seed"),
    ("leak", "--format"),
    ("leak", "--budget"),
    ("game", "--seed"),
    ("embed", "--format"),
    ("embed", "--budget"),
    ("decode", "--format"),
    ("decode", "--seed"),
    ("decode", "--budget"),
]


@pytest.mark.parametrize("command,flag", UNREAD_FLAGS)
def test_unread_flag_is_rejected(command, flag, capsys):
    value = "csv" if flag == "--format" else "1"
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, *MINIMAL_ARGV[command], flag, value])
    assert exc.value.code == 2
    assert "unrecognized arguments: %s %s" % (flag, value) in capsys.readouterr().err


def readme_cli_lines() -> list:
    """Every `cryptogeno ...` line of README's code blocks, comments cut."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"^```\n(.*?)^```", readme.read_text(), re.S | re.M)
    lines = [line for block in blocks for line in block.splitlines()]
    return [line.split("#")[0] for line in lines if line.startswith("cryptogeno ")]


def test_readme_cli_examples_parse():
    lines = readme_cli_lines()
    assert {shlex.split(line)[1] for line in lines} == set(MINIMAL_ARGV)
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_budget_flag_does_not_carry_over(self, window_files, tmp_path):
        protocol, scenario = window_files
        argv = ["verify", "--protocol", protocol, "--scenario", scenario]
        assert run_cli(argv + ["--budget", "2"], tmp_path / "small.json") == 1
        assert run_cli(argv, tmp_path / "default.json") == 0
        assert json.loads((tmp_path / "default.json").read_text())["all_rounds_hold"] is True
        assert build_parser().parse_args(argv).budget == protocols.DEFAULT_ENUMERATION_BUDGET

    @pytest.mark.parametrize("command", sorted(MINIMAL_ARGV))
    def test_help_leaves_the_parser_usable(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        capsys.readouterr()
        assert run_cli(["capacity", "--c", "1/2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["rows"][0]["fixed_capacity"] == pytest.approx(0.557305, abs=1e-6)


def test_exact_commands_never_load_numpy(tmp_path):
    """verify, game and embed run on the exact layer alone, so numpy, which
    only the window codes need, is never imported."""
    ch = window_channel(F(1, 2), F(2, 3))
    protocol, scenario = write_instance(tmp_path, window_protocol(ch, 2), window_scenario(ch, 2))
    files = ["--protocol", protocol, "--scenario", scenario]
    chatter = FiniteDist(("u", "v"), (F(1, 3), F(2, 3)))
    channel = tmp_path / "channel.json"
    channel.write_text(json.dumps(InnocentChannel(2, ({1: chatter, 2: chatter},), True).to_jsonable()))
    argvs = [
        ["verify", *files, "--c", "2/3"],
        ["game", *files],
        ["embed", *files, "--channel", str(channel), "--audit-depth", "40"],
    ]
    for i, argv in enumerate(argvs):
        argv += ["--out", str(tmp_path / ("report-%d.json" % i))]
    probe = (
        "import json, sys\n"
        "from cryptogenography.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, 'numpy' in sys.modules]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0, 0], False]


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cryptogenography.cli", "capacity", "--c", "1/2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["rows"][0]["fixed_capacity"] == pytest.approx(
            0.557305, abs=1e-6
        )
