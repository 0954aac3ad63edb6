"""Traced boundaries and the per-layer metrics read from them.

A per-layer metric is named ``<module>.<function>.<stat>``: ``s`` is
inclusive wall time, ``self_s`` excludes traced children, ``calls`` counts
boundary crossings (``next()`` calls for a generator), and every other
stat is an exact count taken from arguments and return values. Times are
seconds per pass over the workload's operations; counts are per pass and
must repeat exactly from pass to pass.
"""

from __future__ import annotations

from tracer import Target


def _node_count(tree) -> int:
    """Nodes of the tree as its JSON writes them, a shared subtree once per
    parent. Counting distinct node objects would not repeat: ``stop_at_c``
    memoises subtrees by ``id(node)``, so how much of its output is shared
    changes from call to call while the output itself does not."""
    count = 0
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node is not None:
            count += 1
            stack.extend(node.children.values())
    return count


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def prefix_counts(item) -> dict:
    return {"prefixes": 1, "outcome_states": len(item[2])}


def joint_states(args, kwargs, joint) -> dict:
    return {"states": len(joint.table)}


def rounds_checked(args, kwargs, rounds) -> dict:
    return {"rounds": len(rounds)}


def nodes_added(args, kwargs, tree) -> dict:
    return {"nodes_added": _node_count(tree) - _node_count(_arg(args, kwargs, 0, "tree"))}


def audit_counts(args, kwargs, report) -> dict:
    masses = [report.decoded_mass, report.undecoded_mass, *report.per_transcript_mass.values()]
    return {
        "terminal_paths": report.terminal_paths,
        "rounds": report.rounds_used,
        "den_bits": max(m.denominator.bit_length() for m in masses),
    }


def decode_bytes(args, kwargs, _guess) -> dict:
    """Codebook bytes one decode scans, computed from the book's shape:
    packed bits on the binary popcount path, raw symbols otherwise."""
    book = _arg(args, kwargs, 0, "book")
    ch = _arg(args, kwargs, 2, "ch")
    row = -(-book.n // 8) if (ch.a == 1 and ch.d == 2) else book.n * book.symbols.itemsize
    return {"bytes": book.message_count * row}


def codebook_bytes(args, kwargs, book) -> dict:
    return {"bytes": book.symbols.nbytes}


TARGETS = (
    Target("cli.main", "cli", "main"),
    Target("protocols.iter_prefixes", "protocols", "iter_prefixes", "gen", prefix_counts),
    Target("protocols.enumerate_joint", "protocols", "enumerate_joint", counter=joint_states),
    Target("protocols.safety_report", "protocols", "safety_report"),
    Target("protocols.validate", "protocols", "validate"),
    Target("protocols.non_revealing", "protocols", "non_revealing"),
    Target("protocols.ProtocolTree.from_jsonable", "protocols", "ProtocolTree.from_jsonable", "classmethod"),
    Target("protocols.LeakScenario.from_jsonable", "protocols", "LeakScenario.from_jsonable", "classmethod"),
    Target("protocols.binarize", "protocols", "binarize"),
    Target("protocols.equivalent", "protocols", "equivalent"),
    Target("protocols.stop_at_c", "protocols", "stop_at_c", counter=nodes_added),
    Target("protocols.pretend_ignorance", "protocols", "pretend_ignorance"),
    Target("protocols.stop_at_c_postcondition", "protocols", "stop_at_c_postcondition"),
    Target("protocols.posterior_measure", "protocols", "posterior_measure"),
    Target("protocols.prefix_conditionals", "protocols", "prefix_conditionals"),
    Target("suspicion.check_transcript_bound", "suspicion", "check_transcript_bound"),
    Target("suspicion.check_round_decomposition", "suspicion", "check_round_decomposition", counter=rounds_checked),
    Target("suspicion.check_single_message", "suspicion", "check_single_message"),
    Target("suspicion.check_listener_monotone", "suspicion", "check_listener_monotone"),
    Target("suspicion.expected_suspicion", "suspicion", "expected_suspicion"),
    Target("suspicion.check_general_upper_bound", "suspicion", "check_general_upper_bound"),
    Target("probability.JointDist", "probability", "JointDist.__init__", "init"),
    Target("probability.mutual_information", "probability", "mutual_information"),
    Target("game.succ_of_protocol", "game", "succ_of_protocol"),
    Target("game.game_value_from_joint", "game", "game_value_from_joint"),
    Target("game.best_upper_bound", "game", "best_upper_bound"),
    Target("coding.ml_decode", "coding", "ml_decode", counter=decode_bytes),
    Target("coding.run_indep_experiment", "coding", "run_indep_experiment"),
    Target("coding.fixed_two_group_run", "coding", "fixed_two_group_run"),
    Target("coding.random_codebook", "coding", "random_codebook", counter=codebook_bytes),
    Target("coding.ratio_bound_check", "coding", "ratio_bound_check"),
    Target("embedding.equivalence_audit", "embedding", "equivalence_audit", counter=audit_counts),
    Target("embedding.g_partition", "embedding", "g_partition"),
    Target("embedding.compose_run", "embedding", "compose_run"),
)

OVERHEAD = "trace.overhead"

# metric name -> unit; BENCHMARK.json lists the same names in this order
PER_LAYER = {
    "protocols.iter_prefixes.s": "s",
    "protocols.iter_prefixes.prefixes": "count",
    "protocols.iter_prefixes.outcome_states": "count",
    "protocols.enumerate_joint.calls": "count",
    "protocols.enumerate_joint.self_s": "s",
    "protocols.enumerate_joint.states": "count",
    "protocols.safety_report.self_s": "s",
    "protocols.validate.s": "s",
    "protocols.non_revealing.s": "s",
    "protocols.ProtocolTree.from_jsonable.s": "s",
    "protocols.LeakScenario.from_jsonable.s": "s",
    "protocols.binarize.s": "s",
    "protocols.stop_at_c.s": "s",
    "protocols.stop_at_c.nodes_added": "count",
    "protocols.pretend_ignorance.s": "s",
    "protocols.stop_at_c_postcondition.s": "s",
    "protocols.posterior_measure.calls": "count",
    "protocols.posterior_measure.self_s": "s",
    "protocols.prefix_conditionals.s": "s",
    "suspicion.check_transcript_bound.self_s": "s",
    "suspicion.check_round_decomposition.calls": "count",
    "suspicion.check_round_decomposition.self_s": "s",
    "suspicion.check_round_decomposition.rounds": "count",
    "suspicion.check_single_message.calls": "count",
    "suspicion.check_single_message.s": "s",
    "suspicion.check_listener_monotone.calls": "count",
    "suspicion.check_listener_monotone.s": "s",
    "suspicion.expected_suspicion.s": "s",
    "suspicion.check_general_upper_bound.self_s": "s",
    "probability.JointDist.calls": "count",
    "probability.JointDist.s": "s",
    "probability.mutual_information.s": "s",
    "game.game_value_from_joint.s": "s",
    "game.best_upper_bound.s": "s",
    "coding.ml_decode.calls": "count",
    "coding.ml_decode.p50_ms": "ms",
    "coding.ml_decode.p95_ms": "ms",
    "coding.ml_decode.bytes": "bytes_computed",
    "coding.run_indep_experiment.self_s": "s",
    "coding.random_codebook.s": "s",
    "coding.random_codebook.bytes": "bytes",
    "coding.ratio_bound_check.calls": "count",
    "coding.ratio_bound_check.s": "s",
    "embedding.equivalence_audit.self_s": "s",
    "embedding.equivalence_audit.terminal_paths": "count",
    "embedding.equivalence_audit.rounds": "count",
    "embedding.equivalence_audit.den_bits": "bits",
    "embedding.g_partition.calls": "count",
    "embedding.g_partition.s": "s",
    "embedding.compose_run.s": "s",
    "cli.main.self_s": "s",
    OVERHEAD: "ratio",
}
