"""Toolkit for leaking a secret through public communication while bounding
every participant's posterior probability of being the source.

Exact rational probability underneath, float bits on top: suspicion
certificates, window-channel capacities and codes, protocol
transformations, the leaker-hunting game, and embedding into innocent
chatter, each checked against enumeration oracles at desk scale.
"""

__version__ = "0.1.0"

from .probability import (
    FiniteDist,
    JointDist,
    entropy,
    mutual_information,
    conditional_mutual_information,
    cross_entropy_gap,
    fano_lower_bound,
)
from .protocols import (
    LeakScenario,
    ProtocolNode,
    ProtocolTree,
    BudgetExceededError,
    validate,
    non_revealing,
    simulate,
    enumerate_joint,
    posteriors,
    binarize,
    stop_at_c,
    pretend_ignorance,
    equivalent,
    safety_report,
)
from .suspicion import (
    SuspicionCertificate,
    suspicion_point,
    expected_suspicion,
    check_single_message,
    check_listener_monotone,
    check_transcript_bound,
    check_round_decomposition,
    general_upper_bound,
    check_general_upper_bound,
    indep_capacity,
    fixed_capacity,
)
from .game import (
    GameValue,
    succ_of_protocol,
    succ_upper_bound,
    asymptotic_upper,
    asymptotic_lower_rate,
)
from .embedding import (
    Interval,
    InnocentChannel,
    InterpreterState,
    f_partition,
    g_partition,
    interpret_step,
    embed_leaker_step,
    informativeness_estimate,
    compose_run,
    equivalence_audit,
)
from .seeds import derive_seed

# the window codes need numpy, so they load on first use (PEP 562) and the
# exact layer starts without it
_CODING_NAMES = frozenset({
    "WindowChannel",
    "window_channel",
    "leak_message",
    "posterior_leak",
    "random_codebook",
    "ml_decode",
    "run_indep_experiment",
    "fixed_two_group_run",
    "ratio_bound_check",
})


def __getattr__(name):
    if name in _CODING_NAMES:
        from . import coding

        return getattr(coding, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
