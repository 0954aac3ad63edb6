#!/usr/bin/env python3
"""Gap between exact game values and the closed-form cap.

Evaluates the winning probability of random small protocols (and the
silent protocol) for one coin bit held by one of two players, against the
minimum of the cap over a c-grid. Exits 1 when some value exceeds the
cap (a negative gap), since the cap is a theorem for this uniform secret.
"""

import argparse
import random

from cryptogenography.game import best_upper_bound, succ_of_protocol
from cryptogenography.probability import FiniteDist
from cryptogenography.protocols import LeakScenario, ProtocolTree

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
from genutil import random_protocol  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    scenario = LeakScenario.fixed(FiniteDist.uniform((0, 1)), 1, 2)
    best_c, bound = best_upper_bound(1, 1)
    print("# cap at h=1, l=1: %.6f (c*=%s)" % (bound, best_c))
    print("protocol,succ,gap_to_bound")
    silent = succ_of_protocol(ProtocolTree(None), scenario).succ
    print("silent,%.6f,%.6f" % (silent, bound - float(silent)))
    rng = random.Random(args.seed)
    best_seen = float(silent)
    for k in range(args.count):
        tree = random_protocol(rng, scenario, max_depth=3)
        succ = float(succ_of_protocol(tree, scenario).succ)
        best_seen = max(best_seen, succ)
        print("random_%03d,%.6f,%.6f" % (k, succ, bound - succ))
    print("# best observed value: %.6f" % best_seen)
    if best_seen > bound:
        print("game value %.6f exceeds the cap %.6f" % (best_seen, bound), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
