#!/usr/bin/env python3
"""Decode-error curve for reliable leakage with independent leakers.

Sweeps the crowd size at a fixed rate below capacity and prints one row
per n with the empirical failure rate and the exact posterior audit.
"""

import argparse
import time
from fractions import Fraction

from cryptogenography.coding import indep_capacity, run_indep_experiment


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--b", type=Fraction, default="1/2")
    parser.add_argument("--c", type=Fraction, default="2/3")
    parser.add_argument("--rate", type=Fraction, default="1/10")
    parser.add_argument("--sizes", default="25,50,100,200")
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=20240809)
    args = parser.parse_args()
    cap = indep_capacity(args.b, args.c)
    print(
        "# b=%s c=%s rate=%s (%.0f%% of capacity %.6f) trials=%d seed=%d"
        % (args.b, args.c, args.rate, 100 * float(args.rate) / cap, cap, args.trials, args.seed)
    )
    print("n,failure_rate,decode_errors,tie_errors,posterior_violations,wall_s")
    for n in map(int, args.sizes.split(",")):
        started = time.perf_counter()
        rep = run_indep_experiment(args.b, args.c, args.rate, n, args.trials, args.seed)
        print(
            "%d,%.4f,%d,%d,%d,%.1f"
            % (
                n,
                rep.failure_rate,
                rep.decode_errors,
                rep.tie_errors,
                rep.posterior_violations,
                time.perf_counter() - started,
            )
        )


if __name__ == "__main__":
    main()
