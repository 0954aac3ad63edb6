#!/usr/bin/env python3
"""Capacity tables: per-player capacity over a (b, c) grid and the
per-leaker capacity with its small-b convergence."""

import argparse
from fractions import Fraction

from cryptogenography.coding import fixed_capacity, indep_capacity, window_channel


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--den", type=int, default=12, help="grid denominator")
    args = parser.parse_args()
    den = args.den
    print("b,c,a,d,indep_capacity,fixed_capacity,indep_per_leaker")
    for j in range(1, den):
        c = Fraction(j, den)
        for i in range(1, j):
            b = Fraction(i, den)
            ch = window_channel(b, c)
            print(
                "%s,%s,%d,%d,%.6f,%.6f,%.6f"
                % (
                    b,
                    c,
                    ch.a,
                    ch.d,
                    indep_capacity(b, c),
                    fixed_capacity(c),
                    indep_capacity(b, c) / float(b),
                )
            )


if __name__ == "__main__":
    main()
