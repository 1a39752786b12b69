#!/usr/bin/env python3
"""Compare the process bound against the row-sum baseline on random matrices.

For each n, draws random positive rational matrices (entries p/q with
q in 1..4 and p/q in (0, 5]), computes process_bound / per(A) and
rowsum_bound / per(A), and prints the median and worst process ratio and
the median row-sum ratio.  Which bound is tighter changes with n: the
process bound overshoots per(A) faster as n grows, so in the default run
(seed 0, 200 trials) its median ratio is below the row-sum one at
n = 3..6 (1.23 against 4.48 at n = 3) and above it at n = 7 (412.1
against 161.1).  On near-diagonal inputs, the paper's regime, the process
bound is the tighter one (ROADMAP.md, "Where the process helps").

Usage: python scripts/bound_comparison.py [--trials 200] [--sizes 3 4 5 6 7] [--seed 0]
"""

import argparse
import random
import statistics
from fractions import Fraction

from permbound import Matrix, RATIONAL, permanent_ryser, process_bound, rowsum_bound


def random_positive(rng, n, hi=5, max_den=4):
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            den = rng.randint(1, max_den)
            row.append(Fraction(rng.randint(1, hi * den), den))
        rows.append(tuple(row))
    return Matrix(tuple(rows), RATIONAL)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--sizes", type=int, nargs="+", default=[3, 4, 5, 6, 7])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    print(f"{'n':>3} {'med process/per':>16} {'max process/per':>16} {'med rowsum/per':>16}")
    for n in args.sizes:
        proc_ratios, row_ratios = [], []
        for _ in range(args.trials):
            a = random_positive(rng, n)
            exact = permanent_ryser(a)
            proc_ratios.append(float(process_bound(a) / exact))
            row_ratios.append(float(rowsum_bound(a) / exact))
        print(
            f"{n:>3} {statistics.median(proc_ratios):>16.4f} "
            f"{max(proc_ratios):>16.4f} {statistics.median(row_ratios):>16.4f}"
        )


if __name__ == "__main__":
    main()
