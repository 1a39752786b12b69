#!/usr/bin/env python3
"""Time the permanent process sweep (`run_process`) on its own, per arithmetic and n.

For each n, draws one random positive matrix and prints the best of k
`run_process` timings with the size the pivots reached: exact rationals
(entries p/q with p, q in 1..6) at n = 6..14, where the bit length of the
largest pivot numerator or denominator is shown, and float64 (entries in
[0.001, 0.999]) at n = 64..512, where the log2 range of the pivots is shown.
Parsing, kind conversion and the report are not timed.

Usage: python scripts/sweep_timing.py [--repeat 5] [--rational-sizes 6 7 ... 14]
                                      [--float-sizes 64 128 256 512] [--seed 0]
"""

import argparse
import math
import random
import time
from fractions import Fraction

from permbound import FLOAT64, Matrix, RATIONAL, run_process


def rational_matrix(rng, n):
    return Matrix([[Fraction(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(n)]
                   for _ in range(n)], RATIONAL)


def float_matrix(rng, n):
    return Matrix([[rng.randint(1, 999) / 1000 for _ in range(n)] for _ in range(n)], FLOAT64)


def best_ms(m, repeat):
    best = math.inf
    for _ in range(repeat):
        started = time.perf_counter()
        trace = run_process(m)
        best = min(best, time.perf_counter() - started)
    return best * 1e3, trace.pivots


def pivot_size(pivots, kind):
    if kind == RATIONAL:
        bits = max(max(p.numerator.bit_length(), p.denominator.bit_length()) for p in pivots)
        return f"{bits} bits"
    logs = [math.log2(p) for p in pivots]
    return f"2^{min(logs):.1f}..2^{max(logs):.1f}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, help="timings per size; the best is shown")
    parser.add_argument("--rational-sizes", type=int, nargs="*", default=list(range(6, 15)))
    parser.add_argument("--float-sizes", type=int, nargs="*", default=[64, 128, 256, 512])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    print(f"{'arithmetic':>10} {'n':>4} {'best ms':>10}  pivots")
    for kind, sizes, build in ((RATIONAL, args.rational_sizes, rational_matrix),
                               (FLOAT64, args.float_sizes, float_matrix)):
        for n in sizes:
            ms, pivots = best_ms(build(rng, n), args.repeat)
            print(f"{kind:>10} {n:>4} {ms:>10.3f}  {pivot_size(pivots, kind)}")


if __name__ == "__main__":
    main()
