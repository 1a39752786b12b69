#!/usr/bin/env python3
"""Time the permanent process sweep (`run_process`) on its own, per arithmetic and n.

For each n, draws one random positive matrix and prints the best of k
`run_process` timings with the size the pivots reached: exact rationals
(entries p/q with p, q in 1..6) at n = 6..14, where the time is that of
the sweep with its reduced bound and the bit length of the largest pivot
numerator or denominator is shown (read after the timing: that first
read of `pivots` reduces them, and is not timed), beside the bit length
of the last integer pivot the sweep held, unreduced (the growth that the
sweep's skipped gcds leave), and float64 (entries in
[0.001, 0.999]) at n = 64..512, where the log2 range of the pivots is shown,
the rate, (2/3) n^3 flops over the time, and the gap: the largest relative
difference between the pivots and those of a per-step numpy sweep of the
same matrix (`numpy_sweep` of tests/oracles.py: one outer product per
step, as the plain loop rounds), up to the first pivot that is not finite
in either.  At each float n it also prints the best of k `run_process`
timings on the Gram matrix of that matrix taken as a factor with its
fourth column (the last below n = 4) set to zero ("gram-zero"), with the
count of zero pivots and the gap to the
per-step sweep: the skipped pivot ends the sweep's panels in its first
one, so the rest runs as the plain loop and the gap is 0.  At each float
n it also times `run_process` on the exponential family c^-|i-j| at
c = sqrt(n), read by `parse_csv_text` from the 20-significant-digit
literals that the benchmark's bound-float-large inputs hold ("exp-csv",
with the pivots' log2 range, the count of nonzero entries below 2^-1022
and the gap): at n = 512 there are tens of thousands, and most panels
take their steps.
Parsing, kind conversion and the report are not timed in those rows.  At
every n it then prints the best of k `diag_dominance_certify(m, 1)` timings
("certificate") with its verdict: the float64 cross sums take one matrix
product when every value in it is finite, the rational ones the running
sum.  At each rational n it also prints the best of k `permanent_ryser` timings on
the same matrix ("permanent", the exact oracle), with its 2^(n-1) Glynn
terms, the best of k `permanental_inverse` timings ("inverse": per(A) and
its n^2 minors from one Glynn pass, then B*), the best of k
`alpha_coefficients` timings ("alpha") with d = n - 1 on the matrix's
leading (n-1) x (n-1) block and the top n - 1 entries of its last column
(each of these timings runs on a fresh copy of the matrix, so it includes
the one read of its integer rows that a `Matrix` keeps afterwards), and the best of k whole `permbound bound` requests
(`cli.main`) on that matrix written to a temporary CSV ("cli-bound"): parsing, the sweep
in the default arithmetic (float above n = 12), the exact permanent up to
the default --exact-max and the report, with the fixed cost of each
request.  At each float n it also prints the best of k float64
`parse_csv_text` timings of a random n x n CSV: with 3-decimal cells
("csv-3dec"), with 20-significant-digit cells ("csv-20sig"), with n
distinct 20-significant-digit literals each used n times, laid out along
the diagonals like the exp family ("csv-20sig-rep"), and with the `repr`
of uniform floats, up to 17 significant digits and mostly distinct
("csv-repr").  The float reader takes the short 3-decimal cells to
numpy's C tokenizer, and the long literals to a table that converts each
distinct one once, which hands mostly distinct files (csv-20sig and
csv-repr) to the C tokenizer once distinct literals pass 1/16 of the cells.
Last it prints the best of k `permanent_tensor` timings on a random
rational Gram factor ("tensor", the sum over subsets of the columns) at
(n, d) = (4, 3), (5, 3) and (5, 6), and the best of k `cycle_sum_ratio`
timings ("cycle-sum", with n = |S|: the path sum over subsets of S, plus
the denominator's `permanent_ryser`) at t = 1 and S = {2, ..., |S| + 1}
on a random unit-diagonal matrix, at |S| = 6, 7 and 8; the process those
checks read is run before the first timing.

Usage: python scripts/sweep_timing.py [--repeat 5] [--rational-sizes 6 7 ... 14]
                                      [--float-sizes 64 128 256 512] [--seed 0]
"""

import argparse
import contextlib
import io
import math
import random
import sys
import tempfile
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np

from permbound import (
    FLOAT64, BoundedInput, Matrix, RATIONAL, alpha_coefficients, cli, cycle_sum_ratio,
    diag_dominance_certify, gram_from_factor, parse_csv_text, permanent_ryser,
    permanent_tensor, permanental_inverse, run_process, select,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import numpy_sweep  # noqa: E402  (the tests' per-step reference sweep)
from randmat import gram_instance, unit_diag_matrix  # noqa: E402

TENSOR_SIZES = ((4, 3), (5, 3), (5, 6))
CYCLE_SIZES = (6, 7, 8)


def rational_matrix(rng, n):
    return Matrix([[Fraction(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(n)]
                   for _ in range(n)], RATIONAL)


def float_matrix(rng, n):
    return Matrix([[rng.randint(1, 999) / 1000 for _ in range(n)] for _ in range(n)], FLOAT64)


def dec3(rng):
    return f"0.{rng.randint(1, 999):03d}"


def sig20(rng):
    return f"0.{rng.randint(10**19, 10**20 - 1)}"


def csv_text(rng, n, cell):
    return "".join(",".join(cell(rng) for _ in range(n)) + "\n" for _ in range(n))


def repeated_csv_text(rng, n, cell):
    """n distinct literals, each used n times: cell (i, j) is literal (i - j) mod n."""
    literals = [cell(rng) for _ in range(n)]
    return "".join(",".join(literals[(i - j) % n] for j in range(n)) + "\n" for i in range(n))


def exp_csv_text(n):
    """The exponential family c^-|i-j| at c = sqrt(n) as CSV cells of 20
    significant digits, as the benchmark writes them."""
    with localcontext() as ctx:
        ctx.prec = 20
        c = Decimal(n).sqrt()
        powers = [format(c ** -k, ".19E") for k in range(n)]
    return "".join(",".join(powers[abs(i - j)] for j in range(n)) + "\n" for i in range(n))


CSV_TEXTS = {
    "csv-3dec": lambda rng, n: csv_text(rng, n, dec3),
    "csv-20sig": lambda rng, n: csv_text(rng, n, sig20),
    "csv-20sig-rep": lambda rng, n: repeated_csv_text(rng, n, sig20),
    "csv-repr": lambda rng, n: csv_text(rng, n, lambda rng: repr(rng.random())),
}


def cli_bound_ms(m, repeat):
    """The best of repeat `permbound bound` requests on m, written as a p/q CSV, in ms."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "matrix.csv"
        path.write_text("".join(",".join(map(str, row)) + "\n" for row in m.entries.tolist()))
        with contextlib.redirect_stdout(io.StringIO()):
            ms, code = best_ms(lambda: cli.main(["bound", str(path)]), repeat)
    if code != 0:
        raise SystemExit(f"bound on the n = {m.n} matrix exited {code}")
    return ms


def best_ms(fn, repeat):
    """The best of repeat timings of fn(), in ms, and fn's last result."""
    best = math.inf
    for _ in range(repeat):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best * 1e3, result


def per_step_gap(m, pivots, psd_mode=False):
    """The largest |p - q| / |q| over the pivots p of the sweep and q of the per-step
    numpy sweep of m (`oracles.numpy_sweep`), up to the first pivot that is not
    finite in either."""
    with np.errstate(all="ignore"):
        reference, _ = numpy_sweep(m.entries, psd_mode=psd_mode, keep=False)
    gap = 0.0
    for p, q in zip(pivots, reference):
        if not (math.isfinite(p) and math.isfinite(q)):
            break
        gap = max(gap, abs(p - q) / abs(q) if q else abs(p))
    return gap


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
    csv_rng = random.Random(args.seed)  # its own stream: the swept matrices stay the same
    print(f"{'timing':>13} {'n':>4} {'best ms':>10}  pivots")
    for kind, sizes, build in ((RATIONAL, args.rational_sizes, rational_matrix),
                               (FLOAT64, args.float_sizes, float_matrix)):
        for n in sizes:
            m = build(rng, n)
            ms, trace = best_ms(lambda: run_process(m), args.repeat)
            if kind == FLOAT64:
                rate = f"  {2 * n ** 3 / 3 / ms / 1e6:.2f} GFLOP/s  gap {per_step_gap(m, trace.pivots):.1e}"
            else:  # the last integer pivot the sweep held, unreduced
                rate = f"  last integer pivot {trace._pivots[-1][0].bit_length()} bits"
            print(f"{kind:>13} {n:>4} {ms:>10.3f}  {pivot_size(trace.pivots, kind)}{rate}")
            ms, res = best_ms(lambda: diag_dominance_certify(m, 1), args.repeat)
            verdict = "certified" if res.certified else f"violation at {res.violation}"
            print(f"{'certificate':>13} {n:>4} {ms:>10.3f}  {verdict}")
            if kind != FLOAT64:
                ms, _ = best_ms(lambda: permanent_ryser(Matrix(m.entries, m.kind)), args.repeat)
                print(f"{'permanent':>13} {n:>4} {ms:>10.3f}  {1 << (n - 1)} terms")
                ms, _ = best_ms(lambda: permanental_inverse(Matrix(m.entries, m.kind)), args.repeat)
                print(f"{'inverse':>13} {n:>4} {ms:>10.3f}  {n * n} minors")
                lead = select(m, range(1, n), range(1, n))
                x = m.col(n)[:-1]
                ms, _ = best_ms(lambda: alpha_coefficients(Matrix(lead.entries, lead.kind), x),
                                args.repeat)
                print(f"{'alpha':>13} {n:>4} {ms:>10.3f}  d = {n - 1}")
                print(f"{'cli-bound':>13} {n:>4} {cli_bound_ms(m, args.repeat):>10.3f}")
                continue
            factor = m.entries.copy()
            factor[:, min(3, n - 1)] = 0.0
            g = gram_from_factor(Matrix(factor, FLOAT64))
            ms, trace = best_ms(lambda: run_process(g), args.repeat)
            gap = per_step_gap(g.gram, trace.pivots, psd_mode=True)
            zeros = trace.pivots.count(0.0)
            print(f"{'gram-zero':>13} {n:>4} {ms:>10.3f}  {zeros} zero pivots  gap {gap:.1e}")
            exp = parse_csv_text(exp_csv_text(n), "exp-csv", lambda rows: FLOAT64).matrix
            ms, trace = best_ms(lambda: run_process(exp), args.repeat)
            tiny = np.count_nonzero((exp.entries != 0) & (exp.entries < np.finfo(np.float64).tiny))
            gap = per_step_gap(exp, trace.pivots)
            print(f"{'exp-csv':>13} {n:>4} {ms:>10.3f}  {pivot_size(trace.pivots, FLOAT64)}"
                  f"  {tiny} subnormal  gap {gap:.1e}")
            for label, make_text in CSV_TEXTS.items():
                text = make_text(csv_rng, n)
                ms, _ = best_ms(lambda: parse_csv_text(text, label, lambda rows: FLOAT64),
                                args.repeat)
                print(f"{label:>13} {n:>4} {ms:>10.3f}")
    sums_rng = random.Random(args.seed)
    for n, d in TENSOR_SIZES:
        g = gram_instance(sums_rng, n, d)
        ms, _ = best_ms(lambda: permanent_tensor(g), args.repeat)
        print(f"{'tensor':>13} {n:>4} {ms:>10.3f}  d = {d}")
    for k in CYCLE_SIZES:
        x = BoundedInput(unit_diag_matrix(sums_rng, k + 1, 2), Fraction(2))
        s = tuple(range(2, k + 2))
        x.trace.snapshot(1)
        ms, chk = best_ms(lambda: cycle_sum_ratio(x, 1, s, 2), args.repeat)
        print(f"{'cycle-sum':>13} {k:>4} {ms:>10.3f}  {'holds' if chk.holds else 'fails'}")


if __name__ == "__main__":
    main()
