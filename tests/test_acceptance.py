"""Acceptance gate: one test group per numbered criterion.

Criterion outcomes are aggregated into per-criterion PASS/FAIL lines by
conftest.py.  Criterion 6 checks the exponential family c^(-|i-j|) at
c = sqrt(n), where the process bound tends to e.  At finite n it sits
above e by about e/(2n), so the test asserts the two-sided envelope
1 + (n-7)/(2(n-2)^2) <= log(bound) <= 1 + 1/(n-2), derived from the
closed form (see that test's docstring), rather than "within 1e-6 of e",
which is the limit and holds at no n >= 6.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations

from permbound import (
    BlockSplit,
    BoundedInput,
    Matrix,
    RATIONAL,
    alpha_coefficients,
    check_identity_dominance,
    condense,
    cycle_sum_cases,
    cycle_sum_ratio,
    diag_dominance_certify,
    entry_bound_check,
    exp_family,
    ones,
    perm_ratio_cases,
    perm_ratio_check,
    permanent_ryser,
    permanental_inverse,
    process_bound,
    psd_schur_check,
    rank1_update_permanent,
    recursive_u,
    row_uncrossing_sides,
    rowsum_bound,
    run_process,
    schur_permanent_bound,
    select,
    two_row_inequality_sides,
)
from oracles import (
    determinant, exp_family_closed_form, minor_ratio_inequality, permanent_naive,
    run_gaussian_variant,
)
from randmat import (
    block_matrix,
    dominant_matrix,
    gram_instance,
    nonzero_leading_minors_matrix,
    positive_matrix,
    rational_entry,
    unit_diag_matrix,
)

EXACT_TOL = 0  # rational-mode checks are exact
FLOAT_TOL = 1e-6  # the only tolerance used below, for the float-mode family


def random_sound_matrix(rng, n):
    """Entries in [0, 5]; diagonal drawn positive so every pivot exists."""
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                den = rng.randint(1, 4)
                row.append(Fraction(rng.randint(1, 5 * den), den))
            else:
                row.append(rational_entry(rng, 0, 5, 4))
        rows.append(tuple(row))
    return Matrix(tuple(rows), RATIONAL)


def test_criterion_1_process_soundness():
    """1000 random non-negative matrices, n in 2..8: per(A) <= process bound."""
    rng = random.Random(1001)
    started = time.perf_counter()
    violations = 0
    for idx in range(1000):
        n = rng.randint(2, 8)
        a = random_sound_matrix(rng, n)
        exact = permanent_ryser(a)
        if n <= 7:
            assert exact == permanent_naive(a), f"oracle disagreement at instance {idx}"
        if not exact <= process_bound(a):
            violations += 1
    elapsed = time.perf_counter() - started
    assert violations == 0
    assert elapsed < 60, f"soundness suite took {elapsed:.1f}s"


def test_criterion_2_psd_soundness():
    """500 random Gram matrices, n in 3..7: soundness, Schur check, alpha >= 0."""
    rng = random.Random(1002)
    started = time.perf_counter()
    violations = 0
    for _ in range(500):
        n = rng.randint(3, 7)
        g = gram_instance(rng, n)
        while g.gram.entries[n - 1][n - 1] == 0:
            g = gram_instance(rng, n)
        if not permanent_ryser(g.gram) <= run_process(g).bound:
            violations += 1
        if not psd_schur_check(g).holds:
            violations += 1
        split = BlockSplit(g.gram, n - 1)
        x = [g.gram.entries[i][n - 1] for i in range(n - 1)]
        if not all(c >= 0 for c in alpha_coefficients(split.b, x)):
            violations += 1
    elapsed = time.perf_counter() - started
    assert violations == 0
    assert elapsed < 120, f"PSD suite took {elapsed:.1f}s"


def test_criterion_3_worked_inverse_example():
    """The 2x2 inverse, both products, and their dominance, all exact."""
    b = Matrix(((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4))), RATIONAL)
    inv = permanental_inverse(b)
    tenth = Fraction(1, 10)
    assert inv.matrix.entries.tolist() == [[4 * tenth, 2 * tenth], [3 * tenth, tenth]]
    chk = check_identity_dominance(b)
    assert chk.left.entries.tolist() == [[1, Fraction(8, 5)], [Fraction(3, 5), 1]]
    assert chk.right.entries.tolist() == [[1, Fraction(2, 5)], [Fraction(12, 5), 1]]
    assert chk.holds


def test_criterion_4_rank1_identity():
    """500 random bordered blocks with d <= 5: both sides agree exactly."""
    rng = random.Random(1004)
    for _ in range(500):
        d = rng.randint(1, 5)
        b = positive_matrix(rng, d, hi=4)
        x = [rational_entry(rng, 0, 4, 3) for _ in range(d)]
        y = [rational_entry(rng, 0, 4, 3) for _ in range(d)]
        w = rational_entry(rng, 0, 4, 3)
        pair = rank1_update_permanent(BlockSplit(block_matrix(b, [x], [y], [[w]]), d))
        assert pair.lhs == pair.rhs


def test_criterion_4_minus_variant_determinant():
    """500 instances with nonzero leading minors: pivot product = det."""
    rng = random.Random(2004)
    for _ in range(500):
        n = rng.randint(1, 6)
        m = nonzero_leading_minors_matrix(rng, n)
        prod = Fraction(1)
        for p in run_gaussian_variant(m).pivots:
            prod *= p
        assert prod == determinant(m)


def test_criterion_4_u_recursion_matches_process():
    """u-recursion equals the process state entrywise up to n = 8."""
    rng = random.Random(3004)
    for _ in range(120):
        n = rng.randint(1, 8)
        a = positive_matrix(rng, n)
        trace = run_process(a)
        assert recursive_u(a).entries.tolist() == trace.snapshot(n).entries.tolist()


def test_criterion_4_determinant_ratio_invariant():
    """100 instances at n = 5: minus-variant entries are determinant ratios."""
    rng = random.Random(4004)

    def subdet(m, rows, cols):
        if len(set(rows)) < len(rows) or len(set(cols)) < len(cols):
            return Fraction(0)
        return determinant(select(m, sorted(rows), sorted(cols)))

    for _ in range(100):
        m = nonzero_leading_minors_matrix(rng, 5)
        trace = run_gaussian_variant(m)
        for t in range(1, 6):
            snap = trace.snapshot(t).entries
            for i in range(1, 6):
                for j in range(1, 6):
                    r = min(j, t)
                    lead = list(range(1, r))
                    expected = subdet(m, lead + [i], lead + [j]) / subdet(m, lead, lead)
                    assert snap[i - 1][j - 1] == expected


def test_criterion_5_schur_bound_suite():
    """300 instances: exact <= Schur bound at every split, equality at k = 1."""
    rng = random.Random(1005)
    for _ in range(300):
        n = rng.randint(2, 5)
        a = positive_matrix(rng, n, hi=3)
        for d in range(1, n):
            pair = schur_permanent_bound(BlockSplit(a, d))
            assert pair.holds
            if n - d == 1:
                assert pair.lhs == pair.rhs


def test_criterion_5_row_uncrossing_suite():
    """300 instances: uncrossing inequality, equalities at d = 0 and k = 1."""
    rng = random.Random(2005)
    for _ in range(300):
        n = rng.randint(2, 5)
        a = positive_matrix(rng, n, hi=3)
        for d in range(0, n):
            split = BlockSplit(a, d)
            for i_star in range(1, split.k + 1):
                pair = row_uncrossing_sides(split, i_star)
                assert pair.holds
                if d == 0 or split.k == 1:
                    assert pair.lhs == pair.rhs


def test_criterion_5_two_row_suite():
    """300 instances of the two-row inequality."""
    rng = random.Random(3005)
    for _ in range(300):
        d = rng.randint(1, 4)
        b = positive_matrix(rng, d, hi=3)
        x1 = [rational_entry(rng, 0, 3, 3) for _ in range(d)]
        x2 = [rational_entry(rng, 0, 3, 3) for _ in range(d)]
        y1 = [rational_entry(rng, 0, 3, 3) for _ in range(d)]
        y2 = [rational_entry(rng, 0, 3, 3) for _ in range(d)]
        w = Matrix(
            tuple(tuple(rational_entry(rng, 0, 3, 3) for _ in range(2)) for _ in range(2)),
            RATIONAL,
        )
        a = block_matrix(b, [x1, x2], [y1, y2], w.entries.tolist())
        assert two_row_inequality_sides(BlockSplit(a, d)).holds


def test_criterion_5_condense_suite():
    """300 instances: per(A)/a11 <= per(condensed)."""
    rng = random.Random(4005)
    for _ in range(300):
        n = rng.randint(2, 5)
        a = positive_matrix(rng, n, hi=3)
        c = condense(BlockSplit(a, 1))
        assert permanent_ryser(a) / a.entry(1, 1) <= permanent_ryser(c)


def test_criterion_5_minor_ratio_suite():
    """300 instances, exhaustive (S, T) pairs for n <= 5; equality at size 1."""
    rng = random.Random(5005)
    for _ in range(300):
        n = rng.randint(2, 5)
        b = positive_matrix(rng, n, hi=3)
        inv = permanental_inverse(b)
        idx = range(1, n + 1)
        for size in range(1, n + 1):
            for s in combinations(idx, size):
                for t in combinations(idx, size):
                    chk = minor_ratio_inequality(b, s, t, inverse=inv)
                    assert chk.holds
                    if size == 1:
                        assert chk.lhs == chk.rhs


def test_criterion_6_closed_form_matches_process():
    """Closed form equals the final process state exactly for n <= 10."""
    for c in (Fraction(2), Fraction(5, 2), Fraction(3)):
        for n in range(1, 11):
            trace = run_process(exp_family(n, c))
            assert exp_family_closed_form(n, c).entries.tolist() == trace.snapshot(n).entries.tolist()


def test_criterion_6_rowsum_lower_bound():
    """Row-sum baseline stays above (1 + 1/sqrt(n))^n at c = sqrt(n)."""
    for n in (16, 64, 256):
        a = exp_family(n, math.sqrt(n))
        target = (1 + 1 / math.sqrt(n)) ** n - FLOAT_TOL
        assert rowsum_bound(a) >= target


def test_criterion_6_process_bound_at_most_e():
    """Process bound at c = sqrt(n) tends to e, from above, at rate ~e/(2n).

    By the closed form, with x = 1/c^2 = 1/n the pivots are u_0 = 1 and
    u_k = 1 + y_k for k = 1..n-1, where y_k = x (1 - (2x)^k) / (1 - 2x).
    Upper side: y_k <= x / (1 - 2x) = 1/(n-2) and log(1+y) <= y, so
    log(bound) <= (n-1)/(n-2) = 1 + 1/(n-2).
    Lower side: log(1+y) >= y - y^2/2 and sum_{k>=1} (2x)^k = 2/(n-2), so
    log(bound) >= (n-1)/(n-2) - 2/(n-2)^2 - (n-1)/(2(n-2)^2)
               = 1 + (n-7)/(2(n-2)^2).
    Both sides shrink to 1, so the bound converges to e, and it must
    decrease along n = 16, 64, 256.  FLOAT_TOL only absorbs float64
    rounding (about 1e-13 here); the tightest margin, the lower side at
    n = 256, is 5.3e-6.
    """
    bounds = []
    for n in (16, 64, 256):
        bound = run_process(exp_family(n, math.sqrt(n))).bound
        log_bound = math.log(bound)
        lower = 1 + (n - 7) / (2 * (n - 2) ** 2)
        upper = 1 + 1 / (n - 2)
        assert lower - FLOAT_TOL <= log_bound <= upper + FLOAT_TOL, (n, bound)
        bounds.append(bound)
    assert bounds[0] > bounds[1] > bounds[2], bounds


def test_criterion_7_constructed_instance():
    """n = 4, eps = 1, off-diagonals 1/12: certified, both bounds <= 16."""
    rows = tuple(
        tuple(Fraction(1) if i == j else Fraction(1, 12) for j in range(4))
        for i in range(4)
    )
    a = Matrix(rows, RATIONAL)
    res = diag_dominance_certify(a, Fraction(1))
    assert res.certified
    assert res.bound == 16
    assert permanent_ryser(a) <= 16
    assert process_bound(a) <= 16


def test_criterion_7_random_certified_instances():
    """100 certified instances (n <= 7): per(A) <= (1+eps)^n * prod(diag)."""
    rng = random.Random(1007)
    checked = 0
    for _ in range(100):
        n = rng.randint(2, 7)
        eps = Fraction(rng.choice([1, 1, 2]), rng.choice([1, 2]))
        a = dominant_matrix(rng, n)
        res = diag_dominance_certify(a, eps)
        assert res.certified, (n, eps)
        diag_prod = Fraction(1)
        for i in range(n):
            diag_prod *= a.entries[i][i]
        assert res.bound == (1 + eps) ** n * diag_prod
        assert permanent_ryser(a) <= res.bound
        assert process_bound(a) <= res.bound
        checked += 1
    assert checked == 100


def test_criterion_8_boundedness_checks():
    """200 unit-diagonal instances per (n, M) in {4,5,6} x {1,2,5}.

    Entry, permanent-ratio, and cycle-sum checks all pass; (t, S, i0) and
    (S, i, j) are swept exhaustively for n <= 5 and sampled for n = 6.
    """
    for n in (4, 5, 6):
        for cap in (1, 2, 5):
            rng = random.Random(1008 + 10 * n + cap)
            m_cap = Fraction(cap)
            for _ in range(200):
                x = BoundedInput(unit_diag_matrix(rng, n, cap), m_cap)
                assert entry_bound_check(x) is None
                if n <= 5:
                    ratio_cases = perm_ratio_cases(n)
                    cycle_cases = cycle_sum_cases(n)
                else:
                    ratio_cases = perm_ratio_cases(n, rng, 30)
                    cycle_cases = cycle_sum_cases(n, rng, 30)
                for s, i, j in ratio_cases:
                    assert perm_ratio_check(x, s, i, j).holds, (n, cap, s, i, j)
                for t, s in cycle_cases:
                    for pick in s:
                        chk = cycle_sum_ratio(x, t, s, pick)
                        assert chk.holds, (n, cap, t, s, pick)


def test_criterion_8_bit_length_guard():
    """Intermediate numerators/denominators stay within 50x the input encoding.

    Input size is the total bit-length of all entry numerators and
    denominators; every entry of every intermediate state (process
    snapshots and u-values) must stay below 50x that. A regression proxy
    for polynomial-size growth, not a tight constant.
    """
    rng = random.Random(2008)
    for n in range(2, 9):
        for _ in range(8):
            a = positive_matrix(rng, n)
            input_bits = sum(
                x.numerator.bit_length() + x.denominator.bit_length()
                for row in a.entries
                for x in row
            )
            cap = 50 * input_bits
            trace = run_process(a)
            worst = 0
            for t in range(1, n + 1):
                for row in trace.snapshot(t).entries:
                    for x in row:
                        worst = max(
                            worst, x.numerator.bit_length(), x.denominator.bit_length()
                        )
            assert worst <= cap, f"{worst} bits > 50 * {input_bits} at n = {n}"


def test_criterion_9_all_ones_witness():
    """process bound on J_n is 2^(n(n-1)/2) while per(J_n) = n!."""
    prev_ratio = None
    for n in range(1, 13):
        bound = process_bound(ones(n))
        assert bound == Fraction(2) ** (n * (n - 1) // 2)
        exact = Fraction(math.factorial(n))
        if n <= 9:
            assert permanent_ryser(ones(n)) == exact
        ratio = bound / exact
        if prev_ratio is not None and n >= 3:
            assert ratio > prev_ratio  # overshoot grows without bound
        prev_ratio = ratio
    assert prev_ratio > 10 ** 10  # no O(1)^n approximation here
