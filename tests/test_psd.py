"""Gram certificates, the tensor permanent, alpha coefficients, PSD Schur."""

import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from permbound import (
    BlockSplit,
    DimensionMismatch,
    DimensionTooLarge,
    FLOAT64,
    GramMatrix,
    Matrix,
    RATIONAL,
    ZeroPivot,
    alpha_coefficients,
    delete,
    gram_from_factor,
    matmul,
    matrix,
    ones,
    permanent_ryser,
    permanent_tensor,
    psd_schur_check,
    run_process,
    select,
    transpose,
)
from permbound import psd
from permbound.psd import tensor_fits
from oracles import identity, is_psd_exact, permanent_naive, psd_schur_rhs
from randmat import gram_instance


def test_gram_from_factor_basic():
    g = gram_from_factor([[1, 0, 1], [0, 1, 1]])
    assert g.gram.entries.tolist() == [[1, 0, 1], [0, 1, 1], [1, 1, 2]]
    assert (g.n, g.d) == (3, 2)
    assert g.column(3) == (1, 1)
    assert g.gram == matmul(transpose(g.factor), g.factor)
    with pytest.raises(DimensionMismatch):
        gram_from_factor([[]])


def test_tensor_permanent_matches_ryser():
    rng = random.Random(71)
    for _ in range(25):
        n = rng.randint(1, 5)
        g = gram_instance(rng, n)
        assert permanent_tensor(g) == permanent_ryser(g.gram)


def tensor_loop(cols, d, z):
    """Reference: the Kronecker-sum tensor permanent in the entries' own arithmetic (z
    their zero), as a Fraction when that arithmetic is exact."""
    n = len(cols)
    total = [z] * (d ** n)
    for sigma in permutations(range(n)):
        vec = [z + 1]
        for i in range(n):
            vec = [a * b for a in vec for b in cols[sigma[i]]]
        for idx, val in enumerate(vec):
            total[idx] += val
    return Fraction(sum((x * x for x in total), start=z)) / math.factorial(n)


def test_tensor_permanent_matches_reference_loop():
    rng = random.Random(73)
    for trial in range(30):
        n, d = rng.randint(1, 5), rng.randint(1, 3)
        factor = [
            [Fraction(rng.randint(-7, 7), rng.randint(1, 5)) for _ in range(n)]
            for _ in range(d)
        ]
        if trial % 3 == 0:
            zero_col = rng.randrange(n)
            for row in factor:
                row[zero_col] = Fraction(0)
        g = gram_from_factor(Matrix(tuple(map(tuple, factor)), RATIONAL))
        cols = [g.column(j) for j in range(1, n + 1)]
        got = permanent_tensor(g)
        assert type(got) is Fraction
        assert got == tensor_loop(cols, d, Fraction(0))
        # the float Gram: the same exact value, rounded once
        fg = gram_from_factor(matrix([[float(x) for x in row] for row in factor]))
        exact = tensor_loop([[Fraction(x) for x in fg.column(j)] for j in range(1, n + 1)],
                            d, Fraction(0))
        got = permanent_tensor(fg)
        assert type(got) is float
        assert got == float(exact)
    assert math.isnan(permanent_tensor(gram_from_factor([[math.inf, 1.0]])))


@pytest.mark.parametrize("n", range(1, 6))
def test_tensor_subset_sum_equals_the_reference_loop_up_to_six_rows(n):
    # every d <= 6 at this n, without and with a zero column (a zero permanent), in both
    # kinds: entries p/q with q <= 5 and, for float64, quarters, whose permanent float64
    # holds exactly; the loop runs on the factor times 60, in ints
    rng = random.Random(74 + n)
    for d in range(1, 7):
        for zero_col in (None, rng.randrange(n)):
            rational = [[Fraction(rng.randint(-7, 7), rng.randint(1, 5)) * (j != zero_col)
                         for j in range(n)] for _ in range(d)]
            quarters = [[rng.randint(-12, 12) / 4 * (j != zero_col) for j in range(n)]
                        for _ in range(d)]
            for factor, kind in ((rational, RATIONAL), (quarters, FLOAT64)):
                g = gram_from_factor(matrix(factor, kind))
                cols = [[int(Fraction(x) * 60) for x in g.column(j)] for j in range(1, n + 1)]
                got = permanent_tensor(g)
                assert type(got) is (Fraction if kind == RATIONAL else float)
                assert got == tensor_loop(cols, d, 0) / 60 ** (2 * n)
                assert (got == 0) == any(not any(col) for col in cols)


def test_tensor_subset_sum_at_ten_rows_matches_ryser():
    rng = random.Random(79)
    for _ in range(3):
        g = gram_instance(rng, 5, d=10)
        assert tensor_fits(g)
        assert permanent_tensor(g) == permanent_ryser(g.gram)


def test_tensor_permanent_guard():
    g = gram_from_factor(ones(7))
    with pytest.raises(DimensionTooLarge):
        permanent_tensor(g)
    five, six = gram_from_factor([[1] * 5]), gram_from_factor([[1] * 6])
    assert tensor_fits(five) and permanent_tensor(five) == 120
    assert not tensor_fits(six)
    with pytest.raises(DimensionTooLarge):
        permanent_tensor(six)
    assert not tensor_fits(gram_from_factor([[1] * 5] * 19))  # d^n = 19^5 > 2e6


def test_gram_permanent_nonnegative():
    # the tensor formula writes per(A) as a norm, so PSD permanents are >= 0
    rng = random.Random(72)
    for _ in range(25):
        g = gram_instance(rng, rng.randint(1, 5))
        assert permanent_ryser(g.gram) >= 0


def test_alpha_coefficients_worked_example():
    # per(a I_2 + xx^T) with x = (1,1) is (a+1)^2 + 1 = a^2 + 2a + 2
    assert alpha_coefficients(identity(2), [1, 1]) == (1, 2, 2)


def test_alpha_coefficients_zero_vector():
    b = matrix([[2, 1], [1, 2]])
    assert alpha_coefficients(b, [0, 0]) == (permanent_ryser(b), 0, 0)


def test_alpha_polynomial_evaluates_to_permanent():
    rng = random.Random(73)
    for _ in range(15):
        n = rng.randint(2, 8)
        g = gram_instance(rng, n)
        split = BlockSplit(g.gram, n - 1)
        x = [g.gram.entries[i][n - 1] for i in range(n - 1)]
        coeffs = alpha_coefficients(split.b, x)
        for a0 in (Fraction(1), Fraction(3, 2), Fraction(7)):
            rows = [
                [a0 * split.b.entries[i][j] + x[i] * x[j] for j in range(n - 1)]
                for i in range(n - 1)
            ]
            direct = permanent_ryser(Matrix(tuple(tuple(r) for r in rows), RATIONAL))
            horner = Fraction(0)
            for c in coeffs:
                horner = horner * a0 + c
            assert horner == direct


def test_alpha_coefficients_are_one_permanent_call(monkeypatch):
    # every coefficient is a base-2^K digit of one permanent_ryser value
    calls = []

    def counting(m):
        calls.append(m.n)
        return permanent_ryser(m)

    monkeypatch.setattr(psd, "permanent_ryser", counting)
    rng = random.Random(78)
    for d in range(6):
        b = Matrix([[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d)]
                    for _ in range(d)], RATIONAL)
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d)]
        calls.clear()
        assert alpha_coefficients(b, x) == alpha_expansion(b, x)
        assert calls == [d]


def test_alpha_coefficients_guard():
    with pytest.raises(DimensionTooLarge):
        alpha_coefficients(identity(25), [0] * 25)
    with pytest.raises(DimensionMismatch, match="x must have length 2"):
        alpha_coefficients(identity(2), [1])


def test_alpha_nonnegative_for_gram_splits():
    rng = random.Random(74)
    for _ in range(20):
        n = rng.randint(2, 5)
        g = gram_instance(rng, n)
        split = BlockSplit(g.gram, n - 1)
        x = [g.gram.entries[i][n - 1] for i in range(n - 1)]
        assert all(c >= 0 for c in alpha_coefficients(split.b, x))


def alpha_expansion(b, x):
    """alpha_k = k! * sum over |S| = |T| = k of x^S x^T per(B(-S, -T)).

    Laplace expansion of per(aB + xx^T) along the k rows S and columns T
    taken from xx^T, whose k x k block has permanent k! x^S x^T.
    """
    idx = range(1, b.n + 1)
    return tuple(
        math.factorial(k) * sum(
            math.prod(x[i - 1] for i in s) * math.prod(x[j - 1] for j in t)
            * permanent_naive(delete(b, s, t))
            for s in combinations(idx, k)
            for t in combinations(idx, k)
        )
        for k in range(b.n + 1)
    )


def test_alpha_coefficients_match_the_expansion_exactly():
    rng = random.Random(75)
    for d in range(5):
        for _ in range(8):
            b = Matrix([[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d)]
                        for _ in range(d)], RATIONAL)
            x = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d)]
            coeffs = alpha_coefficients(b, x)
            assert coeffs == alpha_expansion(b, x)
            assert all(type(c) is Fraction for c in coeffs)


def test_float_alpha_coefficients_are_the_exact_ones_rounded_once():
    rng = random.Random(76)
    for d in range(5):
        b = Matrix([[rng.uniform(-3, 3) for _ in range(d)] for _ in range(d)], FLOAT64)
        x = [rng.uniform(-3, 3) for _ in range(d)]
        exact = alpha_expansion(
            Matrix([[Fraction(v) for v in row] for row in b.entries.tolist()], RATIONAL),
            [Fraction(v) for v in x],
        )
        assert alpha_coefficients(b, x) == tuple(map(float, exact))
    for bad in (math.inf, math.nan):
        b = Matrix([[1.0, bad], [2.0, 3.0]], FLOAT64)
        coeffs = alpha_coefficients(b, [1.0, 2.0])
        assert len(coeffs) == 3 and all(math.isnan(c) for c in coeffs)
    coeffs = alpha_coefficients(identity(2, FLOAT64), [1.0, math.inf])
    assert len(coeffs) == 3 and all(math.isnan(c) for c in coeffs)


def test_psd_schur_check_worked_example():
    # gram of all-ones factor row: per(J_3) = 6 <= 1 * per(J_2 + 11^T) = 8
    g = gram_from_factor(matrix([[1, 1, 1]]))
    chk = psd_schur_check(g)
    assert (chk.lhs, chk.rhs) == (6, 8)
    assert chk.holds


def test_psd_schur_check_random():
    rng = random.Random(75)
    for n in range(3, 8):
        for _ in range(500):
            g = gram_instance(rng, n)
            if g.gram.entries[n - 1][n - 1] == 0:
                continue
            assert psd_schur_check(g).holds, n


def test_psd_schur_rhs_is_the_corrected_permanent_exactly():
    rng = random.Random(77)
    checked = 0
    for n in range(2, 8):
        for trial in range(40):
            d = rng.randint(1, n - 1) if trial % 2 else rng.randint(1, n + 1)  # d < n on odd trials
            g = gram_instance(rng, n, d)
            if trial % 4 == 3:  # a zero factor column: a zero row and column of B
                zero_col = rng.randint(1, n - 1)
                g = gram_from_factor(Matrix(
                    [[0 if j == zero_col else v for j, v in enumerate(r, 1)]
                     for r in g.factor.entries.tolist()], RATIONAL))
            if g.gram.entry(n, n) == 0:
                continue
            rhs = psd_schur_check(g).rhs
            assert type(rhs) is Fraction and rhs == psd_schur_rhs(g.gram), (n, d)
            checked += 1
    assert checked > 150


def test_psd_schur_zero_corner_raises():
    g = gram_from_factor(matrix([[1, 0], [1, 0]]))
    with pytest.raises(ZeroPivot):
        psd_schur_check(g)
    with pytest.raises(DimensionMismatch, match="need n >= 2"):
        psd_schur_check(gram_from_factor(matrix([[1]])))


def test_psd_process_soundness():
    rng = random.Random(76)
    for _ in range(25):
        g = gram_instance(rng, rng.randint(1, 5))
        assert permanent_ryser(g.gram) <= run_process(g).bound


def test_process_trailing_blocks_stay_psd():
    # the plus update adds 2 x x^T / pivot on top of the Schur complement,
    # so trailing blocks of the PSD run remain PSD
    rng = random.Random(77)
    for _ in range(10):
        n = rng.randint(2, 5)
        g = gram_instance(rng, n)
        trace = run_process(g)
        for t in range(1, n + 1):
            r = range(t, n + 1)
            block = select(trace.snapshot(t), r, r)
            assert is_psd_exact(block), (n, t)


def test_is_psd_exact_cases():
    assert is_psd_exact(matrix([[2, 1], [1, 2]]))
    assert not is_psd_exact(matrix([[1, 2], [2, 1]]))
    assert is_psd_exact(matrix([[0, 0], [0, 1]]))
    assert not is_psd_exact(matrix([[0, 1], [1, 0]]))
    assert not is_psd_exact(matrix([[1, 2], [1, 2]]))  # asymmetric
    assert is_psd_exact(select(ones(3), (), ()))


def test_gram_matrix_dataclass_is_certificate_only():
    # direct construction with an inconsistent gram is caught by the process
    bogus = GramMatrix(factor=identity(2), gram=matrix([[0, 2], [2, 0]]))
    from permbound import InvalidGram

    with pytest.raises(InvalidGram):
        run_process(bogus)
