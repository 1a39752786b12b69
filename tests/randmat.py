"""Seeded random matrix generators shared across the test modules."""

from fractions import Fraction

from oracles import determinant
from permbound import Matrix, RATIONAL, gram_from_factor, matrix, select


def rational_entry(rng, lo=0, hi=5, max_den=4) -> Fraction:
    """A fraction in [lo, hi] with denominator <= max_den."""
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * den, hi * den), den)


def nonneg_matrix(rng, n, hi=5, max_den=4) -> Matrix:
    rows = tuple(
        tuple(rational_entry(rng, 0, hi, max_den) for _ in range(n)) for _ in range(n)
    )
    return Matrix(rows, RATIONAL)


def positive_matrix(rng, n, hi=5, max_den=4) -> Matrix:
    """Non-negative with strictly positive entries (so per > 0, pivots > 0)."""
    den_rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            den = rng.randint(1, max_den)
            row.append(Fraction(rng.randint(1, hi * den), den))
        den_rows.append(tuple(row))
    return Matrix(tuple(den_rows), RATIONAL)


def unit_diag_matrix(rng, n, cap, max_den=4) -> Matrix:
    """Unit diagonal, off-diagonal entries in [0, cap]."""
    cap = Fraction(cap)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(Fraction(1))
            else:
                den = rng.randint(1, max_den)
                row.append(Fraction(rng.randint(0, int(cap * den)), den))
        rows.append(tuple(row))
    return Matrix(tuple(rows), RATIONAL)


def block_matrix(b, xs, ys, w) -> Matrix:
    """[[B, Y], [X^T, W]] from B, the rows x_r of X^T, the columns y_c of Y and the rows of W."""
    top = [[*row, *(y[i] for y in ys)] for i, row in enumerate(b.entries.tolist())]
    return matrix(top + [[*x, *w_row] for x, w_row in zip(xs, w)], RATIONAL)


def integer_matrix(rng, n, lo=-4, hi=4) -> Matrix:
    rows = tuple(
        tuple(Fraction(rng.randint(lo, hi)) for _ in range(n)) for _ in range(n)
    )
    return Matrix(rows, RATIONAL)


def nonzero_leading_minors_matrix(rng, n, lo=-4, hi=4) -> Matrix:
    """Random integer matrix with all leading principal minors nonzero."""
    while True:
        m = integer_matrix(rng, n, lo, hi)
        r = range(1, n + 1)
        if all(determinant(select(m, r[:k], r[:k])) != 0 for k in range(1, n + 1)):
            return m


def gram_instance(rng, n, d=None, lo=-3, hi=3, max_den=2):
    """A random Gram certificate with a d x n rational factor."""
    if d is None:
        d = rng.randint(1, n)
    rows = tuple(
        tuple(rational_entry(rng, lo, hi, max_den) for _ in range(n)) for _ in range(d)
    )
    return gram_from_factor(Matrix(rows, RATIONAL))


def dominant_matrix(rng, n, eps=Fraction(1)) -> Matrix:
    """An instance satisfying the (1+eps)^2/eps diagonal-dominance condition.

    Off-diagonals live in [delta/2, delta] with delta = 1/(10(n-1)), which
    keeps the cross terms below the threshold for eps in [1/2, 2]; diagonal
    entries in [1, 2].
    """
    delta = Fraction(1, 10 * max(1, n - 1))
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(1 + Fraction(rng.randint(0, 8), 8))
            else:
                row.append(delta * Fraction(rng.randint(8, 16), 16))
        rows.append(tuple(row))
    return Matrix(tuple(rows), RATIONAL)
