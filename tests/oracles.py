"""Reference implementations the tests check the package against.

The n! permutation sum for the permanent, row-pivoted elimination for the
determinant, and an exact PSD test by symmetric elimination.  None runs in
the package itself: its one permanent algorithm is `permanent_ryser`
(Glynn's formula, which also gives the PSD alpha coefficients) and its one
elimination loop is `matcore.eliminate`, which the PSD test calls.
"""

from itertools import permutations

from permbound import DimensionTooLarge, InvalidGram, Matrix, RATIONAL, transpose
from permbound.matcore import eliminate
from permbound.scalars import Scalar, one, zero

NAIVE_MAX = 10


def permanent_naive(m: Matrix) -> Scalar:
    """per(m) by the n!-term permutation sum; guard n <= 10."""
    n = m.n
    if n > NAIVE_MAX:
        raise DimensionTooLarge(f"permanent_naive guard: n = {n} > {NAIVE_MAX}")
    rows = m.entries.tolist()
    total = zero(m.kind)
    for sigma in permutations(range(n)):
        term = one(m.kind)
        for i in range(n):
            term *= rows[i][sigma[i]]
        total += term
    return total


def determinant(m: Matrix) -> Scalar:
    """det(m) by elimination with row pivoting; exact on rationals."""
    n = m.n
    if n == 0:
        return one(m.kind)
    a = m.entries.tolist()
    sign = 1
    det = one(m.kind)
    for t in range(n):
        # rational mode: first nonzero pivot; float: largest magnitude
        pivot_row = None
        if m.kind == RATIONAL:
            for i in range(t, n):
                if a[i][t] != 0:
                    pivot_row = i
                    break
        else:
            best = 0.0
            for i in range(t, n):
                if abs(a[i][t]) > best:
                    best = abs(a[i][t])
                    pivot_row = i
        if pivot_row is None:
            return zero(m.kind)
        if pivot_row != t:
            a[t], a[pivot_row] = a[pivot_row], a[t]
            sign = -sign
        pivot = a[t][t]
        det *= pivot
        for i in range(t + 1, n):
            if a[i][t] == 0:
                continue
            factor = a[i][t] / pivot
            for j in range(t, n):
                a[i][j] -= factor * a[t][j]
    return det if sign == 1 else -det


def is_psd_exact(m: Matrix) -> bool:
    """Exact PSD test for symmetric rational matrices, no square roots.

    Symmetric elimination (`eliminate` with the minus sign): a zero pivot
    with a nonzero row refutes PSD-ness, one with a zero row is skipped,
    and otherwise the input is PSD iff it is symmetric and no pivot is < 0.
    """
    if m.kind != RATIONAL:
        raise ValueError("exact PSD test requires rational entries")
    try:
        pivots, _ = eliminate(m, -1, skip_zero=True)
    except InvalidGram:
        return False
    return m == transpose(m) and all(p >= 0 for p in pivots)
