"""Reference implementations the tests check the package against.

The n! permutation sum for the permanent and its expansion over column
subsets (`permanent_by_subsets`, 2^n n products, exact on float rows
too), row-pivoted elimination for the determinant, the exact sweep on
integer rows with a gcd at every step a later step reads
(`exact_sweep_reducing_every_step`, the growth reference for the
kernel's skipped gcds), the list loop of the process and of Gaussian elimination
(`list_eliminate`), on which the minus-variant of the process (whose
pivots multiply to the determinant) and an exact PSD test by symmetric
elimination are built, the per-step float64 process sweep (`numpy_sweep`,
which `eliminate` matches bit for bit up to n = 64), the cross sum and
closed recursion entry by entry, and the matrix product as a running sum
of outer products.  None runs in the package itself: its one permanent
algorithm is `permanent_ryser` (Glynn's formula, which also gives the PSD
alpha coefficients), its one elimination loop is `matcore.eliminate`,
which runs only the process, its running sums of outer products outside
that loop are
`process.recursive_u`'s and the float branch of `matcore.matmul`, its
cross sums are one product L U, and its exact product sums integer rows.

`closed_recursion_by_entry` with the original diagonal as fixed
denominators solves the majorant recursion with equality, which the
majorant tests take as a certificate.  Code that only tests call lives
here too, on top of the package: the identity matrix, and the paper's
lemmas that no command checks, namely the per-pivot lower bounds that
telescope to per(A), the minor-ratio inequality of the permanental
inverse, and the closed form of the process output on the exponential
family (criteria 5 and 6 compare against the last two).  The PSD Schur
bound a * per(B + xx^T / a) is built here entry by entry, as the
reference for the package's reading of it off the alpha coefficients.
`parse_csv_float_reference` keeps the float64 CSV read as it was before
the C tokenizer route, float() of every cell, as the reference for the
reader's routes.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, permutations
from typing import Iterable

import numpy as np

from permbound import (
    DimensionMismatch, DimensionTooLarge, FLOAT64, GramMatrix, InvalidGram, Matrix,
    PermanentalInverse, RATIONAL, SidePair, ZeroPermanent, ZeroPivot, delete,
    leq_scalar, permanent_ryser, permanental_inverse, run_process, select, to_kind, transpose,
)
from permbound import matio
from permbound.bounds import _exp_powers
from permbound.matcore import integer_rows, sorted_indices
from permbound.scalars import Scalar, one, to_float64, zero

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


def permanent_by_subsets(rows) -> Fraction:
    """per of the square rows (ints, Fractions or floats, each read exactly) as a Fraction.

    Expands the rows over column subsets: f(S) sums the products of the
    bijections from the first |S| rows onto the columns S, so f of every
    column is per, in 2^n n products against the n! n of `permanent_naive`.
    Each row is first scaled to integers, so the products multiply ints.
    """
    ints, scales = integer_rows(rows)
    n = len(ints)
    f = [0] * (1 << n)
    f[0] = 1
    for mask in range(len(f) - 1):  # a subset comes before every superset of it
        total = f[mask]
        if total:
            for j, x in enumerate(ints[mask.bit_count()]):
                if x and not mask >> j & 1:
                    f[mask | 1 << j] += total * x
    return Fraction(f[-1], math.prod(scales))


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


def list_eliminate(rows, sign, every_row=False, skip_zero=False, keep=False):
    """Column-wise elimination a_{i,j} <- a_{i,j} + sign * a_{i,t} a_{t,j} / a_{t,t}
    on nested lists, for t = 1..n-1 and j > t, over the rows below t, or
    every row when every_row is set.

    sign +1 over the rows below t is the permanent process, the loop that
    `matcore.eliminate` runs; sign -1 over every row is Gaussian elimination,
    whose step t also clears row t right of the pivot.  A zero pivot raises
    ZeroPivot, unless skip_zero is set: then the step is skipped when the
    pivot's trailing row and column are zero, and InvalidGram is raised when
    they are not.  Returns the final diagonal and, when keep is set, the
    states A^(1)..A^(n) as tuples of rows (else None).
    """
    n = len(rows)
    a = [list(r) for r in rows]
    snaps = [tuple(tuple(r) for r in a)] if keep else None
    for t in range(n - 1):
        p = a[t][t]
        if p == 0:
            if not skip_zero:
                raise ZeroPivot(t + 1)
            if any(a[i][t] != 0 or a[t][i] != 0 for i in range(t + 1, n)):
                raise InvalidGram(f"zero pivot with nonzero row/column at step {t + 1}")
        else:
            row_t = a[t][:]
            for i in range(n) if every_row else range(t + 1, n):
                lead = a[i][t]
                if lead == 0:
                    continue
                f = lead / p if sign > 0 else -lead / p
                ai = a[i]
                for j in range(t + 1, n):
                    ai[j] += f * row_t[j]
        if keep:
            snaps.append(tuple(tuple(r) for r in a))
    return tuple(a[t][t] for t in range(n)), snaps


def exact_sweep_reducing_every_step(m: Matrix, skip_zero: bool = False) -> list[tuple[int, int]]:
    """The exact process sweep on integer rows that takes each updated row's gcd at
    every step a later step reads (0-based t < n - 2), as `matcore.eliminate`
    did before it skipped the gcds of its last two reducing steps.

    Row i stands for its integers over its scale s_i; step t sets row i to
    P a_{i,j} + a_{i,t} a_{t,j} for j > t and s_i to s_i P, then divides both
    by their gcd.  A zero pivot raises ZeroPivot, or with skip_zero is
    skipped (its trailing row and column are taken to be zero).  Returns the
    pivots as (P_t, s_t) pairs, unreduced.
    """
    ints, scales = integer_rows(m.entries.tolist())
    n = len(ints)
    for t in range(n - 1):
        p, pivot_row = ints[t][t], ints[t]
        if p == 0:
            if not skip_zero:
                raise ZeroPivot(t + 1)
            continue
        for i in range(t + 1, n):
            row, lead = ints[i], ints[i][t]
            row[t + 1:] = [p * x + lead * y for x, y in zip(row[t + 1:], pivot_row[t + 1:])]
            scales[i] *= p
            if t < n - 2:
                g = math.gcd(*row[t + 1:], scales[i])
                row[t + 1:] = [x // g for x in row[t + 1:]]
                scales[i] //= g
    return [(ints[t][t], scales[t]) for t in range(n)]


@dataclass(frozen=True)
class GaussianTrace:
    """The minus-variant's pivots, their product and its states A^(1)..A^(n)."""

    pivots: tuple[Scalar, ...]
    bound: Scalar
    snapshots: tuple[Matrix, ...]

    def snapshot(self, t: int) -> Matrix:
        """A^(t), 1-based."""
        assert 1 <= t <= len(self.snapshots), t
        return self.snapshots[t - 1]


def run_gaussian_variant(a: Matrix) -> GaussianTrace:
    """The minus-variant: column-wise Gaussian elimination without pivoting.

    Updates a_{i,j} <- a_{i,j} - a_{i,t} * a_{t,j} / a_{t,t} for j > t and
    every row i (`list_eliminate` with sign -1 over every row), so row t is
    zero right of the pivot after step t, producing a lower-triangular final
    matrix whose diagonal product is det(A) exactly in rational mode.  Any
    square input is accepted; a zero pivot is an error (no pivoting is
    performed).
    """
    pivots, snaps = list_eliminate(a.entries.tolist(), -1, every_row=True, keep=True)
    pivots = tuple(map(Fraction if a.kind == RATIONAL else float, pivots))
    return GaussianTrace(pivots=pivots, bound=math.prod(pivots, start=one(a.kind)),
                         snapshots=tuple(Matrix(s, a.kind) for s in snaps))


def numpy_sweep(rows, psd_mode, keep):
    n = len(rows)
    arr = np.array(rows, dtype=np.float64).reshape(n, n)
    snaps = [arr.copy()] if keep else None
    for t in range(n - 1):
        p = arr[t, t]
        if p == 0.0:
            if not psd_mode:
                raise ZeroPivot(t + 1)
            if np.any(arr[t + 1:, t] != 0.0) or np.any(arr[t, t + 1:] != 0.0):
                raise InvalidGram(f"zero pivot with nonzero row/column at step {t + 1}")
        else:
            arr[t + 1:, t + 1:] += np.outer(arr[t + 1:, t], arr[t, t + 1:]) / p
        if keep:
            snaps.append(arr.copy())
    pivots = tuple(float(arr[t, t]) for t in range(n))
    if keep:
        snaps = [tuple(tuple(row) for row in s.tolist()) for s in snaps]
    return pivots, snaps


def matmul_running_sum(a: Matrix, b: Matrix) -> Matrix:
    """a b as a running sum from zero of the outer products of column k of a
    and row k of b, k = 1, 2, ... (exact entries come out as Fractions)."""
    out = np.full((a.nrows, b.ncols), zero(a.kind))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(a.ncols):
            out += np.outer(a.entries[:, k], b.entries[k])
    return Matrix(out, a.kind)


def is_psd_exact(m: Matrix) -> bool:
    """Exact PSD test for symmetric rational matrices, no square roots.

    Symmetric elimination (`list_eliminate` with the minus sign): a zero
    pivot with a nonzero row refutes PSD-ness, one with a zero row is
    skipped, and otherwise the input is PSD iff it is symmetric and no pivot
    is < 0.
    """
    if m.kind != RATIONAL:
        raise ValueError("exact PSD test requires rational entries")
    try:
        pivots, _ = list_eliminate(m.entries.tolist(), -1, skip_zero=True)
    except InvalidGram:
        return False
    return m == transpose(m) and all(p >= 0 for p in pivots)


def cross_sum(b, den, i: int, j: int, kind: str) -> Scalar:
    """sum_{s < min(i,j)} b_{i,s} b_{s,j} / den_s over 0-based i, j, s, added in order of s from zero."""
    total = zero(kind)
    for s in range(min(i, j)):
        total = total + b[i][s] * b[s][j] / den[s]
    return total


def closed_recursion_by_entry(a: Matrix, den=None) -> Matrix:
    """b_{i,j} = a_{i,j} + cross_sum(b, den, i, j), one entry at a time in order of min(i,j).

    den is a fixed sequence of denominators, or None for b's own diagonal
    (the u-recursion of `process.recursive_u`).  A zero denominator that a
    later step divides by raises ZeroPivot with its 1-based index.
    """
    n = a.n
    rows = a.entries.tolist()
    b = [[None] * n for _ in range(n)]
    d = [None] * n if den is None else list(den)
    for m in range(n):
        for j in range(m, n):
            b[m][j] = rows[m][j] + cross_sum(b, d, m, j, a.kind)
        for i in range(m + 1, n):
            b[i][m] = rows[i][m] + cross_sum(b, d, i, m, a.kind)
        if den is None:
            d[m] = b[m][m]
        if d[m] == 0 and m < n - 1:
            raise ZeroPivot(m + 1)
    return Matrix(b, a.kind)


def psd_schur_rhs(gram: Matrix) -> Fraction:
    """a * per(B + xx^T / a) for the split [[B, x], [x^T, a]] of an exact gram
    with a != 0, each entry b_ij + x_i x_j / a built as a Fraction."""
    n = gram.n
    rows = gram.entries.tolist()
    a = Fraction(rows[-1][-1])
    x = [Fraction(r[-1]) for r in rows[:-1]]
    corrected = [[rows[i][j] + x[i] * x[j] / a for j in range(n - 1)] for i in range(n - 1)]
    return a * permanent_naive(Matrix(corrected, RATIONAL))


def identity(n: int, kind: str = RATIONAL) -> Matrix:
    return Matrix(np.where(np.eye(n, dtype=bool), one(kind), zero(kind)), kind)


def pivot_lower_bound_check(a: Matrix | GramMatrix) -> tuple[SidePair, ...]:
    """Check pivot_t >= per(A^(t)(-[t-1], -[t-1])) / per(A^(t+1)(-[t], -[t])).

    Returns SidePair(ratio, pivot, holds) for step t at index t - 1.  The
    t = n denominator is the empty permanent 1, so the ratios telescope to
    per(A) and the per-step checks compose into the headline bound.
    """
    trace = run_process(a)
    n = trace.n
    kind = trace.arithmetic
    out = []
    for t in range(1, n + 1):
        trailing = range(t, n + 1)
        num = permanent_ryser(select(trace.snapshot(t), trailing, trailing))
        if t < n:
            rest = range(t + 1, n + 1)
            den = permanent_ryser(select(trace.snapshot(t + 1), rest, rest))
        else:
            den = one(kind)
        if den == 0:
            raise ZeroPermanent(f"zero denominator permanent at step {t}")
        ratio = num / den
        pivot = trace.pivots[t - 1]
        out.append(SidePair(ratio, pivot, leq_scalar(ratio, pivot, kind)))
    return tuple(out)


def minor_ratio_inequality(
    b: Matrix,
    s: Iterable[int],
    t: Iterable[int],
    inverse: PermanentalInverse | None = None,
) -> SidePair:
    """Check per(B(-S,-T))/per(B) <= per(B*(T,S)).

    Equality holds when |S| = |T| = 1.  A precomputed inverse may be passed
    when sweeping many (S, T) pairs against one B.
    """
    s = sorted_indices(s)
    t = sorted_indices(t)
    if len(s) != len(t):
        raise DimensionMismatch(f"|S| = {len(s)} but |T| = {len(t)}")
    if inverse is None:
        inverse = permanental_inverse(b)
    lhs = permanent_ryser(delete(b, s, t)) / inverse.source_perm
    rhs = permanent_ryser(select(inverse.matrix, t, s))
    return SidePair(lhs, rhs, leq_scalar(lhs, rhs, b.kind))


def exp_family_closed_form(n: int, c) -> Matrix:
    """The closed form of the process output on exp_family(n, c).

    Entry (i, j) is c^(-|i-j|) * (1 + sum_{k=1}^{min(i,j)-1} 2^(k-1) c^(-2k));
    equals run_process(exp_family(n, c)).snapshot(n) entrywise.
    """
    cc, kind, powers = _exp_powers(n, c)
    inv2 = 1 / (cc * cc)
    prefix = [one(kind)]  # prefix[m] = 1 + sum_{k=1..m} 2^(k-1) c^(-2k)
    term = inv2
    for _ in range(n - 1):
        prefix.append(prefix[-1] + term)
        term *= 2 * inv2
    return Matrix(
        [[powers[abs(i - j)] * prefix[min(i, j)] for j in range(n)] for i in range(n)], kind
    )


def parse_csv_float_reference(text: str) -> Matrix:
    """The float64 CSV read of `matio.parse_csv_text` before its C tokenizer route.

    float() of each cell through a table of the distinct literals, or all
    cells in one array conversion once distinct ones pass 1/16 of the
    cells; each distinct literal that reads as +-0 or non-finite is re-read
    exactly.  A ValueError (a p/q cell, a bad literal, ragged rows) or a
    "_" in the text sends the file to the exact read, rounded by `to_kind`.
    """
    text = text.removeprefix("\ufeff")
    rows = [line.split(",") for line in text.strip().splitlines() if line.strip()]
    if rows and "_" not in text:
        try:
            cells = _reference_float_cells(rows)
        except ValueError:
            pass
        else:
            odd = (cells == 0) | ~np.isfinite(cells)
            literals = [rows[i][j] for i, j in np.argwhere(odd).tolist()]
            exact = {cell: matio._parse_cell(cell) for cell in dict.fromkeys(literals)}
            matio._require_square(*cells.shape)
            rounded = {cell: to_float64(x) for cell, x in exact.items()}
            cells[odd] = [rounded[cell] for cell in literals]
            return Matrix(cells, FLOAT64)
    parsed = matio._parse_rows(rows, "csv matrix")
    matio._require_square(len(parsed), len(parsed[0]))
    return to_kind(Matrix(parsed, RATIONAL), FLOAT64)


def _reference_float_cells(rows: list[list[str]]) -> np.ndarray:
    shape = len(rows), len(rows[0])
    distinct = set()
    for row in rows:
        if len(row) != shape[1]:
            raise ValueError("ragged rows")
        distinct.update(row)
        if len(distinct) > shape[0] * shape[1] / 16:
            return np.array(rows, dtype=np.float64)
    table = {cell: float(cell) for cell in distinct}
    cells = map(table.__getitem__, chain.from_iterable(rows))
    return np.fromiter(cells, np.float64, shape[0] * shape[1]).reshape(shape)
