"""Dense matrices over exact rationals or float64, submatrix algebra, the
exact permanent/determinant oracles used as ground truth everywhere else,
and the one elimination kernel (`eliminate`, on an ndarray of either
kind) shared by the permanent process, its minus-variant and the exact
PSD test.

The Ryser oracle runs on Python integers for both kinds and divides once
at the end, so a float64 permanent is the exact one rounded once.

Conventions
-----------
* All row/column indices taken by the public API are 1-based, matching the
  usual mathematical notation a_{i,j}, A(S, T), A(-S, -T).  Storage is a
  plain 0-based tuple of row tuples.
* per(A(0x0)) = det(A(0x0)) = 1 by convention, so empty selections behave
  as neutral factors.
* Rectangular matrices are legal carriers (blocks X, Y); the permanent and
  determinant reject them with NotSquare.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    IndexOutOfRange,
    InvalidGram,
    NotSquare,
    ZeroPivot,
)
from .scalars import FLOAT64, KINDS, RATIONAL, Scalar, coerce, one, quotient, zero

NAIVE_MAX = 10
RYSER_MAX_N = 24


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix; ``entries`` is a tuple of row tuples."""

    entries: tuple[tuple[Scalar, ...], ...]
    kind: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown scalar kind: {self.kind!r}")
        widths = {len(row) for row in self.entries}
        if len(widths) > 1:
            raise DimensionMismatch("ragged rows")

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @property
    def n(self) -> int:
        """Dimension of a square matrix; NotSquare otherwise."""
        if not self.is_square:
            raise NotSquare(f"{self.nrows}x{self.ncols} matrix is not square")
        return self.nrows

    def row(self, i: int) -> tuple[Scalar, ...]:
        """Row i, 1-based."""
        if not 1 <= i <= self.nrows:
            raise IndexOutOfRange(f"row {i} outside [1, {self.nrows}]")
        return self.entries[i - 1]

    def col(self, j: int) -> tuple[Scalar, ...]:
        """Column j, 1-based."""
        if not 1 <= j <= self.ncols:
            raise IndexOutOfRange(f"column {j} outside [1, {self.ncols}]")
        return tuple(row[j - 1] for row in self.entries)

    def entry(self, i: int, j: int) -> Scalar:
        """Entry a_{i,j}, 1-based."""
        if not (1 <= i <= self.nrows and 1 <= j <= self.ncols):
            raise IndexOutOfRange(f"entry ({i}, {j}) outside {self.nrows}x{self.ncols}")
        return self.entries[i - 1][j - 1]

    def is_nonneg(self) -> bool:
        return all(x >= 0 for row in self.entries for x in row)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return matmul(self, other)


def matrix(rows: Sequence[Sequence], kind: str | None = None) -> Matrix:
    """Build a Matrix, inferring the kind when not given.

    Any float entry forces float64; otherwise entries are coerced to exact
    rationals (ints, Fractions, and "p/q"/decimal strings are accepted).
    """
    rows = [list(r) for r in rows]
    if kind is None:
        has_float = any(isinstance(x, float) for r in rows for x in r)
        kind = FLOAT64 if has_float else RATIONAL
    return Matrix(tuple(tuple(coerce(x, kind) for x in r) for r in rows), kind)


def identity(n: int, kind: str = RATIONAL) -> Matrix:
    o, z = one(kind), zero(kind)
    return Matrix(tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)), kind)


def ones(n: int, kind: str = RATIONAL) -> Matrix:
    o = one(kind)
    return Matrix(tuple(tuple(o for _ in range(n)) for _ in range(n)), kind)


def transpose(m: Matrix) -> Matrix:
    return Matrix(tuple(zip(*m.entries)) if m.entries else (), m.kind)


def _require_same_kind(a: Matrix, b: Matrix):
    if a.kind != b.kind:
        raise DimensionMismatch(f"mixed scalar kinds: {a.kind} vs {b.kind}")


def matmul(a: Matrix, b: Matrix) -> Matrix:
    _require_same_kind(a, b)
    if a.ncols != b.nrows:
        raise DimensionMismatch(f"cannot multiply {a.nrows}x{a.ncols} by {b.nrows}x{b.ncols}")
    bt = transpose(b).entries
    out = tuple(
        tuple(sum((x * y for x, y in zip(row, col)), zero(a.kind)) for col in bt)
        for row in a.entries
    )
    return Matrix(out, a.kind)


def add(a: Matrix, b: Matrix) -> Matrix:
    _require_same_kind(a, b)
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        raise DimensionMismatch(f"cannot add {a.nrows}x{a.ncols} and {b.nrows}x{b.ncols}")
    return Matrix(
        tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a.entries, b.entries)),
        a.kind,
    )


def outer(x: Sequence[Scalar], y: Sequence[Scalar], kind: str) -> Matrix:
    """The |x| x |y| matrix with entries x_i * y_j."""
    xs = [coerce(v, kind) for v in x]
    ys = [coerce(v, kind) for v in y]
    return Matrix(tuple(tuple(xi * yj for yj in ys) for xi in xs), kind)


def sorted_indices(items: Iterable[int]) -> tuple[int, ...]:
    """items sorted and deduplicated; IndexOutOfRange unless each is a positive integer."""
    idx = tuple(sorted(set(items)))
    for i in idx:
        if not isinstance(i, int) or i < 1:
            raise IndexOutOfRange(f"index {i!r} is not a positive integer")
    return idx


def _within_shape(m: Matrix, rows: Iterable[int], cols: Iterable[int]):
    """rows and cols as sorted index tuples, each index within m's shape."""
    rs, cs = sorted_indices(rows), sorted_indices(cols)
    for what, idx, size in (("row", rs, m.nrows), ("column", cs, m.ncols)):
        for i in idx:
            if i > size:
                raise IndexOutOfRange(f"{what} {i} outside [1, {size}]")
    return rs, cs


def select(m: Matrix, rows: Iterable[int], cols: Iterable[int]) -> Matrix:
    """m(S, T): the submatrix of rows S and columns T (1-based index sets).

    select(m, (), ()) is the 0x0 matrix, whose permanent and determinant
    are 1 by convention.
    """
    rs, cs = _within_shape(m, rows, cols)
    cs = [c - 1 for c in cs]
    entries = m.entries
    return Matrix(tuple(tuple(map(entries[r - 1].__getitem__, cs)) for r in rs), m.kind)


def delete(m: Matrix, rows: Iterable[int], cols: Iterable[int]) -> Matrix:
    """m(-S, -T): delete rows S and columns T; delete({i},{j}) is the (i,j) minor."""
    rs, cs = _within_shape(m, rows, cols)
    keep = [c for c in range(m.ncols) if c + 1 not in cs]
    return Matrix(
        tuple(tuple(map(row.__getitem__, keep))
              for r, row in enumerate(m.entries, 1) if r not in rs),
        m.kind,
    )


def permanent_naive(m: Matrix) -> Scalar:
    """per(m) by the n!-term permutation sum; guard n <= 10."""
    n = m.n
    if n > NAIVE_MAX:
        raise DimensionTooLarge(f"permanent_naive guard: n = {n} > {NAIVE_MAX}")
    rows = m.entries
    total = zero(m.kind)
    for sigma in permutations(range(n)):
        term = one(m.kind)
        for i in range(n):
            term *= rows[i][sigma[i]]
        total += term
    return total


def ryser_fits(m: Matrix) -> bool:
    """Whether permanent_ryser admits m: n <= 24 for both kinds, which share one integer loop."""
    return m.n <= RYSER_MAX_N


def integer_rows(rows: Iterable[Sequence[Scalar]]) -> tuple[list[list[int]], int]:
    """Each row read exactly and scaled by the lcm of its entries' denominators.

    Returns the integer rows and the product of the row scales.  A float64
    entry is read exactly; inf or nan raises OverflowError or ValueError.
    """
    out = []
    scale = 1
    for row in rows:
        ratios = [x.as_integer_ratio() for x in row]
        s = math.lcm(*[q for _, q in ratios])
        out.append([p * s // q for p, q in ratios])
        scale *= s
    return out, scale


def permanent_ryser(m: Matrix) -> Scalar:
    """per(m) by Ryser's inclusion-exclusion over column subsets, O(2^n * n).

    The Gray-code loop updates one column per subset and runs on the
    `integer_rows` of m.  Float mode returns the exact value rounded once
    (+-inf beyond the float64 range, nan for an inf or nan entry).
    `ryser_fits` is the size guard.
    """
    n = m.n
    if not ryser_fits(m):
        raise DimensionTooLarge(f"permanent_ryser guard: n = {n} > {RYSER_MAX_N}")
    rows = m.entries
    if n == 0:
        return one(m.kind)
    if n == 1:
        return coerce(rows[0][0], m.kind)
    try:
        ints, scale = integer_rows(rows)
    except (OverflowError, ValueError):
        return math.nan
    cols = list(zip(*ints))
    sums = [0] * n
    total = 0
    prev_gray = 0
    sign = 1 if n % 2 else -1  # (-1)^(n - |S|), and |S| changes by one per step
    for k in range(1, 1 << n):
        gray = k ^ (k >> 1)
        bit = gray ^ prev_gray
        prev_gray = gray
        step = operator.add if gray & bit else operator.sub
        sums = list(map(step, sums, cols[bit.bit_length() - 1]))
        total += sign * math.prod(sums)
        sign = -sign
    return quotient(total, scale, m.kind)


def as_array(m: Matrix) -> np.ndarray:
    """m's entries as one nrows x ncols ndarray: float64, or object dtype holding Fractions."""
    dtype = object if m.kind == RATIONAL else np.float64
    return np.array(m.entries, dtype=dtype).reshape(m.nrows, m.ncols)


def eliminate(m: Matrix, sign: int, every_row: bool = False, skip_zero: bool = False,
              keep: bool = False):
    """Column-wise elimination a_{i,j} <- a_{i,j} + sign * a_{i,t} a_{t,j} / a_{t,t}.

    One ndarray kernel for both kinds: float64, or object dtype holding
    Fractions.  For t = 1..n-1 and j > t the update runs over the rows
    below t, or over every other row when every_row is set, and row t is
    then zeroed right of the pivot.  sign = +1 is the permanent process,
    sign = -1 Gaussian elimination (with every_row, the minus-variant).
    A zero pivot raises ZeroPivot, unless skip_zero is set: then the step
    is skipped when the pivot's trailing row and column are zero, and
    InvalidGram is raised when they are not.

    A float step computes (a_{i,t} a_{t,j}) / a_{t,t}, so it rounds as the
    plain loop does; an exact step divides a_{i,t} by the pivot once per
    row, which is the cheaper order for Fractions.

    Returns (pivots, snapshots): the final diagonal, and when keep is set
    the n states A^(1)..A^(n) as a tuple of Matrix (else None).
    """
    n = m.n
    a = as_array(m)
    exact = m.kind == RATIONAL
    snaps = [m] if keep else None
    for t in range(n - 1):
        p = a[t, t]
        if p == 0:
            if not skip_zero:
                raise ZeroPivot(t + 1)
            if (a[t + 1:, t] != 0).any() or (a[t, t + 1:] != 0).any():
                raise InvalidGram(f"zero pivot with nonzero row/column at step {t + 1}")
        else:
            rows = slice(None) if every_row else slice(t + 1, None)
            lead = a[rows, t] if sign > 0 else -a[rows, t]
            if exact:
                a[rows, t + 1:] += np.outer(lead / p, a[t, t + 1:])
            else:
                a[rows, t + 1:] += np.outer(lead, a[t, t + 1:]) / p
            if every_row:
                a[t, t + 1:] = zero(m.kind)  # p * x / p need not round back to x
        if keep:
            snaps.append(Matrix(tuple(map(tuple, a.tolist())), m.kind))
    return tuple(a.diagonal().tolist()), tuple(snaps) if keep else None


def determinant(m: Matrix) -> Scalar:
    """det(m) by elimination with row pivoting; exact on rationals."""
    n = m.n
    if n == 0:
        return one(m.kind)
    a = [list(row) for row in m.entries]
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
