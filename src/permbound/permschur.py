"""Permanental Schur machinery for block matrices A = [[B, Y], [X^T, W]].

The exact rank-1 identity, the permanental Schur upper bound
per(A) <= per(B) * per(W + X^T B* Y), the row-uncrossing inequality, the
two-row inequality, and the condense step used by the pivot analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, NegativeEntry, ZeroPivot
from .matcore import Matrix, add, delete, matmul, outer, permanent_ryser, select
from .perminv import permanental_inverse
from .scalars import Scalar, SidePair, coerce, eq_scalar, leq_scalar


@dataclass(frozen=True)
class BlockSplit:
    """A square matrix tiled as [[B (d x d), Y (d x k)], [X^T (k x d), W (k x k)]].

    d = 0 is allowed (empty B) so the row-uncrossing base case is
    expressible; k = n - d is always >= 1.
    """

    source: Matrix
    d: int

    def __post_init__(self):
        n = self.source.n
        if not 0 <= self.d < n:
            raise DimensionMismatch(f"block size d = {self.d} outside [0, {n - 1}]")

    @property
    def n(self) -> int:
        return self.source.n

    @property
    def k(self) -> int:
        return self.n - self.d

    @property
    def b(self) -> Matrix:
        r = range(1, self.d + 1)
        return select(self.source, r, r)

    @property
    def y(self) -> Matrix:
        return select(self.source, range(1, self.d + 1), range(self.d + 1, self.n + 1))

    @property
    def xt(self) -> Matrix:
        return select(self.source, range(self.d + 1, self.n + 1), range(1, self.d + 1))

    @property
    def w(self) -> Matrix:
        r = range(self.d + 1, self.n + 1)
        return select(self.source, r, r)


def bordered(b: Matrix, x: Sequence[Scalar], y: Sequence[Scalar], w: Scalar) -> Matrix:
    """The (d+1) x (d+1) block matrix [[B, y], [x^T, w]]."""
    d = b.n
    if len(x) != d or len(y) != d:
        raise DimensionMismatch(f"border vectors must have length {d}")
    kind = b.kind
    a = np.empty((d + 1, d + 1), b.entries.dtype)
    a[:d, :d] = b.entries
    a[:d, d] = [coerce(v, kind) for v in y]
    a[d] = [*(coerce(v, kind) for v in x), coerce(w, kind)]
    return Matrix(a, kind)


def rank1_update_permanent(
    b: Matrix, x: Sequence[Scalar], y: Sequence[Scalar], w: Scalar
) -> SidePair:
    """Exact identity per([[B, y], [x^T, w]]) = per(B) * (w + x^T B* y).

    Both sides are returned; they agree exactly in rational arithmetic.
    """
    block = bordered(b, x, y, w)
    if not block.is_nonneg():
        raise NegativeEntry("rank-1 update formula requires non-negative blocks")
    lhs = permanent_ryser(block)
    inv = permanental_inverse(b)
    star = inv.matrix.entries.tolist()
    kind = b.kind
    quad = sum(
        (coerce(xi, kind) * star[i][j] * coerce(yj, kind)
         for i, xi in enumerate(x) for j, yj in enumerate(y)),
        start=coerce(0, kind),
    )
    rhs = inv.source_perm * (coerce(w, kind) + quad)
    return SidePair(lhs, rhs, eq_scalar(lhs, rhs, kind))


def schur_permanent_bound(split: BlockSplit) -> SidePair:
    """The permanental Schur bound per(A) <= per(B) * per(W + X^T B* Y).

    Equality is guaranteed when k = 1 (rank-1 update identity).
    """
    a = split.source
    if not a.is_nonneg():
        raise NegativeEntry("permanental Schur bound requires a non-negative matrix")
    exact = permanent_ryser(a)
    star = permanental_inverse(split.b)
    inner = add(split.w, matmul(matmul(split.xt, star.matrix), split.y))
    bound = star.source_perm * permanent_ryser(inner)
    return SidePair(exact, bound, leq_scalar(exact, bound, a.kind))


def row_uncrossing_sides(split: BlockSplit, i_star: int) -> SidePair:
    """The row-uncrossing inequality at bottom row i_star (1-based in [1, k]).

    lhs = per(A) * per(B);
    rhs = sum over j of per([[B, Y minus col j], [X^T minus row i_star, W minor]])
          * per([[B, y_j], [x_{i_star}^T, w_{i_star,j}]]).

    Equality holds when d = 0 (Laplace expansion) and when k = 1.
    """
    a = split.source
    if not a.is_nonneg():
        raise NegativeEntry("row-uncrossing requires a non-negative matrix")
    d, k, n = split.d, split.k, split.n
    if not 1 <= i_star <= k:
        raise DimensionMismatch(f"i_star = {i_star} outside [1, {k}]")
    lhs = permanent_ryser(a) * permanent_ryser(split.b)
    kind = a.kind
    rhs = coerce(0, kind)
    row_i = d + i_star
    head = range(1, d + 1)
    for col_j in range(d + 1, n + 1):
        big = delete(a, (row_i,), (col_j,))
        small = select(a, (*head, row_i), (*head, col_j))
        rhs += permanent_ryser(big) * permanent_ryser(small)
    return SidePair(lhs, rhs, leq_scalar(lhs, rhs, kind))


def two_row_inequality_sides(
    b: Matrix,
    x1: Sequence[Scalar],
    x2: Sequence[Scalar],
    y1: Sequence[Scalar],
    y2: Sequence[Scalar],
    w: Matrix,
) -> SidePair:
    """The two-row inequality for the (d+2) block with rows x1, x2 appended.

    lhs = per([[B, y1, y2], [x1^T, w11, w12], [x2^T, w21, w22]]) * per(B);
    rhs = per([[B,y1],[x1^T,w11]]) * per([[B,y2],[x2^T,w22]])
        + per([[B,y2],[x1^T,w12]]) * per([[B,y1],[x2^T,w21]]).

    per(B) = 0 is legal here (then lhs = 0 <= rhs).
    """
    if w.nrows != 2 or w.ncols != 2:
        raise DimensionMismatch("w must be 2x2")
    (w11, w12), (w21, w22) = w.entries.tolist()
    big = bordered(bordered(b, x1, y1, w11), [*x2, w21], [*y2, w12], w22)
    if not big.is_nonneg():
        raise NegativeEntry("two-row inequality requires non-negative blocks")
    lhs = permanent_ryser(big) * permanent_ryser(b)
    rhs = (
        permanent_ryser(bordered(b, x1, y1, w11)) * permanent_ryser(bordered(b, x2, y2, w22))
        + permanent_ryser(bordered(b, x1, y2, w12)) * permanent_ryser(bordered(b, x2, y1, w21))
    )
    return SidePair(lhs, rhs, leq_scalar(lhs, rhs, b.kind))


def condense(b: Scalar, x: Sequence[Scalar], y: Sequence[Scalar], w: Matrix) -> Matrix:
    """Condense the pivot b out of [[b, y^T], [x, W]]: c_{i,j} = w_{i,j} + x_i y_j / b.

    The downstream inequality is per([[b, y^T], [x, W]]) / b <= per(C).
    """
    k = w.n
    kind = w.kind
    pivot = coerce(b, kind)
    if pivot == 0:
        raise ZeroPivot(1)
    if len(x) != k or len(y) != k:
        raise DimensionMismatch(f"x and y must have length {k}")
    xs = [coerce(v, kind) for v in x]
    ys = [coerce(v, kind) for v in y]
    if pivot < 0 or any(v < 0 for v in xs + ys) or not w.is_nonneg():
        raise NegativeEntry("condense requires non-negative inputs and b > 0")
    return add(w, outer(xs, [v / pivot for v in ys], kind))
