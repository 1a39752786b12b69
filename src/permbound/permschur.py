"""Permanental Schur machinery for block matrices A = [[B, Y], [X^T, W]].

Every lemma takes one `BlockSplit` and cuts its blocks from the source
matrix.  `condense` computes the permanental Schur complement
W + X^T B* Y, the one place it is formed; the permanental Schur upper bound
per(A) <= per(B) * per(W + X^T B* Y) reads it from there, and the exact
rank-1 identity is that bound at k = 1.  At d = 1 the complement is one step
of the permanent process.  The row-uncrossing inequality compares products
of permanents of (d+1)-blocks; the two-row inequality is its k = 2 case.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, NegativeEntry
from .matcore import Matrix, add, matmul, permanent_minors, permanent_ryser, select
from .perminv import permanental_inverse
from .scalars import Scalar, SidePair, eq_scalar, leq_scalar, zero


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


def _complement(split: BlockSplit) -> tuple[Matrix, Scalar]:
    """W + X^T B* Y and per(B); see condense."""
    a = split.source
    if not a.is_nonneg():
        raise NegativeEntry("the permanental Schur complement requires a non-negative matrix")
    star = permanental_inverse(split.b)
    return add(split.w, matmul(matmul(split.xt, star.matrix), split.y)), star.source_perm


def condense(split: BlockSplit) -> Matrix:
    """The permanental Schur complement C = W + X^T B* Y of a non-negative split.

    per(A) <= per(B) * per(C), with equality at k = 1.  At d = 1, B* is
    1 / a_{1,1} and c_{i,j} = w_{i,j} + x_i y_j / a_{1,1}: one step of the
    permanent process.  per(B) = 0 raises ZeroPermanent.
    """
    return _complement(split)[0]


def rank1_update_permanent(split: BlockSplit) -> SidePair:
    """Exact identity per([[B, y], [x^T, w]]) = per(B) * (w + x^T B* y) for k = 1.

    The Schur bound's pair, judged as an equality: at k = 1 the complement
    is the 1x1 matrix [w + x^T B* y].  Both sides agree exactly in rational
    arithmetic.
    """
    if split.k != 1:
        raise DimensionMismatch(f"the rank-1 identity needs k = 1, got k = {split.k}")
    pair = schur_permanent_bound(split)
    return SidePair(pair.lhs, pair.rhs, eq_scalar(pair.lhs, pair.rhs, split.source.kind))


def schur_permanent_bound(split: BlockSplit) -> SidePair:
    """The permanental Schur bound per(A) <= per(B) * per(W + X^T B* Y).

    Equality is guaranteed when k = 1 (rank-1 update identity).
    """
    c, per_b = _complement(split)
    exact = permanent_ryser(split.source)
    bound = per_b * permanent_ryser(c)
    return SidePair(exact, bound, leq_scalar(exact, bound, c.kind))


def row_uncrossing_sides(split: BlockSplit, i_star: int) -> SidePair:
    """The row-uncrossing inequality at bottom row i_star (1-based in [1, k]).

    lhs = per(A) * per(B);
    rhs = sum over j of per([[B, Y minus col j], [X^T minus row i_star, W minor]])
          * per([[B, y_j], [x_{i_star}^T, w_{i_star,j}]]).

    Equality holds when d = 0 (Laplace expansion) and when k = 1.  per(A)
    and the first factors, minors of A, come from one `permanent_minors` call.
    """
    a = split.source
    if not a.is_nonneg():
        raise NegativeEntry("row-uncrossing requires a non-negative matrix")
    d, k, n = split.d, split.k, split.n
    if not 1 <= i_star <= k:
        raise DimensionMismatch(f"i_star = {i_star} outside [1, {k}]")
    per_a, minors = permanent_minors(a)
    lhs = per_a * permanent_ryser(split.b)
    kind = a.kind
    rhs = zero(kind)
    row_i = d + i_star
    head = range(1, d + 1)
    for col_j in range(d + 1, n + 1):
        small = select(a, (*head, row_i), (*head, col_j))
        rhs += minors[row_i - 1][col_j - 1] * permanent_ryser(small)
    return SidePair(lhs, rhs, leq_scalar(lhs, rhs, kind))


def two_row_inequality_sides(split: BlockSplit) -> SidePair:
    """The two-row inequality for a split with k = 2: row uncrossing at i_star = 1.

    With p_{r,c} = per([[B, y_c], [x_r^T, w_{r,c}]]), the (d+1)-block cut
    on bottom row r and column c:
    lhs = per(A) * per(B);
    rhs = p_{2,2} * p_{1,1} + p_{2,1} * p_{1,2}, since the minors of row d+1
    are p_{2,2} and p_{2,1}.

    per(B) = 0 is legal here (then lhs = 0 <= rhs).
    """
    if split.k != 2:
        raise DimensionMismatch(f"the two-row inequality needs k = 2, got k = {split.k}")
    return row_uncrossing_sides(split, 1)
