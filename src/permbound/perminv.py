"""The permanental inverse B* and its entrywise dominance properties.

For a non-negative square B with per(B) > 0, the permanental inverse is the
matrix B* with entries

    (B*)_{i,j} = per(B_{j,i}) / per(B),

where B_{j,i} deletes row j and column i.  B* is not a multiplicative
inverse, but both B*B and BB* dominate the identity entrywise with exact
unit diagonals, and permanental minors of B are controlled by permanents
of submatrices of B*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import DimensionMismatch, NegativeEntry, ZeroPermanent
from .matcore import Matrix, delete, matmul, permanent_ryser, select, sorted_indices
from .scalars import Scalar, SidePair, eq_scalar, first_failure, leq_scalar, zero


@dataclass(frozen=True)
class PermanentalInverse:
    """B* together with per(B) (the normalizing permanent)."""

    matrix: Matrix
    source_perm: Scalar


@dataclass(frozen=True)
class DominanceCheck:
    left: Matrix   # B* B
    right: Matrix  # B B*
    holds: bool


def permanental_inverse(b: Matrix) -> PermanentalInverse:
    """Compute B* by n^2 minor-permanent calls (clarity over speed).

    Raises NegativeEntry for negative input and ZeroPermanent when
    per(b) = 0 (B* is only defined for per(B) != 0).
    """
    n = b.n
    if not b.is_nonneg():
        raise NegativeEntry("permanental inverse requires a non-negative matrix")
    total = permanent_ryser(b)
    if total == 0:
        raise ZeroPermanent("per(B) = 0; permanental inverse undefined")
    rows = [[permanent_ryser(delete(b, (j,), (i,))) / total for j in range(1, n + 1)]
            for i in range(1, n + 1)]
    return PermanentalInverse(Matrix(rows, b.kind), total)


def check_identity_dominance(b: Matrix) -> DominanceCheck:
    """Form B*B and BB* and check both dominate I entrywise.

    In rational mode the diagonals must equal 1 exactly; off-diagonals must
    be >= 0.  Float mode applies the standard tolerance policy.  A diagonal
    entry equal to 1 is also >= 0, so every entry is checked against 0.
    """
    star = permanental_inverse(b).matrix
    left = matmul(star, b)
    right = matmul(b, star)
    kind = b.kind
    holds = all(
        first_failure(zero(kind), prod.entries, kind) is None
        and all(eq_scalar(x, 1, kind) for x in prod.diagonal())
        for prod in (left, right)
    )
    return DominanceCheck(left, right, holds)


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
