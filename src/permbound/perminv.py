"""The permanental inverse B* and its entrywise dominance properties.

For a non-negative square B with per(B) > 0, the permanental inverse is the
matrix B* with entries

    (B*)_{i,j} = per(B_{j,i}) / per(B),

where B_{j,i} deletes row j and column i; per(B) and every minor come from
one `permanent_minors` pass.  B* is not a multiplicative inverse, but both
B*B and BB* dominate the identity entrywise with exact unit diagonals
(`check_identity_dominance`, a `verify` row).  That permanental minors of
B are controlled by permanents of submatrices of B* is a lemma only the
tests check, against their own oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NegativeEntry, ZeroPermanent
from .matcore import Matrix, matmul, permanent_minors
from .scalars import Scalar, eq_scalar, first_failure, zero


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
    """Compute B* from per(B) and the table of its minors (`permanent_minors`).

    Raises NegativeEntry for negative input and ZeroPermanent when
    per(b) = 0 (B* is only defined for per(B) != 0).
    """
    n = b.n
    if not b.is_nonneg():
        raise NegativeEntry("permanental inverse requires a non-negative matrix")
    total, minors = permanent_minors(b)
    if total == 0:
        raise ZeroPermanent("per(B) = 0; permanental inverse undefined")
    rows = [[minors[j][i] / total for j in range(n)] for i in range(n)]
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
