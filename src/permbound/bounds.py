"""Derived bound machinery on top of the process.

The majorant check on a pair (A, B), the inequality form of the
majorant recursion (an exact solution satisfies it too), the
diagonal-dominance guarantee, the exponential family, the boundedness
function B(n, k, t) = n! * M^(n+k) * (M+1)^(t-1) with its entry/ratio/cycle
checks on one checked `BoundedInput` and their case generators, and the
product-of-absolute-row-sums baseline.  Row sums and cycle sums run on
`integer_rows` and divide once, so a float64 value is the exact one
rounded once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations
from typing import Iterable

import numpy as np

from .errors import (
    ConditionViolated,
    DimensionMismatch,
    NegativeEntry,
    NonFinite,
    ParameterOutOfRange,
    PreconditionViolated,
    ZeroPermanent,
    ZeroPivot,
)
from .matcore import Matrix, permanent_ryser, select, sorted_indices
from .process import ProcessTrace, cross_sums, recursive_u, run_process
from .scalars import (
    FLOAT64, RATIONAL, Scalar, SidePair, coerce, eq_scalar, first_failure, first_strict_failure,
    leq_scalar, one, quotient,
)


@dataclass(frozen=True)
class BoundFunction:
    """B(n, k, t) = n! * M^(n+k) * (M+1)^(t-1), increasing in every argument."""

    n: int
    M: Scalar

    def __post_init__(self):
        if self.n < 1:
            raise ParameterOutOfRange(f"n = {self.n} must be >= 1")
        if self.M < 1:
            raise ParameterOutOfRange(f"M = {self.M} must be >= 1")

    def __call__(self, k: int, t: int) -> Scalar:
        if k < 1 or t < 1:
            raise ParameterOutOfRange(f"k = {k}, t = {t} must be >= 1")
        return math.factorial(self.n) * self.M ** (self.n + k) * (self.M + 1) ** (t - 1)

    def gamma(self, m: int) -> Scalar:
        """gamma_m = m! * M^m, the dimension-m permanent cap."""
        if m < 0:
            raise ParameterOutOfRange(f"m = {m} must be >= 0")
        return math.factorial(m) * self.M ** m


@dataclass(frozen=True)
class DiagDominanceResult:
    certified: bool
    bound: Scalar | None
    eps: Scalar
    violation: tuple[int, int] | None = None


def rowsum_bound(a: Matrix) -> Scalar:
    """Product of absolute row sums, >= per(|a|) >= |per(a)| for any a; the baseline bound.

    Float rows are summed left to right from 0.0 (a sequential cumsum);
    exact rows are summed as their `integer_rows` and divided once.
    """
    if a.kind == FLOAT64:
        with np.errstate(over="ignore"):
            sums = np.cumsum(np.abs(a.entries), axis=1)[:, -1] if a.ncols else np.zeros(a.nrows)
        return math.prod(sums.tolist(), start=1.0)
    ints, scales = a._integer_rows()
    return Fraction(math.prod(sum(map(abs, row)) for row in ints), math.prod(scales))


def verify_majorant(a: Matrix, b: Matrix) -> None:
    """Check that b is a majorant for a: return normally, or raise at the first failure.

    b claims a_{i,j} + sum_{s<min(i,j)} b_{i,s} b_{s,j} / a_{s,s} <= b_{i,j}
    everywhere; an exact solution of the recursion claims it too.  The
    condition is compared with no slack, in either kind.  On success the
    theorem's consequence u <= b entrywise is also asserted against
    recursive_u.  The first failing entry raises ConditionViolated(i, j)
    (1-based).
    """
    if a.n != b.n:
        raise DimensionMismatch(f"a is {a.n}x{a.n} but b is {b.n}x{b.n}")
    if not a.is_nonneg() or not b.is_nonneg():
        raise NegativeEntry("majorant certificates require non-negative matrices")
    kind = a.kind
    lhs = a.entries + cross_sums(b.entries, a.diagonal(), kind)
    failure = first_strict_failure(lhs, b.entries)
    if failure is not None:
        raise ConditionViolated(*failure)
    failure = first_failure(recursive_u(a).entries, b.entries, kind)
    assert failure is None, f"u exceeds the verified majorant at {failure}"


def diag_dominance_certify(a: Matrix, eps: Scalar) -> DiagDominanceResult:
    """Check the diagonal-dominance condition and produce the (1+eps)^n bound.

    Condition at every (i, j): (1+eps)^2/eps * sum_{s < min(i,j)}
    a_{i,s} a_{s,j} / a_{s,s} <= a_{i,j}.  When it holds everywhere the
    certified bound is (1+eps)^n * prod a_{i,i}, and both per(A) and the
    process bound stay below it.  A violation is reported (first one in
    row-major order), not raised.  Both sides are compared with no slack,
    in either kind, so a float certificate holds only where its float
    values do.
    """
    n = a.n
    kind = a.kind
    e = coerce(eps, kind)
    if e <= 0:
        raise ParameterOutOfRange(f"eps must be > 0, got {e}")
    if not a.is_nonneg():
        raise NegativeEntry("diagonal dominance requires a non-negative matrix")
    diag = a.diagonal()
    for s, d in enumerate(diag[:-1], 1):  # the condition divides by a_11..a_(n-1,n-1) only
        if d == 0:
            raise ZeroPivot(s, f"zero diagonal entry at ({s}, {s})")
    factor = _finite(lambda: (1 + e) ** 2 / e, "the factor (1+eps)^2/eps")
    violation = first_strict_failure(factor * cross_sums(a.entries, diag, kind), a.entries)
    if violation is not None:
        return DiagDominanceResult(False, None, e, violation)
    bound = _finite(lambda: math.prod(diag, start=(1 + e) ** n), "the bound (1+eps)^n prod a_ii")
    return DiagDominanceResult(True, bound, e)


def _finite(compute, what: str) -> Scalar:
    """compute(), or NonFinite when that overflows float64."""
    try:
        value = compute()
        if not isinstance(value, float) or math.isfinite(value):
            return value
    except OverflowError:
        pass
    raise NonFinite(f"{what} overflows float64")


@dataclass(frozen=True)
class BoundedInput:
    """A square matrix a with unit diagonal and entries in [0, M], checked once.

    B = BoundFunction(n, M) and the process trace, with its snapshots, are
    built on first use and shared by every check on this input.
    """

    a: Matrix
    M: Scalar

    def __post_init__(self):
        a, M = self.a, self.M
        n = a.n
        if M < 1:
            raise ParameterOutOfRange(f"M = {M} must be >= 1")
        for i in range(1, n + 1):
            if not eq_scalar(a.entry(i, i), 1, a.kind):
                raise PreconditionViolated(f"diagonal entry ({i}, {i}) is not 1")
        for i, j in np.argwhere(~((a.entries >= 0) & (a.entries <= M))):
            x = a.entries.item(i, j)
            if x < 0 or not leq_scalar(x, M, a.kind):
                raise PreconditionViolated(f"entry ({i + 1}, {j + 1}) = {x} outside [0, {M}]")

    @cached_property
    def B(self) -> BoundFunction:
        return BoundFunction(self.a.n, self.M)

    @cached_property
    def trace(self) -> ProcessTrace:
        return run_process(self.a)


def entry_bound_check(x: BoundedInput):
    """Scan process snapshots for entries exceeding B(n, 1, t).

    Checks a^(t)_{i,j} <= B(n, 1, t) for every t <= min(i, j); returns None
    or the first violating (i, j, t), smallest t first then row-major.
    """
    n, kind, B = x.a.n, x.a.kind, x.B
    for t in range(1, n + 1):
        trailing = x.trace.snapshot(t).entries[t - 1:, t - 1:]
        failure = first_failure(trailing, B(1, t), kind)
        if failure is not None:
            return (failure[0] + t - 1, failure[1] + t - 1, t)
    return None


def _full_cycles(k: int):
    """All k-cycles on {0, ..., k-1}, each as its visiting order from 0; (k-1)! of them."""
    for tail in permutations(range(1, k)):
        yield (0, *tail, 0)


def cycle_sum_ratio(x: BoundedInput, t: int, s: Iterable[int], i0: int) -> SidePair:
    """The cycle-sum to sub-permanent ratio at step t, against B(n, |S|, t).

    ratio = (sum over full cycles sigma of S of prod_{i in S} a^(t)_{i, sigma(i)})
            / per(A^(t)(S - i0, S - i0)).

    The cycle products are summed on the `integer_rows` of the S x S block
    and divided once, so a float numerator is the exact sum rounded once (nan
    for an inf or nan entry, as in `permanent_ryser`).  S must lie in
    {t+1, ..., n} with |S| >= 2 and i0 in S.  lhs is the ratio, rhs the cap.
    """
    n, kind = x.a.n, x.a.kind
    ss = sorted_indices(s)
    if len(ss) < 2:
        raise ParameterOutOfRange(f"|S| = {len(ss)} must be >= 2")
    if t < 1 or ss[0] <= t or ss[-1] > n:
        raise ParameterOutOfRange(f"S = {ss} must lie within {{{t + 1}, ..., {n}}}")
    if i0 not in ss:
        raise ParameterOutOfRange(f"i0 = {i0} is not in S = {ss}")
    snapshot = x.trace.snapshot(t)
    try:
        ints, scales = select(snapshot, ss, ss)._integer_rows()
    except (OverflowError, ValueError):
        num = math.nan
    else:
        total = sum(math.prod(ints[i][j] for i, j in zip(order, order[1:]))
                    for order in _full_cycles(len(ss)))
        num = quotient(total, math.prod(scales), kind)
    rest = tuple(m for m in ss if m != i0)
    den = permanent_ryser(select(snapshot, rest, rest))
    if den == 0:
        raise ZeroPermanent(f"per(A^({t})(S - i0, S - i0)) = 0")
    ratio = num / den
    cap = x.B(len(ss), t)
    return SidePair(ratio, cap, leq_scalar(ratio, cap, kind))


def perm_ratio_cases(n: int, rng=None, count: int = 0):
    """(S, i, j) cases for perm_ratio_check: all of them when rng is None,
    else count random draws (size, S, i, j in that order per case)."""
    if rng is None:
        for size in range(n):
            for s in combinations(range(1, n + 1), size):
                rest = [i for i in range(1, n + 1) if i not in s]
                for i in rest:
                    for j in rest:
                        yield s, i, j
        return
    for _ in range(count):
        size = rng.randint(0, n - 1)
        s = tuple(sorted(rng.sample(range(1, n + 1), size)))
        rest = [i for i in range(1, n + 1) if i not in s]
        yield s, rng.choice(rest), rng.choice(rest)


def cycle_sum_cases(n: int, rng=None, count: int = 0):
    """(t, S) cases for cycle_sum_ratio, S within {t+1, ..., n} and |S| >= 2:
    all of them when rng is None, else count random draws (t, size, S).

    Yields lazily, so a caller sharing rng may draw i0 from S between cases.
    """
    if rng is None:
        for t in range(1, n - 1):
            for size in range(2, n - t + 1):
                for s in combinations(range(t + 1, n + 1), size):
                    yield t, s
        return
    for _ in range(count):
        t = rng.randint(1, n - 2)
        pool = list(range(t + 1, n + 1))
        size = rng.randint(2, len(pool))
        yield t, tuple(sorted(rng.sample(pool, size)))


def perm_ratio_check(x: BoundedInput, s: Iterable[int], i: int, j: int) -> SidePair:
    """per(A(S+i, S+j)) / per(A(S, S)) against gamma_{|S|+1} = (|S|+1)! M^(|S|+1).

    i and j must lie outside S (i = j is fine); unit diagonal makes the
    denominator >= 1, so ZeroPermanent cannot actually fire here.  lhs is
    the ratio, rhs the cap.
    """
    a = x.a
    n = a.n
    ss = sorted_indices(s)
    if ss and ss[-1] > n:
        raise ParameterOutOfRange(f"S = {ss} must lie within [1, {n}]")
    if i in ss or j in ss or not (1 <= i <= n and 1 <= j <= n):
        raise ParameterOutOfRange(f"i = {i}, j = {j} must lie in [1, {n}] outside S")
    den = permanent_ryser(select(a, ss, ss))
    if den == 0:
        raise ZeroPermanent("per(A(S, S)) = 0")
    num = permanent_ryser(select(a, ss + (i,), ss + (j,)))
    ratio = num / den
    cap = x.B.gamma(len(ss) + 1)
    return SidePair(ratio, cap, leq_scalar(ratio, cap, a.kind))


def _exp_powers(n: int, c) -> tuple[Scalar, str, list]:
    """Check n >= 1 and c > 0; return c, its kind (float64 for a float c,
    else rational) and the powers [c^0, c^-1, ..., c^-(n-1)]."""
    if n < 1:
        raise ParameterOutOfRange(f"n = {n} must be >= 1")
    if isinstance(c, float):
        cc, kind = c, FLOAT64
    else:
        cc, kind = Fraction(c), RATIONAL
    if cc <= 0:
        raise ParameterOutOfRange(f"c = {c} must be > 0")
    powers = [one(kind)]
    for _ in range(n - 1):
        powers.append(powers[-1] / cc)
    return cc, kind, powers


def exp_family(n: int, c) -> Matrix:
    """The family (A_n)_{i,j} = c^(-|i-j|); rational when c is, float otherwise."""
    _, kind, powers = _exp_powers(n, c)
    return Matrix([[powers[abs(i - j)] for j in range(n)] for i in range(n)], kind)
