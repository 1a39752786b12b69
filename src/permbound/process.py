"""The permanent process and its relatives.

The process runs the Gaussian elimination pattern with a sign flip: for
t = 1..n-1 and i, j > t it performs

    a_{i,j} <- a_{i,j} + a_{i,t} * a_{t,j} / a_{t,t}

and the product of the resulting diagonal pivots upper-bounds per(A) for
non-negative and for PSD inputs.  It runs through `matcore.eliminate`,
one kernel for exact rationals and float64 alike, which hands over the
bound with the pivots: an exact run reduces its bound once and each pivot
only when `ProcessTrace.pivots` is first read.  The u-recursion
(`recursive_u`) is the closed dynamic program for the same values.  The
certificates' `cross_sums` are one product, taken by `matcore.matmul` or
`matcore.scaled_product`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import numpy as np

from .errors import NegativeEntry, NotSquare, ParameterOutOfRange, ZeroPivot
from .matcore import DTYPES, Matrix, eliminate, is_int, matmul, scaled_product
from .psd import GramMatrix
from .scalars import FLOAT64, Scalar, zero


@dataclass(frozen=True)
class ProcessTrace:
    """Pivots, their product (the bound) and the matrices A^(1)..A^(n) of one run.

    pivots[t-1] is a^(t)_{t,t}, which the process never touches again, so
    it also equals the final diagonal.  The run hands over _pivots as the
    kernel keeps them, floats or exact (integer, scale) pairs, and bound,
    computed once by the kernel; `pivots` reduces the pairs to Fractions on
    its first read and keeps them.  snapshots, the n states A^(1) (the
    input) through A^(n) (the final matrix), come on their first read from
    a per-step sweep of the matrix the run swept (_swept, with its skip
    flag), whose float64 diagonal past the first `matcore.PANEL` steps may
    differ from the pivots in the last bits.
    """

    n: int
    _pivots: tuple
    bound: Scalar
    arithmetic: str
    _swept: tuple[Matrix, bool] = field(compare=False, repr=False)
    ordering: tuple[int, ...] | None = None

    @cached_property
    def pivots(self) -> tuple[Scalar, ...]:
        if self.arithmetic == FLOAT64:
            return self._pivots
        return tuple(Fraction(p, s) for p, s in self._pivots)

    @cached_property
    def snapshots(self) -> tuple[Matrix, ...]:
        m, skip_zero = self._swept
        return eliminate(m, skip_zero=skip_zero, keep=True)[2]

    def snapshot(self, t: int) -> Matrix:
        """A^(t), 1-based."""
        if not (is_int(t) and 1 <= t <= self.n):
            raise ParameterOutOfRange(f"snapshot index {t} outside [1, {self.n}]")
        return self.snapshots[t - 1]


def _check_ordering(ordering, n: int) -> tuple[int, ...] | None:
    if ordering is None:
        return None
    perm = tuple(ordering)
    if not (all(map(is_int, perm)) and sorted(perm) == list(range(1, n + 1))):
        raise ParameterOutOfRange(f"ordering {perm} is not a permutation of 1..{n}")
    return perm


def run_process(a: Matrix | GramMatrix, ordering=None) -> ProcessTrace:
    """Run the permanent process (Algorithm with the PLUS update).

    Accepts a non-negative Matrix, or a GramMatrix as the PSD certificate
    (raw symmetric matrices claiming PSD-ness are rejected).  A zero pivot
    raises ZeroPivot for non-negative inputs; for PSD inputs a zero pivot
    with zero row/column skips the step, and a nonzero row/column raises
    InvalidGram since it contradicts PSD-ness.

    ordering, when given, is a permutation of 1..n: entry (i, j) of the
    processed matrix is a_{ordering[i], ordering[j]}.  The permanent is
    invariant under this relabeling; the bound is not.

    The pivots and the bound come from one sweep; the snapshots, on their
    first read, from a second sweep that takes every step one update at a
    time, so a run whose states nobody reads never pays for it.
    """
    if isinstance(a, GramMatrix):
        m, psd_mode = a.gram, True
    elif isinstance(a, Matrix):
        m, psd_mode = a, False
        if not m.is_nonneg():
            raise NegativeEntry(
                "run_process needs a non-negative matrix or a GramMatrix certificate"
            )
    else:
        raise TypeError(f"expected Matrix or GramMatrix, got {type(a).__name__}")
    n = m.n
    perm = _check_ordering(ordering, n)
    if perm is not None:
        idx = [p - 1 for p in perm]
        m = Matrix(m.entries.take(idx, 0).take(idx, 1), m.kind)
    pivots, bound, _ = eliminate(m, skip_zero=psd_mode)
    return ProcessTrace(n=n, _pivots=pivots, bound=bound, arithmetic=m.kind,
                        _swept=(m, psd_mode), ordering=perm)


def process_bound(a: Matrix | GramMatrix) -> Scalar:
    """Product of the process pivots; upper-bounds per(A).  No pivot is reduced."""
    return run_process(a).bound


def cross_sums(b, den, kind: str) -> np.ndarray:
    """sum_{s < min(i,j)} b_{i,s} b_{s,j} / den_s over 0-based i, j, s, as an n x n array.

    That is L U, with L_{i,s} = b_{i,s} / den_s for s < i and U the strict
    upper triangle of b: exact by `matmul`, float64 by `scaled_product`, or
    where it refuses, one outer product per step s, added from zero only to
    the entries i, j > s, so each entry rounds as its running sum in order
    of s does and an empty sum reads 0.0.
    No s reaches n - 1, so den_{n-1} is never read; a zero den_s below it
    raises ZeroPivot(s + 1).  b is an ndarray or nested rows; the result
    has the kind's `Matrix` dtype (object holding Fractions, or float64).
    """
    n = len(b)
    b = np.asarray(b, DTYPES[kind]).reshape(n, n)
    den = den[:n - 1]
    for s, d in enumerate(den, 1):
        if d == 0:
            raise ZeroPivot(s)
    col, upper = np.tril(b, -1)[:, :-1], np.triu(b, 1)[:-1]
    if kind == FLOAT64:
        sums = scaled_product(col, den, upper)
        if sums is None:  # step s reaches only the entries it adds to, i, j > s
            sums = np.zeros((n, n))
            with np.errstate(all="ignore"):
                for s, d in enumerate(den):
                    sums[s + 1:, s + 1:] += np.outer(col[s + 1:, s], upper[s, s + 1:]) / d
        return sums
    lower = col / np.array([Fraction(d) for d in den], dtype=object)  # ints stay exact
    return matmul(Matrix(lower, kind), Matrix(upper, kind)).entries


def recursive_u(a: Matrix) -> Matrix:
    """The closed recursion u_{i,j} = a_{i,j} + sum_{s < min(i,j)} u_{i,s} u_{s,j} / u_{s,s}.

    Solved in order of min(i,j).  Equals the process values
    a^(min(i,j))_{i,j} entrywise, hence also the final matrix A^(n).  The
    sum runs to min(i,j) - 1; see the process equivalence test.  A zero
    u_{s,s} that a later step divides by raises ZeroPivot with its 1-based
    index.  Step s adds column s below the diagonal times row s right of it,
    over u_{s,s}, to a running sum of the trailing block from zero, then
    sets row and column s + 1 to a plus their finished sums.  So each entry
    rounds as its sum from 0.0 in order of s does, -0.0 reads 0.0, and ints
    Fractions.
    """
    if not a.is_nonneg():
        raise NegativeEntry("the u-recursion is defined for non-negative matrices")
    if not a.is_square:
        raise NotSquare(f"the u-recursion needs a square matrix, got {a.nrows}x{a.ncols}")
    kind = a.kind
    u = a.entries + zero(kind)  # writable; row and column 0 are final
    sums = np.full(u.shape, zero(kind), DTYPES[kind])
    for s in range(len(u) - 1):
        d = u[s, s]
        if d == 0:
            raise ZeroPivot(s + 1)
        t = s + 1
        col, row = u[t:, s], u[s, t:]
        if kind == FLOAT64:
            with np.errstate(over="ignore", invalid="ignore"):
                sums[t:, t:] += np.multiply.outer(col, row) / d
        else:
            sums[t:, t:] += np.multiply.outer(col / Fraction(d), row)  # ints stay exact
        u[t, t:] = a.entries[t, t:] + sums[t, t:]
        u[t:, t] = a.entries[t:, t] + sums[t:, t]
    return Matrix(u, kind)
