"""PSD-specific machinery: Gram factorizations, the tensor-product permanent
formula, the alpha coefficients of per(aB + xx^T) read off one
`permanent_ryser` call in base 2^K, and the PSD Schur inequality, whose
bound is read off those coefficients.

A PSD matrix enters the rest of the package only as a GramMatrix, i.e.
together with a factor V such that A = V^T V.  That constructor is the PSD
certificate; raw symmetric matrices claiming to be PSD are not accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

from .errors import DimensionMismatch, DimensionTooLarge, ZeroPivot
from .matcore import Matrix, delete, integer_rows, matmul, matrix, permanent_ryser, transpose
from .scalars import RATIONAL, Scalar, SidePair, coerce, eq_scalar, leq_scalar, quotient

TENSOR_MAX_N = 5
TENSOR_MAX_SPACE = 2_000_000


@dataclass(frozen=True)
class GramMatrix:
    """A = V^T V carried together with its d x n factor V (columns v_1..v_n)."""

    factor: Matrix
    gram: Matrix

    @property
    def n(self) -> int:
        return self.gram.n

    @property
    def d(self) -> int:
        return self.factor.nrows

    def column(self, j: int) -> tuple[Scalar, ...]:
        """Factor column v_j, 1-based."""
        return self.factor.col(j)


def gram_from_factor(v: Matrix | Sequence[Sequence]) -> GramMatrix:
    """Build the Gram matrix V^T V from a d x n factor (d >= 1, n >= 1)."""
    if not isinstance(v, Matrix):
        v = matrix(v)
    if v.nrows < 1 or v.ncols < 1:
        raise DimensionMismatch("factor must be at least 1x1")
    return GramMatrix(v, matmul(transpose(v), v))


def tensor_fits(g: GramMatrix) -> bool:
    """Whether permanent_tensor admits g: n <= 5 and d^n <= 2e6."""
    return g.n <= TENSOR_MAX_N and g.d ** g.n <= TENSOR_MAX_SPACE


def permanent_tensor(g: GramMatrix) -> Scalar:
    """per(A) = (1/n!) * || sum over sigma of v_sigma(1) x ... x v_sigma(n) ||^2.

    The tensor lives in a d^n-dimensional space; `tensor_fits` is the size
    guard.  The sum runs on the `integer_rows` of the factor columns, and
    one division by scale^2 * n! gives the exact value (rounded once in
    float mode).  Manifestly >= 0, which certifies non-negativity of PSD
    permanents.
    """
    n = g.n
    d = g.d
    if not tensor_fits(g):
        raise DimensionTooLarge(f"permanent_tensor guard: n = {n}, d^n = {d}^{n}")
    try:
        cols, scales = integer_rows(g.column(j) for j in range(1, n + 1))
    except (OverflowError, ValueError):
        return math.nan
    total = [0] * (d ** n)
    for sigma in permutations(range(n)):
        # accumulate the Kronecker product v_sigma(1) x ... x v_sigma(n)
        vec = [1]
        for i in range(n):
            v = cols[sigma[i]]
            vec = [a * b for a in vec for b in v]
        for idx, val in enumerate(vec):
            total[idx] += val
    norm_sq = sum(x * x for x in total)
    return quotient(norm_sq, math.prod(scales) ** 2 * math.factorial(n), g.gram.kind)


def alpha_coefficients(b: Matrix, x: Sequence[Scalar]) -> tuple[Scalar, ...]:
    """The coefficients of per(a*B + xx^T), read off one permanent in base 2^K.

    With d = dim(B) the tuple has length d + 1 and its entry k is the
    coefficient of a^(d-k): entry 0 is per(B), and entry k collects the
    terms using k entries of xx^T.

    On the `integer_rows` of B (row B_i over s_i) and x (X over sx), row i
    of s_i sx^2 (a*B + xx^T) at a*sx^2 = t is t*B_i + w_i*X with w_i =
    s_i X_i.  Its permanent is sum_k c_k t^(d-k), and alpha_k = c_k /
    (prod s_i * sx^(2k)).  As sum_k |c_k| <= cap = prod_i (sum_j |B_ij| +
    |w_i| sum_j |X_j|), one `permanent_ryser` call at t = 2^K > 2 cap holds
    every c_k as one balanced base-2^K digit (Kronecker substitution).
    Each coefficient is divided once (rounded once in float mode; nan for
    an inf or nan entry).  The leading coefficient is per(B); the next one
    is sum_{i,j} x_i x_j per(B_{i,j}).
    """
    d = b.n
    kind = b.kind
    if len(x) != d:
        raise DimensionMismatch(f"x must have length {d}")
    try:
        rows, scales = integer_rows([*b.entries.tolist(), [coerce(v, kind) for v in x]])
    except (OverflowError, ValueError):
        return (math.nan,) * (d + 1)
    xs, sx = rows.pop(), scales.pop()
    weights = [s * v for s, v in zip(scales, xs)]
    x_abs = sum(map(abs, xs))
    cap = math.prod(sum(map(abs, r)) + abs(w) * x_abs for r, w in zip(rows, weights))
    bits = cap.bit_length() + 1
    t = 1 << bits
    m = Matrix([[t * r_j + w * x_j for r_j, x_j in zip(r, xs)] for r, w in zip(rows, weights)],
               RATIONAL)
    value = permanent_ryser(m).numerator
    digits = []  # c_d, ..., c_0
    for _ in range(d + 1):
        c = value & (t - 1)
        if c >= t >> 1:
            c -= t
        digits.append(c)
        value = (value - c) >> bits
    den = math.prod(scales)
    return tuple(quotient(c, den * sx ** (2 * k), kind) for k, c in enumerate(reversed(digits)))


def psd_schur_check(g: GramMatrix) -> SidePair:
    """Check per(gram) <= a * per(B + xx^T / a) for the last-pivot split.

    gram is split as [[B, x], [x^T, a]] with a the last diagonal entry;
    lhs is the exact per(gram) and rhs the bound, read off the alpha
    coefficients of per(a*B + xx^T) = sum_k alpha_k a^(d-k), d = n - 1:
    rhs = a^(1-d) per(a*B + xx^T) = sum_k alpha_k a^(1-k).  Also asserts
    the exact Laplace identity per(gram) = a*alpha_0 + alpha_1.
    """
    gram = g.gram
    n = gram.n
    if n < 2:
        raise DimensionMismatch("need n >= 2 to split off the last pivot")
    kind = gram.kind
    a = coerce(gram.entry(n, n), kind)  # a Fraction when exact, so a^(1-k) stays exact
    if a == 0:
        raise ZeroPivot(n)
    x = gram.col(n)[:-1]
    exact = permanent_ryser(gram)
    alpha = alpha_coefficients(delete(gram, (n,), (n,)), x)
    rhs = sum(c * a ** (1 - k) for k, c in enumerate(alpha))
    expansion = a * alpha[0] + alpha[1]
    if not eq_scalar(exact, expansion, kind):
        raise AssertionError(
            f"alpha expansion mismatch: per = {exact}, a*alpha0 + alpha1 = {expansion}"
        )
    return SidePair(exact, rhs, leq_scalar(exact, rhs, kind))
