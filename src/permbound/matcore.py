"""Dense matrices over exact rationals or float64, submatrix algebra, the
exact permanent (`permanent_ryser`, the ground truth everywhere else), and
the permanent process's one elimination kernel (`eliminate`, on an ndarray
of either kind).

The permanent (of either kind), the exact elimination and the exact
product run on integer rows (`integer_rows`), each with one integer scale.
A `Matrix` reads its integer rows once, on first use.  `select` and
`delete` return index views: a cut holds its source and the kept indices,
and reads its entries and its integer rows from that source on first use.
An exact cut's rows are the source's row slices over the source's scales,
not reduced, so every permanent of a minor or block shares one read.
`permanent_minors` gives per(m) and all n^2 minors per(m(-i, -j)) from one
pass of the Gray-code walk that `permanent_ryser` takes.  An exact product
sums each entry on integers and divides once.  Inside `permanent_memo`
each distinct permanent and minors table is computed once.  The exact
sweep keeps each pivot as its integer over its row scale, and divides a
row by its gcd only where at least three later steps read it; its row
scales telescope, so its bound is one Fraction reduced by one gcd
(`eliminate`).

The float64 sweep without snapshots runs in panels of PANEL = 64 pivots,
as LAPACK's getrf does: each step updates only the panel's own square.
At the panel's end the trailing block takes one product built from two
unit-triangular ones, through `scaled_product`, which the float cross
sums of the certificates share; where a guard refuses it, the panel takes
its steps one outer product at a time, as the plain loop does.  No other
module multiplies matrices with `@`.  A skipped zero pivot ends the
panels: the rest of the sweep is the plain loop.  Up to n = 64, with
snapshots, and in exact mode the sweep is one panel, so its values are
the per-step loop's bit for bit, and so are the first 64 pivots at any
n; past them a float pivot may differ from it in the last bits.

Conventions
-----------
* All row/column indices taken by the public API are 1-based, matching the
  usual mathematical notation a_{i,j}, A(S, T), A(-S, -T).  Storage is one
  read-only 0-based ndarray (`Matrix.entries`): float64, or object dtype
  holding Fractions and ints.
* per(A(0x0)) = det(A(0x0)) = 1 by convention, so empty selections behave
  as neutral factors.
* Rectangular matrices are legal carriers (blocks X, Y); the permanent and
  the elimination reject them with NotSquare.
"""

from __future__ import annotations

import math
import operator
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from itertools import accumulate, chain
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
from .scalars import FLOAT64, RATIONAL, Scalar, coerce, one, quotient, zero

RYSER_MAX_N = 24
BIT_BUDGET = 1 << 24  # cost of the trailing block an exact step may hold; see _check_bit_budget
PANEL = 64  # float64 sweep steps per trailing-block product; see eliminate
_TINY = np.finfo(np.float64).tiny  # the least normal float64, 2^-1022


DTYPES = {RATIONAL: np.dtype(object), FLOAT64: np.dtype(np.float64)}
# the ndarray dtype kinds a Matrix of each kind refuses (a literal goes through `coerce` first)
_REFUSED_DTYPES = {RATIONAL: "USfb", FLOAT64: "US"}


class Matrix:
    """Immutable dense matrix over one read-only ndarray, ``entries``.

    ``Matrix(rows, kind)`` copies rows (nested sequences or an ndarray) into
    the kind's dtype.  A str entry is a TypeError in either kind; the Python
    rows of a rational matrix may hold only int (not bool) and Fraction
    entries, and its ndarray no str, float or bool dtype; an object ndarray
    is taken as it is.  The accessors return Python scalars, never numpy ones.
    The `integer_rows` of the entries are kept, as tuples, once something
    reads them.  A cut (`select`, `delete`) holds its source, a Matrix that
    is no cut, and the kept indices, and builds its own array on the first
    read of ``entries``.
    """

    __slots__ = ("_entries", "_source", "_shape", "_kind", "_rows")
    __hash__ = None

    def __init__(self, rows, kind: str):
        if kind not in DTYPES:
            raise ValueError(f"unknown scalar kind: {kind!r}")
        types = ()
        if isinstance(rows, np.ndarray):
            if rows.dtype.kind in _REFUSED_DTYPES[kind]:
                raise TypeError(f"cannot use a {rows.dtype} array as {kind} entries")
        else:
            if len({len(row) for row in rows}) > 1:
                raise DimensionMismatch("ragged rows")
            types = set(map(type, chain.from_iterable(rows)))
            if kind == FLOAT64 and any(issubclass(t, str) for t in types):
                raise TypeError(f"cannot use str as a {kind} entry")  # np.array would parse it
        a = np.array(rows, dtype=DTYPES[kind])
        if a.shape == (0,):
            a = a.reshape(0, 0)
        if a.ndim != 2:
            raise DimensionMismatch(f"rows of scalars expected, got a {a.ndim}-d array")
        if kind == RATIONAL:
            for t in types:
                if t is bool or not issubclass(t, (int, Fraction)):
                    raise TypeError(f"cannot use {t.__name__} as a {kind} entry")
        a.flags.writeable = False
        self._entries = a
        self._source = None
        self._shape = a.shape
        self._kind = kind
        self._rows = None

    @property
    def entries(self) -> np.ndarray:
        """The read-only ndarray; a cut takes it from its source's on first read."""
        if self._entries is None:
            source, rs, cs = self._source
            a = source.entries.take(rs, 0).take(cs, 1)
            a.flags.writeable = False
            self._entries = a
        return self._entries

    def _integer_rows(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """Integer rows and row scales (row i is ints[i] / scales[i]), read on first use and kept.

        A cut of an exact source, or of a float one that keeps its rows, takes
        the source's row slices and scales as they are, not reduced; otherwise
        these are the `integer_rows` of the entries.  An inf or nan entry
        raises OverflowError or ValueError on every call; nothing is kept then.
        """
        if self._rows is None:
            if self._source is not None and (self._kind == RATIONAL
                                             or self._source[0]._rows is not None):
                source, rs, cs = self._source
                ints, scales = source._integer_rows()
                self._rows = (tuple(tuple(map(ints[i].__getitem__, cs)) for i in rs),
                              tuple(map(scales.__getitem__, rs)))
            else:
                ints, scales = integer_rows(self.entries.tolist())
                self._rows = tuple(map(tuple, ints)), tuple(scales)
        return self._rows

    @property
    def kind(self) -> str:
        return self._kind

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.kind == other.kind and self._shape == other._shape
                and bool((self.entries == other.entries).all()))

    def __repr__(self) -> str:
        return f"Matrix({self.entries.tolist()!r}, {self.kind!r})"

    @property
    def nrows(self) -> int:
        return self._shape[0]

    @property
    def ncols(self) -> int:
        return self._shape[1]

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
        if not (_is_int(i) and 1 <= i <= self.nrows):
            raise IndexOutOfRange(f"row {i} outside [1, {self.nrows}]")
        return tuple(self.entries[i - 1].tolist())

    def col(self, j: int) -> tuple[Scalar, ...]:
        """Column j, 1-based."""
        if not (_is_int(j) and 1 <= j <= self.ncols):
            raise IndexOutOfRange(f"column {j} outside [1, {self.ncols}]")
        return tuple(self.entries[:, j - 1].tolist())

    def diagonal(self) -> tuple[Scalar, ...]:
        """a_{1,1}, a_{2,2}, ... up to the shorter side."""
        return tuple(self.entries.diagonal().tolist())

    def entry(self, i: int, j: int) -> Scalar:
        """Entry a_{i,j}, 1-based."""
        if not (_is_int(i) and _is_int(j) and 1 <= i <= self.nrows and 1 <= j <= self.ncols):
            raise IndexOutOfRange(f"entry ({i}, {j}) outside {self.nrows}x{self.ncols}")
        return self.entries.item(i - 1, j - 1)

    def is_nonneg(self) -> bool:
        """Whether every entry is >= 0.  An exact matrix reads the signs of its
        integer rows, since every row scale is positive, so a cut builds no array."""
        if self._kind == RATIONAL:
            return min(chain.from_iterable(self._integer_rows()[0]), default=0) >= 0
        return bool((self.entries >= 0).all())

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
    return Matrix([[coerce(x, kind) for x in r] for r in rows], kind)


def ones(n: int, kind: str = RATIONAL) -> Matrix:
    return Matrix(np.full((n, n), one(kind)), kind)


def transpose(m: Matrix) -> Matrix:
    return Matrix(m.entries.T, m.kind)


def _require_same_kind(a: Matrix, b: Matrix):
    if a.kind != b.kind:
        raise DimensionMismatch(f"mixed scalar kinds: {a.kind} vs {b.kind}")


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """a b.

    Exact: on the `integer_rows` of a (A_i over s_i) and of b, each row of b
    rescaled to L, the lcm of b's scales, entry (i, j) is the integer dot
    product of A_i and column j divided once, by s_i L.  Float64: each entry
    summed over k left to right from zero, as the plain loop rounds.
    """
    _require_same_kind(a, b)
    if a.ncols != b.nrows:
        raise DimensionMismatch(f"cannot multiply {a.nrows}x{a.ncols} by {b.nrows}x{b.ncols}")
    if a.kind == RATIONAL:
        a_ints, a_scales = a._integer_rows()
        b_ints, b_scales = b._integer_rows()
        lcm = math.lcm(*b_scales)
        scaled = [[x * (lcm // s) for x in row] for row, s in zip(b_ints, b_scales)]
        cols = list(zip(*scaled)) if scaled else [()] * b.ncols
        out = [[Fraction(sum(map(operator.mul, row, col)), s * lcm) for col in cols]
               for row, s in zip(a_ints, a_scales)]
        return Matrix(np.array(out, dtype=object).reshape(a.nrows, b.ncols), RATIONAL)
    out = np.full((a.nrows, b.ncols), zero(a.kind))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(a.ncols):
            out += np.outer(a.entries[:, k], b.entries[k])
    return Matrix(out, a.kind)


def add(a: Matrix, b: Matrix) -> Matrix:
    _require_same_kind(a, b)
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        raise DimensionMismatch(f"cannot add {a.nrows}x{a.ncols} and {b.nrows}x{b.ncols}")
    with np.errstate(over="ignore", invalid="ignore"):
        return Matrix(a.entries + b.entries, a.kind)


def _is_int(i) -> bool:
    """Whether i may be a 1-based index: an int, and not a bool."""
    return isinstance(i, int) and type(i) is not bool


def sorted_indices(items: Iterable[int]) -> tuple[int, ...]:
    """items sorted and deduplicated; IndexOutOfRange unless each is a positive int, not a bool."""
    idx = list(items)
    try:
        idx = sorted(idx)
    except TypeError:  # items that do not compare are not all ints: the loop refuses one
        pass
    for i in idx:
        if not _is_int(i) or i < 1:
            raise IndexOutOfRange(f"index {i!r} is not a positive integer")
    return tuple(dict.fromkeys(idx))


def _within_shape(m: Matrix, rows: Iterable[int], cols: Iterable[int]):
    """rows and cols as sorted 0-based index lists, each index within m's shape."""
    rs, cs = sorted_indices(rows), sorted_indices(cols)
    for what, idx, size in (("row", rs, m.nrows), ("column", cs, m.ncols)):
        for i in idx:
            if i > size:
                raise IndexOutOfRange(f"{what} {i} outside [1, {size}]")
    return [i - 1 for i in rs], [j - 1 for j in cs]


def select(m: Matrix, rows: Iterable[int], cols: Iterable[int]) -> Matrix:
    """m(S, T): the submatrix of rows S and columns T (1-based index sets).

    select(m, (), ()) is the 0x0 matrix, whose permanent and determinant
    are 1 by convention.
    """
    rs, cs = _within_shape(m, rows, cols)
    return _cut(m, rs, cs)


def delete(m: Matrix, rows: Iterable[int], cols: Iterable[int]) -> Matrix:
    """m(-S, -T): delete rows S and columns T; delete({i},{j}) is the (i,j) minor."""
    rs, cs = _within_shape(m, rows, cols)
    keep_rows = [i for i in range(m.nrows) if i not in rs]
    keep_cols = [j for j in range(m.ncols) if j not in cs]
    return _cut(m, keep_rows, keep_cols)


def _cut(m: Matrix, rs: list[int], cs: list[int]) -> Matrix:
    """Rows rs and columns cs of m (0-based), as an index view that reads nothing.

    The child holds m's source (m itself unless m is a cut, so a cut of a
    cut composes its indices onto the first source) and the kept indices
    into it; it reads its entries and its integer rows on first use.
    """
    child = Matrix.__new__(Matrix)
    child._shape, child._kind, child._entries, child._rows = (len(rs), len(cs)), m._kind, None, None
    if m._source is None:
        child._source = m, rs, cs
    else:
        source, parent_rs, parent_cs = m._source
        child._source = (source, list(map(parent_rs.__getitem__, rs)),
                         list(map(parent_cs.__getitem__, cs)))
    return child


def ryser_fits(m: Matrix) -> bool:
    """Whether permanent_ryser admits m: n <= 24 for both kinds, which share one integer loop."""
    return m.n <= RYSER_MAX_N


def integer_rows(rows: Iterable[Sequence[Scalar]]) -> tuple[list[list[int]], list[int]]:
    """Each row read exactly and scaled by the lcm of its entries' denominators.

    Returns the integer rows and the row scales: row i is ints[i] / scales[i].
    A float64 entry is read exactly; inf or nan raises OverflowError or
    ValueError.
    """
    ints, scales = [], []
    for row in rows:
        ratios = [x.as_integer_ratio() for x in row]
        s = math.lcm(*[q for _, q in ratios])
        ints.append([p * s // q for p, q in ratios])
        scales.append(s)
    return ints, scales


_MEMO: ContextVar[dict | None] = ContextVar("permanent_memo", default=None)


@contextmanager
def permanent_memo():
    """Within the block, `permanent_ryser` and `permanent_minors` compute each
    distinct result once.

    The memo is keyed by (kind, integer rows, row scales), a minors table by
    that key under a "minors" tag, and is dropped when the block ends, also
    on an exception; nothing outlives it.
    """
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def _check_ryser_fits(m: Matrix) -> int:
    """m.n, or DimensionTooLarge past `ryser_fits`."""
    if not ryser_fits(m):
        raise DimensionTooLarge(f"permanent_ryser guard: n = {m.n} > {RYSER_MAX_N}")
    return m.n


def _memo_key(kind: str, ints, scales) -> tuple:
    # one flat tuple (its length fixes n): half the memory of a tuple of row tuples
    return (kind, *chain.from_iterable(ints), *scales)


def permanent_ryser(m: Matrix) -> Scalar:
    """per(m) by Glynn's formula over column sign vectors, O(2^(n-1) * n).

    per(m) = sum over d in {+-1}^n with d_1 = +1 of
    (prod_j d_j) prod_i (sum_j d_j a_{i,j}) / 2^(n-1).  The Gray-code walk
    flips one column sign per step on the `integer_rows` of m (kept by m
    once read), adding or subtracting twice that column, and the sum is
    divided once by prod s_i * 2^(n-1).
    Float mode returns the exact value rounded once (+-inf beyond the
    float64 range, nan for an inf or nan entry).  `ryser_fits` is the size
    guard; inside `permanent_memo` a repeated matrix is looked up.
    """
    n = _check_ryser_fits(m)
    if n == 0:
        return one(m.kind)
    try:
        ints, scales = m._integer_rows()
    except (OverflowError, ValueError):
        return math.nan
    memo = _MEMO.get()
    if memo is None:
        return _glynn(ints, scales, m.kind)
    key = _memo_key(m.kind, ints, scales)
    value = memo.get(key)
    if value is None:
        value = memo[key] = _glynn(ints, scales, m.kind)
    return value


def permanent_minors(m: Matrix) -> tuple[Scalar, tuple[tuple[Scalar, ...], ...]]:
    """per(m) and the n x n table of its minors, table[i - 1][j - 1] = per(m(-i, -j)).

    One Gray-code walk, O(2^(n-1) * n) like `permanent_ryser`, gives every
    value; each is divided once, so it equals `permanent_ryser` of the
    matching `delete` (in float mode, the exact value rounded once).  An inf
    or nan entry makes per(m) and every minor nan.  Inside `permanent_memo`
    the result is kept, and per(m) with it for a later `permanent_ryser(m)`.
    """
    n = _check_ryser_fits(m)
    kind = m.kind
    if n == 0:
        return one(kind), ()
    try:
        ints, scales = m._integer_rows()
    except (OverflowError, ValueError):
        return math.nan, ((math.nan,) * n,) * n
    memo = _MEMO.get()
    if memo is None:
        return _glynn_minors(ints, scales, kind)
    key = _memo_key(kind, ints, scales)
    value = memo.get(("minors", key))
    if value is None:
        value = memo["minors", key] = _glynn_minors(ints, scales, kind)
        memo[key] = value[0]
    return value


def _gray_walk(ints: Sequence[Sequence[int]]):
    """The row sums r_i = sum_j d_j ints[i][j] for each column sign vector d
    with d_1 = +1, in Gray-code order: 2^(n-1) pairs (flip, sums), n >= 1.

    The first vector has every sign +1 and flip = 0.  Each later step flips
    the sign of one column j (0-based, j >= 1), adding or subtracting twice
    that column; flip is j when d_j goes back to +1 and -j when it goes to -1.
    """
    n = len(ints)
    twice = [[2 * x for x in col] for col in zip(*ints)]
    sums = [sum(row) for row in ints]
    yield 0, sums
    prev_gray = 0
    for k in range(1, 1 << (n - 1)):
        gray = k ^ (k >> 1)
        bit = gray ^ prev_gray
        prev_gray = gray
        j = bit.bit_length()
        if gray & bit:
            sums = list(map(operator.sub, sums, twice[j]))
            yield -j, sums
        else:
            sums = list(map(operator.add, sums, twice[j]))
            yield j, sums


def _glynn(ints: Sequence[Sequence[int]], scales: Sequence[int], kind: str) -> Scalar:
    """Glynn's sum on integer rows ints[i] / scales[i], n >= 1, divided once."""
    n = len(ints)
    total = 0
    for _, sums in _gray_walk(ints):
        total = math.prod(sums) - total  # prod_j d_j flips with every step
    # past n = 1 the steps are even in number, so total carries every sign flipped
    return quotient(total if n == 1 else -total, math.prod(scales) << (n - 1), kind)


def _glynn_minors(ints: Sequence[Sequence[int]], scales: Sequence[int], kind: str):
    """per and the minors table on integer rows ints[i] / scales[i], n >= 1.

    Glynn's sum is multilinear in the entries, so its derivative in a_{i,j},
    sum over d of (prod d) d_j prod_{k != i} r_k / 2^(n-1), is the (i, j)
    minor.  The products prod_{k != i} r_k come from prefix and suffix
    products, so nothing is divided.  t_i sums (prod d) prod_{k != i} r_k
    over the steps walked so far.  While d_j keeps its sign, column j of the
    table gains d_j times the growth of t, so it is touched only when d_j
    flips: held_j sums the old d_j times t at each flip, and at the end
    column j is d_j t + 2 held_j.  On integer rows that sum, over
    prod_{k != i} s_k * 2^(n-1), is minor (i, j); the Laplace expansion of
    row 1 gives per.
    """
    n = len(ints)
    t = [0] * n
    held = [[0] * n for _ in range(n)]
    signs = [1] * n
    odd = False
    for flip, sums in _gray_walk(ints):
        if flip:
            j = abs(flip)
            held[j] = list(map(operator.sub if flip > 0 else operator.add, held[j], t))
            signs[j] = 1 if flip > 0 else -1
        # prod_{k != i} r_k: the product of the sums before i times that of the sums after i
        after = [*accumulate(reversed(sums), operator.mul, initial=1)][-2::-1]
        others = map(operator.mul, accumulate(sums, operator.mul, initial=1), after)
        t = list(map(operator.sub if odd else operator.add, t, others))
        odd = not odd
    cols = [[d * x + 2 * h for x, h in zip(t, held_j)] for d, held_j in zip(signs, held)]
    scale = math.prod(scales)
    total = sum(map(operator.mul, ints[0], (col[0] for col in cols)))
    minors = tuple(tuple(quotient(col[i], (scale // s) << (n - 1), kind) for col in cols)
                   for i, s in enumerate(scales))
    return quotient(total, scale << (n - 1), kind), minors


def _check_bit_budget(block: np.ndarray, t: int):
    """DimensionTooLarge when the integer block that exact step t + 1 works on passes
    BIT_BUDGET: rows x columns x its largest bit length, plus bits^2 / 2^12 for
    the gcds, each of which costs about bits^2.  The blocks of the last two
    reducing steps are checked as formed, with no gcd taken (see
    `eliminate`), so they may hold up to about a hundred more bits than
    reduced ones would: the threshold shifts by about 0.05%."""
    bits = max(map(int.bit_length, block.ravel().tolist()), default=0)
    if block.size * bits + (bits * bits >> 12) > BIT_BUDGET:
        rows, cols = block.shape
        raise DimensionTooLarge(
            f"exact elimination at step {t + 1}: a {rows}x{cols} block of {bits}-bit "
            f"integers is past the budget of 2^{BIT_BUDGET.bit_length() - 1} bits; "
            "use --arithmetic float"
        )


def eliminate(m: Matrix, skip_zero: bool = False, keep: bool = False):
    """The permanent process, column-wise elimination with the update's sign flipped:
    a_{i,j} <- a_{i,j} + a_{i,t} a_{t,j} / a_{t,t} for t = 1..n-1 and i, j > t.

    A zero pivot raises ZeroPivot, unless skip_zero is set: then the step is
    skipped when the pivot's trailing row and column are zero, and
    InvalidGram is raised when they are not.

    A float64 step computes (a_{i,t} a_{t,j}) / a_{t,t} on the ndarray, so
    it rounds as the plain loop does.  An exact step runs on the
    `integer_rows` of m, row i standing for its integers over an integer
    scale s_i.  With the integer pivot P it sets the columns j > t of each
    updated row to P a_{i,j} + a_{i,t} a_{t,j} and s_i <- s_i P.  Where at
    least three later steps read the rows (0-based t < n - 4), it then
    divides each row and its scale by g, the part of the row's gcd that
    divides s_i P.  Columns left of t + 1 go stale in the integers, so
    pivot t is kept as the pair (P_t, s_t) at step t, and no step reduces
    it.  The block each step works on is held to BIT_BUDGET (rows x
    columns x the largest bit length; DimensionTooLarge past it).

    Why the last two reducing steps take no gcd: the process has no exact
    divisibility like Bareiss's, so each reduction is a full-size gcd,
    quadratic in the bits (Lehmer), and the bits about double at every
    step.  There the gcds run on the largest entries and find the smallest
    divisors, and a factor a row keeps stays in both its integers and its
    scale, so it reaches at most two later steps and no later gcd.  The
    sweep gets about a quarter faster, and the last integer pivot P_{n-1}
    grows by under 0.3%.  On p/q entries in 10..99 at n = 14 (the three
    seed-0 `pos-14-rational` inputs of `perfbench`), its bits:

        gcds at t < n - 2   113422   85888   103829
        gcds at t < n - 4   113722   86140   103938

    Skipping only the last reducing step was slower, skipping three no
    faster, and a gcd on every other step slower; no gcd at all is about
    five times slower, since the small divisors compound.

    The exact bound is reduced once.  Let s0_t be the input's scale of row
    t and G_t the product of the divisors g row t took (1 where it took
    none).  Each step u < t multiplies s_t by P_u / g, so
    s_t G_t = s0_t prod_{u<t} P_u, pivot t is P_t G_t / (s0_t prod_{u<t} P_u),
    and P_u appears n - 1 - u times below the bar of the product.  Hence,
    0-based,

        prod_t P_t / s_t = P_{n-1} prod_t G_t / (prod_t s0_t prod_{u<=n-3} P_u^(n-2-u)),

    two integers of about the bound's own size and one gcd, where the
    pivots' own Fractions would take one gcd each on integers nearly as
    large (`_telescoped_bound`).  A zero pivot, which only a skipped step
    leaves before the last, makes the bound 0.

    Without keep, float64 runs the steps in panels of PANEL pivots, as
    LAPACK's getrf does.  Step t updates only the panel's own square.  A
    panel ends in one of two ways.  Products: where `_panel_borders` and
    `scaled_product` both admit it, the trailing block adds (X / den) Y,
    with X = A21 (I - N)^-1 and Y = (I - M)^-1 A12 the border strips after
    the panel's steps and den = the panel's pivots (`_panel_product`).
    Steps: where either refuses, the panel's steps run one outer product at
    a time on everything outside its square (`_take_steps`), as the plain
    loop rounds them.  A skipped pivot brings the rest of the matrix up to
    its step the same way, and the rest of the sweep runs as one panel, the
    plain loop; so no step divides by a zero pivot.  Up to the end of the
    first panel that takes the products the sweep is the plain loop's bit
    for bit: so is every value up to n = PANEL, every pivot at any n when
    the first panel skips one, and the first PANEL pivots always.  The
    products round differently, so past them a float pivot may differ from
    the plain loop's in its last bits.  With keep, and in exact mode, the
    whole sweep is one panel: the plain loop.

    Returns (pivots, bound, snapshots).  pivots is the final diagonal:
    floats, or when exact the pairs (P_t, s_t) of integers whose quotient,
    unreduced, is pivot t.  bound is the product of the pivots: a reduced
    Fraction, or in float64 their product in order from 1.0.  With keep,
    snapshots holds the n states A^(1)..A^(n) as a tuple of Matrix (else
    None).
    """
    n = m.n
    exact = m.kind == RATIONAL
    snaps = [m] if keep else None
    a = state = m.entries.copy()  # state: the true values, for the snapshots
    if exact:
        ints, scales = m._integer_rows()
        a = np.array(ints, dtype=object).reshape(n, n)
        scale = np.array(scales, dtype=object)
        divisors = np.ones(n, dtype=object)  # G_t: the product of the gcds row t was divided by
        fractions = np.frompyfunc(Fraction, 2, 1)
        _check_bit_budget(a, 0)
    width = max(n, 1) if exact or keep else PANEL
    k0, k1 = 0, min(width, n)  # the panel is steps k0..k1-1; rows and columns k1.. wait for its end
    pivots = []
    with np.errstate(all="ignore"):  # float inf and nan end in NonFinite
        for t in range(n):
            p = a[t, t]
            pivots.append((p, scale[t]) if exact else float(p))
            if t == n - 1:
                break
            if p == 0:
                if not skip_zero:
                    raise ZeroPivot(t + 1)
                if k1 < n:  # bring the rest up to step t; the rest of the sweep is one panel
                    _take_steps(a, k0, k1, pivots[k0:t])
                    k1 = n
                if (a[t + 1:, t] != 0).any() or (a[t, t + 1:] != 0).any():
                    raise InvalidGram(f"zero pivot with nonzero row/column at step {t + 1}")
            else:
                if exact:
                    block = p * a[t + 1:, t + 1:] + np.outer(a[t + 1:, t], a[t, t + 1:])
                    sp = scale[t + 1:] * p
                    if t < n - 4:  # at least three later steps read these rows
                        g = np.gcd(np.gcd.reduce(block, axis=1), sp)  # an all-zero row gets |s_i P|
                        block //= g[:, None]
                        sp //= g
                        divisors[t + 1:] *= g
                    if t < n - 2:  # no later step reads the last step's integers
                        _check_bit_budget(block, t + 1)
                    a[t + 1:, t + 1:] = block
                    scale[t + 1:] = sp
                    if keep:
                        state[t + 1:, t + 1:] = fractions(block, sp[:, None])
                else:
                    a[t + 1:k1, t + 1:k1] += np.multiply.outer(a[t + 1:k1, t], a[t, t + 1:k1]) / p
            if keep:
                snaps.append(Matrix(state, m.kind))
            if t == k1 - 1:  # k1 < n here, since the last step breaks before it
                product = _panel_product(a, k0, k1, pivots[k0:])
                if product is None:
                    _take_steps(a, k0, k1, pivots[k0:])
                else:
                    a[k1:, k1:] += product
                k0, k1 = k1, min(k1 + width, n)
    if exact:
        bound = _telescoped_bound([p for p, _ in pivots], scales, divisors)
    else:
        bound = math.prod(pivots, start=1.0)
    return tuple(pivots), bound, tuple(snaps) if keep else None


def _telescoped_bound(ints: list[int], scales: Sequence[int], divisors: np.ndarray) -> Fraction:
    """prod_t P_t / s_t as one reduced Fraction, by the identity derived in `eliminate`,
    from the integer pivots P_t, the input's row scales s0_t and the
    products G_t of the divisors each row took."""
    n = len(ints)
    if n == 0:
        return Fraction(1)
    if 0 in ints:
        return Fraction(0)
    powers = math.prod(accumulate(ints[:n - 2], operator.mul))  # prod_{u<=n-3} P_u^(n-2-u)
    return Fraction(ints[-1] * math.prod(divisors), math.prod(scales) * powers)


def _take_steps(a: np.ndarray, k0: int, k1: int, den: Sequence[float]):
    """Steps k0, k0 + 1, ... of the float sweep (den: their pivots, none zero)
    on everything outside the square a[k0:k1, k0:k1] of the panel that ends
    at k1: one outer product per step on the columns below the square, and
    one on the rows right of it and the trailing block, as the plain loop
    rounds them."""
    for t, d in enumerate(den, k0):
        a[k1:, t + 1:k1] += np.outer(a[k1:, t], a[t, t + 1:k1]) / d
        a[t + 1:, k1:] += np.outer(a[t + 1:, t], a[t, k1:]) / d


def _panel_borders(a: np.ndarray, k0: int, k1: int, den: Sequence[float]):
    """X and Y: the column strip a[k1:, k0:k1] and the row strip a[k0:k1, k1:] after
    steps k0..k1-1, from the strips before them and the panel square after
    them; or None where N or M is not finite, or a term of the inverses
    below could have underflowed.

    Step s adds column s of the column strip times N's row s, and M's column
    s times row s of the row strip, with N = triu(P, 1) / den by rows and
    M = tril(P, -1) / den by columns on the square P = a[k0:k1, k0:k1] (den
    = the panel's pivots, never zero: a skipped pivot ends the panels).  So
    X = A21 (I - N)^-1 and Y = (I - M)^-1 A12.  I - M is inverted through
    its transpose: I - N and (I - M)^T are unit upper triangular, so
    LAPACK's partial pivoting swaps no rows in either.
    On a non-negative input N, M >= 0, and every product sums terms of one
    sign.

    Back substitution builds each entry of an inverse from terms N_su times
    another of its entries.  Where the least nonzero |N_su| (one that
    rounded to 0 from a nonzero P_su counts as 0) times the least nonzero
    entry of the inverse is below 2^-1022, such a term may have lost its
    value, where the steps, which carry each border value at its own size,
    keep it.
    """
    d = np.array(den)[:, None]
    eye = np.eye(k1 - k0)
    inverses = []
    for square in (a[k0:k1, k0:k1], a[k0:k1, k0:k1].T):
        strict = np.triu(square, 1)
        ratio = strict / d
        if not np.isfinite(_max_abs(ratio)):
            return None
        inverse = np.linalg.inv(eye - ratio)
        if not _least_abs(ratio, strict != 0) * _least_abs(inverse, inverse != 0) >= _TINY:
            return None
        inverses.append(inverse)
    upper, lower_t = inverses
    return a[k1:, k0:k1] @ upper, lower_t.T @ a[k0:k1, k1:]


def _panel_product(a: np.ndarray, k0: int, k1: int, den: Sequence[float]) -> np.ndarray | None:
    """What steps k0..k1-1 of the float sweep add to the trailing block a[k1:, k1:],
    as the one product (X / den) Y, with X and Y from `_panel_borders`; or
    None where `_panel_borders` or `scaled_product` refuses, and the panel
    takes its steps.  The border strips, which no later step reads, are
    left as the panel found them."""
    borders = _panel_borders(a, k0, k1, den)
    return None if borders is None else scaled_product(borders[0], den, borders[1])


def scaled_product(col: np.ndarray, den: Sequence[float], row: np.ndarray) -> np.ndarray | None:
    """L row in float64, with L = col / den (no den_s zero), or None where
    `_product_fits` finds that it could overflow or underflow where the sum
    over s of (col_s row_s) / den_s, one outer product per step, does not,
    or the other way round.  The float sweep's panels and
    `process.cross_sums` both take their one product through here.
    """
    with np.errstate(all="ignore"):  # callers report inf and nan: NonFinite, or a violation
        lower = col / den
        return lower @ row if _product_fits(col, lower, row) else None


def _max_abs(x: np.ndarray) -> float:
    """max|x|, 0.0 when x is empty, nan when x holds a nan; from max and min, without |x|."""
    return max(x.max(initial=0.0), -x.min(initial=0.0))


def _least_abs(x: np.ndarray, where: np.ndarray) -> float:
    """min|x| over the entries where `where` holds, inf when there are none."""
    return np.abs(x).min(where=where, initial=np.inf)


def _product_fits(col: np.ndarray, lower: np.ndarray, row: np.ndarray) -> bool:
    """Whether L row may stand in for the per-step sum: max|L| max|row| times
    the width is finite, so every entry of L is and no sum in the product
    overflows; max|col| max|row| is finite, so no product col_is row_sj of a
    step overflows; and no entry of L rounded to 0 or below 2^-1022 from a
    nonzero entry of col."""
    top = _max_abs(row)
    return bool(np.isfinite(_max_abs(lower) * top * len(row))
                and np.isfinite(_max_abs(col) * top)
                and _least_abs(lower, col != 0) >= _TINY)
