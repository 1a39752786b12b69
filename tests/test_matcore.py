"""Core matrix layer: the permanent, checked against the oracles in `oracles.py`, and shape plumbing."""

import contextlib
import math
import random
import re
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permbound import (
    DimensionMismatch,
    DimensionTooLarge,
    IndexOutOfRange,
    Matrix,
    NotSquare,
    RATIONAL,
    FLOAT64,
    BlockSplit,
    add,
    delete,
    matmul,
    matrix,
    ones,
    permanent_minors,
    permanent_ryser,
    run_process,
    select,
    transpose,
)
from permbound import matcore
from permbound.matcore import integer_rows, permanent_memo, ryser_fits
from oracles import (
    determinant, identity, matmul_running_sum, permanent_by_subsets, permanent_naive,
    run_gaussian_variant,
)
from randmat import block_matrix, integer_matrix, nonneg_matrix


def laplace_permanent(rows):
    """Independent oracle: expansion of per along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += rows[0][j] * laplace_permanent(minor)
    return total


def cofactor_det(rows):
    """Independent oracle: cofactor expansion of det along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def test_permanent_2x2_by_hand():
    # per([[1,2],[3,4]]) = 1*4 + 2*3
    m = matrix([[1, 2], [3, 4]])
    assert permanent_ryser(m) == 10
    assert permanent_naive(m) == 10


def test_permanent_all_ones_is_factorial():
    for n in range(1, 7):
        assert permanent_ryser(ones(n)) == math.factorial(n)


def test_empty_matrix_permanent_and_det_are_one():
    e = select(ones(3), (), ())
    assert permanent_ryser(e) == 1
    assert permanent_naive(e) == 1
    assert determinant(e) == 1


def test_ryser_matches_independent_oracles():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = integer_matrix(rng, n, -3, 3)
        expected = laplace_permanent([list(r) for r in m.entries])
        assert permanent_ryser(m) == expected
        assert permanent_naive(m) == expected


def test_determinant_matches_cofactor_oracle():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = integer_matrix(rng, n)
        assert determinant(m) == cofactor_det([list(r) for r in m.entries])


def test_float_permanent_close_to_rational():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(1, 6)
        m = nonneg_matrix(rng, n)
        f = Matrix(tuple(tuple(float(x) for x in r) for r in m.entries), FLOAT64)
        assert permanent_ryser(f) == pytest.approx(float(permanent_ryser(m)), rel=1e-9)


def gray_code_ryser(rows, z):
    """Reference: the Gray-code Ryser loop in the entries' own arithmetic."""
    n = len(rows)
    if n == 0:
        return z + 1
    sums = [z] * n
    total = z
    prev_gray = 0
    for k in range(1, 1 << n):
        gray = k ^ (k >> 1)
        bit = gray ^ prev_gray
        j = bit.bit_length() - 1
        for i in range(n):
            sums[i] += rows[i][j] if gray & bit else -rows[i][j]
        prev_gray = gray
        term = math.prod(sums)
        total += term if (n - gray.bit_count()) % 2 == 0 else -term
    return total


def test_ryser_matches_fraction_loop():
    rng = random.Random(16)
    for n in range(10):
        for trial in range(3):
            rows = [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
                for _ in range(n)
            ]
            if n and trial == 1:
                rows[rng.randrange(n)] = [Fraction(0)] * n
            if trial == 2:  # a rational Matrix built directly from plain ints
                rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            m = Matrix(tuple(map(tuple, rows)), RATIONAL)
            got = permanent_ryser(m)
            assert type(got) is Fraction
            assert got == gray_code_ryser([list(map(Fraction, r)) for r in rows], Fraction(0))


def test_float_permanent_is_exact_value_rounded_once():
    rng = random.Random(17)
    for n in range(11):
        for _ in range(3):
            rows = [[rng.uniform(-3, 5) for _ in range(n)] for _ in range(n)]
            f = Matrix(tuple(map(tuple, rows)), FLOAT64)
            exact = Matrix(tuple(tuple(Fraction(x) for x in r) for r in rows), RATIONAL)
            got = permanent_ryser(f)
            assert type(got) is float
            assert got == float(permanent_ryser(exact))
    # n = 2 rounds once: per = a*a + (-1)*1, and a*a rounded alone drops its 2^-60 term
    a = 1 + 2.0 ** -30
    assert permanent_ryser(matrix([[a, -1.0], [1.0, a]])) == 2.0 ** -29 + 2.0 ** -60


def test_float_permanent_out_of_range_is_infinite():
    huge = matrix([[1e300] * 3] * 3)
    assert permanent_ryser(huge) == math.inf
    assert permanent_ryser(matrix([[-1e300, 1e300, 1e300]] * 3)) == -math.inf
    assert math.isnan(permanent_ryser(matrix([[math.inf, 1.0, 1.0]] * 3)))


@st.composite
def square_rows(draw, entries, min_n=0, max_n=8):
    n = draw(st.integers(min_n, max_n))
    return [[draw(entries) for _ in range(n)] for _ in range(n)]


SIGNED_RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.integers(-9, 9).map(Fraction),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
)
SIGNED_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=25, deadline=None)
@given(square_rows(SIGNED_RATIONALS))
def test_glynn_equals_the_permutation_sum(rows):
    got = permanent_ryser(Matrix(rows, RATIONAL))
    assert type(got) is Fraction
    assert got == permanent_by_subsets(rows)


@settings(max_examples=25, deadline=None)
@given(square_rows(SIGNED_FLOATS))
def test_glynn_float_is_the_permutation_sum_rounded_once(rows):
    # repr tells 0.0 from -0.0, which == does not
    assert repr(permanent_ryser(Matrix(rows, FLOAT64))) == repr(float(permanent_by_subsets(rows)))


@settings(max_examples=30, deadline=None)
@given(square_rows(SIGNED_FLOATS, min_n=1), st.sampled_from([math.inf, -math.inf, math.nan]),
       st.integers(0, 63))
def test_glynn_float_with_an_inf_or_nan_entry_is_nan(rows, bad, where):
    n = len(rows)
    rows[where % n][where // n % n] = bad
    assert math.isnan(permanent_ryser(Matrix(rows, FLOAT64)))


def record_glynn_memos(monkeypatch):
    """Record the memo in force at each permanent actually computed."""
    seen = []
    glynn = matcore._glynn
    monkeypatch.setattr(matcore, "_glynn", lambda *a: seen.append(matcore._MEMO.get()) or glynn(*a))
    return seen


def test_memo_computes_each_distinct_permanent_once(monkeypatch):
    seen = record_glynn_memos(monkeypatch)
    a = matrix([[1, 2], [3, 4]])
    with permanent_memo():
        assert [permanent_ryser(a), permanent_ryser(matrix([[1, 2], [3, 4]]))] == [10, 10]
        # the same values written with other row scales are the same key
        assert permanent_ryser(matrix([[Fraction(2, 2), 2], [3, Fraction(8, 2)]])) == 10
    assert len(seen) == 1 and seen[0] is not None
    assert permanent_ryser(a) == 10  # outside the block nothing is kept
    assert seen[1:] == [None]


def test_memo_keys_carry_the_kind(monkeypatch):
    seen = record_glynn_memos(monkeypatch)
    exact = matrix([[Fraction(1, 2), 1], [1, 1]])
    floats = matrix([[0.5, 1.0], [1.0, 1.0]])
    with permanent_memo():
        got = [permanent_ryser(m) for m in (exact, floats, exact, floats)]
        memo = matcore._MEMO.get()
        assert len(memo) == 2
    assert [type(x) for x in got] == [Fraction, float, Fraction, float]
    assert got == [Fraction(3, 2), 1.5] * 2
    assert len(seen) == 2


def test_memo_is_reset_when_its_block_raises():
    with pytest.raises(ZeroDivisionError):
        with permanent_memo():
            permanent_ryser(ones(3))
            with permanent_memo():  # a nested block has its own memo
                assert matcore._MEMO.get() == {}
            assert len(matcore._MEMO.get()) == 1
            1 / 0
    assert matcore._MEMO.get() is None


def test_permanent_transpose_invariant():
    rng = random.Random(14)
    for _ in range(25):
        m = nonneg_matrix(rng, rng.randint(1, 5))
        assert permanent_ryser(m) == permanent_ryser(transpose(m))


def test_permanent_zero_row_is_zero():
    m = matrix([[0, 0], [1, 2]])
    assert permanent_ryser(m) == 0
    assert permanent_naive(m) == 0


@given(st.integers(2, 5), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_permanent_invariant_under_permutation(n, seed):
    rng = random.Random(seed)
    m = nonneg_matrix(rng, n)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    shuffled = select(m, perm, perm)
    assert permanent_ryser(shuffled) == permanent_ryser(m)


@given(st.integers(2, 4), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_permanent_supermultiplicative_on_products(n, seed):
    # expanding per(CD) over all maps keeps the bijection terms, which sum
    # to per(C) per(D); the rest are non-negative
    rng = random.Random(seed)
    c = nonneg_matrix(rng, n, hi=3)
    d = nonneg_matrix(rng, n, hi=3)
    assert permanent_ryser(matmul(c, d)) >= permanent_ryser(c) * permanent_ryser(d)


def test_laplace_expansion_identity():
    rng = random.Random(15)
    for _ in range(15):
        n = rng.randint(2, 5)
        m = nonneg_matrix(rng, n)
        expansion = sum(
            m.entry(1, j) * permanent_ryser(delete(m, (1,), (j,)))
            for j in range(1, n + 1)
        )
        assert expansion == permanent_ryser(m)


def test_size_guards():
    with pytest.raises(DimensionTooLarge):
        permanent_naive(ones(11))
    with pytest.raises(DimensionTooLarge):
        permanent_ryser(ones(25))
    big_float = Matrix(tuple(tuple(1.0 for _ in range(31)) for _ in range(31)), FLOAT64)
    with pytest.raises(DimensionTooLarge):
        permanent_ryser(big_float)
    assert ryser_fits(ones(24)) and not ryser_fits(ones(25))
    assert ryser_fits(select(big_float, range(1, 25), range(1, 25)))
    assert not ryser_fits(select(big_float, range(1, 26), range(1, 26)))


def test_float_ryser_limit_equals_the_rational_one():
    # both kinds run the same integer loop, so they share one size limit
    floats = Matrix(tuple(tuple(0.5 for _ in range(25)) for _ in range(25)), FLOAT64)
    assert not ryser_fits(floats)
    with pytest.raises(DimensionTooLarge):
        permanent_ryser(floats)


def test_matrix_shape_validation():
    with pytest.raises(DimensionMismatch):
        matrix([[1, 2], [3]])
    with pytest.raises(NotSquare):
        matrix([[1, 2, 3], [4, 5, 6]]).n
    assert matrix([[1, 2, 3], [4, 5, 6]]).nrows == 2
    with pytest.raises(ValueError, match="unknown scalar kind: 'quad'"):
        Matrix([[1]], "quad")
    assert repr(Matrix([[1, Fraction(1, 2)]], RATIONAL)) == "Matrix([[1, Fraction(1, 2)]], 'rational')"


@pytest.mark.parametrize("rows, kind", [
    ([["1/2", 1], [1, 1]], RATIONAL),
    ([[0.5, 1], [1, 1]], RATIONAL),
    ([[True, 1], [1, 1]], RATIONAL),
    (np.array([[0.5, 1.0], [1.0, 1.0]]), RATIONAL),
    (np.array([[True, False], [False, True]]), RATIONAL),
    ([["1e-400", "1"], ["1", "1"]], FLOAT64),
    (np.array([["1", "2"], ["3", "4"]]), FLOAT64),
    ([[np.float32(0.5), 1], [1, 1]], RATIONAL),
    ([[np.int64(1), 1], [1, 1]], RATIONAL),
    ([[np.bool_(True), 1], [1, 1]], RATIONAL),
    ([[Decimal("0.5"), 1], [1, 1]], RATIONAL),
    ([[1j, 1], [1, 1]], RATIONAL),
])
def test_matrix_refuses_the_entries_coerce_refuses(rows, kind):
    with pytest.raises(TypeError, match="cannot use"):
        Matrix(rows, kind)


def test_matrix_takes_integer_arrays_and_exact_entries():
    m = Matrix(np.array([[1, 2], [3, 4]]), RATIONAL)
    assert m.row(2) == (3, 4) and all(type(x) is int for x in m.row(2))
    assert Matrix([[Fraction(1, 2), 1]], FLOAT64).row(1) == (0.5, 1.0)


@pytest.mark.parametrize("kind", [RATIONAL, FLOAT64])
def test_matrix_rejects_ragged_rows(kind):
    # np.array(..., dtype=object) would take ragged rows as a 1-d array of lists
    for rows in ([[1, 2], [3]], [[1], [2, 3]], ((1, 2), ())):
        with pytest.raises(DimensionMismatch, match="ragged rows"):
            Matrix(rows, kind)
    with pytest.raises(DimensionMismatch):
        Matrix([[[1, 2], [3, 4]]], kind)


@pytest.mark.parametrize("kind", [RATIONAL, FLOAT64])
def test_matrix_entries_are_one_read_only_copy(kind):
    rows = np.ones((2, 2), dtype=object if kind == RATIONAL else np.float64)
    m = Matrix(rows, kind)
    rows[0, 0] = 7
    assert m.entry(1, 1) == 1
    with pytest.raises(ValueError, match="read-only"):
        m.entries[0, 0] = 5
    assert m.entries.dtype == (object if kind == RATIONAL else np.float64)
    assert m.kind == kind


def test_matrix_equality_compares_kind_shape_and_entries():
    a = matrix([[1, 2], [3, 4]])
    assert a == Matrix([[Fraction(1), 2], [3, Fraction(4)]], RATIONAL)
    assert a != matrix([[1.0, 2.0], [3.0, 4.0]])
    assert a != transpose(a)
    assert matrix([[1, 2]]) != matrix([[1], [2]])
    assert Matrix((), RATIONAL) == select(a, (), ())
    assert Matrix((), RATIONAL) != Matrix((), FLOAT64)
    assert Matrix(((), ()), RATIONAL) != Matrix((), RATIONAL)
    assert a != [[1, 2], [3, 4]]
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


@pytest.mark.parametrize("kind", [RATIONAL, FLOAT64])
def test_empty_selections_keep_their_shape(kind):
    m = ones(3, kind)
    assert select(m, (), ()).entries.shape == (0, 0)
    assert select(m, (1, 2), ()).entries.shape == (2, 0)
    assert delete(m, (1, 2, 3), (1,)).entries.shape == (0, 2)
    assert Matrix(((), ()), kind).entries.shape == (2, 0)
    split = BlockSplit(m, 0)
    assert [x.entries.shape for x in (split.b, split.y, split.xt, split.w)] == [
        (0, 0), (0, 3), (3, 0), (3, 3)
    ]
    assert transpose(split.xt).entries.shape == (0, 3)
    assert matmul(split.xt, split.y) == Matrix(np.zeros((3, 3), dtype=int), kind)
    assert all(x.kind == kind for x in (split.b, split.y, split.xt))
    assert permanent_ryser(split.b) == 1


@pytest.mark.parametrize("kind, scalar", [(RATIONAL, Fraction), (FLOAT64, float)])
def test_accessors_return_python_scalars(kind, scalar):
    m = matrix([[2, 1, 1], [1, 3, 1], [1, 1, 4]], kind)
    trace = run_process(m)
    values = [m.entry(1, 2), *m.row(2), *m.col(3), *trace.pivots,
              *run_gaussian_variant(m).pivots]
    for s in trace.snapshots:
        values += [s.entry(i, j) for i in range(1, 4) for j in range(1, 4)]
        values += [x for row in s.entries.tolist() for x in row]
    assert all(type(x) is scalar for x in values)
    if kind == FLOAT64:
        # a numpy float64 would warn on overflow and print as np.float64(...)
        big = matrix([[1e300]], kind).entry(1, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert big * big == math.inf
        assert repr(big) == "1e+300"


def test_matrix_kind_inference_and_indexing():
    m = matrix([[1, 2], [3, 4]])
    assert m.kind == RATIONAL
    assert m.entry(2, 1) == 3
    assert m.row(1) == (1, 2)
    assert m.col(2) == (2, 4)
    assert matrix([[1.0, 2], [3, 4]]).kind == FLOAT64
    with pytest.raises(IndexOutOfRange):
        m.entry(0, 1)
    with pytest.raises(IndexOutOfRange):
        m.entry(1, 3)
    with pytest.raises(IndexOutOfRange, match="row 0 outside"):
        m.row(0)
    with pytest.raises(IndexOutOfRange, match="column 3 outside"):
        m.col(3)


def test_index_set_normalizes_and_complements():
    m = matrix([[10 * i + j for j in range(1, 5)] for i in range(1, 5)])
    # [3, 1, 3] is read as (1, 3): sorted and deduplicated; its complement is (2, 4)
    assert select(m, [3, 1, 3], [1]).entries.tolist() == [[11], [31]]
    assert select(m, [1], [3, 1, 3]).entries.tolist() == [[11, 13]]
    assert delete(m, [3, 1, 3], [1]).entries.tolist() == [[22, 23, 24], [42, 43, 44]]
    assert delete(m, [1], [3, 1, 3]).entries.tolist() == [[22, 24], [32, 34], [42, 44]]
    for fn in (select, delete):
        with pytest.raises(IndexOutOfRange, match="index 0 is not a positive integer"):
            fn(m, [0, 1], [1])


def test_select_and_delete_are_complementary():
    m = matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert select(m, (1, 3), (2,)).entries.tolist() == [[2], [8]]
    assert delete(m, (2,), (1, 3)).entries.tolist() == [[2], [8]]
    for fn in (select, delete):
        with pytest.raises(IndexOutOfRange, match="row 4 outside"):
            fn(m, (4,), (1,))
        with pytest.raises(IndexOutOfRange, match="column 4 outside"):
            fn(m, (1,), (4,))


def test_delete_is_select_on_the_complements():
    rng = random.Random(17)
    for _ in range(200):
        nr, nc = rng.randint(1, 6), rng.randint(0, 6)
        m = Matrix(
            tuple(tuple(Fraction(rng.randint(-9, 9)) for _ in range(nc)) for _ in range(nr)),
            RATIONAL,
        )
        s = [rng.randint(1, nr) for _ in range(rng.randint(0, nr))]  # may repeat
        t = [rng.randint(1, nc) for _ in range(rng.randint(0, nc))]
        rest_s = [i for i in range(1, nr + 1) if i not in s]
        rest_t = [j for j in range(1, nc + 1) if j not in t]
        assert delete(m, s, t) == select(m, rest_s, rest_t), (m, s, t)
        assert select(m, s, t) == delete(m, rest_s, rest_t), (m, s, t)


def assert_rows_stand_for_entries(m):
    """Each integer row of m over its scale is m's row of entries, exactly."""
    ints, scales = m._integer_rows()
    assert len(ints) == len(scales) == m.nrows
    for got, s, want in zip(ints, scales, m.entries.tolist()):
        assert s > 0 and len(got) == m.ncols
        assert [Fraction(x, s) for x in got] == want


def assert_cut_rows_stand_for_entries(m, rows, cols):
    """select and delete of m, and a cut of each, keep rows that stand for their entries."""
    assert_rows_stand_for_entries(m)
    for child in (select(m, rows, cols), delete(m, rows, cols)):
        assert_rows_stand_for_entries(child)
        assert_rows_stand_for_entries(delete(child, (1,) if child.nrows else (), ()))


@st.composite
def cut_cases(draw, entries, zero):
    nr, nc = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rows = [[draw(entries) for _ in range(nc)] for _ in range(nr)]
    if nr and draw(st.booleans()):
        rows[draw(st.integers(0, nr - 1))] = [zero] * nc
    keep_rows = draw(st.lists(st.booleans(), min_size=nr, max_size=nr))
    keep_cols = draw(st.lists(st.booleans(), min_size=nc, max_size=nc))
    return (rows, nc, [i + 1 for i, k in enumerate(keep_rows) if k],
            [j + 1 for j, k in enumerate(keep_cols) if k])


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    cut_cases(SIGNED_RATIONALS, Fraction(0)).map(lambda case: (RATIONAL, *case)),
    cut_cases(SIGNED_FLOATS, 0.0).map(lambda case: (FLOAT64, *case)),
))
def test_cut_integer_rows_are_the_rows_read_afresh(case):
    kind, rows, nc, keep_rows, keep_cols = case
    m = Matrix(np.array(rows, dtype=matcore.DTYPES[kind]).reshape(len(rows), nc), kind)
    assert_cut_rows_stand_for_entries(m, keep_rows, keep_cols)


@pytest.mark.parametrize("kind", [RATIONAL, FLOAT64])
def test_empty_cuts_are_canonical(kind):
    m = matrix([[Fraction(1, 6), -2, 0], [0, 0, 0], [Fraction(3, 4), Fraction(-5, 2), 7]], kind)
    for rows, cols in (((), (1, 2)), ((1, 3), ()), ((), ()), ((2,), (1, 2, 3))):
        assert_cut_rows_stand_for_entries(m, rows, cols)
    assert select(m, (), (1, 2))._integer_rows() == ((), ())
    assert [len(row) for row in select(m, (1, 3), ())._integer_rows()[0]] == [0, 0]


def test_cut_rows_share_memo_keys_with_fresh_matrices():
    m = matrix([[Fraction(1, 6), Fraction(1, 4), 2], [Fraction(1, 3), 1, 1], [3, Fraction(1, 2), 5]])
    with permanent_memo():
        permanent_ryser(m)
        for i in range(1, 4):
            for j in range(1, 4):
                minor = delete(m, (i,), (j,))
                fresh = Matrix(minor.entries, RATIONAL)
                assert permanent_ryser(minor) == permanent_ryser(fresh)


def test_an_exact_cut_takes_its_sources_row_slices_without_a_gcd(monkeypatch):
    m = matrix([[Fraction(1, 6), Fraction(1, 4), 2], [Fraction(2, 3), 2, 4], [3, Fraction(1, 2), 5]])
    ints, scales = m._integer_rows()
    gcds = []
    gcd = math.gcd
    monkeypatch.setattr(math, "gcd", lambda *a: gcds.append(a) or gcd(*a))
    block = delete(m, (1,), (3,))
    grandchild = select(block, (1, 2), (2,))  # a cut of a cut slices the first source's rows
    assert block._integer_rows() == (((ints[1][0], ints[1][1]), (ints[2][0], ints[2][1])),
                                     (scales[1], scales[2]))
    assert grandchild._integer_rows() == (((ints[1][1],), (ints[2][1],)), (scales[1], scales[2]))
    assert gcds == []
    assert block._entries is None and grandchild._entries is None


def test_float_inf_entry_is_nan_on_every_call():
    m = Matrix([[math.inf, 1.0], [1.0, 2.0]], FLOAT64)
    assert math.isnan(permanent_ryser(m))
    assert math.isnan(permanent_ryser(m))
    assert m._rows is None
    assert permanent_ryser(delete(m, (1,), (1,))) == 2.0


def eager_cut(m, rows, cols):
    """m(rows, cols), 1-based and sorted, copied at once as a fresh Matrix."""
    return Matrix(m.entries.take([i - 1 for i in rows], 0).take([j - 1 for j in cols], 1), m.kind)


def assert_same_cut(lazy, eager):
    assert (lazy.nrows, lazy.ncols, lazy.kind) == (eager.nrows, eager.ncols, eager.kind)
    assert lazy._entries is None
    if lazy.is_square:
        assert repr(permanent_ryser(lazy)) == repr(permanent_ryser(eager))
    if lazy.kind == RATIONAL:  # its rows were cut from its parent's, not read from an array
        assert lazy._entries is None
    got, want = lazy.entries, eager.entries
    assert (got.shape, got.dtype, got.flags.writeable) == (want.shape, want.dtype, False)
    assert repr(got.tolist()) == repr(want.tolist())  # repr tells 0.0 from -0.0
    assert lazy == eager


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    cut_cases(SIGNED_RATIONALS, Fraction(0)).map(lambda case: (RATIONAL, *case)),
    cut_cases(SIGNED_FLOATS, 0.0).map(lambda case: (FLOAT64, *case)),
), st.data())
def test_lazy_cut_equals_an_eager_one(case, data):
    kind, rows, nc, keep_rows, keep_cols = case
    m = Matrix(np.array(rows, dtype=matcore.DTYPES[kind]).reshape(len(rows), nc), kind)
    child = select(m, keep_rows, keep_cols)
    eager = eager_cut(m, keep_rows, keep_cols)
    # a cut of a cut indexes the grandparent's array
    sub_rows = data.draw(st.lists(st.integers(1, child.nrows), unique=True)) if child.nrows else []
    sub_cols = data.draw(st.lists(st.integers(1, child.ncols), unique=True)) if child.ncols else []
    assert_same_cut(select(child, sub_rows, sub_cols),
                    eager_cut(eager, sorted(sub_rows), sorted(sub_cols)))
    assert_same_cut(child, eager)


@pytest.mark.parametrize("kind", [RATIONAL, FLOAT64])
@pytest.mark.parametrize("rows, cols", [((), (1, 3)), ((2, 3), ()), ((), ())])
def test_empty_lazy_cuts_equal_eager_ones(kind, rows, cols):
    m = matrix([[Fraction(1, 6), -2, 0], [0, 0, 0], [Fraction(3, 4), Fraction(-5, 2), 7]], kind)
    assert_same_cut(select(m, rows, cols), eager_cut(m, rows, cols))
    block = delete(m, (1,), (1,))
    assert_same_cut(select(block, rows[:1], cols[:1]),
                    eager_cut(eager_cut(m, (2, 3), (2, 3)), rows[:1], cols[:1]))


def test_an_exact_cut_builds_no_array_until_its_entries_are_read():
    m = matrix([[1, 2, 3], [4, 5, 6], [7, 8, Fraction(9, 2)]])
    block = select(m, (1, 3), (1, 3))
    minor = delete(block, (1,), (2,))
    assert (block.n, block.kind, minor.n, minor.kind) == (2, RATIONAL, 1, RATIONAL)
    assert permanent_ryser(block) == Fraction(9, 2) + 21
    assert permanent_minors(block)[1] == ((Fraction(9, 2), 7), (3, 1))
    assert permanent_ryser(minor) == 7
    assert block._entries is None and minor._entries is None
    assert block.entries.tolist() == [[1, 3], [7, Fraction(9, 2)]]
    assert minor._entries is None


def test_an_exact_matrix_is_read_once_for_all_its_cuts(monkeypatch):
    reads = []
    read = matcore.integer_rows
    monkeypatch.setattr(matcore, "integer_rows", lambda rows: reads.append(1) or read(rows))
    m = matrix([[Fraction(i + 1, j + 2) for j in range(5)] for i in range(5)])
    for s in ((1, 2), (2, 4, 5), (1, 3, 4, 5)):
        block = select(m, s, s)
        assert permanent_ryser(block) == permanent_by_subsets(eager_cut(m, s, s).entries.tolist())
        permanent_ryser(delete(block, (1,), (2,)))
    assert len(reads) == 1


@st.composite
def minors_cases(draw):
    kind = draw(st.sampled_from([RATIONAL, FLOAT64]))
    entries, zero = (SIGNED_RATIONALS, Fraction(0)) if kind == RATIONAL else (SIGNED_FLOATS, 0.0)
    rows = draw(square_rows(entries, min_n=1, max_n=7))
    if draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))] = [zero] * len(rows)
    return kind, rows


@settings(max_examples=80, deadline=None)
@given(minors_cases(), st.booleans())
def test_minors_pass_equals_each_minor_permanent(case, memo):
    kind, rows = case
    n = len(rows)
    want_per = permanent_ryser(Matrix(rows, kind))
    want = [[permanent_ryser(delete(Matrix(rows, kind), (i,), (j,))) for j in range(1, n + 1)]
            for i in range(1, n + 1)]
    with permanent_memo() if memo else contextlib.nullcontext():
        per, table = permanent_minors(Matrix(rows, kind))
    # repr tells 0.0 from -0.0 and a Fraction from a float
    assert repr(per) == repr(want_per)
    assert [list(map(repr, row)) for row in table] == [list(map(repr, row)) for row in want]


def test_minors_of_the_empty_and_the_1x1_matrix():
    assert permanent_minors(select(ones(2), (), ())) == (1, ())
    assert permanent_minors(matrix([[Fraction(3, 2)]])) == (Fraction(3, 2), ((1,),))
    assert permanent_minors(matrix([[2.5]])) == (2.5, ((1.0,),))


def test_minors_of_a_float_with_an_inf_entry_are_nan():
    per, table = permanent_minors(Matrix([[math.inf, 1.0], [1.0, 2.0]], FLOAT64))
    assert math.isnan(per) and all(math.isnan(x) for row in table for x in row)


def test_minors_are_kept_with_the_permanent_in_the_memo(monkeypatch):
    seen = record_glynn_memos(monkeypatch)
    passes = []
    minors = matcore._glynn_minors
    monkeypatch.setattr(matcore, "_glynn_minors", lambda *a: passes.append(1) or minors(*a))
    m = matrix([[Fraction(1, 2), 2, 0], [1, 1, 3], [Fraction(2, 3), 0, 1]])
    with permanent_memo():
        first = permanent_minors(m)
        assert permanent_minors(Matrix(m.entries, RATIONAL)) is first
        assert permanent_ryser(Matrix(m.entries, RATIONAL)) == first[0]
    assert (len(passes), seen) == (1, [])
    assert permanent_minors(m) == first  # outside the block nothing is kept
    assert len(passes) == 2


P_OVER_Q = st.one_of(st.integers(-6, 6), st.fractions(min_value=-6, max_value=6, max_denominator=12))


@st.composite
def product_shapes(draw):
    nr, k, nc = (draw(st.integers(0, 5)) for _ in range(3))
    a = [[draw(P_OVER_Q) for _ in range(k)] for _ in range(nr)]
    b = [[draw(P_OVER_Q) for _ in range(nc)] for _ in range(k)]
    return (Matrix(np.array(a, dtype=object).reshape(nr, k), RATIONAL),
            Matrix(np.array(b, dtype=object).reshape(k, nc), RATIONAL))


def assert_exact_product_is_the_running_sum(a, b):
    got, want = matmul(a, b), matmul_running_sum(a, b)
    assert got == want
    assert got.entries.shape == (a.nrows, b.ncols)
    assert all(type(x) is Fraction for x in got.entries.ravel().tolist())


@settings(max_examples=150, deadline=None)
@given(product_shapes())
def test_exact_matmul_equals_the_running_sum(ab):
    assert_exact_product_is_the_running_sum(*ab)


@pytest.mark.parametrize("shape_a, shape_b", [
    ((0, 3), (3, 2)), ((2, 3), (3, 0)), ((3, 0), (0, 2)), ((3, 2), (2, 1)), ((3, 1), (1, 3)),
    ((0, 0), (0, 0)),
])
def test_exact_matmul_on_thin_shapes(shape_a, shape_b):
    rng = random.Random(sum(shape_a) * 10 + sum(shape_b))
    def draw(shape):
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(shape[1])]
                for _ in range(shape[0])]
        return Matrix(np.array(rows, dtype=object).reshape(shape), RATIONAL)
    assert_exact_product_is_the_running_sum(draw(shape_a), draw(shape_b))


@pytest.mark.parametrize("rows, cols, message", [
    ((0,), (1,), "index 0 is not a positive integer"),
    ((1,), (2, -2), "index -2 is not a positive integer"),
    ((1.5,), (1,), "index 1.5 is not a positive integer"),
    ((5, 4), (1,), "row 4 outside [1, 3]"),
    ((1,), (9, 2, 7), "column 7 outside [1, 3]"),
    ((4,), (0,), "index 0 is not a positive integer"),  # both sets are read before either is range-checked
    ((True,), (1,), "index True is not a positive integer"),
])
def test_select_and_delete_reject_the_same_bad_indices(rows, cols, message):
    m = matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    for fn in (select, delete):
        with pytest.raises(IndexOutOfRange, match=re.escape(message)):
            fn(m, rows, cols)


def test_a_bool_is_no_index_even_beside_its_int():
    m = matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    for rows in ([True], [1, True], [True, 1]):
        for fn in (select, delete):
            with pytest.raises(IndexOutOfRange, match="index True is not a positive integer"):
                fn(m, rows, (1,))
    assert select(m, [1, 1, 3], [2, 2]).entries.tolist() == [[2], [8]]


@pytest.mark.parametrize("items, bad", [
    ([1, "a"], "'a'"), (["a", 1], "'a'"), ([None, 1], "None"), ([2, 1, None], "None"),
    ([1, 2.5, "3"], "2.5"), ([(1,), 2], "(1,)"), ([1, 1j], "1j"),
])
def test_index_sets_of_mixed_types_are_refused(items, bad):
    m = matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    message = f"index {bad} is not a positive integer"
    with pytest.raises(IndexOutOfRange, match=re.escape(message)):
        matcore.sorted_indices(items)
    for fn in (select, delete):
        with pytest.raises(IndexOutOfRange, match=re.escape(message)):
            fn(m, items, (1,))
        with pytest.raises(IndexOutOfRange, match=re.escape(message)):
            fn(m, (1,), iter(items))


@pytest.mark.parametrize("items, message", [
    ([2, 1.5, 0], "index 0 is not a positive integer"),  # sorted first, as before
    ([3, Fraction(1), 2], "index Fraction(1, 1) is not a positive integer"),
    ([2, -1, 0], "index -1 is not a positive integer"),
])
def test_index_sets_that_sort_report_their_smallest_bad_index(items, message):
    with pytest.raises(IndexOutOfRange, match=re.escape(message)):
        matcore.sorted_indices(items)


@pytest.mark.parametrize("accessor, args, message", [
    ("entry", (True, True), "entry (True, True) outside 2x2"),
    ("entry", (1, False), "entry (1, False) outside 2x2"),
    ("entry", (1.0, 1), "entry (1.0, 1) outside 2x2"),
    ("entry", (1, "2"), "entry (1, 2) outside 2x2"),
    ("row", (True,), "row True outside [1, 2]"),
    ("row", (2.0,), "row 2.0 outside [1, 2]"),
    ("col", (True,), "column True outside [1, 2]"),
    ("col", (None,), "column None outside [1, 2]"),
])
def test_accessors_take_no_bool_or_float_for_an_index(accessor, args, message):
    for kind in (RATIONAL, FLOAT64):
        with pytest.raises(IndexOutOfRange, match=re.escape(message)):
            getattr(matrix([[1, 2], [3, 4]], kind), accessor)(*args)


def test_arithmetic_helpers():
    m = matrix([[1, 2], [3, 4]])
    assert (m @ identity(2)).entries.tolist() == m.entries.tolist()
    assert add(m, m).entries.tolist() == [[2, 4], [6, 8]]
    assert transpose(m).entries.tolist() == [[1, 3], [2, 4]]
    with pytest.raises(DimensionMismatch):
        matmul(m, matrix([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(DimensionMismatch, match="cannot multiply 2x2 by 3x1"):
        matmul(m, matrix([[1], [2], [3]]))
    with pytest.raises(DimensionMismatch, match="cannot add 2x2 and 1x1"):
        add(m, matrix([[1]]))


def test_determinant_float_mode():
    f = matrix([[2.0, 1.0], [1.0, 2.0]])
    assert determinant(f) == pytest.approx(3.0)
    singular = matrix([[1.0, 2.0], [2.0, 4.0]])
    assert determinant(singular) == pytest.approx(0.0, abs=1e-12)


def test_determinant_uncrossing_identity():
    # det of a twice-bordered matrix times det(B) factors into a 2x2 det of
    # singly-bordered dets; holds for arbitrary signed entries, no PSD needed
    rng = random.Random(19)
    for _ in range(40):
        d = rng.randint(0, 4)
        scalar = lambda: Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        b = matrix([[scalar() for _ in range(d)] for _ in range(d)])
        x1 = [scalar() for _ in range(d)]
        x2 = [scalar() for _ in range(d)]
        y1 = [scalar() for _ in range(d)]
        y2 = [scalar() for _ in range(d)]
        w = [[scalar(), scalar()], [scalar(), scalar()]]
        small = {
            (i, j): determinant(block_matrix(b, [x], [y], [[w[i][j]]]))
            for i, x in enumerate((x1, x2))
            for j, y in enumerate((y1, y2))
        }
        big = block_matrix(b, [x1, x2], [y1, y2], w)
        lhs = determinant(big) * determinant(b)
        rhs = small[0, 0] * small[1, 1] - small[0, 1] * small[1, 0]
        assert lhs == rhs, d


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    cut_cases(SIGNED_RATIONALS, Fraction(0)).map(lambda case: (RATIONAL, *case)),
    cut_cases(SIGNED_FLOATS, 0.0).map(lambda case: (FLOAT64, *case)),
), st.data())
def test_is_nonneg_is_the_ndarray_compare(case, data):
    kind, rows, nc, keep_rows, keep_cols = case
    if rows and data.draw(st.booleans()):  # a non-negative matrix, with its zeros
        rows = [[abs(x) for x in row] for row in rows]
    m = Matrix(np.array(rows, dtype=matcore.DTYPES[kind]).reshape(len(rows), nc), kind)
    child = select(m, keep_rows, keep_cols)
    sub_rows = data.draw(st.lists(st.integers(1, child.nrows), unique=True)) if child.nrows else []
    sub_cols = data.draw(st.lists(st.integers(1, child.ncols), unique=True)) if child.ncols else []
    for x in (m, child, select(child, sub_rows, sub_cols)):  # a cut, and a cut of a cut
        assert x.is_nonneg() is bool((x.entries >= 0).all())


def test_is_nonneg_on_an_exact_cut_builds_no_array():
    m = matrix([[1, Fraction(-2, 3), 3], [4, 0, Fraction(6, 5)], [7, 8, Fraction(9, 2)]])
    block = select(m, (2, 3), (1, 3))
    minor = delete(block, (2,), ())
    assert block.is_nonneg() and minor.is_nonneg() and not m.is_nonneg()
    assert not select(m, (1,), (2,)).is_nonneg()
    assert block._entries is None and minor._entries is None
