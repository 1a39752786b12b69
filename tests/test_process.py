"""The permanent process, its Gaussian minus-variant, and the u-recursion."""

import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permbound import (
    FLOAT64,
    GramMatrix,
    InvalidGram,
    Matrix,
    NegativeEntry,
    NotSquare,
    ParameterOutOfRange,
    RATIONAL,
    ZeroPermanent,
    ZeroPivot,
    exp_family,
    gram_from_factor,
    matrix,
    ones,
    permanent_ryser,
    process_bound,
    recursive_u,
    run_process,
    select,
)
from permbound import process
from permbound.matcore import eliminate
from permbound.process import cross_sums
from oracles import (
    closed_recursion_by_entry, cross_sum, determinant, pivot_lower_bound_check,
    run_gaussian_variant,
)
from randmat import (
    nonneg_matrix,
    nonzero_leading_minors_matrix,
    positive_matrix,
    unit_diag_matrix,
)


def test_all_ones_pivots_and_bound():
    trace = run_process(ones(3))
    assert trace.pivots == (1, 2, 4)
    assert trace.bound == 8
    assert permanent_ryser(ones(3)) == 6


def test_all_ones_pivots_double_each_step():
    for n in range(1, 9):
        trace = run_process(ones(n))
        assert trace.pivots == tuple(Fraction(2) ** t for t in range(n))
        assert trace.bound == Fraction(2) ** (n * (n - 1) // 2)


def test_exp_family_worked_instance():
    a = exp_family(3, Fraction(2))
    trace = run_process(a)
    assert trace.pivots == (1, Fraction(5, 4), Fraction(11, 8))
    assert trace.bound == Fraction(55, 32)
    assert permanent_ryser(a) == Fraction(27, 16)


def test_soundness_random_instances():
    rng = random.Random(41)
    for _ in range(50):
        m = positive_matrix(rng, rng.randint(1, 6))
        assert permanent_ryser(m) <= process_bound(m)


@given(st.integers(1, 6), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_pivots_dominate_original_diagonal(n, seed):
    rng = random.Random(seed)
    m = positive_matrix(rng, n)
    trace = run_process(m)
    for t in range(n):
        assert trace.pivots[t] >= m.entries[t][t]


def test_entries_freeze_after_their_step():
    rng = random.Random(42)
    m = positive_matrix(rng, 6)
    trace = run_process(m)
    final = trace.snapshot(6).entries
    for t in range(1, 7):
        snap = trace.snapshot(t).entries
        for i in range(6):
            for j in range(6):
                if min(i + 1, j + 1) <= t:
                    assert snap[i][j] == final[i][j]
    assert trace.pivots == tuple(final[t][t] for t in range(6))


def test_first_snapshot_is_input():
    m = positive_matrix(random.Random(43), 4)
    trace = run_process(m)
    assert trace.snapshot(1).entries.tolist() == m.entries.tolist()


@pytest.mark.parametrize("t", [0, 4, -1, True, False, 1.0, np.int64(1), "1", None])
def test_snapshot_index_is_an_int_in_one_to_n(t):
    trace = run_process(ones(3))
    with pytest.raises(ParameterOutOfRange, match=re.escape(f"snapshot index {t} outside [1, 3]")):
        trace.snapshot(t)


def spy_on_eliminate(monkeypatch):
    """The (matrix, keyword arguments) of each `eliminate` call `process` makes."""
    calls = []

    def spy(m, **kwargs):
        calls.append((m, kwargs))
        return eliminate(m, **kwargs)

    monkeypatch.setattr(process, "eliminate", spy)
    return calls


@pytest.mark.parametrize("subject, ordering, skip_zero", [
    (matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]]), (3, 1, 2), False),
    # v = (1, 0, 1): the Gram matrix has a zero row and column, whose pivot is skipped
    (gram_from_factor([[1, 0, 1]]), None, True),
    (gram_from_factor([[1.0, 0.0, 1.0]]), (2, 3, 1), True),
])
def test_states_are_swept_once_on_first_read(monkeypatch, subject, ordering, skip_zero):
    calls = spy_on_eliminate(monkeypatch)
    trace = run_process(subject, ordering=ordering)
    assert [kwargs for _, kwargs in calls] == [{"skip_zero": skip_zero}]
    swept = calls[0][0]
    source = getattr(subject, "gram", subject)
    idx = [p - 1 for p in ordering or range(1, 4)]
    assert swept.entries.tolist() == source.entries[idx][:, idx].tolist()
    for t in (0, 4):
        with pytest.raises(ParameterOutOfRange):
            trace.snapshot(t)
    assert len(calls) == 1
    first = trace.snapshot(2)
    assert len(calls) == 2
    assert calls[1][0] is swept and calls[1][1] == {"skip_zero": skip_zero, "keep": True}
    assert trace.snapshots[1] is first and trace.snapshot(1) == swept
    assert trace.snapshot(3).diagonal() == trace.pivots
    assert len(calls) == 2
    assert (0 in trace.pivots[:-1]) == skip_zero  # a Gram input skips a step


def test_the_swept_matrix_is_no_part_of_the_trace_value():
    m = matrix([[1, 2], [3, 4]])
    trace, again = run_process(m, ordering=(2, 1)), run_process(m, ordering=(2, 1))
    assert trace.snapshots  # kept in the instance's __dict__, beside the fields
    assert trace == again and hash(trace) == hash(again)
    assert "_swept" not in repr(trace) and "snapshots" not in repr(trace)
    assert trace != run_process(m)


@pytest.mark.parametrize("ordering", [
    (1, "a", 3), (None, 1, 2), (1, 2.5, "3"), ([1], 2, 3), (2.0, 1.0, 3.0), (np.int64(2), 1, 3),
])
def test_ordering_of_mixed_types_is_refused(ordering):
    with pytest.raises(ParameterOutOfRange, match=re.escape(f"ordering {ordering} is not a permutation")):
        run_process(ones(3), ordering=ordering)


def test_recursive_u_equals_process_final_state():
    rng = random.Random(44)
    for _ in range(30):
        n = rng.randint(1, 8)
        m = positive_matrix(rng, n)
        trace = run_process(m)
        u = recursive_u(m)
        assert u.entries.tolist() == trace.snapshot(n).entries.tolist()
        assert tuple(u.entries[t][t] for t in range(n)) == trace.pivots


def test_ordering_relabels_but_keeps_soundness():
    rng = random.Random(45)
    m = positive_matrix(rng, 5)
    per = permanent_ryser(m)
    for _ in range(10):
        perm = list(range(1, 6))
        rng.shuffle(perm)
        trace = run_process(m, ordering=tuple(perm))
        assert per <= trace.bound
    with pytest.raises(ParameterOutOfRange):
        run_process(m, ordering=(1, 2, 2, 4, 5))


def test_ordering_refuses_a_bool():
    m = matrix([[1, 2], [3, 4]])
    with pytest.raises(ParameterOutOfRange, match=re.escape("ordering (True, 2) is not a permutation")):
        run_process(m, ordering=(True, 2))


def test_ordering_can_change_the_bound():
    m = matrix([[1, 1, 1], [1, 1, 1], [1, 1, 2]])
    direct = run_process(m).bound
    relabeled = run_process(m, ordering=(3, 2, 1)).bound
    assert direct == 10
    assert relabeled == 9
    per = permanent_ryser(m)
    assert per == 8
    assert per <= relabeled < direct


def test_negative_input_rejected():
    with pytest.raises(NegativeEntry, match="GramMatrix certificate"):
        run_process(matrix([[1, -1], [1, 1]]))
    with pytest.raises(NegativeEntry):
        recursive_u(matrix([[1, -1], [1, 1]]))


def test_process_rejects_other_subjects_and_non_square_inputs():
    with pytest.raises(TypeError, match="expected Matrix or GramMatrix, got str"):
        run_process("x")
    with pytest.raises(NotSquare, match="got 2x3"):
        recursive_u(matrix([[1, 2, 3], [4, 5, 6]]))


def test_zero_pivot_raises_with_step_index():
    with pytest.raises(ZeroPivot) as err:
        run_process(matrix([[0, 1], [1, 0]]))
    assert err.value.t == 1
    with pytest.raises(ZeroPivot):
        recursive_u(matrix([[0, 1], [1, 0]]))


def test_zero_final_pivot_is_legal():
    trace = run_process(matrix([[1, 0], [0, 0]]))
    assert trace.pivots == (1, 0)
    assert trace.bound == 0


def test_psd_mode_skips_zero_pivot_with_zero_row():
    g = gram_from_factor(matrix([[0, 1], [0, 1]]))
    assert g.gram.entries.tolist() == [[0, 0], [0, 2]]
    trace = run_process(g)
    assert trace.pivots == (0, 2)
    assert trace.bound == 0 == permanent_ryser(g.gram)


def test_inconsistent_gram_detected():
    bogus = GramMatrix(factor=ones(2), gram=matrix([[0, 1], [1, 0]]))
    with pytest.raises(InvalidGram):
        run_process(bogus)


def test_psd_mode_accepts_negative_entries():
    g = gram_from_factor(matrix([[1, -1], [1, 1]]))
    assert g.gram.entries.tolist() == [[2, 0], [0, 2]]
    assert run_process(g).bound == 4


def test_float_mode_matches_rational():
    rng = random.Random(46)
    for _ in range(15):
        n = rng.randint(2, 7)
        m = positive_matrix(rng, n)
        f = Matrix(tuple(tuple(float(x) for x in r) for r in m.entries), FLOAT64)
        rb = run_process(m).bound
        fb = run_process(f).bound
        assert fb == pytest.approx(float(rb), rel=1e-9)


def test_float_sweep_matches_reference_loop_bitwise():
    # the numpy path computes a_{i,j} + a_{i,t} * a_{t,j} / p; the same
    # order of operations in pure python must agree bit for bit
    rng = random.Random(47)
    for _ in range(10):
        n = rng.randint(2, 8)
        rows = [[rng.randint(1, 16) / 8 for _ in range(n)] for _ in range(n)]
        a = [row[:] for row in rows]
        for t in range(n - 1):
            p = a[t][t]
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    a[i][j] += a[i][t] * a[t][j] / p
        expected = tuple(a[t][t] for t in range(n))
        got = run_process(Matrix(tuple(tuple(r) for r in rows), FLOAT64)).pivots
        assert got == expected


def test_gaussian_variant_reproduces_determinant():
    rng = random.Random(48)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = nonzero_leading_minors_matrix(rng, n)
        trace = run_gaussian_variant(m)
        prod = Fraction(1)
        for p in trace.pivots:
            prod *= p
        assert prod == determinant(m)


def test_gaussian_variant_final_matrix_lower_triangular():
    m = nonzero_leading_minors_matrix(random.Random(49), 4)
    trace = run_gaussian_variant(m)
    final = trace.snapshot(4).entries
    for i in range(4):
        for j in range(i + 1, 4):
            assert final[i][j] == 0


def det_ratio(m: Matrix, rows, cols):
    """det of the (sorted) submatrix; 0 when an index repeats."""
    if len(set(rows)) < len(rows) or len(set(cols)) < len(cols):
        return Fraction(0)
    return determinant(select(m, sorted(rows), sorted(cols)))


def test_gaussian_variant_determinant_ratio_invariant():
    # a^(t)_{i,j} = det_A([r-1]+{i}, [r-1]+{j}) / det_A([r-1], [r-1]), r = min(j, t)
    rng = random.Random(50)
    for _ in range(12):
        n = 5
        m = nonzero_leading_minors_matrix(rng, n)
        trace = run_gaussian_variant(m)
        for t in range(1, n + 1):
            snap = trace.snapshot(t).entries
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    r = min(j, t)
                    lead = list(range(1, r))
                    num = det_ratio(m, lead + [i], lead + [j])
                    den = det_ratio(m, lead, lead)
                    assert snap[i - 1][j - 1] == num / den, (t, i, j)


def test_pivot_lower_bound_checks_hold_and_telescope():
    rng = random.Random(51)
    for _ in range(15):
        n = rng.randint(2, 6)
        m = positive_matrix(rng, n)
        checks = pivot_lower_bound_check(m)
        assert all(c.holds for c in checks)
        prod = Fraction(1)
        for c in checks:
            prod *= c.lhs
        assert prod == permanent_ryser(m)
    # per(A) = 0 = per of the trailing 1x1 block: the step-1 ratio is 0/0
    with pytest.raises(ZeroPermanent):
        pivot_lower_bound_check(matrix([[1, 0], [0, 0]]))


def test_unit_diag_process_stays_rational_exact():
    rng = random.Random(52)
    m = unit_diag_matrix(rng, 5, 2)
    trace = run_process(m)
    assert trace.arithmetic == RATIONAL
    assert permanent_ryser(m) <= trace.bound


def test_cross_sums_equal_cross_sum_exactly():
    rng = random.Random(97)
    for _ in range(50):
        n = rng.randint(1, 7)
        b = nonneg_matrix(rng, n).entries
        den = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(n)]
        sums = cross_sums(b, den, RATIONAL)
        assert sums.shape == (n, n)
        for i in range(n):
            for j in range(n):
                assert sums[i, j] == cross_sum(b, den, i, j, RATIONAL)
                assert type(sums[i, j]) is Fraction


def test_cross_sums_float_close_to_cross_sum():
    rng = random.Random(98)
    for _ in range(30):
        n = rng.randint(1, 12)
        b = [[rng.uniform(0, 3) for _ in range(n)] for _ in range(n)]
        den = [rng.uniform(0.1, 2) for _ in range(n)]
        sums = cross_sums(b, den, FLOAT64)
        for i in range(n):
            for j in range(n):
                assert math.isclose(sums[i, j], cross_sum(b, den, i, j, FLOAT64), rel_tol=1e-12)


def test_cross_sums_never_read_the_last_denominator():
    b = [[1.0, 2.0], [3.0, 4.0]]
    assert cross_sums(b, [2.0, 0.0], FLOAT64).tolist() == [[0.0, 0.0], [0.0, 3.0]]
    exact = [[Fraction(x) for x in row] for row in b]
    assert cross_sums(exact, [Fraction(2), Fraction(0)], RATIONAL)[1, 1] == 3
    with pytest.raises(ZeroPivot, match="step 1"):
        cross_sums(b, [0.0, 1.0], FLOAT64)


def test_cross_sums_of_int_entries_stay_exact():
    # a rational Matrix keeps Python ints as given, and int / int is a float
    m = Matrix([[1, 1, 1], [1, 3, 1], [1, 1, 3]], RATIONAL)
    sums = cross_sums(m.entries, m.diagonal(), RATIONAL)
    assert sums.tolist() == [[0, 0, 0], [0, 1, 1], [0, 1, Fraction(4, 3)]]
    assert {type(x) for x in sums.flat} == {Fraction}


@pytest.mark.parametrize("b, den", [
    # b_{2,1} / den_1 overflows, so the product would meet inf * 0 at (2, 1)
    ([[1e-300, 1.0, 1.0], [1e300, 1.0, 1.0], [1.0, 1.0, 1.0]], [1e-300, 1.0, 1.0]),
    # L_{2,1} = 1e10 / 1e-300 overflows, but b_{1,2} = 0 makes the sum 0, not nan
    ([[1e-300, 0.0], [1e10, 1.0]], [1e-300, 1.0]),
    # L fits, but b_{2,1} b_{1,2} = 1e400 overflows before the division
    ([[1e200, 1e200], [1e200, 1e200]], [1e200, 1e200]),
    # L_{2,1} = 2e-314 / 1e10 rounds to 0, but b_{2,1} b_{1,3} / den_1 = 2e-16 does not
    ([[1e10, 0.0, 1e308], [2e-314, 1.0, 0.0], [0.0, 0.0, 1.0]], [1e10, 1.0, 1.0]),
], ids=["overflowing-factor", "inf-times-zero", "product-overflow", "underflowing-factor"])
def test_cross_sums_float_overflow_matches_cross_sum(b, den):
    n = len(b)
    expected = [[cross_sum(b, den, i, j, FLOAT64) for j in range(n)] for i in range(n)]
    assert cross_sums(b, den, FLOAT64).tolist() == expected


def test_cross_sums_float_steps_leave_empty_sums_zero():
    # b_{1,3} = inf refuses the product; step 1 reaches only i, j > 1, so
    # entry (1, 3), an empty sum, reads 0.0 and not 0 * inf
    b = [[1.0, 0.0, math.inf], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]
    sums = cross_sums(b, [1.0, 1.0, 1.0], FLOAT64)
    assert sums[0].tolist() == [0.0, 0.0, 0.0] and sums[:, 0].tolist() == [0.0, 0.0, 0.0]
    expected = [[repr(cross_sum(b, [1.0] * 3, i, j, FLOAT64)) for j in range(3)] for i in range(3)]
    assert [list(map(repr, row)) for row in sums.tolist()] == expected


# 0, a subnormal, and magnitudes up to where products overflow float64
MAGNITUDES = [0.0, 1e-310, 1e-200, 1e-20, 0.5, 1.0, 3.0, 1e20, 1e200, 1e300]
floats = st.builds(lambda sign, m: sign * m, st.sampled_from([1.0, -1.0]), st.sampled_from(MAGNITUDES))


@st.composite
def square_rows(draw, cells, min_n=0, max_n=6):
    n = draw(st.integers(min_n, max_n))
    return [draw(st.lists(cells, min_size=n, max_size=n)) for _ in range(n)]


def _solved(fn, a):
    """fn(a) as rows of repr strings and entry types, or the ZeroPivot step it raised."""
    try:
        return [[(repr(x), type(x)) for x in row] for row in fn(a).entries.tolist()]
    except ZeroPivot as exc:
        return ("ZeroPivot", exc.t)


# recursive_u takes non-negative matrices only; -0.0 is one
nonneg_floats = st.sampled_from([-0.0, *MAGNITUDES])
nonneg_rationals = st.one_of(st.integers(0, 4), st.fractions(0, 4, max_denominator=5))


@given(square_rows(nonneg_floats))
@settings(max_examples=200, deadline=None)
def test_closed_recursion_float_matches_entry_by_entry(rows):
    a = Matrix(rows, FLOAT64)
    assert _solved(recursive_u, a) == _solved(closed_recursion_by_entry, a)


@given(square_rows(nonneg_rationals))
@settings(max_examples=150, deadline=None)
def test_closed_recursion_rational_matches_entry_by_entry(rows):
    a = Matrix(rows, RATIONAL)
    got = _solved(recursive_u, a)
    assert got == _solved(closed_recursion_by_entry, a)
    if isinstance(got, list):
        assert {t for row in got for _, t in row} <= {Fraction}


@given(square_rows(floats, min_n=2), st.data())
@settings(max_examples=200, deadline=None)
def test_cross_sums_float_loop_matches_cross_sum_bit_for_bit(rows, data):
    n = len(rows)
    rows[1][0] = rows[0][1] = 1e300  # their product overflows, so the matrix product is skipped
    den = data.draw(st.lists(floats.filter(bool), min_size=n, max_size=n))
    expected = [[repr(cross_sum(rows, den, i, j, FLOAT64)) for j in range(n)] for i in range(n)]
    assert [list(map(repr, row)) for row in cross_sums(rows, den, FLOAT64).tolist()] == expected


exact_cells = st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=5))
exact_dens = st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=5)).filter(bool)


@given(square_rows(exact_cells, max_n=7), st.data())
@settings(max_examples=200, deadline=None)
def test_cross_sums_exact_product_matches_cross_sum(rows, data):
    n = len(rows)
    if n:  # an all-zero row of b: its rows of L and U are zero, with row scale 1
        rows[data.draw(st.integers(0, n - 1))] = [0] * n
    den = data.draw(st.lists(exact_dens, min_size=n, max_size=n))
    sums = cross_sums(rows, den, RATIONAL)
    fractions = [Fraction(d) for d in den]  # the oracle's int / int would be a float
    assert sums.shape == (n, n)
    for i in range(n):
        for j in range(n):
            assert sums[i, j] == cross_sum(rows, fractions, i, j, RATIONAL)
            assert type(sums[i, j]) is Fraction
