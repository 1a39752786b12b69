"""Majorants, diagonal dominance, the B(n,k,t) machinery, and the exp family."""

import itertools
import math
import random
import re
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from permbound import (
    BoundFunction,
    BoundedInput,
    ConditionViolated,
    DimensionMismatch,
    Matrix,
    NegativeEntry,
    NonFinite,
    NotSquare,
    ParameterOutOfRange,
    PreconditionViolated,
    FLOAT64,
    RATIONAL,
    ZeroPivot,
    cycle_sum_cases,
    cycle_sum_ratio,
    diag_dominance_certify,
    entry_bound_check,
    exp_family,
    leq_scalar,
    matmul,
    matrix,
    ones,
    perm_ratio_cases,
    perm_ratio_check,
    permanent_ryser,
    process_bound,
    recursive_u,
    rowsum_bound,
    run_process,
    select,
    to_kind,
    verify_majorant,
)
from permbound import bounds
from oracles import closed_recursion_by_entry, cross_sum, exp_family_closed_form, permanent_naive
from randmat import dominant_matrix, positive_matrix, unit_diag_matrix


def test_rowsum_bound_products():
    assert rowsum_bound(ones(3)) == 27
    assert rowsum_bound(matrix([[1, 2], [3, 4]])) == 21


def test_solve_majorant_all_ones_diagonal():
    b = closed_recursion_by_entry(ones(3), ones(3).diagonal())
    assert tuple(b.entries[i][i] for i in range(3)) == (1, 2, 6)
    prod = Fraction(1)
    for i in range(3):
        prod *= b.entries[i][i]
    assert prod == 12
    assert process_bound(ones(3)) == 8 <= prod


def test_solved_majorant_verifies():
    rng = random.Random(61)
    for _ in range(15):
        a = positive_matrix(rng, rng.randint(1, 5))
        b = closed_recursion_by_entry(a, a.diagonal())
        assert verify_majorant(a, b) is None


def test_majorant_dominates_process_values():
    rng = random.Random(62)
    for _ in range(15):
        a = positive_matrix(rng, rng.randint(1, 5))
        b = closed_recursion_by_entry(a, a.diagonal())
        u = recursive_u(a)
        for i in range(a.n):
            for j in range(a.n):
                assert u.entries[i][j] <= b.entries[i][j]
        prod = Fraction(1)
        for i in range(a.n):
            prod *= b.entries[i][i]
        assert permanent_ryser(a) <= prod


def test_tampered_majorant_reports_entry():
    a = ones(3)
    b = closed_recursion_by_entry(a, a.diagonal())
    rows = [list(r) for r in b.entries]
    rows[2][2] -= Fraction(1, 2)
    bad = Matrix(tuple(tuple(r) for r in rows), RATIONAL)
    with pytest.raises(ConditionViolated) as err:
        verify_majorant(a, bad)
    assert (err.value.i, err.value.j) == (3, 3)


def test_majorant_validation():
    with pytest.raises(NegativeEntry):
        verify_majorant(matrix([[1, -1], [0, 1]]), ones(2))
    with pytest.raises(DimensionMismatch, match="a is 2x2 but b is 3x3"):
        verify_majorant(ones(2), ones(3))


def test_diag_dominance_worked_instance():
    rows = [[Fraction(1) if i == j else Fraction(1, 12) for j in range(4)] for i in range(4)]
    a = Matrix(tuple(tuple(r) for r in rows), RATIONAL)
    res = diag_dominance_certify(a, Fraction(1))
    assert res.certified
    assert res.bound == 16
    assert permanent_ryser(a) <= 16
    assert process_bound(a) <= 16


def test_diag_dominance_all_ones_fails_at_2_2():
    res = diag_dominance_certify(ones(3), Fraction(1))
    assert not res.certified
    assert res.bound is None
    assert res.violation == (2, 2)


def test_diag_dominance_random_certified_instances():
    rng = random.Random(63)
    for _ in range(20):
        n = rng.randint(2, 6)
        eps = Fraction(rng.choice([1, 2]), rng.choice([1, 2]))
        a = dominant_matrix(rng, n)
        res = diag_dominance_certify(a, eps)
        assert res.certified, (n, eps)
        diag_prod = Fraction(1)
        for i in range(n):
            diag_prod *= a.entries[i][i]
        assert res.bound == (1 + eps) ** n * diag_prod
        assert permanent_ryser(a) <= res.bound
        assert process_bound(a) <= res.bound


def _first_violation_by_entry(a, eps):
    """The per-entry loop over cross_sum that diag_dominance_certify replaced."""
    kind, rows = a.kind, a.entries
    diag = [rows[s][s] for s in range(a.n)]
    factor = (1 + eps) ** 2 / eps
    for i in range(a.n):
        for j in range(a.n):
            if not leq_scalar(factor * cross_sum(rows, diag, i, j, kind), rows[i][j], kind):
                return (i + 1, j + 1)
    return None


def test_diag_dominance_reports_the_first_violation():
    rng = random.Random(64)
    seen = set()
    for _ in range(40):
        n = rng.randint(2, 7)
        a = positive_matrix(rng, n, hi=3)
        eps = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        for m, e in ((a, eps), (to_kind(a, FLOAT64), float(eps))):
            res = diag_dominance_certify(m, e)
            expected = _first_violation_by_entry(m, e)
            assert res.violation == expected
            assert res.certified == (expected is None)
            seen.add(expected)
    assert len(seen) > 3  # violations at several different entries


def test_diag_dominance_float_zero_times_overflowing_factor():
    # the lower factor 1e10 / 1e-300 overflows; its partner entry 0 keeps the sum 0
    res = diag_dominance_certify(Matrix(((1e-300, 0.0), (1e10, 1.0)), FLOAT64), 1.0)
    assert res.certified and res.violation is None


def test_diag_dominance_validation():
    with pytest.raises(ParameterOutOfRange):
        diag_dominance_certify(ones(2), Fraction(0))
    with pytest.raises(ZeroPivot):
        diag_dominance_certify(matrix([[0, 1], [1, 1]]), Fraction(1))
    with pytest.raises(NegativeEntry):
        diag_dominance_certify(matrix([[1, -1], [0, 1]]), Fraction(1))


@st.composite
def dominance_cases(draw):
    """A non-negative exact matrix with a_11..a_(n-1,n-1) > 0 (a_nn may be 0), and an eps > 0."""
    n = draw(st.integers(1, 6))
    off = st.fractions(min_value=0, max_value=2, max_denominator=4)
    rows = [[draw(off) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        rows[i][i] = Fraction(draw(st.integers(0 if i == n - 1 else 1, 40)))
    eps = draw(st.fractions(min_value=Fraction(1, 20), max_value=4, max_denominator=20))
    return Matrix(rows, RATIONAL), eps


@settings(max_examples=300, deadline=None)
@given(dominance_cases())
def test_diag_dominance_is_the_majorant_theorem_at_one_plus_eps_times_a(case):
    # (1+eps)^2/eps * S <= a exactly when a + (1+eps)^2 S <= (1+eps) a, and the
    # cross sums of b = (1+eps) a over a's pivots are (1+eps)^2 S
    a, eps = case
    res = diag_dominance_certify(a, eps)
    b = Matrix(a.entries * (1 + eps), RATIONAL)
    if res.certified:
        verify_majorant(a, b)
    else:
        with pytest.raises(ConditionViolated) as err:
            verify_majorant(a, b)
        assert (err.value.i, err.value.j) == res.violation


def test_bound_function_values():
    bf = BoundFunction(3, Fraction(1))
    assert bf(1, 2) == 12
    assert bf.gamma(2) == 2
    assert bf.gamma(0) == 1
    with pytest.raises(ParameterOutOfRange, match="m = -1"):
        bf.gamma(-1)
    with pytest.raises(ParameterOutOfRange):
        BoundFunction(0, Fraction(1))
    with pytest.raises(ParameterOutOfRange):
        BoundFunction(3, Fraction(1, 2))
    with pytest.raises(ParameterOutOfRange):
        bf(0, 1)


@given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 5), st.integers(2, 6))
@settings(max_examples=60, deadline=None)
def test_bound_function_recurrence(n, mm, k, t):
    # B(n, k, t-1) + B(n, k+1, t-1) = B(n, k, t)
    bf = BoundFunction(n, Fraction(mm))
    assert bf(k, t - 1) + bf(k + 1, t - 1) == bf(k, t)


def test_gamma_caps_small_permanents():
    rng = random.Random(64)
    for _ in range(20):
        m0 = rng.randint(1, 3)
        size = rng.randint(1, 4)
        entries = tuple(
            tuple(Fraction(rng.randint(0, 2 * m0), 2) for _ in range(size))
            for _ in range(size)
        )
        a = Matrix(entries, RATIONAL)
        assert permanent_ryser(a) <= BoundFunction(size, Fraction(m0)).gamma(size)


def test_entry_bound_check_passes_on_random_unit_diag():
    rng = random.Random(65)
    for n in range(4, 9):
        for cap in (1, 2, 5):
            for _ in range(200):
                a = unit_diag_matrix(rng, n, cap)
                assert entry_bound_check(BoundedInput(a, Fraction(cap))) is None, (n, cap)


def test_entry_bound_check_reports_the_first_violation_as_the_loop_does():
    rng = random.Random(67)
    found = 0
    for _ in range(150):
        n = rng.randint(2, 6)
        x = BoundedInput(unit_diag_matrix(rng, n, 2), Fraction(2))
        caps = {t: Fraction(rng.randint(4, 40), 4) for t in range(1, n + 1)}
        x.__dict__["B"] = lambda k, t: caps[t]  # B(1, t) is the only cap read
        want = None
        for t in range(1, n + 1):
            snap = x.trace.snapshot(t)
            want = next(((i, j, t) for i in range(t, n + 1) for j in range(t, n + 1)
                         if not snap.entry(i, j) <= caps[t]), None)
            if want:
                break
        assert entry_bound_check(x) == want
        found += want is not None
    assert found > 20


def test_entry_bound_check_preconditions():
    with pytest.raises(PreconditionViolated):
        BoundedInput(matrix([[2, 0], [0, 1]]), Fraction(2))
    # understated M is a precondition failure, not a violation report
    with pytest.raises(PreconditionViolated):
        BoundedInput(unit_diag_matrix(random.Random(0), 3, 5), Fraction(1))
    with pytest.raises(ParameterOutOfRange):
        BoundedInput(ones(2), Fraction(1, 2))


def test_cycle_sum_and_perm_ratio_validation():
    x = BoundedInput(unit_diag_matrix(random.Random(66), 4, 1), Fraction(1))
    with pytest.raises(ParameterOutOfRange):
        cycle_sum_ratio(x, 2, (2, 3), 2)  # S must sit above t
    with pytest.raises(ParameterOutOfRange):
        cycle_sum_ratio(x, 1, (3,), 3)  # |S| >= 2
    with pytest.raises(ParameterOutOfRange):
        cycle_sum_ratio(x, 1, (2, 3), 4)  # i0 must be in S
    with pytest.raises(ParameterOutOfRange):
        perm_ratio_check(x, (1, 2), 2, 3)  # i outside S
    with pytest.raises(ParameterOutOfRange):
        perm_ratio_check(x, (1,), 2, 5)  # j out of range
    with pytest.raises(ParameterOutOfRange, match="must lie within"):
        perm_ratio_check(x, (5,), 1, 2)  # S past n


def outside(s, span):
    return pytest.raises(ParameterOutOfRange, match=re.escape(f"S = {s} must lie within {span}"))


@pytest.mark.parametrize("s", [(2, "a"), (None, 2, 3), (2, 3.5), (True, 3), (3, 0), (3, -1),
                               (3, 5)])
def test_cycle_sum_and_perm_ratio_refuse_an_index_set_of_mixed_types(s):
    # a member that is no int, below 1 or above n raises one class, naming S, from either check
    x = BoundedInput(unit_diag_matrix(random.Random(66), 4, 1), Fraction(1))
    with outside(s, "{2, ..., 4}"):
        cycle_sum_ratio(x, 1, s, 2)
    with outside(s, "{1, ..., 4}"):
        perm_ratio_check(x, s, 2, 3)


def test_cycle_sum_ratio_refuses_a_member_at_or_below_t():
    x = BoundedInput(unit_diag_matrix(random.Random(66), 5, 1), Fraction(1))
    for s in ((2, 4), (3, 4), (1, 5)):
        with outside(s, "{4, ..., 5}"):
            cycle_sum_ratio(x, 3, s, 4)
    assert cycle_sum_ratio(x, 3, (4, 5), 4).holds
    for t in (0, 5, 6):
        with pytest.raises(ParameterOutOfRange, match=re.escape(f"t = {t} must lie in [1, 4]")):
            cycle_sum_ratio(x, t, (4, 5), 4)


def test_cycle_sum_ratio_holds_on_random_instances():
    rng = random.Random(67)
    for _ in range(10):
        n = rng.randint(4, 5)
        cap = rng.choice([1, 2])
        x = BoundedInput(unit_diag_matrix(rng, n, cap), Fraction(cap))
        for t in range(1, n - 1):
            members = tuple(range(t + 1, n + 1))
            chk = cycle_sum_ratio(x, t, members, members[0])
            assert chk.holds


def fraction_cycle_sum(snapshot, members):
    """Reference: sum over the full cycles sigma of S of prod a_{i, sigma(i)}, each entry
    read exactly and the sum kept in Fractions."""
    first, rest = members[0], members[1:]
    total = Fraction(0)
    for tail in itertools.permutations(rest):
        order = (first, *tail, first)
        term = Fraction(1)
        for i, j in zip(order, order[1:]):
            term *= Fraction(snapshot.entry(i, j))
        total += term
    return total


def test_integer_cycle_sum_equals_the_fraction_loop():
    rng = random.Random(70)
    for _ in range(12):
        n = rng.randint(3, 7)
        cap = rng.choice([1, 2, 3])
        x = BoundedInput(unit_diag_matrix(rng, n, cap, max_den=6), Fraction(cap))
        for t, s in cycle_sum_cases(n, rng, 8):
            i0 = rng.choice(s)
            snapshot = x.trace.snapshot(t)
            rest = tuple(m for m in s if m != i0)
            want = fraction_cycle_sum(snapshot, s) / permanent_naive(select(snapshot, rest, rest))
            got = cycle_sum_ratio(x, t, s, i0)
            assert type(got.lhs) is Fraction
            assert (got.lhs, got.rhs) == (want, x.B(len(s), t))


def test_float_cycle_sum_is_the_exact_sum_rounded_once():
    # on this input a float sum rounded at every term misses the last bit for several (t, S)
    exact = BoundedInput(unit_diag_matrix(random.Random(71), 6, 2, max_den=6), Fraction(2))
    floats = BoundedInput(to_kind(exact.a, FLOAT64), 2.0)
    for t, s in cycle_sum_cases(6):
        snapshot = floats.trace.snapshot(t)
        rounded = float(fraction_cycle_sum(snapshot, s))
        den = permanent_ryser(select(snapshot, s[1:], s[1:]))
        assert cycle_sum_ratio(floats, t, s, s[0]).lhs == rounded / den


def test_cycle_path_sum_equals_the_fraction_loop_up_to_eight_members():
    # |S| = 2..8 at the first and the last step S allows, on blocks with zero entries, in
    # both kinds: the rational ratio is the loop's, the float numerator the loop's rounded once
    rng = random.Random(74)
    n = 9
    rows = unit_diag_matrix(rng, n, 2, max_den=6).entries.tolist()
    for i, j in rng.sample([(i, j) for i in range(n) for j in range(n) if i != j], 16):
        rows[i][j] = Fraction(0)
    exact = BoundedInput(Matrix(rows, RATIONAL), Fraction(2))
    floats = BoundedInput(to_kind(exact.a, FLOAT64), 2.0)
    zeros = 0
    for size in range(2, 9):
        for t in (1, n - size):
            s = tuple(sorted(rng.sample(range(t + 1, n + 1), size)))
            i0 = rng.choice(s)
            rest = tuple(m for m in s if m != i0)
            snapshot = exact.trace.snapshot(t)
            zeros += sum(snapshot.entry(i, j) == 0 for i in s for j in s)
            want = fraction_cycle_sum(snapshot, s) / permanent_naive(select(snapshot, rest, rest))
            assert cycle_sum_ratio(exact, t, s, i0).lhs == want
            snapshot = floats.trace.snapshot(t)
            rounded = float(fraction_cycle_sum(snapshot, s))
            den = permanent_ryser(select(snapshot, rest, rest))
            assert cycle_sum_ratio(floats, t, s, i0).lhs == rounded / den
    assert zeros > 10


def test_perm_ratio_holds_on_random_instances():
    rng = random.Random(68)
    for _ in range(10):
        n = rng.randint(3, 5)
        cap = rng.choice([1, 2, 5])
        a = unit_diag_matrix(rng, n, cap)
        chk = perm_ratio_check(BoundedInput(a, Fraction(cap)), (1,), 2, 3)
        assert chk.holds
        assert chk.rhs == 2 * Fraction(cap) ** 2


def test_exp_family_entries_and_validation():
    a = exp_family(3, Fraction(2))
    assert a.entries.tolist() == [
        [1, Fraction(1, 2), Fraction(1, 4)],
        [Fraction(1, 2), 1, Fraction(1, 2)],
        [Fraction(1, 4), Fraction(1, 2), 1],
    ]
    with pytest.raises(ParameterOutOfRange):
        exp_family(0, Fraction(2))
    with pytest.raises(ParameterOutOfRange):
        exp_family(3, Fraction(-1))


def test_exp_closed_form_matches_process_snapshots():
    for c in (Fraction(2), Fraction(5, 2), Fraction(3)):
        for n in (1, 2, 3, 5, 7):
            a = exp_family(n, c)
            trace = run_process(a)
            assert exp_family_closed_form(n, c).entries.tolist() == trace.snapshot(n).entries.tolist()


def test_exp_closed_form_worked_diagonal():
    cf = exp_family_closed_form(3, Fraction(2))
    assert tuple(cf.entries[i][i] for i in range(3)) == (1, Fraction(5, 4), Fraction(11, 8))


def test_exp_bound_below_geometric_limit():
    # diag entries increase toward 1 + 1/(c^2 - 2), so the bound stays under
    # (1 + 1/(c^2 - 2))^n whenever c^2 > 2
    c = Fraction(10)
    n = 8
    bound = run_process(exp_family(n, c)).bound
    assert bound < (1 + 1 / (c * c - 2)) ** n


def test_exp_float_mode_runs_large():
    import math as _math

    a = exp_family(64, _math.sqrt(64.0))
    trace = run_process(a)
    assert trace.arithmetic == "float64"
    assert 1.0 < trace.bound < 4.0


def test_rowsum_bound_takes_absolute_values():
    assert rowsum_bound(matrix([[1, -1], [-1, 1]])) == 4
    assert rowsum_bound(matrix([[1.0, -2.0], [0.5, -0.5]])) == 3.0


def test_float_rowsum_bound_is_the_sequential_sum_bitwise():
    rng = random.Random(71)
    for _ in range(300):
        n = rng.randint(1, 9)
        rows = [[rng.uniform(-1, 1) * 10.0 ** rng.randint(-30, 30) for _ in range(n)]
                for _ in range(n)]
        if rng.random() < 0.1:
            rows[0] = [1e308] * n  # the row sum overflows to inf
        expected = 1.0
        for row in rows:
            total = 0.0
            for x in row:
                total += abs(x)
            expected *= total
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = rowsum_bound(Matrix(rows, FLOAT64))
        assert type(got) is float
        assert got.hex() == expected.hex()
    assert rowsum_bound(Matrix((), FLOAT64)) == 1.0


def test_float_matmul_is_the_sequential_loop_bitwise():
    rng = random.Random(72)
    for _ in range(100):
        d, k, n = rng.randint(1, 5), rng.randint(1, 6), rng.randint(1, 5)
        a = [[rng.uniform(-1, 1) * 10.0 ** rng.randint(-20, 20) for _ in range(k)] for _ in range(d)]
        b = [[rng.uniform(-1, 1) * 10.0 ** rng.randint(-20, 20) for _ in range(n)] for _ in range(k)]
        expected = []
        for row in a:
            expected.append([])
            for j in range(n):
                total = 0.0
                for s in range(k):
                    total += row[s] * b[s][j]
                expected[-1].append(total.hex())
        got = matmul(Matrix(a, FLOAT64), Matrix(b, FLOAT64)).entries
        assert got.shape == (d, n)
        assert [[x.hex() for x in row] for row in got.tolist()] == expected


def test_bounded_input_runs_the_process_once(monkeypatch):
    runs = []
    real = bounds.run_process
    monkeypatch.setattr(bounds, "run_process", lambda *a, **k: runs.append(a) or real(*a, **k))
    n = 5
    x = BoundedInput(unit_diag_matrix(random.Random(69), n, 2), Fraction(2))
    assert runs == []  # built on first use
    assert entry_bound_check(x) is None
    for t, s in cycle_sum_cases(n):
        for i0 in s:
            assert cycle_sum_ratio(x, t, s, i0).holds
    for s, i, j in perm_ratio_cases(n):
        assert perm_ratio_check(x, s, i, j).holds
    assert len(runs) == 1
    assert x.trace.snapshot(1) == x.a


@pytest.mark.parametrize("rows, cap, error, message", [
    ([[2, 0], [0, 1]], Fraction(1, 2), ParameterOutOfRange, "M = 1/2 must be >= 1"),
    ([[1, 3], [0, 2]], Fraction(2), PreconditionViolated, "diagonal entry (2, 2) is not 1"),
    ([[1, 3], [-1, 1]], Fraction(2), PreconditionViolated, "entry (1, 2) = 3 outside [0, 2]"),
    ([[1, 0], [-1, 1]], Fraction(2), PreconditionViolated, "entry (2, 1) = -1 outside [0, 2]"),
    ([[1, 0, 1]], Fraction(1), NotSquare, "1x3 matrix is not square"),
], ids=["M-below-1-first", "diagonal-before-range", "range-row-major", "negative", "not-square"])
def test_bounded_input_preconditions(rows, cap, error, message):
    with pytest.raises(error, match=re.escape(message)):
        BoundedInput(matrix(rows), cap)


def test_float_eps_certificate_overflow_is_non_finite():
    a = matrix([[1.0, 0.001], [0.001, 1.0]])
    with pytest.raises(NonFinite, match="factor"):
        diag_dominance_certify(a, 1e300)  # (1+eps)^2 overflows
    with pytest.raises(NonFinite, match="factor"):
        diag_dominance_certify(to_kind(ones(2), FLOAT64), 1e-320)  # (1+eps)^2/eps is inf
    with pytest.raises(NonFinite, match="bound"):
        diag_dominance_certify(matrix([[1e300, 0.0], [0.0, 1e300]]), 1.0)  # 4 * 1e600
    assert diag_dominance_certify(matrix([[4, 0], [0, 1]]), Fraction(10**300)).certified
