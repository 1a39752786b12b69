"""Permanental inverse: worked values, dominance, and minor-ratio checks."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from permbound import perminv
from permbound import (
    DimensionMismatch,
    NegativeEntry,
    ZeroPermanent,
    check_identity_dominance,
    delete,
    matrix,
    ones,
    permanent_ryser,
    permanental_inverse,
)
from oracles import minor_ratio_inequality
from randmat import positive_matrix

B = matrix([[1, 2], [3, 4]])


def test_worked_inverse_values():
    inv = permanental_inverse(B)
    assert inv.source_perm == 10
    tenth = Fraction(1, 10)
    assert inv.matrix.entries.tolist() == [
        [4 * tenth, 2 * tenth],
        [3 * tenth, 1 * tenth],
    ]


def test_worked_dominance_products():
    chk = check_identity_dominance(B)
    assert chk.holds
    assert chk.left.entries.tolist() == [[1, Fraction(8, 5)], [Fraction(3, 5), 1]]
    assert chk.right.entries.tolist() == [[1, Fraction(2, 5)], [Fraction(12, 5), 1]]


def test_products_do_not_commute():
    chk = check_identity_dominance(B)
    assert chk.left.entries.tolist() != chk.right.entries.tolist()


def test_diagonals_exactly_one_on_random_instances():
    rng = random.Random(21)
    for _ in range(20):
        m = positive_matrix(rng, rng.randint(2, 5))
        chk = check_identity_dominance(m)
        assert chk.holds
        for prod in (chk.left, chk.right):
            assert all(prod.entry(i, i) == 1 for i in range(1, prod.n + 1))


@pytest.mark.parametrize("left, holds", [
    ([[1, Fraction(1, 2)], [0, 1]], True),
    ([[1, Fraction(-1, 100)], [0, 1]], False),  # a negative off-diagonal entry
    ([[1, 0], [0, 1 + Fraction(1, 10**12)]], False),  # rational diagonals are exactly 1
    ([[1.0, -1e-20], [0.0, 1.0 + 1e-10]], True),  # inside the float slack and tolerance
    ([[1.0, -1e-3], [0.0, 1.0]], False),
    ([[1.0, 0.0], [0.0, 1.0 + 1e-6]], False),
])
def test_identity_dominance_flags_a_failing_product(monkeypatch, left, holds):
    products = iter([matrix(left), matrix([[1, 0], [0, 1]], matrix(left).kind)])
    monkeypatch.setattr(perminv, "matmul", lambda a, b: next(products))
    b = B if matrix(left).kind == "rational" else matrix([[1.0, 2.0], [3.0, 4.0]])
    assert check_identity_dominance(b).holds is holds


def test_inverse_of_a_float_with_an_inf_entry_is_all_nan():
    inv = permanental_inverse(matrix([[math.inf, 1.0, 0.5], [1.0, 2.0, 0.0], [0.25, 1.0, 3.0]]))
    assert math.isnan(inv.source_perm)
    assert all(math.isnan(x) for x in inv.matrix.entries.ravel().tolist())


def test_inverse_entries_are_the_transposed_minors_over_the_permanent():
    rng = random.Random(23)
    for kind in ("rational", "float64"):
        for _ in range(10):
            m = positive_matrix(rng, rng.randint(1, 6))
            if kind == "float64":
                m = matrix([[float(x) for x in row] for row in m.entries.tolist()])
            inv = permanental_inverse(m)
            total = permanent_ryser(m)
            n = m.n
            want = [[permanent_ryser(delete(m, (j,), (i,))) / total for j in range(1, n + 1)]
                    for i in range(1, n + 1)]
            assert repr(inv.source_perm) == repr(total)
            assert repr(inv.matrix.entries.tolist()) == repr(want)


def test_inverse_permanent_product_at_least_one():
    rng = random.Random(22)
    for _ in range(20):
        m = positive_matrix(rng, rng.randint(2, 5))
        inv = permanental_inverse(m)
        assert permanent_ryser(inv.matrix) * inv.source_perm >= 1


def test_minor_ratio_exhaustive_small():
    rng = random.Random(23)
    for n in (2, 3, 4, 5):
        m = positive_matrix(rng, n)
        inv = permanental_inverse(m)
        idx = range(1, n + 1)
        for size in range(1, n + 1):
            for s in combinations(idx, size):
                for t in combinations(idx, size):
                    chk = minor_ratio_inequality(m, s, t, inverse=inv)
                    assert chk.holds, (n, s, t)
                    if size == 1:
                        assert chk.lhs == chk.rhs


def test_minor_ratio_singleton_equality_is_inverse_entry():
    inv = permanental_inverse(B)
    chk = minor_ratio_inequality(B, (1,), (2,))
    # B*(T, S) at T = {2}, S = {1} is the single entry (B*)_{2,1}
    assert chk.rhs == inv.matrix.entry(2, 1)
    assert chk.lhs == permanent_ryser(delete(B, (1,), (2,))) / 10


def test_minor_ratio_size_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        minor_ratio_inequality(B, (1,), (1, 2))


def test_zero_permanent_rejected():
    with pytest.raises(ZeroPermanent):
        permanental_inverse(matrix([[0, 0], [1, 1]]))


def test_negative_entry_rejected():
    with pytest.raises(NegativeEntry):
        permanental_inverse(matrix([[1, -1], [1, 1]]))


def test_full_index_minor_ratio_uses_empty_permanent():
    # S = T = everything: lhs = per(empty)/per(B) = 1/per(B), rhs = per(B*)
    n = 3
    m = ones(n)
    chk = minor_ratio_inequality(m, range(1, n + 1), range(1, n + 1))
    assert chk.lhs == Fraction(1, 6)
    assert chk.holds
