"""Block-matrix permanent identities and inequalities."""

import random
from fractions import Fraction

import pytest

from permbound import (
    BlockSplit,
    DimensionMismatch,
    NegativeEntry,
    ZeroPivot,
    bordered,
    condense,
    identity,
    matrix,
    ones,
    permanent_ryser,
    rank1_update_permanent,
    row_uncrossing_sides,
    schur_permanent_bound,
    two_row_inequality_sides,
)
from randmat import nonneg_matrix, positive_matrix


def test_block_split_slices():
    m = matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    s = BlockSplit(m, 1)
    assert s.b.entries.tolist() == [[1]]
    assert s.y.entries.tolist() == [[2, 3]]
    assert s.xt.entries.tolist() == [[4], [7]]
    assert s.w.entries.tolist() == [[5, 6], [8, 9]]
    assert (s.n, s.k) == (3, 2)
    assert BlockSplit(m, 0).b.nrows == 0
    with pytest.raises(DimensionMismatch):
        BlockSplit(m, 3)
    with pytest.raises(DimensionMismatch):
        BlockSplit(m, -1)


def test_bordered_layout():
    b = matrix([[1, 2], [3, 4]])
    big = bordered(b, [5, 6], [7, 8], 9)
    assert big.entries.tolist() == [[1, 2, 7], [3, 4, 8], [5, 6, 9]]
    with pytest.raises(DimensionMismatch):
        bordered(b, [5], [7, 8], 9)


def test_rank1_identity_by_hand():
    # per([[1,2,1],[3,4,1],[1,1,2]]) = 30 = per(B) * (w + x^T B* y)
    pair = rank1_update_permanent(matrix([[1, 2], [3, 4]]), [1, 1], [1, 1], 2)
    assert pair.lhs == 30
    assert pair.rhs == 30
    assert pair.holds


def test_rank1_identity_random():
    rng = random.Random(31)
    for _ in range(60):
        d = rng.randint(1, 5)
        b = positive_matrix(rng, d)
        x = [Fraction(rng.randint(0, 6), 2) for _ in range(d)]
        y = [Fraction(rng.randint(0, 6), 2) for _ in range(d)]
        w = Fraction(rng.randint(0, 8), 2)
        pair = rank1_update_permanent(b, x, y, w)
        assert pair.lhs == pair.rhs


def test_schur_bound_holds_and_tightens_at_k1():
    rng = random.Random(32)
    for _ in range(40):
        n = rng.randint(2, 7)
        a = positive_matrix(rng, n)
        for d in range(1, n):
            pair = schur_permanent_bound(BlockSplit(a, d))
            assert pair.holds, (n, d)
            if n - d == 1:
                assert pair.lhs == pair.rhs


def test_schur_bound_equality_on_block_diagonal():
    # X = Y = 0 makes the inner matrix W itself, so the bound collapses
    a = matrix([[1, 2, 0, 0], [3, 4, 0, 0], [0, 0, 2, 1], [0, 0, 1, 2]])
    pair = schur_permanent_bound(BlockSplit(a, 2))
    assert pair.lhs == pair.rhs == 10 * 5


def test_schur_bound_rejects_negative():
    with pytest.raises(NegativeEntry):
        schur_permanent_bound(BlockSplit(matrix([[1, -2], [3, 4]]), 1))


def test_row_uncrossing_holds_with_equality_cases():
    rng = random.Random(33)
    for _ in range(25):
        n = rng.randint(2, 5)
        a = nonneg_matrix(rng, n, hi=3)
        for d in range(0, n):
            split = BlockSplit(a, d)
            for i_star in range(1, split.k + 1):
                pair = row_uncrossing_sides(split, i_star)
                assert pair.holds, (n, d, i_star)
                if d == 0 or split.k == 1:
                    assert pair.lhs == pair.rhs


def test_uncrossing_gap_monotone_in_w():
    # the proof's derivative argument: growing any w entry widens rhs - lhs
    rng = random.Random(34)
    for _ in range(20):
        n = rng.randint(3, 6)
        d = rng.randint(1, n - 2)
        rows = [[Fraction(rng.randint(0, 8), 2) for _ in range(n)] for _ in range(n)]
        k = n - d
        i_star = rng.randint(1, k)
        base = row_uncrossing_sides(BlockSplit(matrix(rows), d), i_star)
        alpha, beta = rng.randint(1, k), rng.randint(1, k)
        rows[d + alpha - 1][d + beta - 1] += Fraction(rng.randint(1, 4), 2)
        bumped = row_uncrossing_sides(BlockSplit(matrix(rows), d), i_star)
        assert bumped.rhs - bumped.lhs >= base.rhs - base.lhs, (n, d, i_star)


def test_row_uncrossing_d0_is_laplace_expansion():
    a = ones(3)
    pair = row_uncrossing_sides(BlockSplit(a, 0), 2)
    assert pair.lhs == pair.rhs == 6


def test_row_uncrossing_bad_row_rejected():
    with pytest.raises(DimensionMismatch):
        row_uncrossing_sides(BlockSplit(ones(3), 1), 3)


def test_two_row_inequality_by_hand():
    # B = [1], all border entries 1: lhs = per(J_3)*1 = 6, rhs = 2*2 + 2*2 = 8
    pair = two_row_inequality_sides(matrix([[1]]), [1], [1], [1], [1], ones(2))
    assert (pair.lhs, pair.rhs) == (6, 8)
    assert pair.holds


def test_two_row_inequality_random():
    rng = random.Random(34)
    for _ in range(40):
        d = rng.randint(1, 4)
        b = positive_matrix(rng, d, hi=3)
        vec = lambda: [Fraction(rng.randint(0, 4), 2) for _ in range(d)]
        w = nonneg_matrix(rng, 2, hi=3)
        pair = two_row_inequality_sides(b, vec(), vec(), vec(), vec(), w)
        assert pair.holds


def test_two_row_shape_validation():
    with pytest.raises(DimensionMismatch):
        two_row_inequality_sides(matrix([[1]]), [1], [1], [1], [1], ones(3))
    with pytest.raises(DimensionMismatch):
        two_row_inequality_sides(matrix([[1]]), [1, 2], [1], [1], [1], ones(2))


def test_condense_worked_example():
    # A = [[1,1,1],[1,1,0],[1,0,1]]: per(A)/a11 = 3, C = [[2,1],[1,2]], per = 5
    c = condense(Fraction(1), [1, 1], [1, 1], identity(2))
    assert c.entries.tolist() == [[2, 1], [1, 2]]
    a = matrix([[1, 1, 1], [1, 1, 0], [1, 0, 1]])
    assert permanent_ryser(a) == 3
    assert permanent_ryser(c) == 5
    assert permanent_ryser(a) / 1 <= permanent_ryser(c)


def test_condense_inequality_random():
    rng = random.Random(35)
    for _ in range(40):
        n = rng.randint(2, 5)
        a = positive_matrix(rng, n, hi=3)
        x = [a.entry(i, 1) for i in range(2, n + 1)]
        y = [a.entry(1, j) for j in range(2, n + 1)]
        w = BlockSplit(a, 1).w
        c = condense(a.entry(1, 1), x, y, w)
        assert permanent_ryser(a) / a.entry(1, 1) <= permanent_ryser(c)


def test_condense_validation():
    with pytest.raises(ZeroPivot) as err:
        condense(Fraction(0), [1], [1], ones(1))
    assert err.value.t == 1
    with pytest.raises(NegativeEntry):
        condense(Fraction(1), [-1], [1], ones(1))
    with pytest.raises(DimensionMismatch):
        condense(Fraction(1), [1, 2], [1], ones(1))
