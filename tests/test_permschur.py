"""Block-matrix permanent identities and inequalities."""

import random
from fractions import Fraction

import pytest

from permbound import (
    BlockSplit,
    DimensionMismatch,
    NegativeEntry,
    ZeroPermanent,
    condense,
    matrix,
    ones,
    permanent_ryser,
    permanental_inverse,
    rank1_update_permanent,
    row_uncrossing_sides,
    run_process,
    schur_permanent_bound,
    select,
    two_row_inequality_sides,
)
from randmat import block_matrix, nonneg_matrix, positive_matrix


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


def test_rank1_identity_by_hand():
    # per([[1,2,1],[3,4,1],[1,1,2]]) = 30 = per(B) * (w + x^T B* y)
    a = block_matrix(matrix([[1, 2], [3, 4]]), [[1, 1]], [[1, 1]], [[2]])
    pair = rank1_update_permanent(BlockSplit(a, 2))
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
        pair = rank1_update_permanent(BlockSplit(block_matrix(b, [x], [y], [[w]]), d))
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
    with pytest.raises(NegativeEntry):
        row_uncrossing_sides(BlockSplit(matrix([[1, -1], [1, 1]]), 1), 1)


def test_two_row_inequality_by_hand():
    # B = [1], all border entries 1: lhs = per(J_3)*1 = 6, rhs = 2*2 + 2*2 = 8
    pair = two_row_inequality_sides(BlockSplit(ones(3), 1))
    assert (pair.lhs, pair.rhs) == (6, 8)
    assert pair.holds


def test_two_row_inequality_random():
    rng = random.Random(34)
    for _ in range(40):
        d = rng.randint(1, 4)
        b = positive_matrix(rng, d, hi=3)
        vec = lambda: [Fraction(rng.randint(0, 4), 2) for _ in range(d)]
        x1, x2, y1, y2 = vec(), vec(), vec(), vec()
        w = nonneg_matrix(rng, 2, hi=3)
        a = block_matrix(b, [x1, x2], [y1, y2], w.entries.tolist())
        pair = two_row_inequality_sides(BlockSplit(a, d))
        assert pair.holds


def test_two_row_shape_validation():
    with pytest.raises(DimensionMismatch):
        two_row_inequality_sides(BlockSplit(ones(4), 1))
    with pytest.raises(DimensionMismatch):
        two_row_inequality_sides(BlockSplit(ones(3), 2))


def test_condense_worked_example():
    # A = [[1,1,1],[1,1,0],[1,0,1]]: per(A)/a11 = 3, C = [[2,1],[1,2]], per = 5
    a = matrix([[1, 1, 1], [1, 1, 0], [1, 0, 1]])
    c = condense(BlockSplit(a, 1))
    assert c.entries.tolist() == [[2, 1], [1, 2]]
    assert permanent_ryser(a) == 3
    assert permanent_ryser(c) == 5
    assert permanent_ryser(a) / 1 <= permanent_ryser(c)


def test_condense_inequality_random():
    rng = random.Random(35)
    for _ in range(40):
        n = rng.randint(2, 5)
        a = positive_matrix(rng, n, hi=3)
        c = condense(BlockSplit(a, 1))
        assert permanent_ryser(a) / a.entry(1, 1) <= permanent_ryser(c)


def test_condense_is_one_process_step():
    rng = random.Random(36)
    for _ in range(60):
        n = rng.randint(2, 6)
        a = positive_matrix(rng, n, hi=3)
        trailing = range(2, n + 1)
        step = select(run_process(a).snapshot(2), trailing, trailing)
        assert condense(BlockSplit(a, 1)) == step


def test_condense_is_the_permanental_schur_complement():
    # C = W + X^T B* Y, summed entry by entry from B* for d >= 2
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randint(3, 6)
        d = rng.randint(2, n - 1)
        split = BlockSplit(nonneg_matrix(rng, n, hi=3), d)
        try:
            star = permanental_inverse(split.b).matrix
        except ZeroPermanent:
            continue
        expected = [
            [
                split.w.entry(i, j) + sum(
                    split.xt.entry(i, p) * star.entry(p, q) * split.y.entry(q, j)
                    for p in range(1, d + 1) for q in range(1, d + 1)
                )
                for j in range(1, split.k + 1)
            ]
            for i in range(1, split.k + 1)
        ]
        assert condense(split).entries.tolist() == expected


def test_condense_validation():
    # condense and the two lemmas that read the complement from it
    zero_block = BlockSplit(matrix([[0, 1], [1, 1]]), 1)
    negative = BlockSplit(matrix([[1, 1], [-1, 1]]), 1)
    for lemma in (condense, schur_permanent_bound, rank1_update_permanent):
        with pytest.raises(ZeroPermanent):
            lemma(zero_block)
        with pytest.raises(NegativeEntry):
            lemma(negative)


def test_rank1_needs_k1():
    with pytest.raises(DimensionMismatch):
        rank1_update_permanent(BlockSplit(ones(3), 1))
