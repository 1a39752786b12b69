"""The one elimination kernel against the two loops it replaced.

`oracles.list_eliminate` is the exact list loop and `oracles.numpy_sweep` the
per-step float64 process sweep that `matcore.eliminate` used to be split
into.  Exact runs must agree value for value, their (integer, scale)
pivots reduced by `reduced`, and hand over the product of those values as
their bound; float process runs must agree bit for bit up to
n = matcore.PANEL, with snapshots, on a panel that takes the steps and
after a zero pivot skipped in the first panel, and within 1e-12 relative
past a panel that takes the products, where the kernel adds the panel to
the trailing block as one product.
"""

import importlib.util
import json
import math
import random
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permbound import (
    FLOAT64,
    DimensionTooLarge,
    InvalidGram,
    Matrix,
    RATIONAL,
    ZeroPivot,
    gram_from_factor,
    run_process,
)
from permbound import matcore
from permbound.cli import main
from permbound.matcore import eliminate
from permbound.matio import parse_csv_text
from permbound.psd import GramMatrix
from permbound.scalars import one
from oracles import (
    determinant, exact_sweep_reducing_every_step, list_eliminate, numpy_sweep, run_gaussian_variant,
)


def outcome(fn, *args, **kwargs):
    """fn's result, or the type, step and message of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except ZeroPivot as exc:
        return ("ZeroPivot", exc.t)
    except InvalidGram as exc:
        return ("InvalidGram", str(exc))


def sparse_rational(rng, n, zero_share=0.4):
    """Entries p/q in [-4, 4], q <= 3, with about zero_share of them 0."""
    return Matrix(
        tuple(
            tuple(
                Fraction(0) if rng.random() < zero_share
                else Fraction(rng.randint(-12, 12), rng.randint(1, 3))
                for _ in range(n)
            )
            for _ in range(n)
        ),
        RATIONAL,
    )


def rank_deficient_gram(rng, n, kind=RATIONAL):
    """A Gram matrix whose factor has some zero columns, so some pivots are 0."""
    d = rng.randint(1, n)
    zero_cols = set(rng.sample(range(n), rng.randint(1, n)))
    rows = [
        [0 if j in zero_cols else rng.randint(-6, 6) for j in range(n)] for _ in range(d)
    ]
    cast = Fraction if kind == RATIONAL else float
    return gram_from_factor(Matrix(tuple(tuple(cast(x) for x in r) for r in rows), kind))


def bits(values):
    return [float(x).hex() for x in values]


def reduced(pairs):
    """The exact kernel's (integer, scale) pivots as the Fractions they stand for."""
    return tuple(Fraction(p, s) for p, s in pairs)


def assert_exact_run(got, want):
    if isinstance(want, tuple) and isinstance(want[0], str):
        assert got == want
        return
    (pairs, bound, snaps), (ref_pivots, ref_snaps) = got, want
    assert reduced(pairs) == ref_pivots
    assert all(type(p) is int and type(s) is int for p, s in pairs)
    assert type(bound) is Fraction and bound == math.prod(ref_pivots, start=Fraction(1))
    if ref_snaps is None:
        assert snaps is None
        return
    assert [tuple(map(tuple, s.entries.tolist())) for s in snaps] == ref_snaps
    assert all(s.kind == RATIONAL for s in snaps)
    assert all(type(x) is Fraction for s in snaps for row in s.entries for x in row)


def reference(rows, sign, **kwargs):
    """The list loop for a run of the given sign: over the rows below each
    pivot for +1, the process the kernel runs, and over every row for -1."""
    return list_eliminate(rows, sign, every_row=sign < 0, **kwargs)


@pytest.mark.parametrize("keep", [False, True])
@pytest.mark.parametrize("sign", [1])
def test_exact_kernel_matches_list_loop(sign, keep):
    rng = random.Random(900 + 2 * sign + keep)
    for n in range(9):
        for _ in range(6):
            m = sparse_rational(rng, n)
            got = outcome(eliminate, m, keep=keep)
            assert_exact_run(got, outcome(reference, m.entries, sign, keep=keep))


@pytest.mark.parametrize("sign", [1])
def test_exact_kernel_skips_zero_gram_pivots_as_the_list_loop(sign):
    rng = random.Random(910 + sign)
    skipped = 0
    for _ in range(40):
        n = rng.randint(2, 8)
        m = rank_deficient_gram(rng, n).gram
        got = outcome(eliminate, m, skip_zero=True, keep=True)
        want = outcome(reference, m.entries, sign, skip_zero=True, keep=True)
        assert_exact_run(got, want)
        skipped += 0 in reduced(got[0])[:-1]
    assert skipped > 0


def test_exact_kernel_reports_the_invalid_gram_step():
    rows = [[Fraction(x) for x in r] for r in ([1, -1, 2], [1, 1, 3], [2, 3, 9])]
    m = Matrix(tuple(map(tuple, rows)), RATIONAL)
    got = outcome(eliminate, m, skip_zero=True)
    assert got == outcome(list_eliminate, m.entries, 1, skip_zero=True)
    assert got == ("InvalidGram", "zero pivot with nonzero row/column at step 2")


@pytest.mark.parametrize("kind", [RATIONAL, FLOAT64])
def test_kernel_on_the_empty_matrix(kind):
    m = Matrix((), kind)
    assert eliminate(m) == ((), one(kind), None)
    assert type(eliminate(m)[1]) is type(one(kind))
    assert eliminate(m, keep=True) == ((), one(kind), (m,))


def positive_floats(rng, n):
    return tuple(tuple(rng.randint(1, 64) / 16 for _ in range(n)) for _ in range(n))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 34, 64])
def test_float_process_matches_numpy_sweep_bitwise(n):
    rng = random.Random(920 + n)
    keep = n <= 21
    for _ in range(3):
        rows = positive_floats(rng, n)
        trace = run_process(Matrix(rows, FLOAT64))
        pivots, snaps = numpy_sweep(rows, psd_mode=False, keep=keep)
        assert bits(trace.pivots) == bits(pivots)
        assert all(type(p) is float for p in trace.pivots)
        assert bits([trace.bound]) == bits([math.prod(pivots, start=1.0)])
        if keep:
            assert [tuple(map(tuple, s.entries.tolist())) for s in trace.snapshots] == snaps
            assert [bits(x for r in s.entries for x in r) for s in trace.snapshots] == [
                bits(x for r in s for x in r) for s in snaps
            ]


def test_float_gram_process_matches_numpy_sweep_bitwise():
    rng = random.Random(930)
    skipped = 0
    for _ in range(30):
        n = rng.randint(2, 12)
        g = rank_deficient_gram(rng, n, FLOAT64)
        got = outcome(run_process, g)
        want = outcome(numpy_sweep, g.gram.entries, True, True)
        if isinstance(want[0], str):
            assert got == want
            continue
        assert bits(got.pivots) == bits(want[0])
        assert [tuple(map(tuple, s.entries.tolist())) for s in got.snapshots] == want[1]
        skipped += 0.0 in got.pivots[:-1]
    assert skipped > 0


@pytest.mark.parametrize("n, k", [(2, 0), (5, 2), (9, 7), (64, 40)])
def test_float_process_error_steps_match_numpy_sweep(n, k):
    # a_{k,k} = 0 with the column above it zero stays 0 until step k + 1
    rng = random.Random(940 + n)
    rows = [list(r) for r in positive_floats(rng, n)]
    for i in range(k + 1):
        rows[i][k] = 0.0
    m = Matrix(tuple(map(tuple, rows)), FLOAT64)
    got = outcome(run_process, m)
    assert got == outcome(numpy_sweep, m.entries, False, False) == ("ZeroPivot", k + 1)
    rows[k][-1] = 1.0  # a nonzero trailing row contradicts a PSD certificate
    bogus = GramMatrix(factor=m, gram=Matrix(tuple(map(tuple, rows)), FLOAT64))
    want = ("InvalidGram", f"zero pivot with nonzero row/column at step {k + 1}")
    assert outcome(run_process, bogus) == outcome(numpy_sweep, bogus.gram.entries, True, False) == want


def test_float_gaussian_variant_final_matrix_lower_triangular():
    rng = random.Random(950)
    for _ in range(60):
        n = rng.randint(1, 9)
        rows = tuple(tuple(rng.uniform(-2, 2) for _ in range(n)) for _ in range(n))
        m = Matrix(rows, FLOAT64)
        trace = run_gaussian_variant(m)
        final = trace.snapshot(n).entries
        assert all(final[i][j] == 0.0 for i in range(n) for j in range(i + 1, n))
        assert np.prod(trace.pivots) == pytest.approx(determinant(m), rel=1e-9, abs=1e-12)


def positive_rational(rng, n, lo=10, hi=99):
    return Matrix(
        tuple(tuple(Fraction(rng.randint(lo, hi), rng.randint(lo, hi)) for _ in range(n))
              for _ in range(n)),
        RATIONAL,
    )


@pytest.mark.parametrize("keep", [False, True])
@pytest.mark.parametrize("sign, every_row", [(1, False)])
def test_exact_kernel_matches_list_loop_on_long_entries(sign, every_row, keep):
    # p/q in 10..99 up to n = 14: the plus-sign pivots reach ~10^5 bits
    rng = random.Random(960 + 4 * sign + 2 * every_row + keep)
    for n in range(9, 15):
        m = positive_rational(rng, n)
        got = outcome(eliminate, m, keep=keep)
        want = outcome(list_eliminate, m.entries, sign, every_row=every_row, keep=keep)
        assert_exact_run(got, want)


@pytest.mark.parametrize("keep", [False, True])
@pytest.mark.parametrize("sign", [1])
def test_exact_kernel_on_an_all_zero_trailing_row(sign, keep):
    # the last row is zero, so its row gcd is 0 at the steps that take one (n = 6: two)
    r1 = [Fraction(1), Fraction(2, 3), Fraction(3), Fraction(4, 5), Fraction(1, 2), Fraction(2)]
    last = [Fraction(0)] * 6
    rows = (r1, [Fraction(x) for x in (1, 5, 2, 7, 3, 1)], [Fraction(x, 2) for x in (3, 1, 4, 1, 5, 9)],
            [Fraction(2, x) for x in (1, 3, 5, 7, 9, 11)], [Fraction(x, 3) for x in (2, 7, 1, 8, 2, 8)],
            last)
    m = Matrix(rows, RATIONAL)
    got = eliminate(m, keep=keep)
    assert_exact_run(got, reference(m.entries, sign, keep=keep))
    assert reduced(got[0])[-1] == 0 == got[1]
    if keep:
        assert all(x == 0 for x in got[2][-1].row(6)[1:])


def test_exact_kernel_stops_past_the_bit_budget(monkeypatch):
    m = positive_rational(random.Random(970), 8)
    monkeypatch.setattr(matcore, "BIT_BUDGET", 1 << 10)
    with pytest.raises(DimensionTooLarge, match=r"past the budget of 2\^10 bits; use --arithmetic float"):
        eliminate(m)
    # the float64 sweep has no bit growth and no budget
    floats = Matrix(m.entries.astype(np.float64), FLOAT64)
    assert len(eliminate(floats)[0]) == 8


@st.composite
def exact_subjects(draw):
    """An exact `run_process` subject and an ordering (or None): a non-negative
    matrix with zeros at n = 0..10, whose pivots before the last stay
    nonzero; a Gram matrix of a signed factor, whose zero columns, when it
    has some, make pivots that are skipped; or p/q entries in 10..99 at
    n = 12..14."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    build = draw(st.sampled_from(["zeros", "gram", "long"]))
    n = draw(st.integers(*{"zeros": (0, 10), "gram": (2, 10), "long": (12, 14)}[build]))
    ordering = draw(st.none() | st.permutations(range(1, n + 1)))
    if build == "zeros":
        m = sparse_rational(rng, n, zero_share=draw(st.sampled_from([0, 0.3, 0.7])))
        rows = abs(m.entries) + np.eye(n, dtype=int) * Fraction(1, 3)
        if n and draw(st.booleans()):  # the entry processed last may be 0, and so its pivot
            last = (ordering or [n])[-1] - 1
            rows[last, last] = 0
        return Matrix(rows, RATIONAL), ordering
    if build == "gram":
        if draw(st.booleans()):
            return rank_deficient_gram(rng, n), ordering
        return gram_from_factor(sparse_rational(rng, n, zero_share=0)), ordering
    return positive_rational(rng, n), ordering


@settings(max_examples=120, deadline=None)
@given(exact_subjects())
def test_exact_bound_is_the_product_of_the_reduced_pivots(case):
    subject, ordering = case
    trace = run_process(subject, ordering=ordering)
    pivots = trace.pivots
    assert all(type(p) is Fraction and p.denominator > 0
               and math.gcd(p.numerator, p.denominator) == 1 for p in pivots)
    # Fractions compare by numerator and denominator, so this also says the bound is reduced
    assert type(trace.bound) is Fraction and trace.bound == math.prod(pivots, start=Fraction(1))


def test_exact_run_reduces_no_pivot_until_they_are_read(monkeypatch):
    m = positive_rational(random.Random(1200), 10)
    built = []
    monkeypatch.setattr(matcore, "Fraction", lambda *args: built.append(args) or Fraction(*args))
    trace = run_process(m)
    assert "pivots" not in trace.__dict__
    assert len(built) == 1  # the bound's one Fraction
    assert trace.pivots is trace.pivots and "pivots" in trace.__dict__


def growth_guard_subjects():
    """Seeded exact subjects: p/q in 10..99 at n = 14, p/q in 1..6 at n = 12..16,
    a unit-diagonal dominant matrix at n = 14, and a Gram matrix whose
    factor's zero column makes a pivot that is skipped."""
    rng = random.Random(1330)
    yield positive_rational(rng, 14)
    for n in range(12, 17):
        yield positive_rational(rng, n, 1, 6)
    yield Matrix([[Fraction(1) if i == j else Fraction(rng.randint(12, 16), 128 * 14)
                   for j in range(14)] for i in range(14)], RATIONAL)
    factor = [[Fraction(0) if j == 4 else Fraction(rng.randint(-6, 6), rng.randint(1, 3))
               for j in range(12)] for _ in range(12)]
    yield gram_from_factor(Matrix(factor, RATIONAL))


def test_skipped_gcds_leave_the_values_and_grow_the_last_pivot_by_under_one_percent():
    # the kernel takes no gcd at its last two reducing steps; a factor a row keeps
    # there reaches at most two steps, so the last integer pivot barely grows
    # (at most 0.93% here), where taking no gcd at all grows it by 7% to 250%
    for subject in growth_guard_subjects():
        psd = isinstance(subject, GramMatrix)
        want = exact_sweep_reducing_every_step(subject.gram if psd else subject, skip_zero=psd)
        trace = run_process(subject)
        assert trace.pivots == reduced(want)
        assert trace.bound == math.prod(reduced(want), start=Fraction(1))
        if psd:
            assert 0 in trace.pivots[:-1]
        assert trace._pivots[-1][0].bit_length() <= 1.01 * want[-1][0].bit_length()


# ---- the float sweep in panels of matcore.PANEL pivots ----------------------------


def record_panel_routes(monkeypatch):
    """The route each finished panel took, in order: "products" or "steps"."""
    routes = []
    panel_product = matcore._panel_product

    def spy(*args):
        product = panel_product(*args)
        routes.append("steps" if product is None else "products")
        return product

    monkeypatch.setattr(matcore, "_panel_product", spy)
    return routes


def assert_close(got, want, rel=1e-12):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=rel, abs=0.0)


@pytest.mark.parametrize("n", [65, 127, 128, 129, 200])
def test_blocked_float_process_matches_the_per_step_sweep(monkeypatch, n):
    routes = record_panel_routes(monkeypatch)
    rows = positive_floats(random.Random(980 + n), n)
    trace = run_process(Matrix(rows, FLOAT64))
    pivots, _ = numpy_sweep(rows, psd_mode=False, keep=False)
    assert routes == ["products"] * ((n - 1) // matcore.PANEL)  # every panel but the last
    assert_close(trace.pivots, pivots)
    assert bits(trace.pivots[:matcore.PANEL]) == bits(pivots[:matcore.PANEL])
    # the bound overflows float64 here, so compare its logarithm
    assert math.fsum(map(math.log, trace.pivots)) == pytest.approx(
        math.fsum(map(math.log, pivots)), rel=1e-12)


def test_blocked_float_process_keeps_the_per_step_bits_with_snapshots(monkeypatch):
    routes = record_panel_routes(monkeypatch)
    rows = positive_floats(random.Random(990), 100)
    trace = run_process(Matrix(rows, FLOAT64))
    plain = run_process(Matrix(rows, FLOAT64))
    _, snaps = numpy_sweep(rows, psd_mode=False, keep=True)
    # the pivots and the bound come from the panelled sweep, as without snapshots;
    # the snapshots from a second sweep in one panel of width n, which ends in no product
    assert routes == ["products", "products"]
    assert bits(trace.pivots) == bits(plain.pivots) and bits([trace.bound]) == bits([plain.bound])
    assert len(trace.snapshots) == len(snaps) == 100
    for got, want in zip(trace.snapshots, snaps):
        assert (got.entries.view(np.uint64) == np.array(want).view(np.uint64)).all()


def test_blocked_float_gram_process_skips_the_zero_pivots(monkeypatch):
    routes = record_panel_routes(monkeypatch)
    rng = random.Random(1000)
    n = 80
    zero_cols = set(rng.sample(range(n), 10))
    assert min(zero_cols) < matcore.PANEL
    factor = [[0.0 if j in zero_cols else float(rng.randint(-6, 6)) for j in range(n)]
              for _ in range(n)]
    g = gram_from_factor(Matrix(factor, FLOAT64))
    got = run_process(g).pivots
    want, _ = numpy_sweep(g.gram.entries, True, False)
    assert routes == []  # a skipped pivot in the first panel ends the panels: the plain loop
    assert all(map(math.isfinite, got))
    assert [t for t, p in enumerate(got) if p == 0] == [t for t, p in enumerate(want) if p == 0]
    assert sorted(t for t, p in enumerate(got) if p == 0) == sorted(zero_cols)
    assert bits(got) == bits(want)


def span_rows(seed, n=80):
    """Rows 10^s_i times uniform(1, 2), s_i in [-300, 90] and s = 180 on the last row.

    No product a_{i,t} a_{t,j} overflows, but a_{n,t} / a_{t,t} does
    wherever s_t is below about -128.
    """
    rng = random.Random(seed)
    s = [rng.uniform(-300, 90) for _ in range(n - 1)] + [180]
    return [[10.0 ** s[i] * rng.uniform(1, 2) for _ in range(n)] for i in range(n)]


def unguarded_borders(a, k0, k1, den):
    """`matcore._panel_borders` without its guard: X = A21 (I - N)^-1 and Y = (I - M)^-1 A12."""
    d = np.array(den)[:, None]
    eye = np.eye(k1 - k0)
    square = a[k0:k1, k0:k1]
    upper = np.linalg.inv(eye - np.triu(square, 1) / d)
    lower_t = np.linalg.inv(eye - np.triu(square.T, 1) / d)
    return a[k1:, k0:k1] @ upper, lower_t.T @ a[k0:k1, k1:]


def test_guarded_panel_keeps_the_per_step_bits(monkeypatch):
    routes = record_panel_routes(monkeypatch)
    rows = span_rows(1020)
    got, _, _ = eliminate(Matrix(rows, FLOAT64))
    want, _ = numpy_sweep(rows, psd_mode=False, keep=False)
    assert routes == ["steps"]
    assert bits(got) == bits(want)
    assert all(map(math.isfinite, got))
    # the products themselves would have carried the overflow of L into the last pivot
    monkeypatch.setattr(matcore, "_panel_borders", unguarded_borders)
    monkeypatch.setattr(matcore, "_product_fits", lambda *args: True)
    assert not math.isfinite(eliminate(Matrix(rows, FLOAT64))[0][-1])
    assert routes == ["steps", "products"]


def test_panel_whose_column_times_its_rows_overflows_takes_the_steps(monkeypatch):
    # a_{i,1} = 1e200 below the first panel (with a_{1,1} = 1e200 and row 1
    # zero right of it, so L stays near 1) and a_{2,j} ~ 1e120 right of it:
    # max|col| max|U| overflows, though L U and every step's product fit
    rng = random.Random(1040)
    n = 80
    rows = [[rng.uniform(1, 2) + (n if i == j else 0) for j in range(n)] for i in range(n)]
    rows[0] = [1e200] + [0.0] * (n - 1)
    for k in range(matcore.PANEL, n):
        rows[k][0] *= 1e200
        rows[1][k] *= 1e120
    routes = record_panel_routes(monkeypatch)
    got, _, _ = eliminate(Matrix(rows, FLOAT64))
    want, _ = numpy_sweep(rows, psd_mode=False, keep=False)
    assert routes == ["steps"]
    assert bits(got) == bits(want)
    assert all(map(math.isfinite, got))


@pytest.mark.parametrize("build", ["span", "dense"])
def test_blocked_sweep_keeps_the_bound_exit_on_extreme_inputs(monkeypatch, tmp_path, capsys, build):
    if build == "span":
        rows = span_rows(1030)
    else:  # max|L| max|U| PANEL overflows: the guard takes the steps one at a time
        rng = random.Random(1031)
        rows = [[rng.uniform(1, 2) * 1e306 for _ in range(80)] for _ in range(80)]
    path = tmp_path / f"{build}.csv"
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows))
    routes = record_panel_routes(monkeypatch)
    code = main(["bound", str(path)])
    out, err = capsys.readouterr()
    assert routes == ["steps"]
    if build == "span":  # the per-step pivots' product underflows, as before
        assert (code, err) == (0, "")
        assert json.loads(out)["process_bound"] == repr(math.prod(numpy_sweep(rows, False, False)[0]))
    else:  # the per-step sweep overflows, as before
        assert (code, json.loads(err)["error"]["type"]) == (3, "NonFinite")


# ---- the panel's end: border strips by two unit-triangular products ------------


def gram_with_zero_columns(seed, n, zero_cols):
    rng = random.Random(seed)
    factor = [[0.0 if j in zero_cols else float(rng.randint(-6, 6)) for j in range(n)]
              for _ in range(n)]
    return gram_from_factor(Matrix(factor, FLOAT64))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_panels_with_zero_gram_pivots_match_the_per_step_sweep(monkeypatch, seed):
    # zero pivots at the last step of the first panel, the first of the second,
    # and inside the second and third panels
    rng = random.Random(1100 + seed)
    n = 200
    zero_cols = {63, 64, *rng.sample(range(65, 128), 3), *rng.sample(range(128, 192), 3)}
    g = gram_with_zero_columns(1110 + seed, n, zero_cols)
    routes = record_panel_routes(monkeypatch)
    got = run_process(g).pivots
    want, _ = numpy_sweep(g.gram.entries, True, False)
    assert routes == []  # the skipped pivot 63 ends the panels: the plain loop
    assert [t for t, p in enumerate(got) if p == 0] == sorted(zero_cols)
    assert [t for t, p in enumerate(want) if p == 0] == sorted(zero_cols)
    assert bits(got) == bits(want)


def test_signed_gram_sweep_takes_the_products(monkeypatch):
    # a factor with no zero column: no pivot is skipped, and the panels' N and M
    # hold entries of both signs
    rng = random.Random(1160)
    n = 200
    factor = [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)]
    g = gram_from_factor(Matrix(factor, FLOAT64))
    assert (g.gram.entries < 0).sum() > n * n // 3
    routes = record_panel_routes(monkeypatch)
    got = run_process(g).pivots
    want, _ = numpy_sweep(g.gram.entries, True, False)
    assert routes == ["products"] * 3
    assert bits(got[:matcore.PANEL]) == bits(want[:matcore.PANEL])
    assert_close(got, want)


def border_only_gram_row(n=130, t=70, s=65):
    """Rows whose pivot t + 1 is zero with the row right of it zero until step s + 1,
    which makes it nonzero only right of the panel of t (columns 128 on).

    Column t is zero; row t is zero but for a_{t,s} = 1; row s is zero but
    for its diagonal and the columns right of the panel.
    """
    rng = random.Random(1120)
    rows = [[rng.uniform(1, 2) + (n if i == j else 0) for j in range(n)] for i in range(n)]
    for i in range(n):
        rows[i][t] = 0.0
    rows[t] = [0.0] * n
    rows[t][s] = 1.0
    rows[s] = [0.0] * s + [rows[s][s]] + [0.0] * (127 - s) + rows[s][128:]
    return rows


@pytest.mark.parametrize("side", ["row", "column"])
def test_zero_pivot_reads_its_border_after_the_panel_steps(side):
    # the row (or, transposed, the column) of pivot 71 is zero where the panel
    # found it right of (below) the panel, and nonzero there after step 66
    rows = border_only_gram_row()
    if side == "column":
        rows = [list(r) for r in zip(*rows)]
    m = Matrix(rows, FLOAT64)
    bogus = GramMatrix(factor=m, gram=m)
    want = ("InvalidGram", "zero pivot with nonzero row/column at step 71")
    assert outcome(numpy_sweep, m.entries, True, False) == want
    assert outcome(run_process, bogus) == want
    assert outcome(eliminate, m, skip_zero=True) == want


def test_dense_uniform_sweep_at_256_matches_the_per_step_sweep(monkeypatch):
    rng = random.Random(1140)
    n = 256
    rows = [[rng.uniform(0.001, 0.999) for _ in range(n)] for _ in range(n)]
    routes = record_panel_routes(monkeypatch)
    got = run_process(Matrix(rows, FLOAT64)).pivots
    want, _ = numpy_sweep(rows, psd_mode=False, keep=False)
    assert routes == ["products"] * 3
    assert max(got) > 2.0 ** 250  # the pivots grow about twofold per step
    assert bits(got[:matcore.PANEL]) == bits(want[:matcore.PANEL])
    assert_close(got, want)


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    """perfbench/workloads.py, loaded by path and only read."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def benchmark_matrix(workloads, kind, label, seed, n):
    """An input of bound-float-large, made and read as its requests are."""
    rng = workloads._rng("bound-float-large", seed, label)
    rows = {"dd": lambda: workloads._dominant_rows(rng, n),
            "exp": lambda: workloads._exp_rows(n),
            "dense": lambda: workloads._dense_rows(rng, n)}[kind]()
    text = "".join(",".join(row) + "\n" for row in rows)
    return parse_csv_text(text, label, lambda n: FLOAT64).matrix


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind, label", [("dd", "dd-a-256"), ("exp", "exp-a-256"),
                                         ("dense", "dense-256")])
def test_benchmark_float_inputs_take_the_products_at_256(monkeypatch, workloads, kind, label, seed):
    m = benchmark_matrix(workloads, kind, label, seed, 256)
    routes = record_panel_routes(monkeypatch)
    run_process(m)
    assert routes == ["products"] * 3


# exp at n = 512 is left out: most of its panels take the steps (see sweep_timing's exp-csv row)
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind, label", [("dd", "dd-512"), ("dense", "dense-512")])
def test_benchmark_float_inputs_take_the_products_at_512(monkeypatch, workloads, kind, label, seed):
    m = benchmark_matrix(workloads, kind, label, seed, 512)
    routes = record_panel_routes(monkeypatch)
    run_process(m)
    assert routes == ["products"] * 7


@pytest.mark.parametrize("build", ["uniform", "span", "dense-1e306", "gram"])
def test_blocked_sweep_raises_no_runtime_warning(build):
    rng = random.Random(1150)
    n, skip_zero = 150, False
    if build == "uniform":
        m = Matrix(positive_floats(rng, n), FLOAT64)
    elif build == "span":  # the guard refuses the panel
        m = Matrix(span_rows(1151, n), FLOAT64)
    elif build == "dense-1e306":  # the panel's own steps overflow
        m = Matrix([[rng.uniform(1, 2) * 1e306 for _ in range(n)] for _ in range(n)], FLOAT64)
    else:
        m, skip_zero = gram_with_zero_columns(1152, n, {3, 63, 64, 100}).gram, True
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eliminate(m, skip_zero=skip_zero)


def underflow_rows(build):
    """65 x 65 identity but for a cycle 1 -> 2 (-> 3) -> 65 -> 1 whose product equals
    that of the diagonal, so per is twice the diagonal's product and the
    last pivot twice a_{65,65}.

    In "ratio" the panel's ratio a_{1,2} / a_{1,1} = 1e-330 rounds to 0; in
    "chain" each ratio is 1e-200, but their product in (I - N)^-1 is 1e-400.
    The steps carry a_{65,1} along the cycle and keep the term.
    """
    a = np.eye(65)
    if build == "ratio":
        a[0, 0], a[0, 1], a[1, 64], a[64, 0], a[64, 64] = 1e170, 1e-160, 1.0, 1e130, 1e-200
    else:
        a[0, 1], a[1, 2], a[2, 64], a[64, 0], a[64, 64] = 1e-200, 1e-200, 1.0, 1e300, 1e-100
    return a.tolist()


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("build", ["ratio", "chain"])
def test_panel_whose_border_terms_underflow_takes_the_steps(monkeypatch, build, transpose):
    rows = underflow_rows(build)
    if transpose:  # the same cycle through the row strip and M
        rows = [list(r) for r in zip(*rows)]
    routes = record_panel_routes(monkeypatch)
    got, _, _ = eliminate(Matrix(rows, FLOAT64))
    want, _ = numpy_sweep(rows, psd_mode=False, keep=False)
    assert routes == ["steps"]  # `_panel_borders` refuses the panel
    assert want[-1] == pytest.approx(2 * rows[64][64], rel=1e-12)
    assert bits(got) == bits(want)


@pytest.mark.parametrize("build, per", [("ratio", Fraction(2, 10 ** 30)),
                                        ("chain", Fraction(2, 10 ** 100))])
def test_float_bound_keeps_the_underflowing_border_term(tmp_path, capsys, build, per):
    path = tmp_path / f"{build}.csv"
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in underflow_rows(build)))
    bounds = {}
    for arithmetic in ("float", "rational"):
        assert main(["bound", str(path), "--arithmetic", arithmetic]) == 0
        bounds[arithmetic] = Fraction(json.loads(capsys.readouterr().out)["process_bound"])
    assert bounds["rational"] == per  # the process bound is exact here
    assert bounds["float"] >= per * (1 - Fraction(1, 10 ** 12))
