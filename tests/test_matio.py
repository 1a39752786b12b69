"""Matrix file parsing, and round trips through the test serializers."""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from permbound import (
    FLOAT64,
    GramMatrix,
    Matrix,
    NonFinite,
    ParseError,
    RATIONAL,
    as_subject,
    coerce,
    matrix,
    ones,
    parse_csv_text,
    parse_json_text,
    parse_matrix_file,
    to_kind,
)
from permbound import matio
from permbound.matio import ParsedMatrix
from permbound.scalars import to_float64
from matwrite import serialize_csv, serialize_json
from oracles import parse_csv_float_reference
from randmat import nonneg_matrix


def test_csv_round_trip():
    rng = random.Random(81)
    for _ in range(10):
        m = nonneg_matrix(rng, rng.randint(1, 5))
        parsed = parse_csv_text(serialize_csv(m), "t")
        assert parsed.matrix == m
        assert parsed.factor is None


def test_csv_accepts_fractions_and_spaces():
    parsed = parse_csv_text("1, 1/2\n2/4 ,1\n", "t")
    assert parsed.matrix.entries.tolist() == [[1, Fraction(1, 2)], [Fraction(1, 2), 1]]


def test_csv_rejects_ragged_and_nonsquare():
    with pytest.raises(ParseError):
        parse_csv_text("1,2\n3\n", "t")
    with pytest.raises(ParseError):
        parse_csv_text("1,2,3\n4,5,6\n", "t")
    with pytest.raises(ParseError):
        parse_csv_text("", "t")
    with pytest.raises(ParseError):
        parse_csv_text("1,x\n2,3\n", "t")


def test_json_round_trip_nonneg():
    m = matrix([[1, Fraction(1, 3)], [0, 2]])
    text = serialize_json(ParsedMatrix("j", m))
    parsed = parse_json_text(text, "j")
    assert parsed.matrix == m
    assert parsed.factor is None


def test_json_round_trip_gram():
    factor = matrix([[1, 1, 0], [0, 1, 1]])
    from permbound import gram_from_factor

    g = gram_from_factor(factor)
    text = serialize_json(ParsedMatrix("g", g.gram, factor=factor))
    parsed = parse_json_text(text, "g")
    assert parsed.factor is not None
    assert parsed.matrix == g.gram
    assert parsed.factor == factor


def test_json_gram_cross_check():
    bad = '{"n": 2, "kind": "gram", "entries": [["1","0"],["0","1"]], "factor": [["2","0"],["0","2"]]}'
    with pytest.raises(ParseError):
        parse_json_text(bad, "g")


def test_json_flat_entries_and_validation():
    parsed = parse_json_text('{"n": 2, "entries": ["1", "2", "3", "4"]}', "j")
    assert parsed.matrix.entries.tolist() == [[1, 2], [3, 4]]
    with pytest.raises(ParseError):
        parse_json_text('{"n": 2, "entries": ["1", "2", "3"]}', "j")
    with pytest.raises(ParseError):
        parse_json_text('{"entries": ["1"]}', "j")
    with pytest.raises(ParseError):
        parse_json_text('{"n": 2.9, "entries": [["1","1"],["1","1"]]}', "j")
    with pytest.raises(ParseError):
        parse_json_text('{"n": 2, "kind": "odd", "entries": ["1","2","3","4"]}', "j")
    with pytest.raises(ParseError):
        parse_json_text("not json", "j")
    for non_array in (
        '{"n": 1, "entries": 5}',
        '{"n": 1, "kind": "gram", "entries": [["1"]], "factor": 5}',
        '{"n": 2, "entries": [["1","0"],["0","1"]], "majorant": [1, 2]}',
    ):
        with pytest.raises(ParseError):
            parse_json_text(non_array, "j")


@pytest.mark.parametrize("text, message", [
    ('[["1"]]', "json matrix file must be an object"),
    ('{"n": 2, "entries": [["1","2","3"],["4","5","6"]]}', "declared n = 2 but entries form 2x3"),
    ('{"n": 1, "kind": "gram", "entries": [["1"]]}', "gram kind requires a 'factor' array"),
    ('{"n": 2, "kind": "gram", "entries": [["1","0"],["0","1"]], "factor": [["1"]]}',
     "factor has 1 columns, expected n = 2"),
    ('{"n": 2, "entries": [["1","0"],["0","1"]], "majorant": [["1","1"]]}',
     "majorant must be 2x2"),
], ids=["not-an-object", "n-against-2x3", "gram-without-factor", "factor-columns",
        "majorant-shape"])
def test_json_structure_errors(text, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_json_text(text, "j")


@pytest.mark.parametrize("literal, value", [
    ("0.10000000000000000001", Fraction(10**19 + 1, 10**20)),
    ("1e-400", Fraction(1, 10**400)),
    ("1e400", Fraction(10**400)),
])
def test_json_numbers_parse_exactly_like_strings(literal, value):
    as_number = parse_json_text(f'{{"n": 1, "entries": [[{literal}]]}}', "j")
    as_string = parse_json_text(f'{{"n": 1, "entries": [["{literal}"]]}}', "j")
    assert as_number.matrix.entries.tolist() == as_string.matrix.entries.tolist() == [[value]]


def test_parse_matrix_file_dispatch(tmp_path):
    csv_path = tmp_path / "m.csv"
    csv_path.write_text("1,2\n3,4\n")
    assert parse_matrix_file(csv_path).matrix_id == "m"
    json_path = tmp_path / "m.json"
    json_path.write_text('{"n": 1, "entries": [["5"]]}')
    assert parse_matrix_file(json_path).matrix.entries.tolist() == [[5]]
    bare = tmp_path / "noext"
    bare.write_text('{"n": 1, "entries": [["5"]]}')
    assert parse_matrix_file(bare).matrix.entries.tolist() == [[5]]
    with pytest.raises(ParseError):
        parse_matrix_file(tmp_path / "missing.csv")


def test_to_kind_conversions():
    m = matrix([[1, Fraction(1, 2)], [0, 2]])
    f = to_kind(m, FLOAT64)
    assert f.kind == FLOAT64
    assert f.entries.tolist() == [[1.0, 0.5], [0.0, 2.0]]
    assert to_kind(m, RATIONAL) is m
    with pytest.raises(ParseError):
        to_kind(f, RATIONAL)


def test_as_subject_builds_gram_or_matrix():
    factor = matrix([[1, 1], [1, 0]])
    from permbound import gram_from_factor

    g = gram_from_factor(factor)
    parsed = ParsedMatrix("g", g.gram, factor=factor)
    subject = as_subject(parsed, RATIONAL)
    assert isinstance(subject, GramMatrix)
    assert subject.gram == g.gram
    plain = as_subject(ParsedMatrix("m", ones(2)), FLOAT64)
    assert isinstance(plain, Matrix)
    assert plain.kind == FLOAT64


def test_majorant_field_round_trip():
    a = ones(2)
    from oracles import closed_recursion_by_entry

    b = closed_recursion_by_entry(a, a.diagonal())
    text = serialize_json(ParsedMatrix("m", a, majorant=b))
    parsed = parse_json_text(text, "m")
    assert parsed.majorant == b


def test_parse_matrix_file_without_kind_is_exact(tmp_path):
    # perfbench/run.py checks rational reports against this exact parse
    p = tmp_path / "m.csv"
    p.write_text("0.1,1/3\n2,1e-400\n")
    m = parse_matrix_file(p).matrix
    assert m.kind == RATIONAL
    assert m.entries.tolist() == [[Fraction(1, 10), Fraction(1, 3)], [2, Fraction(1, 10**400)]]


def as_float(text):
    return parse_csv_text(text, "t", lambda n: FLOAT64)


def test_pick_kind_sees_the_row_count(tmp_path):
    seen = []
    p = tmp_path / "m.csv"
    p.write_text("1,2,3\n\n4,5,6\n7,8,9\n")
    m = parse_matrix_file(p, lambda n: seen.append(n) or FLOAT64).matrix
    assert seen == [3]
    assert m.kind == FLOAT64 and m.entries[2].tolist() == [7.0, 8.0, 9.0]
    assert parse_matrix_file(p, lambda n: RATIONAL).matrix.kind == RATIONAL


@pytest.mark.parametrize("literal", ["inf", "-inf", "nan", "NaN", "Infinity", "+infinity"])
def test_float_parse_rejects_non_finite_literals(literal):
    # float() accepts these, Fraction does not; the float parse keeps them errors
    with pytest.raises(ParseError, match="bad numeric literal"):
        as_float(f"1,{literal}\n1,1\n")


def test_float_parse_overflow_is_non_finite():
    with pytest.raises(NonFinite, match="^an entry is outside the float64 range: "):
        as_float("1,1e400\n1,1\n")
    with pytest.raises(NonFinite):
        as_float(f"1,-{10**400}/3\n1,1\n")


def test_float_parse_bad_literal_and_shape_beat_overflow():
    with pytest.raises(ParseError, match="bad numeric literal 'abc'"):
        as_float("1,1e400\n1,abc\n")
    with pytest.raises(ParseError, match="not square"):
        as_float("1,1e400,1\n1,1,1\n")
    with pytest.raises(ParseError, match="ragged"):
        as_float("1,1e400\n1\n")


@pytest.mark.parametrize("literal", ["1e5000", "-2.5E-5000", "1e4295", "1e+4_295"])
def test_exponent_past_the_digit_limit_is_refused_before_it_is_built(literal):
    for kind in (RATIONAL, FLOAT64):
        with pytest.raises(ValueError, match="over 4300 digits"):
            coerce(literal, kind)
    with pytest.raises(ParseError, match="bad numeric literal"):
        parse_csv_text(f"1,{literal}\n1,1\n")
    with pytest.raises(ParseError, match="bad numeric literal"):
        as_float(f"1,{literal}\n1,1\n")
    with pytest.raises(ParseError, match="bad numeric literal"):
        parse_json_text(f'{{"n": 1, "entries": [[{literal.replace("_", "")}]]}}')


def test_coerce_refuses_bools_lists_and_unknown_kinds():
    with pytest.raises(TypeError, match="bool is not a scalar"):
        coerce(True, RATIONAL)
    with pytest.raises(TypeError, match="cannot use list as an exact rational"):
        coerce([1], RATIONAL)
    with pytest.raises(ValueError, match="unknown scalar kind: 'quad'"):
        coerce(1, "quad")


def test_exponent_up_to_the_digit_limit_is_read_exactly():
    assert coerce("1e4294", RATIONAL) == 10 ** 4294
    assert coerce("1e-4293", RATIONAL) == Fraction(1, 10 ** 4293)


def test_json_int_literal_past_the_digit_limit_is_a_parse_error():
    with pytest.raises(ParseError, match="invalid json"):
        parse_json_text('{"n": 1, "entries": [[' + "7" * 5000 + "]]}")


def test_float_parse_negative_zero_reads_as_zero():
    m = as_float("1,-0\n-0.0e5,2\n").matrix
    assert m.entries.tolist() == [[1.0, 0.0], [0.0, 2.0]]
    assert all(math.copysign(1.0, x) == 1.0 for row in m.entries for x in row)


@pytest.mark.parametrize("literal", ["1_000", "1_000.5", "1e1_0", "1__0", "_1", "1_"])
def test_float_parse_takes_underscores_as_the_exact_parse_does(literal):
    # float() takes digit-group underscores on every Python, Fraction only from 3.11
    text = f"{literal},1\n1,1\n"
    try:
        rounded = to_kind(parse_csv_text(text, "t").matrix, FLOAT64)
    except ParseError:
        with pytest.raises(ParseError):
            as_float(text)
        return
    assert as_float(text).matrix == rounded


def _digits(draw, lo, hi):
    return "".join(draw(st.lists(st.sampled_from("0123456789"), min_size=lo, max_size=hi)))


@st.composite
def numeric_literals(draw):
    """Decimal, exponent and p/q literals, with 20+ digit and tiny cases."""
    sign = draw(st.sampled_from(["", "-", "+"]))
    form = draw(st.sampled_from(["int", "dec", "exp", "pq", "tiny"]))
    if form == "int":
        return sign + _digits(draw, 1, 25)
    if form == "dec":
        return sign + _digits(draw, 0, 12) + "." + _digits(draw, 1, 25)
    if form == "exp":
        exp = draw(st.integers(-340, 320))
        return f"{sign}{_digits(draw, 1, 3)}.{_digits(draw, 0, 22)}e{exp}"
    if form == "pq":
        return f"{sign}{_digits(draw, 1, 22)}/{draw(st.integers(1, 10**22))}"
    # around and below the smallest subnormal, 4.9e-324
    return f"{sign}{_digits(draw, 1, 20)}e{draw(st.integers(-345, -300))}"


@settings(max_examples=200, deadline=None)
@given(st.lists(numeric_literals(), min_size=1, max_size=9))
def test_float_parse_equals_rounding_the_exact_parse(cells):
    n = math.isqrt(len(cells))
    grid = [cells[i * n:(i + 1) * n] for i in range(n)]
    text = "\n".join(map(",".join, grid)) + "\n"
    try:
        rounded = to_kind(parse_csv_text(text, "t").matrix, FLOAT64)
    except NonFinite:
        with pytest.raises(NonFinite):
            as_float(text)
        with pytest.raises(NonFinite):
            matrix(grid, FLOAT64)
        return
    # repr tells 0.0 from -0.0, which == does not
    want = [[repr(x) for x in row] for row in rounded.entries.tolist()]
    for direct in (as_float(text).matrix, matrix(grid, FLOAT64)):
        assert direct.kind == FLOAT64
        assert [[repr(x) for x in row] for row in direct.entries.tolist()] == want


def test_float_csv_with_a_pq_cell_is_its_exact_parse_rounded():
    text = "0.1,1/3,1e-400\n-0,2.5,0.3\n1e308,7,-1e-330\n"
    exact = parse_csv_text(text, "t").matrix.entries.tolist()
    got = as_float(text).matrix.entries.tolist()
    assert [[x.hex() for x in row] for row in got] == [
        [to_float64(x).hex() for x in row] for row in exact
    ]
    assert got[0] == [0.1, 1 / 3, 5e-324] and got[2][2] == -5e-324


def test_float_parse_reads_only_zero_cells_exactly(monkeypatch):
    calls = []
    exact = matio._parse_cell
    monkeypatch.setattr(matio, "_parse_cell", lambda text: calls.append(text) or exact(text))
    m = as_float("0,0.5,0.25\n0.5,-0,1\n0.25,1,-1e-400\n").matrix
    assert calls == ["0", "-0", "-1e-400"]
    assert [[repr(x) for x in row] for row in m.entries.tolist()] == [
        ["0.0", "0.5", "0.25"], ["0.5", "0.0", "1.0"], ["0.25", "1.0", "-5e-324"]
    ]


# 16 x 16 cells take the distinct-literal table with up to 16 distinct literals
TABLE_SIDE = 16


def tiled(literals, nrows=TABLE_SIDE, ncols=TABLE_SIDE):
    """An nrows x ncols CSV whose cell (i, j) is literals[(i + j) % len(literals)]."""
    return "".join(
        ",".join(literals[(i + j) % len(literals)] for j in range(ncols)) + "\n"
        for i in range(nrows)
    )


# 24 characters each, past the mean cell length of 16 that the C tokenizer takes
LONG_LITERALS = [f"0.{k:02d}00000000000000000001" for k in range(1, TABLE_SIDE + 2)]


def test_table_route_converts_each_distinct_literal_once(monkeypatch):
    converted, tokenized = [], []
    monkeypatch.setattr(matio, "float", lambda s: converted.append(s) or float(s), raising=False)
    c_tokenizer = matio._c_tokenizer
    monkeypatch.setattr(matio, "_c_tokenizer",
                        lambda lines: tokenized.append(len(lines)) or c_tokenizer(lines))
    # short literals: the C tokenizer reads them all, with no float() call
    m = as_float(tiled(["0.5", "2", "0.25", "4"])).matrix
    assert converted == [] and tokenized == [TABLE_SIDE]
    assert m.entries[1].tolist()[:5] == [2.0, 0.25, 4.0, 0.5, 2.0]
    # long repeated literals: the table converts each distinct one once
    tokenized.clear()
    literals = LONG_LITERALS[:4]
    m = as_float(tiled(literals)).matrix
    assert sorted(converted) == literals and tokenized == []
    assert m.entries[1].tolist()[:5] == [float(literals[k]) for k in (1, 2, 3, 0, 1)]
    # long literals past 1/16 distinct: the C tokenizer reads the whole file
    m = as_float(tiled(LONG_LITERALS)).matrix
    assert tokenized == [TABLE_SIDE]
    assert m.entries[0].tolist() == [float(x) for x in LONG_LITERALS[:TABLE_SIDE]]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(numeric_literals(), st.sampled_from(["abc", "inf", "-nan", "1/0", ""])),
                min_size=1, max_size=TABLE_SIDE))
def test_table_route_equals_rounding_the_exact_parse(literals):
    text = tiled(literals)
    try:
        rounded = to_kind(parse_csv_text(text, "t").matrix, FLOAT64)
    except (NonFinite, ParseError) as exc:
        with pytest.raises(type(exc)) as got:
            as_float(text)
        assert str(got.value) == str(exc)
        return
    got = as_float(text).matrix
    assert got.kind == FLOAT64
    # repr tells 0.0 from -0.0, which == does not
    assert [[repr(x) for x in row] for row in got.entries.tolist()] == [
        [repr(x) for x in row] for row in rounded.entries.tolist()
    ]


def test_table_route_reads_only_zero_cells_exactly(monkeypatch):
    literals = ["0", "0.5", "-0", "1", "-1e-400", "0.25"]
    text = tiled(literals)
    calls = []
    exact = matio._parse_cell
    monkeypatch.setattr(matio, "_parse_cell", lambda text: calls.append(text) or exact(text))
    m = as_float(text).matrix
    assert calls == ["0", "-0", "-1e-400"]  # each distinct zero literal once, first seen first
    want = {"0": "0.0", "0.5": "0.5", "-0": "0.0", "1": "1.0", "-1e-400": "-5e-324", "0.25": "0.25"}
    assert [[repr(x) for x in row] for row in m.entries.tolist()] == [
        [want[literals[(i + j) % len(literals)]] for j in range(TABLE_SIDE)]
        for i in range(TABLE_SIDE)
    ]


BOM = "\ufeff"


SHORT_LITERALS = ["0", "-0", "+0.0", "1", "0.5", "-2.25", "3e-5", "7", "1.", ".5", "0.00007"]
ODD_LITERALS = ["1e-400", "-4e-330", "2.5e-324", "1e400", "-1.8e308", "inf", "-nan", "Infinity"]
BAD_LITERALS = ["abc", "", " ", "1/0", "2/3", "1 2", "#1", '"1"', "1_0", "0x1p3", "1e", "\ufeff1"]
PADS = ["", " ", "\t", "\xa0", "\u2000", "\x1f"]
# str.splitlines splits on each; a stream handed to np.loadtxt would not on the last four
BREAKS = ["\n", "\r\n", "\r", "\x0c", "\u2028", "\x1e", "\x85"]


@st.composite
def long_literals(draw):
    """16 to 28 significant digits, with exponents that reach past both ends of float64."""
    sign = draw(st.sampled_from(["", "-"]))
    mantissa = f"{sign}{draw(st.integers(0, 99))}.{draw(st.integers(10**14, 10**25))}"
    exponent = draw(st.one_of(st.integers(-345, -300), st.integers(-20, 20), st.integers(300, 320)))
    return mantissa + draw(st.sampled_from(["", f"e{exponent}"]))


def _sometimes(draw):
    return draw(st.sampled_from([False, False, False, True]))


@st.composite
def csv_texts(draw):
    """CSV text of short, long, repeated and distinct literals, with odd and bad cells,
    padding, blank lines, odd line breaks, ragged rows and a byte-order mark."""
    literal = st.one_of(long_literals(), numeric_literals(),
                        st.sampled_from(SHORT_LITERALS + ODD_LITERALS))
    long = st.one_of(long_literals(), long_literals(), numeric_literals())
    pool = draw(st.lists(draw(st.sampled_from([literal, long])), min_size=1,
                         max_size=draw(st.sampled_from([2, 4, 40]))))
    nrows = draw(st.integers(1, 14))
    ncols = draw(st.integers(1, 14)) if _sometimes(draw) else nrows
    a, b = draw(st.integers(0, 7)), draw(st.integers(1, 7))
    rows = [[pool[(a * i + b * j) % len(pool)] for j in range(ncols)] for i in range(nrows)]
    spots = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1),
                      st.one_of(literal, st.sampled_from(BAD_LITERALS)))
    for i, j, cell in draw(st.lists(spots, max_size=3 if _sometimes(draw) else 0)):
        rows[i][j] = cell
    left, right = draw(st.sampled_from(PADS)), draw(st.sampled_from(PADS))
    lines = [",".join(left + cell + right if (i + j) % 3 == 0 else cell
                      for j, cell in enumerate(row)) for i, row in enumerate(rows)]
    if _sometimes(draw):  # ragged: a row loses its last cell or gains one
        i = draw(st.integers(0, nrows - 1))
        lines[i] = lines[i].rpartition(",")[0] if draw(st.booleans()) else lines[i] + ",1"
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "\t\xa0"])))
    text = draw(st.sampled_from(BREAKS)).join(lines) + draw(st.sampled_from(["", "\n"]))
    return draw(st.sampled_from(["", BOM])) + text


def _outcome(read, text):
    """The cells' reprs (repr tells 0.0 from -0.0), or the error's type and message."""
    try:
        m = read(text)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return m.kind, [[repr(x) for x in row] for row in m.entries.tolist()]


@settings(max_examples=300, deadline=None)
@given(csv_texts())
def test_float_reader_matches_the_reference_reader(text):
    assert _outcome(lambda t: as_float(t).matrix, text) == _outcome(parse_csv_float_reference, text)


@pytest.mark.parametrize("read", [lambda t: parse_csv_text(t, "t"), as_float],
                         ids=["exact", "float64"])
def test_csv_text_skips_a_leading_byte_order_mark(read):
    assert read(BOM + "1,2\n3,4\n").matrix == read("1,2\n3,4\n").matrix
    with pytest.raises(ParseError, match=re.escape("bad numeric literal '\\ufeff2'")):
        read("1," + BOM + "2\n3,4\n")  # only a leading one is skipped


def test_json_text_skips_a_leading_byte_order_mark():
    doc = '{"n": 2, "entries": [["1", "2"], ["3", "4/5"]]}'
    assert parse_json_text(BOM + doc, "t") == parse_json_text(doc, "t")


def _with_row(text, i, row):
    lines = text.splitlines()
    lines[i] = row
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("text, error, message", [
    (_with_row(tiled(["0.5", "2"]), 7, "0.5,2"), ParseError, "^csv matrix has ragged rows$"),
    (_with_row(tiled(["0.5", "2"]), 7, "0.5," * 15 + "abc"), ParseError,
     "^bad numeric literal 'abc'$"),
    (_with_row(tiled(["0.5", "2"]), 3, "1e400," * 15 + "2") + "0.5,abc\n", ParseError,
     "^bad numeric literal 'abc'$"),
    (tiled(["0.5", "2"], TABLE_SIDE, TABLE_SIDE + 1), ParseError, "^csv matrix is 16x17, not square$"),
    (_with_row(tiled(["0.5", "2"]), 3, "1e400," * 15 + "2"), NonFinite,
     "^an entry is outside the float64 range: "),
])
def test_table_route_keeps_the_error_messages(text, error, message):
    with pytest.raises(error, match=message):
        as_float(text)


LONG_PAIR = LONG_LITERALS[:2]


@pytest.mark.parametrize("text, error, message", [
    (_with_row(tiled(LONG_PAIR), 7, ",".join(LONG_PAIR)), ParseError,
     "^csv matrix has ragged rows$"),
    (_with_row(tiled(LONG_PAIR), 7, ",".join(LONG_PAIR * 8) + ",1"), ParseError,
     "^csv matrix has ragged rows$"),
    (_with_row(tiled(LONG_PAIR), 7, (LONG_PAIR[0] + ",") * 15 + "abc"), ParseError,
     "^bad numeric literal 'abc'$"),
    (tiled(LONG_PAIR, TABLE_SIDE, TABLE_SIDE + 1), ParseError, "^csv matrix is 16x17, not square$"),
    (_with_row(tiled(LONG_PAIR), 3, "1e400," * 15 + LONG_PAIR[0]), NonFinite,
     "^an entry is outside the float64 range: "),
])
def test_long_literal_table_keeps_the_error_messages(text, error, message):
    with pytest.raises(error, match=message):
        as_float(text)


@pytest.mark.parametrize("cell", ["2#3", '"2"', "#", "2 #"])
def test_float_parse_reads_no_comment_or_quote(cell):
    # the C tokenizer is told of no comment or quote character; the exact read has none
    with pytest.raises(ParseError, match=re.escape(f"bad numeric literal {cell!r}")):
        as_float(f"1,{cell}\n3,4\n")


@pytest.mark.parametrize("n", ["true", '"3"', "1.0", "null", "[1]"])
def test_json_n_must_be_a_json_integer(n):
    with pytest.raises(ParseError, match="needs integer 'n'"):
        parse_json_text(f'{{"n": {n}, "entries": [[5]]}}', "j")


def test_to_kind_rounds_each_cell_as_the_per_entry_rule():
    tiny = Fraction(1, 10**400)  # below the float64 range
    cells = [Fraction(1, 10**310), -Fraction(3, 10**320), tiny, -tiny, Fraction(0), -Fraction(0),
             Fraction(-7, 3), Fraction(2**1023) * 3 // 2, 5]
    m = Matrix([cells], RATIONAL)
    got = to_kind(m, FLOAT64).entries.tolist()[0]
    want = [to_float64(x) for x in cells]
    assert [x.hex() for x in got] == [x.hex() for x in want]
    assert got[2:4] == [5e-324, -5e-324]
    assert math.copysign(1, got[4]) == math.copysign(1, got[5]) == 1.0


@pytest.mark.parametrize("cell", [Fraction(10**400), -Fraction(10**309, 3), 10**400])
def test_to_kind_overflow_keeps_the_per_entry_message(cell):
    with pytest.raises(NonFinite) as want:
        to_float64(cell)
    for route in (
        lambda: to_kind(Matrix([[1, cell], [0, 2]], RATIONAL), FLOAT64),
        lambda: coerce(cell, FLOAT64),
    ):
        with pytest.raises(NonFinite) as got:
            route()
        assert str(got.value) == str(want.value)
