"""Matrix file parsing and serialization round trips."""

import random
from fractions import Fraction

import pytest

from permbound import (
    FLOAT64,
    GramMatrix,
    Matrix,
    ParseError,
    RATIONAL,
    as_subject,
    matrix,
    ones,
    parse_csv_text,
    parse_json_text,
    parse_matrix_file,
    serialize_csv,
    serialize_json,
    to_kind,
)
from permbound.matio import ParsedMatrix
from randmat import nonneg_matrix


def test_csv_round_trip():
    rng = random.Random(81)
    for _ in range(10):
        m = nonneg_matrix(rng, rng.randint(1, 5))
        parsed = parse_csv_text(serialize_csv(m), "t")
        assert parsed.matrix == m
        assert parsed.kind_tag == "nonneg"


def test_csv_accepts_fractions_and_spaces():
    parsed = parse_csv_text("1, 1/2\n2/4 ,1\n", "t")
    assert parsed.matrix.entries == ((1, Fraction(1, 2)), (Fraction(1, 2), 1))


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
    text = serialize_json(ParsedMatrix("j", "nonneg", m))
    parsed = parse_json_text(text, "j")
    assert parsed.matrix == m
    assert parsed.factor is None


def test_json_round_trip_gram():
    factor = matrix([[1, 1, 0], [0, 1, 1]])
    from permbound import gram_from_factor

    g = gram_from_factor(factor)
    text = serialize_json(ParsedMatrix("g", "gram", g.gram, factor=factor))
    parsed = parse_json_text(text, "g")
    assert parsed.kind_tag == "gram"
    assert parsed.matrix == g.gram
    assert parsed.factor == factor


def test_json_gram_cross_check():
    bad = '{"n": 2, "kind": "gram", "entries": [["1","0"],["0","1"]], "factor": [["2","0"],["0","2"]]}'
    with pytest.raises(ParseError):
        parse_json_text(bad, "g")


def test_json_flat_entries_and_validation():
    parsed = parse_json_text('{"n": 2, "entries": ["1", "2", "3", "4"]}', "j")
    assert parsed.matrix.entries == ((1, 2), (3, 4))
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


@pytest.mark.parametrize("literal, value", [
    ("0.10000000000000000001", Fraction(10**19 + 1, 10**20)),
    ("1e-400", Fraction(1, 10**400)),
    ("1e400", Fraction(10**400)),
])
def test_json_numbers_parse_exactly_like_strings(literal, value):
    as_number = parse_json_text(f'{{"n": 1, "entries": [[{literal}]]}}', "j")
    as_string = parse_json_text(f'{{"n": 1, "entries": [["{literal}"]]}}', "j")
    assert as_number.matrix.entries == as_string.matrix.entries == ((value,),)


def test_parse_matrix_file_dispatch(tmp_path):
    csv_path = tmp_path / "m.csv"
    csv_path.write_text("1,2\n3,4\n")
    assert parse_matrix_file(csv_path).matrix_id == "m"
    json_path = tmp_path / "m.json"
    json_path.write_text('{"n": 1, "entries": [["5"]]}')
    assert parse_matrix_file(json_path).matrix.entries == ((5,),)
    bare = tmp_path / "noext"
    bare.write_text('{"n": 1, "entries": [["5"]]}')
    assert parse_matrix_file(bare).matrix.entries == ((5,),)
    with pytest.raises(ParseError):
        parse_matrix_file(tmp_path / "missing.csv")


def test_to_kind_conversions():
    m = matrix([[1, Fraction(1, 2)], [0, 2]])
    f = to_kind(m, FLOAT64)
    assert f.kind == FLOAT64
    assert f.entries == ((1.0, 0.5), (0.0, 2.0))
    assert to_kind(m, RATIONAL) is m
    with pytest.raises(ParseError):
        to_kind(f, RATIONAL)


def test_as_subject_builds_gram_or_matrix():
    factor = matrix([[1, 1], [1, 0]])
    from permbound import gram_from_factor

    g = gram_from_factor(factor)
    parsed = ParsedMatrix("g", "gram", g.gram, factor=factor)
    subject = as_subject(parsed, RATIONAL)
    assert isinstance(subject, GramMatrix)
    assert subject.gram == g.gram
    plain = as_subject(ParsedMatrix("m", "nonneg", ones(2)), FLOAT64)
    assert isinstance(plain, Matrix)
    assert plain.kind == FLOAT64


def test_majorant_field_round_trip():
    a = ones(2)
    from permbound import solve_majorant

    b = solve_majorant(a)
    text = serialize_json(ParsedMatrix("m", "nonneg", a, majorant=b))
    parsed = parse_json_text(text, "m")
    assert parsed.majorant == b
