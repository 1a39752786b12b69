"""Matrix file parsing for the CLI, and the entry strings its reports print.

Two formats:

* csv: rows of comma-separated decimal or rational ("p/q") literals.
* json: {"n": int, "entries": row-major (flat or nested) array,
  "kind": "nonneg" | "gram", "factor": optional d x n array,
  "majorant": optional n x n array}.  A parsed input is a Gram input
  exactly when it carries a factor.

JSON files, and CSV files read without a kind, are parsed exactly
(decimals become exact decimal fractions) and converted to float64 by
`to_kind` when float arithmetic is requested, so the rational pipeline never
sees binary rounding.  A CSV file read for float64 rounds each cell once
straight from its literal: numpy's C tokenizer reads short literals, and a
table that converts each distinct literal once reads long repeated ones,
row by row; each distinct literal that reads as +-0 or non-finite is
re-read exactly once, and a file with a "p/q" cell is read exactly.  Every
route ends in the one rule `to_float64`, so a nonzero value below the
float64 range stays nonzero and one past it is NonFinite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import NonFinite, ParseError
from .matcore import Matrix, matmul, transpose
from .psd import GramMatrix, gram_from_factor
from .scalars import FLOAT64, RATIONAL, coerce, format_scalar, to_float64


@dataclass(frozen=True)
class ParsedMatrix:
    """A parsed input: the matrix and its optional extras; a Gram input is one with a factor."""

    matrix_id: str
    matrix: Matrix                    # rational, or float64 for a CSV read as float
    factor: Matrix | None = None      # present iff the JSON "kind" is "gram"
    majorant: Matrix | None = None


_BOM = "\ufeff"  # a leading byte-order mark, as Excel's "CSV UTF-8" writes, is not data


def _parse_cell(text) -> Fraction:
    try:
        return coerce(str(text).strip(), RATIONAL)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad numeric literal {text!r}") from exc


def _parse_rows(rows, what: str) -> list[list]:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ParseError(f"{what} must be an array of arrays")
    if not rows:
        raise ParseError(f"{what} is empty")
    parsed = [[_parse_cell(c) for c in row] for row in rows]
    widths = {len(r) for r in parsed}
    if len(widths) != 1:
        raise ParseError(f"{what} has ragged rows")
    return parsed


def _rows_to_matrix(rows, what: str) -> Matrix:
    return Matrix(_parse_rows(rows, what), RATIONAL)


def parse_csv_text(
    text: str, matrix_id: str = "stdin", pick_kind: Callable[[int], str] | None = None
) -> ParsedMatrix:
    """Parse CSV rows; pick_kind(n), given the row count n, names the cells' kind.

    Without pick_kind the cells are exact.  Read as float64 (`_float_cells`),
    only the rows that hold a cell read as +-0 or non-finite are split again,
    to re-read those cells exactly; a file that neither route reads (a "p/q"
    cell, a bad literal, ragged rows), or that holds a "_", is read exactly,
    so every bad literal and shape error is raised before an entry outside
    the float64 range.  A leading byte-order mark is skipped.
    """
    text = text.removeprefix(_BOM)
    lines = [line for line in text.strip().splitlines() if line.strip()]
    kind = RATIONAL if pick_kind is None else pick_kind(len(lines))
    # float() takes digit-group underscores ("1_000") on every Python,
    # Fraction only from 3.11, so such a file is read exactly
    if kind == FLOAT64 and lines and "_" not in text:
        try:
            cells = _float_cells(lines)
        except ValueError:  # a p/q cell, a bad literal or ragged rows: read exactly
            pass
        else:
            # -0, below the range, past it, inf or nan: re-read each distinct literal exactly
            odd = (cells == 0) | ~np.isfinite(cells)
            split = {i: lines[i].split(",") for i in np.flatnonzero(odd.any(axis=1)).tolist()}
            literals = [split[i][j] for i, j in np.argwhere(odd).tolist()]
            exact = {cell: _parse_cell(cell) for cell in dict.fromkeys(literals)}
            _require_square(*cells.shape)
            rounded = {cell: to_float64(x) for cell, x in exact.items()}
            cells[odd] = [rounded[cell] for cell in literals]
            return ParsedMatrix(matrix_id, Matrix(cells, kind))
    parsed = _parse_rows([line.split(",") for line in lines], "csv matrix")
    _require_square(len(parsed), len(parsed[0]))
    return ParsedMatrix(matrix_id, to_kind(Matrix(parsed, RATIONAL), kind))


# numpy's tokenizer slows threefold past about 16 significant digits, where a
# table of the distinct literals of a file like the exp family's stays fast
_LONG_LITERAL = 16
_MAX_DISTINCT_SHARE = 1 / 16  # past it a table costs more than the float() calls it saves


def _float_cells(lines: list[str]) -> np.ndarray:
    """float() of each cell, one rounding each; ValueError on a bad literal or ragged rows.

    numpy's C tokenizer reads a file whose first line's cells average at most
    _LONG_LITERAL characters; a table converts each distinct longer literal
    once and fills the array row by row, until distinct literals pass 1/16
    of the cells and the C tokenizer reads the file after all.
    """
    ncols = lines[0].count(",") + 1
    if len(lines[0]) - (ncols - 1) <= _LONG_LITERAL * ncols:
        return _c_tokenizer(lines)
    limit = _MAX_DISTINCT_SHARE * len(lines) * ncols
    table = _FloatTable()
    cells = np.empty((len(lines), ncols))
    for i, line in enumerate(lines):
        row = line.split(",")
        if len(row) != ncols:
            raise ValueError("ragged rows")
        cells[i] = np.fromiter(map(table.__getitem__, row), np.float64, ncols)
        if len(table) > limit:  # mostly distinct
            return _c_tokenizer(lines)
    return cells


class _FloatTable(dict):
    """float() of each literal, converted on its first lookup."""

    def __missing__(self, cell: str) -> float:
        self[cell] = value = float(cell)
        return value


def _c_tokenizer(lines: list[str]) -> np.ndarray:
    return np.loadtxt(lines, delimiter=",", comments=None, quotechar=None, dtype=np.float64,
                      ndmin=2)


def _require_square(nrows: int, ncols: int):
    if nrows != ncols:
        raise ParseError(f"csv matrix is {nrows}x{ncols}, not square")


def parse_json_text(text: str, matrix_id: str = "stdin") -> ParsedMatrix:
    try:
        doc = json.loads(text.removeprefix(_BOM), parse_float=str)  # keep number literals exact
    except ValueError as exc:  # malformed, or an int literal past Python's digit limit
        raise ParseError(f"invalid json: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("json matrix file must be an object")
    if type(doc.get("n")) is not int or "entries" not in doc:  # not true, 3.0 or "3"
        raise ParseError("json matrix file needs integer 'n' and 'entries'")
    n, entries = doc["n"], doc["entries"]
    if not isinstance(entries, list):
        raise ParseError("json 'entries' must be an array")
    tag = doc.get("kind", "nonneg")
    if tag not in ("nonneg", "gram"):
        raise ParseError(f"unknown matrix kind {tag!r}")
    if entries and isinstance(entries[0], list):
        rows = entries
    else:
        if len(entries) != n * n:
            raise ParseError(f"flat entries length {len(entries)} != n^2 = {n * n}")
        rows = [entries[i * n : (i + 1) * n] for i in range(n)]
    m = _rows_to_matrix(rows, "json matrix")
    if m.nrows != n or not m.is_square:
        raise ParseError(f"declared n = {n} but entries form {m.nrows}x{m.ncols}")
    factor = None
    if tag == "gram":
        if "factor" not in doc:
            raise ParseError("gram kind requires a 'factor' array")
        factor = _rows_to_matrix(doc["factor"], "gram factor")
        if factor.ncols != n:
            raise ParseError(f"factor has {factor.ncols} columns, expected n = {n}")
        if matmul(transpose(factor), factor) != m:
            raise ParseError("entries do not equal factor^T * factor")
    majorant = None
    if "majorant" in doc:
        majorant = _rows_to_matrix(doc["majorant"], "majorant")
        if majorant.nrows != n or not majorant.is_square:
            raise ParseError(f"majorant must be {n}x{n}")
    return ParsedMatrix(matrix_id, m, factor, majorant)


def parse_matrix_file(
    path: str | Path, pick_kind: Callable[[int], str] | None = None
) -> ParsedMatrix:
    """Parse a CSV or JSON matrix file; pick_kind applies to CSV only (see parse_csv_text)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")  # Excel's "CSV UTF-8" starts with a BOM
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if path.suffix.lower() == ".json" or text.lstrip().startswith("{"):
        return parse_json_text(text, path.stem)
    return parse_csv_text(text, path.stem, pick_kind)


def to_kind(m: Matrix, kind: str) -> Matrix:
    if m.kind == kind:
        return m
    if kind == FLOAT64:
        try:
            out = m.entries.astype(np.float64)  # float() of each entry
        except OverflowError as exc:
            raise NonFinite(f"an entry is outside the float64 range: {exc}") from exc
        zeros = out == 0
        out[zeros] = [to_float64(x) for x in m.entries[zeros].tolist()]
        return Matrix(out, kind)
    raise ParseError("cannot losslessly convert float64 entries to rationals")


def as_subject(parsed: ParsedMatrix, kind: str) -> Matrix | GramMatrix:
    """The object handed to the process: a Matrix, or a GramMatrix when there is a factor."""
    if parsed.factor is not None:
        return gram_from_factor(to_kind(parsed.factor, kind))
    return to_kind(parsed.matrix, kind)


def matrix_as_strings(m: Matrix) -> list[list[str]]:
    return [[format_scalar(x, m.kind) for x in row] for row in m.entries.tolist()]

