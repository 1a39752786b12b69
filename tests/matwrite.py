"""Write matrices back to the CSV and JSON input formats, for round-trip tests."""

import json

from permbound import Matrix, ParsedMatrix
from permbound.matio import matrix_as_strings


def serialize_csv(m: Matrix) -> str:
    return "".join(",".join(row) + "\n" for row in matrix_as_strings(m))


def serialize_json(parsed: ParsedMatrix) -> str:
    doc = {
        "n": parsed.matrix.n,
        "entries": matrix_as_strings(parsed.matrix),
        "kind": "nonneg" if parsed.factor is None else "gram",
    }
    if parsed.factor is not None:
        doc["factor"] = matrix_as_strings(parsed.factor)
    if parsed.majorant is not None:
        doc["majorant"] = matrix_as_strings(parsed.majorant)
    return json.dumps(doc, sort_keys=True)
