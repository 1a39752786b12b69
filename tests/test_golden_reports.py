"""Golden reports: the sha256 of stdout for seeded inputs outside the benchmark's mix.

Each case writes a seeded input file, runs one `permbound` command in
process and compares the exit code and the digest of its stdout with the
recorded one.  A change to how matrices are stored or converted must
leave every report byte-identical; a changed digest means some printed
number or snapshot moved.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from permbound import matrix
from permbound.cli import main
from oracles import closed_recursion_by_entry


def _csv(rows) -> str:
    return "".join(",".join(row) + "\n" for row in rows)


def _json_rows(rows) -> str:
    return "[" + ",".join("[" + ",".join(f'"{x}"' for x in row) + "]" for row in rows) + "]"


def dense_float_csv(seed: int, n: int) -> str:
    """Three-decimal entries in [0.001, 0.999], diagonal raised by 1 to 3 so the sweep stays finite."""
    rng = random.Random(seed)
    return _csv(
        [f"{rng.randint(1, 3)}.{rng.randint(1, 999):03d}" if i == j else f"0.{rng.randint(1, 999):03d}"
         for j in range(n)]
        for i in range(n)
    )


def dominant_float_csv(seed: int, n: int) -> str:
    """Diagonal in [1, 3], off-diagonal nine-decimal entries in [0.00005, 0.00009)."""
    rng = random.Random(seed)
    return _csv(
        [str(rng.randint(1, 3)) if i == j else f"0.0000{rng.randint(50000, 89999)}" for j in range(n)]
        for i in range(n)
    )


def rational_csv(seed: int, n: int) -> str:
    """Positive p/q entries with p, q <= 6."""
    rng = random.Random(seed)
    return _csv([f"{rng.randint(1, 6)}/{rng.randint(1, 6)}" for _ in range(n)] for _ in range(n))


def unit_diagonal_csv(seed: int, n: int) -> str:
    """Unit diagonal, off-diagonal entries k/4 with k in 0..4."""
    rng = random.Random(seed)
    return _csv(
        ["1" if i == j else str(Fraction(rng.randint(0, 4), 4)) for j in range(n)] for i in range(n)
    )


def unit_diagonal_majorant_json(seed: int, n: int) -> str:
    """A unit-diagonal input with off-diagonal entries k/4 (k in 0..4), and a passing majorant.

    The majorant solves the majorant recursion with equality for the input
    with every off-diagonal entry raised by 1/4; the diagonals, hence the
    denominators, agree, so it holds the input's inequality with slack.
    """
    rng = random.Random(seed)
    rows = [[Fraction(1) if i == j else Fraction(rng.randint(0, 4), 4) for j in range(n)]
            for i in range(n)]
    raised = matrix([[x if i == j else x + Fraction(1, 4) for j, x in enumerate(row)]
                     for i, row in enumerate(rows)])
    majorant = closed_recursion_by_entry(raised, raised.diagonal()).entries.tolist()
    return f'{{"n": {n}, "entries": {_json_rows(rows)}, "majorant": {_json_rows(majorant)}}}'


def gram_json(seed: int, n: int, d: int) -> str:
    """A Gram input: a d x n factor of entries k/2 (k in -3..3) and its exact V^T V."""
    rng = random.Random(seed)
    factor = [[Fraction(rng.randint(-3, 3), 2) for _ in range(n)] for _ in range(d)]
    gram = [[sum((factor[k][i] * factor[k][j] for k in range(d)), Fraction(0)) for j in range(n)]
            for i in range(n)]
    return (f'{{"n": {n}, "kind": "gram", "entries": {_json_rows(gram)},'
            f' "factor": {_json_rows(factor)}}}')


CASES = {
    "float-snapshots-24": ("m.csv", dense_float_csv(11, 24),
                           ["bound", "{path}", "--arithmetic", "float", "--snapshots"], 0,
                           "68fbc92833932b4997d9e314dcd08e01ec1bef67dbb55feb1b6c3557873e51da"),
    "float-eps-64": ("m.csv", dominant_float_csv(12, 64),
                     ["bound", "{path}", "--arithmetic", "float", "--eps", "1"], 0,
                     "fdfcbbb02432770e00fafca3250dca25cf6dc7dfc3a16167182a125b7c2238e1"),
    "float-gram-6": ("g.json", gram_json(13, 6, 4),
                     ["bound", "{path}", "--arithmetic", "float"], 0,
                     "6cd089782cf22a2880ddb57656e78a6a2a7c1ad54fc2c721fdfd7a6437189fe9"),
    "rational-snapshots-8": ("m.csv", rational_csv(14, 8),
                             ["bound", "{path}", "--snapshots"], 0,
                             "6877497cded39cf2b35e1eb5dc038850cf282d3ffbe722a6a76829c0ccd20808"),
    "family-exp-float": (None, None,
                         ["family", "exp", "n=12", "c=2", "--arithmetic", "float"], 0,
                         "6622d8841b41714b5d3593ee111cc84bc2fed4b74446aeb685d0353f3f3e7c2f"),
    "verify-all-6": ("m.csv", unit_diagonal_csv(15, 6),
                     ["verify", "{path}", "--suite", "all"], 0,
                     "c86292780c313215a1625baf980a92d7e86e50cb4ba71df368ee8026845ca9f4"),
    "verify-all-majorant-5": ("m.json", unit_diagonal_majorant_json(18, 5),
                              ["verify", "{path}", "--suite", "all"], 0,
                              "77890fad9d5ed899d1b272cabc15fe75d674be4de1383480e80f8fc0c142a1c3"),
    "verify-all-8": ("m.csv", unit_diagonal_csv(19, 8),
                     ["verify", "{path}", "--suite", "all"], 0,
                     "c86292780c313215a1625baf980a92d7e86e50cb4ba71df368ee8026845ca9f4"),
    "verify-psd-5": ("g.json", gram_json(16, 5, 3),
                     ["verify", "{path}", "--suite", "psd"], 0,
                     "2a7140970bfc09b916466a0055e04f05d97e112d6098d5a800322dd5391fc373"),
    # n = 7 is past the tensor guard (n <= 5), so this pins its SKIP line
    "verify-psd-7": ("g.json", gram_json(17, 7, 3),
                     ["verify", "{path}", "--suite", "psd"], 0,
                     "de611a53fb308ba48272c1495f383928bffabc9989ed029b1ce058f436e1b261"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_digest_is_unchanged(case, tmp_path, capsys):
    name, text, argv, code, digest = CASES[case]
    path = tmp_path / name if name else None
    if path is not None:
        path.write_text(text)
    assert main([arg.format(path=path) for arg in argv]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
