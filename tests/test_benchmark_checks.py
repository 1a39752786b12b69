"""The benchmark's report checkers still run on this package's reports.

`perfbench/checks.check_rational_report` recomputes `recursive_u` on the
parsed input and reads its diagonal through `.entries`, so a change to how
`Matrix` stores its entries can break the benchmark's checker while every
other test passes.  The float checker compares a float report against a
numpy sweep of the CSV parsed with float(), and the family checker against
the matrices `cli._family_instances` yields, so both also pin the readers
the reports come from.  The checker module is loaded by path and only read.
"""

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

from permbound.cli import _family_instances, main
from permbound.matio import parse_matrix_file

CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"


@pytest.fixture(scope="module")
def checks():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rational_checker_accepts_a_real_report_and_rejects_a_tampered_one(checks, tmp_path, capsys):
    p = tmp_path / "m.csv"
    p.write_text("2,1/2,1,1/3\n1/3,1,1/4,1\n1,1/5,3,1/2\n1/6,1,1/2,2\n")
    assert main(["bound", str(p), "--eps", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    m = parse_matrix_file(p).matrix
    assert checks.check_rational_report(report, m) is None
    report["process_bound"] = str(Fraction(report["process_bound"]) + 1)
    assert "recursive_u" in checks.check_rational_report(report, m)


def test_float_checker_accepts_a_real_float_report_and_rejects_a_tampered_one(checks, tmp_path, capsys):
    p = tmp_path / "m.csv"
    p.write_text("2,0.5,1,0.3\n0.3,1,0.25,1\n1,0.2,3,0.5\n0.125,1,0,2\n")
    assert main(["bound", str(p), "--arithmetic", "float", "--eps", "1"]) == 0
    out = capsys.readouterr().out
    reference = checks.reference_float_bound(p)
    assert checks.check_float_report(out, reference) is None
    report = json.loads(out)
    report["process_bound"] = repr(reference * (1 + 1e-6))
    assert "reference sweep" in checks.check_float_report(json.dumps(report), reference)


def test_family_checker_accepts_a_real_random_dd_run(checks, capsys):
    params = {"n": "5", "eps": "1", "delta": "1/80", "seed": "7"}
    argv = ["family", "random-dd", *(f"{k}={v}" for k, v in params.items()), "--count", "2"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    matrices = [parsed.matrix for parsed, _ in _family_instances("random-dd", params, 2)]
    assert checks.check_rational_output(out, matrices) is None
    assert "recursive_u" in checks.check_rational_output(out, matrices[::-1])
