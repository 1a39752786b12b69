"""The benchmark's rational-report checker still runs on this package's matrices.

`perfbench/checks.check_rational_report` recomputes `recursive_u` on the
parsed input and reads its diagonal through `.entries`, so a change to how
`Matrix` stores its entries can break the benchmark's checker while every
other test passes.  The checker module is loaded by path and only read.
"""

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

from permbound.cli import main
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
