"""End-to-end checks of the permbound command line."""

import importlib
import json
import os
import random
import shutil
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from permbound import cli, matcore
from permbound.cli import main
from permbound.permschur import schur_permanent_bound
from permbound.scalars import SidePair

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SRC = PYPROJECT.parent / "src"


@pytest.fixture
def ones3(tmp_path):
    p = tmp_path / "ones3.csv"
    p.write_text("1,1,1\n1,1,1\n1,1,1\n")
    return str(p)


@pytest.fixture
def gram3(tmp_path):
    p = tmp_path / "gram3.json"
    p.write_text(
        '{"n": 3, "kind": "gram",'
        ' "entries": [["2","1","1"],["1","2","1"],["1","1","2"]],'
        ' "factor": [["1","1","0"],["1","0","1"],["0","1","1"]]}'
    )
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_report_all_ones(capsys, ones3):
    code, out, err = run_cli(capsys, "bound", ones3)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["process_bound"] == "8"
    assert report["rowsum_bound"] == "27"
    assert report["exact_perm"] == "6"
    assert report["ratios"]["process_over_exact"] == "4/3"
    assert report["n"] == 3
    assert report["arithmetic"] == "rational"
    assert report["id"] == "ones3"
    assert "elapsed_ms" not in report


def test_bound_identity_and_flags(capsys, tmp_path):
    p = tmp_path / "eye.csv"
    p.write_text("1,0\n0,1\n")
    code, out, _ = run_cli(capsys, "bound", str(p), "--snapshots", "--timing")
    report = json.loads(out)
    assert code == 0
    assert report["process_bound"] == "1"
    assert report["snapshots"] == [[["1", "0"], ["0", "1"]], [["1", "0"], ["0", "1"]]]
    assert isinstance(report["elapsed_ms"], int)
    assert isinstance(report["parse_ms"], int)


def test_timing_adds_parse_ms_to_bound_reports_only(capsys, ones3):
    plain = json.loads(run_cli(capsys, "bound", ones3)[1])
    timed = json.loads(run_cli(capsys, "bound", ones3, "--timing")[1])
    assert {k: v for k, v in timed.items() if k not in ("elapsed_ms", "parse_ms", "phase_ms")} == plain
    family = json.loads(run_cli(capsys, "family", "exp", "n=3", "c=2", "--timing")[1])
    assert "elapsed_ms" in family and "parse_ms" not in family


@pytest.mark.parametrize("argv, phases", [
    (["bound", "ONES3"], {"convert", "process", "rowsum", "exact"}),
    (["bound", "ONES3", "--eps", "1"], {"convert", "process", "rowsum", "exact", "certify"}),
    (["bound", "ONES3", "--exact-max", "2"], {"convert", "process", "rowsum"}),
    (["family", "random-dd", "n=3", "eps=1", "delta=1/80", "seed=0", "--count", "2"],
     {"convert", "process", "rowsum", "exact", "certify"}),
    (["bound", "ONES3", "--snapshots"], {"convert", "process", "rowsum", "exact", "snapshots"}),
])
def test_timing_adds_the_phases_that_ran(capsys, ones3, argv, phases):
    argv = [ones3 if arg == "ONES3" else arg for arg in argv]
    code, out, _ = run_cli(capsys, *argv, "--timing")
    reports = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and len(reports) == (2 if argv[0] == "family" else 1)
    for report in reports:
        assert set(report["phase_ms"]) == phases
        assert all(type(ms) is int and ms >= 0 for ms in report["phase_ms"].values())
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and "phase_ms" not in out


def test_snapshots_leave_the_float_report_unchanged_past_one_panel(capsys, tmp_path, monkeypatch):
    # past matcore.PANEL = 64 the float sweep ends panels in products, which round
    # differently from the per-step sweep that keeps the snapshots
    rng = random.Random(130)
    p = tmp_path / "m.csv"
    p.write_text("".join(
        ",".join("130" if i == j else f"0.{rng.randint(0, 999):03d}" for j in range(130)) + "\n"
        for i in range(130)))
    # 130 states of 130 x 130 cells would print about 48 MB; their strings are tested elsewhere
    monkeypatch.setattr(cli, "matrix_as_strings", lambda m: m.n)
    code, plain, _ = run_cli(capsys, "bound", str(p), "--arithmetic", "float")
    assert code == 0
    code, out, _ = run_cli(capsys, "bound", str(p), "--arithmetic", "float", "--snapshots")
    report = json.loads(out)
    assert code == 0 and report.pop("snapshots") == [130] * 130
    assert json.dumps(report, sort_keys=True) + "\n" == plain


def test_bound_ordering_flag(capsys, tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,1,1\n1,1,1\n1,1,2\n")
    code, out, _ = run_cli(capsys, "bound", str(p), "--ordering", "3,2,1")
    assert json.loads(out)["process_bound"] == "9"
    code, _, err = run_cli(capsys, "bound", str(p), "--ordering", "1,2")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ParameterOutOfRange"
    code, out, err = run_cli(capsys, "bound", str(p), "--ordering", "1,x")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {"type": "ParseError", "message": "bad --ordering '1,x'"}


def test_literals_past_the_digit_limit_exit_2(capsys, tmp_path):
    ones2 = tmp_path / "ones.csv"
    ones2.write_text("1,1\n1,1\n")
    cell = tmp_path / "cell.csv"
    cell.write_text("1e5000,1\n1,1\n")
    big = tmp_path / "big.json"
    big.write_text('{"n": 1, "entries": [[' + "7" * 5000 + "]]}")
    for argv, error in [
        (["family", "exp", "n=3", "c=1e5000"], "ParameterOutOfRange"),
        (["bound", str(ones2), "--eps", "1e5000"], "ParameterOutOfRange"),
        (["bound", str(cell)], "ParseError"),
        (["bound", str(cell), "--arithmetic", "float"], "ParseError"),
        (["bound", str(big)], "ParseError"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == error


@pytest.mark.parametrize("arithmetic", ["rational", "float"])
def test_bound_rejects_an_exponent_that_is_not_an_integer(capsys, tmp_path, arithmetic):
    p = tmp_path / "bad_exponent.csv"
    p.write_text("1,1e+x\n1,1\n")
    code, out, err = run_cli(capsys, "bound", str(p), "--arithmetic", arithmetic)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {"type": "ParseError", "message": "bad numeric literal '1e+x'"}


def test_bound_eps_flag(capsys, tmp_path):
    p = tmp_path / "dd.csv"
    rows = "\n".join(",".join("1" if i == j else "1/12" for j in range(4)) for i in range(4))
    p.write_text(rows + "\n")
    code, out, _ = run_cli(capsys, "bound", str(p), "--eps", "1")
    report = json.loads(out)
    assert report["diag_dominance"] == {"bound": "16", "certified": True, "eps": "1"}


def test_bound_eps_violation_reported(capsys, ones3):
    code, out, _ = run_cli(capsys, "bound", ones3, "--eps", "1")
    assert code == 0
    dd = json.loads(out)["diag_dominance"]
    assert dd["certified"] is False
    assert dd["bound"] is None
    assert dd["violation"] == [2, 2]


def test_bound_float_eps_violation_matches_rational(capsys, tmp_path):
    # L_{2,1} = 2e-314 / 1e10 rounds to 0 in float64; the term a_{2,1} a_{1,3} / a_{1,1}
    # = 2e-16, times (1+eps)^2/eps, still exceeds a_{2,3} = 0
    p = tmp_path / "underflow.csv"
    p.write_text("1e10,0,1e308\n2e-314,1,0\n0,0,1\n")
    for arithmetic in ("float", "rational"):
        code, out, _ = run_cli(capsys, "bound", str(p), "--arithmetic", arithmetic,
                               "--eps", "1e-8", "--exact-max", "0")
        dd = json.loads(out)["diag_dominance"]
        assert (code, dd["certified"], dd["violation"]) == (0, False, [2, 3])


@pytest.mark.parametrize("cell", ["1e-13", "1"])
def test_bound_eps_certificate_takes_no_slack(capsys, tmp_path, cell):
    # (1+eps)^2/eps a_{2,1} a_{1,2} / a_{1,1} = 4a > a = a_{2,2} at any scale a
    p = tmp_path / "square.csv"
    p.write_text(f"{cell},{cell}\n{cell},{cell}\n")
    for arithmetic in ("float", "rational"):
        code, out, _ = run_cli(capsys, "bound", str(p), "--arithmetic", arithmetic,
                               "--eps", "1", "--exact-max", "0")
        dd = json.loads(out)["diag_dominance"]
        assert (code, dd["certified"], dd["violation"]) == (0, False, [2, 2])


@pytest.mark.parametrize("rows, certified, violation, bound", [
    ("2,1\n1,0\n", False, [2, 2], None),  # 4 a_21 a_12 / a_11 = 2 > 0 = a_22
    ("0\n", True, None, 0),
])
def test_bound_eps_with_a_zero_last_diagonal_entry(capsys, tmp_path, rows, certified, violation,
                                                   bound):
    # the condition never divides by a_nn, so a_nn = 0 is no zero pivot for it
    p = tmp_path / "last.csv"
    p.write_text(rows)
    for arithmetic in ("float", "rational"):
        code, out, _ = run_cli(capsys, "bound", str(p), "--arithmetic", arithmetic, "--eps", "1")
        dd = json.loads(out)["diag_dominance"]
        assert (code, dd["certified"], dd.get("violation")) == (0, certified, violation)
        assert (dd["bound"] if bound is None else Fraction(dd["bound"])) == bound


def test_bound_float_arithmetic(capsys, ones3):
    code, out, _ = run_cli(capsys, "bound", ones3, "--arithmetic", "float")
    report = json.loads(out)
    assert report["arithmetic"] == "float64"
    assert report["process_bound"] == "8.0"


def test_bound_out_file_and_determinism(capsys, ones3, tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["bound", ones3, "--out", str(out1)]) == 0
    assert main(["bound", ones3, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("command", ["bound", "family"])
def test_out_to_an_unwritable_path_exits_2(capsys, ones3, tmp_path, command):
    target = tmp_path / "no" / "such" / "dir" / "x.json"
    argv = ["bound", ones3] if command == "bound" else ["family", "allones", "n=3"]
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["type"] == "ParameterOutOfRange"
    assert error["message"].startswith("cannot write --out")
    assert not target.exists()


def test_float_exact_max_past_the_ryser_limit_skips_exact_perm(capsys, tmp_path):
    p = tmp_path / "half25.csv"
    p.write_text(_csv([["0.5"] * 25] * 25))
    code, out, _ = run_cli(capsys, "bound", str(p), "--arithmetic", "float", "--exact-max", "30")
    report = json.loads(out)
    assert code == 0
    assert "exact_perm" not in report and report["ratios"] is None
    assert report["n"] == 25 and report["arithmetic"] == "float64"


def test_bound_error_exit_codes(capsys, tmp_path):
    neg = tmp_path / "neg.csv"
    neg.write_text("1,-1\n1,1\n")
    code, _, err = run_cli(capsys, "bound", str(neg))
    assert code == 2
    assert json.loads(err)["error"]["type"] == "NegativeEntry"

    zero = tmp_path / "zero.csv"
    zero.write_text("0,1\n1,0\n")
    code, _, err = run_cli(capsys, "bound", str(zero))
    assert code == 3
    assert json.loads(err)["error"]["type"] == "ZeroPivot"

    code, _, err = run_cli(capsys, "bound", str(tmp_path / "missing.csv"))
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ParseError"


BOM = "\ufeff"  # Excel's "CSV UTF-8" export starts with one


@pytest.mark.parametrize("name, text, argv, key, value", [
    ("bom.csv", BOM + "1,2\n3,4\n", [], "exact_perm", "10"),
    ("bom.csv", BOM + "1,2\n3,4\n", ["--arithmetic", "float"], "exact_perm", "10.0"),
    ("bom.json", BOM + '{"n": 1, "entries": [["5"]]}', [], "process_bound", "5"),
])
def test_input_with_a_utf8_byte_order_mark_reads_as_without(capsys, tmp_path, name, text, argv,
                                                            key, value):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "bound", str(p), *argv)
    assert (code, err) == (0, "")
    assert json.loads(out)[key] == value


def test_input_that_is_not_utf8_exits_2(capsys, tmp_path):
    p = tmp_path / "latin1.csv"
    p.write_bytes(b"1,2\n3,\xff\n")
    code, out, err = run_cli(capsys, "bound", str(p))
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["type"] == "ParseError" and "can't decode byte 0xff" in error["message"]


def _csv(rows):
    return "\n".join(",".join(row) for row in rows) + "\n"


@pytest.mark.parametrize("text, argv", [
    (_csv([["1"] * 64] * 64), ["--arithmetic", "float"]),  # process bound 2^2016
    (_csv([["1e400", "1"], ["1", "1"]]), ["--arithmetic", "float"]),
    (_csv([["1e400"] + ["1"] * 12] + [["1"] * 13] * 12), []),  # n > 12 picks float
    # 1e-400 reads as the nonzero 5e-324, so the sweep overflows (a_22 = 1e400)
    (_csv([["1e-400", "1"], ["1", "1"]]), ["--arithmetic", "float"]),
], ids=["ones64", "cell-1e400", "auto-float-1e400", "cell-1e-400"])
def test_float_overflow_exits_3(capsys, tmp_path, text, argv):
    p = tmp_path / "big.csv"
    p.write_text(text)
    code, out, err = run_cli(capsys, "bound", str(p), *argv)
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["type"] == "NonFinite"


@pytest.mark.parametrize("text, error", [
    ("inf,1\n1,1\n", "ParseError"),
    ("nan,1\n1,1\n", "ParseError"),
    ("Infinity,1\n1,1\n", "ParseError"),
    ("1,1e400\n1,abc\n", "ParseError"),  # a bad literal beats an overflow
    ("1,1e400,1\n1,1,1\n", "ParseError"),  # so does a non-square shape
    ("1e400,1\n1,1\n", "NonFinite"),
])
def test_float_parse_edges_exit_codes(capsys, tmp_path, text, error):
    p = tmp_path / "edge.csv"
    p.write_text(text)
    code, out, err = run_cli(capsys, "bound", str(p), "--arithmetic", "float")
    assert (code, out) == ({"ParseError": 2, "NonFinite": 3}[error], "")
    assert json.loads(err)["error"]["type"] == error
    if error == "NonFinite":
        message = "an entry is outside the float64 range: integer division result too large for a float"
        assert json.loads(err)["error"]["message"] == message


@pytest.mark.parametrize("text", ["1e-300,1\n1e300,1\n", "1e-400,1\n1,1\n"])
def test_float_sweep_overflow_raises_no_numpy_warning(capsys, tmp_path, text):
    # stderr carries one JSON error object, so the sweep's inf must not also warn
    p = tmp_path / "sweep.csv"
    p.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(capsys, "bound", str(p), "--arithmetic", "float")
    assert code == 3
    assert json.loads(err)["error"]["type"] == "NonFinite"


@pytest.mark.parametrize("text, code, report", [
    ("1e-400,1e-300\n1e-300,1\n", 0, "5e-324"),  # the first pivot stays nonzero
    ("1,-1e-400\n1,1\n", 2, "NegativeEntry"),  # the cell stays negative
])
def test_float_mode_keeps_an_underflowing_entry_nonzero_and_signed(capsys, tmp_path, text, code,
                                                                   report):
    p = tmp_path / "tiny.csv"
    p.write_text(text)
    assert run_cli(capsys, "bound", str(p), "--arithmetic", "rational")[0] == code
    got, out, err = run_cli(capsys, "bound", str(p), "--arithmetic", "float")
    assert got == code
    if code == 0:
        assert json.loads(out)["process_bound"] == report
    else:
        assert json.loads(err)["error"]["type"] == report


def test_float_negative_zero_snapshot(capsys, tmp_path):
    p = tmp_path / "negzero.csv"
    p.write_text("1,-0\n1,2\n")
    code, out, _ = run_cli(capsys, "bound", str(p), "--arithmetic", "float", "--snapshots")
    assert code == 0
    assert json.loads(out)["snapshots"][0] == [["1.0", "0.0"], ["1.0", "2.0"]]


def test_family_exp_and_allones(capsys):
    code, out, _ = run_cli(capsys, "family", "exp", "n=3", "c=2")
    report = json.loads(out)
    assert report["process_bound"] == "55/32"
    assert report["exact_perm"] == "27/16"
    assert report["id"] == "exp(n=3,c=2)"

    code, out, _ = run_cli(capsys, "family", "allones", "n=4")
    report = json.loads(out)
    assert (report["process_bound"], report["exact_perm"]) == ("64", "24")


def test_family_random_dd_certifies(capsys):
    code, out, _ = run_cli(
        capsys, "family", "random-dd", "n=4", "eps=1", "delta=1/12", "seed=7", "--count", "3"
    )
    lines = out.strip().split("\n")
    assert len(lines) == 3
    seeds = []
    for line in lines:
        report = json.loads(line)
        assert report["diag_dominance"]["certified"] is True
        assert report["diag_dominance"]["bound"] == "16"
        seeds.append(report["id"])
    assert seeds == [
        "random-dd(n=4,eps=1,delta=1/12,seed=7)",
        "random-dd(n=4,eps=1,delta=1/12,seed=8)",
        "random-dd(n=4,eps=1,delta=1/12,seed=9)",
    ]


def test_family_parameter_validation(capsys):
    code, _, err = run_cli(capsys, "family", "exp", "n=3")
    assert code == 2 and "needs parameter" in json.loads(err)["error"]["message"]
    code, _, err = run_cli(capsys, "family", "exp", "n=3", "c=2", "bogus=1")
    assert code == 2
    code, _, err = run_cli(capsys, "family", "exp", "n3", "c=2")
    assert code == 2
    code, _, err = run_cli(capsys, "family", "allones", "n=0")
    assert code == 2
    for argv, message in (
        (["random-dd", "n=3", "eps=1", "delta=1/12", "seed=0", "--count", "0"],
         "count must be >= 1"),
        (["allones", "n=x"], "n must be an integer"),
        (["random-dd", "n=3", "eps=1", "delta=-1", "seed=0"], "delta = -1 must be >= 0"),
    ):
        code, out, err = run_cli(capsys, "family", *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {"type": "ParameterOutOfRange", "message": message}


def test_main_builds_no_parser_per_call(capsys, ones3, monkeypatch):
    built = []
    init = cli.argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counting_init)
    assert run_cli(capsys, "bound", ones3)[0] == 0
    assert run_cli(capsys, "family", "allones", "n=3")[0] == 0
    assert built == []


@pytest.mark.parametrize("command", ["bound", "family"])
def test_shared_report_options_are_documented(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # undo argparse's line wrapping
    for help_text in ("default: rational for n <= 12, float above",
                      "compute the exact permanent when n <= this (default 10)",
                      "include elapsed_ms",
                      "write the output here instead of stdout"):
        assert help_text in text


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", "ONES3", "--eps", "abc"],
        ["bound", "ONES3", "--eps", "1/0"],
        ["family", "exp", "n=3", "c=abc"],
        ["family", "exp", "n=3", "c=1/0"],
        ["family", "random-dd", "n=4", "eps=1", "delta=x", "seed=1"],
        ["family", "random-dd", "n=4", "eps=zz", "delta=1/12", "seed=1", "--count", "2"],
    ],
)
def test_malformed_numeric_parameters_exit_2(capsys, ones3, argv):
    argv = [ones3 if a == "ONES3" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "ParameterOutOfRange"


def test_verify_all_passes(capsys, ones3):
    code, out, _ = run_cli(capsys, "verify", ones3, "--suite", "all")
    assert code == 0
    lines = out.strip().split("\n")
    assert all(line.startswith(("PASS", "SKIP")) for line in lines)
    assert any(line.startswith("PASS schur-bound") for line in lines)
    assert any(line.startswith("PASS entry-bound") for line in lines)
    assert any(line.startswith("SKIP psd") for line in lines)


def test_verify_psd_suite(capsys, gram3):
    code, out, _ = run_cli(capsys, "verify", gram3, "--suite", "psd")
    assert code == 0
    assert "PASS psd-schur" in out
    assert "PASS tensor-permanent" in out


def test_verify_psd_requires_factor(capsys, ones3):
    code, _, err = run_cli(capsys, "verify", ones3, "--suite", "psd")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "PreconditionViolated"


def test_verify_boundedness_requires_unit_diagonal(capsys, tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("2,1\n1,2\n")
    code, _, err = run_cli(capsys, "verify", str(p), "--suite", "boundedness")
    assert code == 2
    code, out, _ = run_cli(capsys, "verify", str(p), "--suite", "all")
    assert code == 0
    assert "SKIP boundedness" in out


def test_verify_tampered_majorant_fails(capsys, tmp_path):
    p = tmp_path / "t.json"
    p.write_text(
        '{"n": 2, "kind": "nonneg", "entries": [["1","1"],["1","1"]],'
        ' "majorant": [["1","1"],["1","1"]]}'
    )
    code, out, _ = run_cli(capsys, "verify", str(p), "--suite", "all")
    assert code == 1
    assert "FAIL majorant-recursion" in out
    assert "(2, 2)" in out


def test_verify_valid_majorant_passes(capsys, tmp_path):
    p = tmp_path / "v.json"
    p.write_text(
        '{"n": 2, "kind": "nonneg", "entries": [["1","1"],["1","1"]],'
        ' "majorant": [["1","1"],["1","2"]]}'
    )
    code, out, _ = run_cli(capsys, "verify", str(p))
    assert code == 0
    assert "PASS majorant-recursion" in out


ONE_BY_ONE_CSV_VERIFY = """\
SKIP rank1-identity: needs n >= 2
SKIP schur-bound: needs n >= 2
PASS identity-dominance
PASS row-uncrossing
SKIP two-row-inequality: needs n >= 2
SKIP condense-inequality: needs n >= 2
PASS entry-bound
PASS perm-ratio
SKIP cycle-sum: needs n >= 3
SKIP psd: needs a gram-kind input with a factor
"""

ONE_BY_ONE_GRAM_VERIFY = """\
SKIP rank1-identity: needs n >= 2
SKIP schur-bound: needs n >= 2
PASS identity-dominance
PASS row-uncrossing
SKIP two-row-inequality: needs n >= 2
SKIP condense-inequality: needs n >= 2
SKIP boundedness: needs a unit-diagonal non-negative matrix
PASS gram-consistency
PASS tensor-permanent
SKIP psd-schur: needs n >= 2
SKIP alpha-nonneg: needs n >= 2
PASS process-soundness
"""


@pytest.mark.parametrize("name, text, expected", [
    ("one.csv", "1\n", ONE_BY_ONE_CSV_VERIFY),
    ("gram1.json", '{"n": 1, "kind": "gram", "entries": [["4"]], "factor": [["2"]]}',
     ONE_BY_ONE_GRAM_VERIFY),
])
def test_verify_one_by_one_skip_lines(capsys, tmp_path, name, text, expected):
    p = tmp_path / name
    p.write_text(text)
    code, out, err = run_cli(capsys, "verify", str(p), "--suite", "all")
    assert (code, out, err) == (0, expected, "")


@pytest.mark.skipif(
    shutil.which("permbound") is None,
    reason="permbound executable not on PATH; run `pip install -e . --no-build-isolation`",
)
def test_console_script_installed():
    exe = shutil.which("permbound")
    assert exe, "permbound entry point not on PATH"
    proc = subprocess.run(
        [exe, "family", "allones", "n=3"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["process_bound"] == "8"


def test_console_script_wiring(capsys):
    """The [project.scripts] entry resolves to a working main, install or not."""
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"permbound": "permbound.cli:main"}
    module_name, func_name = scripts["permbound"].split(":")
    entry = getattr(importlib.import_module(module_name), func_name)
    code = entry(["family", "allones", "n=3"])
    out = capsys.readouterr().out
    assert code == 0
    assert '"process_bound": "8"' in out


def test_module_entry_point():
    # the child gets src/ on its path too, as with `PYTHONPATH=src python -m permbound.cli`
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "permbound.cli", "family", "allones", "n=2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["process_bound"] == "2"


def test_json_number_entries_are_exact(capsys, tmp_path):
    p = tmp_path / "tenth.json"
    p.write_text('{"n": 1, "entries": [[0.10000000000000000001]]}')
    code, out, _ = run_cli(capsys, "bound", str(p))
    assert code == 0
    assert json.loads(out)["exact_perm"] == "10000000000000000001/100000000000000000000"


UNIT_DIAGONAL_3 = "1,1/2,1/3\n1/4,1,1/2\n1/3,1/5,1\n"

SCHUR_LINES = "PASS rank1-identity\nPASS schur-bound\nPASS identity-dominance\n"
UNCROSS_LINES = "PASS row-uncrossing\nPASS two-row-inequality\nPASS condense-inequality\n"


@pytest.mark.parametrize("suite, expected", [
    ("all", SCHUR_LINES + UNCROSS_LINES
     + "PASS entry-bound\nPASS perm-ratio\nPASS cycle-sum\n"
     + "SKIP psd: needs a gram-kind input with a factor\n"),
    ("schur", SCHUR_LINES),
    ("uncross", UNCROSS_LINES),
])
def test_verify_unit_diagonal_3x3_output(capsys, tmp_path, suite, expected):
    # n = 3 runs every check: two-row at d = 1 and cycle-sum at n = 3
    p = tmp_path / "ud3.csv"
    p.write_text(UNIT_DIAGONAL_3)
    code, out, err = run_cli(capsys, "verify", str(p), "--suite", suite)
    assert (code, out, err) == (0, expected, "")


def test_verify_gram3_all_output(capsys, gram3):
    code, out, err = run_cli(capsys, "verify", gram3, "--suite", "all")
    expected = (
        SCHUR_LINES + UNCROSS_LINES
        + "SKIP boundedness: needs a unit-diagonal non-negative matrix\n"
        + "PASS gram-consistency\nPASS tensor-permanent\nPASS psd-schur\n"
        + "PASS alpha-nonneg\nPASS process-soundness\n"
    )
    assert (code, out, err) == (0, expected, "")


ZERO_BLOCK_2 = "0,1\n1,1\n"  # per(A) = 1, but the leading 1x1 block has permanent 0
ZERO_BLOCK_SCHUR = (
    "SKIP rank1-identity: per(B) = 0; permanental inverse undefined\n"
    "SKIP schur-bound: per(B) = 0; permanental inverse undefined\n"
    "PASS identity-dominance\n"
)
ZERO_BLOCK_UNCROSS = (
    "PASS row-uncrossing\nPASS two-row-inequality\n"
    "SKIP condense-inequality: per(B) = a_{1,1} = 0\n"
)


@pytest.mark.parametrize("suite, expected", [
    ("all", ZERO_BLOCK_SCHUR + ZERO_BLOCK_UNCROSS
     + "SKIP boundedness: needs a unit-diagonal non-negative matrix\n"
     + "SKIP psd: needs a gram-kind input with a factor\n"),
    ("schur", ZERO_BLOCK_SCHUR),
    ("uncross", ZERO_BLOCK_UNCROSS),
], ids=["all", "schur", "uncross"])
def test_verify_zero_block_permanent_skips(capsys, tmp_path, suite, expected):
    p = tmp_path / "zero_block.csv"
    p.write_text(ZERO_BLOCK_2)
    code, out, err = run_cli(capsys, "verify", str(p), "--suite", suite)
    assert (code, out, err) == (0, expected, "")


def test_verify_computes_permanents_in_one_memo_per_request(capsys, tmp_path, monkeypatch):
    memos = []
    glynn = matcore._glynn
    monkeypatch.setattr(matcore, "_glynn", lambda *a: memos.append(matcore._MEMO.get()) or glynn(*a))
    p = tmp_path / "zero_block.csv"
    p.write_text(ZERO_BLOCK_2)
    per_request = []
    for _ in range(2):
        memos.clear()
        assert run_cli(capsys, "verify", str(p))[0] == 0
        assert matcore._MEMO.get() is None
        assert memos and memos[0] is not None and all(m is memos[0] for m in memos)
        per_request.append(list(memos))
    # nothing outlives a request: the second one computes the same permanents afresh
    assert len(per_request[1]) == len(per_request[0])
    assert per_request[1][0] is not per_request[0][0]
    # bound never enters the memo
    memos.clear()
    p.write_text("1,2\n3,4\n")
    assert run_cli(capsys, "bound", str(p))[0] == 0
    assert memos and all(m is None for m in memos)


def test_verify_psd_skips_the_majorant_row_on_a_negative_gram(capsys, tmp_path):
    # the majorant recursion needs a non-negative matrix; the psd lines still print
    p = tmp_path / "negative_gram_majorant.json"
    p.write_text('{"n": 2, "kind": "gram", "entries": [["1","-1"],["-1","2"]],'
                 ' "factor": [["1","-1"],["0","1"]], "majorant": [["1","1"],["1","3"]]}')
    code, out, err = run_cli(capsys, "verify", str(p), "--suite", "psd")
    expected = (
        "PASS gram-consistency\nPASS tensor-permanent\nPASS psd-schur\nPASS alpha-nonneg\n"
        "PASS process-soundness\nSKIP majorant-recursion: needs a non-negative matrix\n"
    )
    assert (code, out, err) == (0, expected, "")


def test_verify_drops_its_memo_when_a_suite_raises(capsys, tmp_path, monkeypatch):
    memos = []
    rank1 = cli.rank1_update_permanent
    monkeypatch.setattr(cli, "rank1_update_permanent",
                        lambda split: memos.append(matcore._MEMO.get()) or rank1(split))
    p = tmp_path / "negative_gram.json"
    p.write_text('{"n": 2, "kind": "gram", "entries": [[2, -1], [-1, 1]],'
                 ' "factor": [[1, 0], [-1, 1]]}')
    code, out, err = run_cli(capsys, "verify", str(p), "--suite", "all")
    assert (code, out, json.loads(err)["error"]["type"]) == (2, "", "NegativeEntry")
    assert len(memos) == 1 and memos[0] is not None  # the suite raised inside the memo
    assert matcore._MEMO.get() is None


def test_verify_majorant_zero_pivot_skips_and_keeps_the_other_lines(capsys, tmp_path):
    # the majorant recursion divides by a_{1,1} = 0; the suite lines before it still print
    p = tmp_path / "zero_pivot_majorant.json"
    p.write_text('{"n": 2, "entries": [[0,1],[1,1]], "majorant": [[0,1],[1,2]]}')
    code, out, err = run_cli(capsys, "verify", str(p), "--suite", "uncross")
    expected = ZERO_BLOCK_UNCROSS + "SKIP majorant-recursion: zero pivot at step 1\n"
    assert (code, out, err) == (0, expected, "")


def test_verify_negative_majorant_fails_and_keeps_the_other_lines(capsys, tmp_path):
    # a negative majorant cannot meet the recursion; the suite lines before it still print
    p = tmp_path / "negative_majorant.json"
    p.write_text('{"n": 2, "entries": [["1","1"],["1","1"]], "majorant": [["1","-1"],["1","2"]]}')
    code, out, err = run_cli(capsys, "verify", str(p), "--suite", "uncross")
    expected = ("PASS row-uncrossing\nPASS two-row-inequality\nPASS condense-inequality\n"
                "FAIL majorant-recursion: the majorant has a negative entry\n")
    assert (code, out, err) == (1, expected, "")


ZERO_CORNER_3 = "0,1,1\n1,1,1\n1,1,1\n"  # per(B) = 0 at d = 1 only


def test_verify_schur_bound_checks_the_nonzero_splits(capsys, tmp_path):
    p = tmp_path / "zero_corner.csv"
    p.write_text(ZERO_CORNER_3)
    code, out, err = run_cli(capsys, "verify", str(p), "--suite", "schur")
    expected = "PASS rank1-identity\nPASS schur-bound\nPASS identity-dominance\n"
    assert (code, out, err) == (0, expected, "")


def test_verify_schur_bound_fails_past_a_zero_split(capsys, tmp_path, monkeypatch):
    def broken_at_2(split):
        return SidePair(2, 1, False) if split.d == 2 else schur_permanent_bound(split)

    monkeypatch.setattr("permbound.cli.schur_permanent_bound", broken_at_2)
    p = tmp_path / "zero_corner.csv"
    p.write_text(ZERO_CORNER_3)
    code, out, err = run_cli(capsys, "verify", str(p), "--suite", "schur")
    expected = (
        "PASS rank1-identity\nFAIL schur-bound: exact > bound at d = 2\n"
        "PASS identity-dominance\n"
    )
    assert (code, out, err) == (1, expected, "")


UNCROSS_PASSES = "PASS two-row-inequality\nPASS condense-inequality\n"


# each FAIL line a check can print, from its lemma patched to return a failing pair
@pytest.mark.parametrize("lemma, pair, suite, expected", [
    ("row_uncrossing_sides", SidePair(2, 1, False), "uncross",
     "FAIL row-uncrossing: violated at d = 0, i* = 1\n" + UNCROSS_PASSES),
    ("row_uncrossing_sides", SidePair(1, 2, True), "uncross",
     "FAIL row-uncrossing: expected equality at d = 0, k = 3\n" + UNCROSS_PASSES),
    ("schur_permanent_bound", SidePair(1, 2, True), "schur",
     "PASS rank1-identity\nFAIL schur-bound: k = 1 split not an equality: 1 vs 2\n"
     "PASS identity-dominance\n"),
    ("perm_ratio_check", SidePair(2, 1, False), "boundedness",
     "PASS entry-bound\nFAIL perm-ratio: ratio 2 > 1 at S = (), i = 1, j = 1\nPASS cycle-sum\n"),
    ("cycle_sum_ratio", SidePair(2, 1, False), "boundedness",
     "PASS entry-bound\nPASS perm-ratio\nFAIL cycle-sum: ratio 2 > 1 at t = 1, S = (2, 3), i0 = 2\n"),
], ids=["uncross-violated", "uncross-equality", "schur-equality", "perm-ratio", "cycle-sum"])
def test_verify_prints_each_fail_line(capsys, ones3, monkeypatch, lemma, pair, suite, expected):
    monkeypatch.setattr(f"permbound.cli.{lemma}", lambda *args: pair)
    code, out, err = run_cli(capsys, "verify", ones3, "--suite", suite)
    assert (code, out, err) == (1, expected, "")


@pytest.mark.parametrize("argv, rowsum, exact", [
    ([], "4", "2"),
    (["--arithmetic", "float"], "4.0", "2.0"),
], ids=["rational", "float"])
def test_rowsum_bound_stays_above_per_on_a_gram_input(capsys, tmp_path, argv, rowsum, exact):
    # row sums 0 and 0; absolute row sums 2 and 2
    p = tmp_path / "g.json"
    p.write_text('{"n": 2, "kind": "gram", "entries": [["1","-1"],["-1","1"]],'
                 ' "factor": [["1","-1"]]}')
    code, out, _ = run_cli(capsys, "bound", str(p), *argv)
    report = json.loads(out)
    assert code == 0
    assert (report["rowsum_bound"], report["exact_perm"]) == (rowsum, exact)


@pytest.mark.parametrize("argv, text", [
    (["bound", "{path}", "--eps", "20"], _csv(
        [["1" if i == j else "0" for j in range(300)] for i in range(300)])),  # 21^300
    (["bound", "{path}", "--eps", "1e300", "--arithmetic", "float"], "1,0.001\n0.001,1\n"),
    (["family", "random-dd", "n=3", "eps=1e300", "delta=1/100", "seed=0",
      "--arithmetic", "float"], None),
    (["bound", "{path}", "--eps", "1e-320", "--arithmetic", "float"], "1,0\n0,1\n"),
    # an eps outside the float64 range rounds by the rule every exact value does
    (["bound", "{path}", "--eps", "1e-400", "--arithmetic", "float"], "1,0.5\n0.25,1\n"),
    (["bound", "{path}", "--eps", "1e400", "--arithmetic", "float"], "1,0.5\n0.25,1\n"),
], ids=["bound-identity300", "factor-eps1e300", "family-eps1e300", "factor-times-zero",
        "eps-1e-400", "eps-1e400"])
def test_float_eps_certificate_overflow_exits_3(capsys, tmp_path, argv, text):
    p = tmp_path / "m.csv"
    if text is not None:
        p.write_text(text)
    code, out, err = run_cli(capsys, *(a.format(path=p) for a in argv))
    assert code == 3 and out == ""
    assert json.loads(err)["error"]["type"] == "NonFinite"


def test_rational_sweep_past_the_bit_budget_exits_3_fast(tmp_path):
    # with no bit budget the exact sweep ran for minutes on 64x64 six-decimal
    # cells, and with a budget of cells x bits alone on 22x22 p/q cells (p, q in
    # 1..6), whose last blocks are a few cells of 10^5-10^6-bit integers
    rng = random.Random(64)
    dec64 = "".join(",".join(f"{rng.random():.6f}" for _ in range(64)) + "\n" for _ in range(64))
    rng = random.Random(22)
    pq22 = "".join(
        ",".join(f"{rng.randint(1, 6)}/{rng.randint(1, 6)}" for _ in range(22)) + "\n"
        for _ in range(22)
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    for name, text in (("dec64.csv", dec64), ("pq22.csv", pq22)):
        p = tmp_path / name
        p.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "permbound.cli", "bound", str(p), "--arithmetic", "rational"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=30,
        )
        assert proc.returncode == 3, name
        error = json.loads(proc.stderr)["error"]
        assert error["type"] == "DimensionTooLarge"
        assert "use --arithmetic float" in error["message"]
