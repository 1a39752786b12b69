"""Tests of the benchmark itself: smoke mode and the output checkers.

    python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from permbound.cli import main  # noqa: E402
from permbound.matio import parse_matrix_file  # noqa: E402


def _cli(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.fixture
def rational_csv(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("2,1/2,1\n1/3,1,1/4\n1,1/5,3\n")
    return p


@pytest.fixture(scope="module")
def smoke():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_smoke_prints_every_metric_with_its_unit(smoke):
    lines, _ = smoke
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for workload in run.workloads.BUILDERS:
        for group in ("end_to_end", "per_layer"):
            for metric in bench[group]:
                prefix = f"{workload} {metric['name']} = "
                hits = [line for line in lines if line.startswith(prefix)]
                assert hits, prefix
                assert hits[0].split(" (")[0].endswith(f" {metric['unit']}"), hits[0]


def test_benchmark_json_matches_the_metric_tables():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.workloads.BUILDERS)


def test_smoke_counts_known_defects_as_failed_and_stays_correct(smoke):
    _, results = smoke
    for key, result in results.items():
        assert result["correct"], key
    # the n=14 rational request and the Gram `--suite all` request fail at any size
    assert results["bound-exact-small/trace0"]["failed"] == 1
    assert results["verify-suites/trace0"]["failed"] == 1


def test_traced_self_times_account_for_the_wall_time(smoke):
    _, results = smoke
    for key, result in results.items():
        if key.endswith("trace1"):
            assert 0.9 < result["metrics"]["trace.accounted_ratio"]["value"] <= 1.0, key


def test_checker_accepts_real_rational_report(capsys, rational_csv):
    out = _cli(capsys, "bound", str(rational_csv), "--eps", "1")
    m = parse_matrix_file(rational_csv).matrix
    assert checks.check_rational_output(out, [m]) is None


def test_checker_rejects_bound_below_exact_perm(capsys, rational_csv):
    report = json.loads(_cli(capsys, "bound", str(rational_csv)))
    m = parse_matrix_file(rational_csv).matrix
    report["process_bound"] = str(Fraction(report["exact_perm"]) - Fraction(1, 7))
    assert "above process_bound" in checks.check_rational_report(report, m)


def test_checker_rejects_bound_off_the_recursion(capsys, rational_csv):
    report = json.loads(_cli(capsys, "bound", str(rational_csv)))
    m = parse_matrix_file(rational_csv).matrix
    report["process_bound"] = str(Fraction(report["process_bound"]) + 1)
    assert "recursive_u" in checks.check_rational_report(report, m)


def test_checker_float_accepts_reference_and_rejects_nonfinite(capsys, tmp_path):
    p = tmp_path / "f.csv"
    p.write_text("1,0.25,0.5\n0.125,2,0.75\n0.5,0.5,3\n")
    out = _cli(capsys, "bound", str(p), "--arithmetic", "float", "--eps", "1")
    ref = checks.reference_float_bound(p)
    assert checks.check_float_report(out, ref) is None
    for bad in ("inf", "nan"):
        tampered = json.dumps(dict(json.loads(out), process_bound=bad))
        assert "non-finite" in checks.check_float_report(tampered, ref)
    off = json.dumps(dict(json.loads(out), process_bound=repr(ref * (1 + 1e-6))))
    assert "reference" in checks.check_float_report(off, ref)


def test_checker_rejects_a_fail_line():
    assert checks.check_verify_output("PASS rank1-identity\nPASS schur-bound\n") is None
    assert checks.check_verify_output("PASS rank1-identity\nFAIL schur-bound: exact > bound\n")
    assert checks.check_verify_output("SKIP psd: needs a gram input\n") == "no PASS line"


def test_reference_sweep_matches_the_closed_form(tmp_path):
    p = tmp_path / "two.csv"
    p.write_text("2,3\n5,7\n")
    assert math.isclose(checks.reference_float_bound(p), 2 * (7 + 5 * 3 / 2))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-suites", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
