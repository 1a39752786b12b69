"""The example scripts in scripts/ run to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("bound_comparison.py", ["--trials", "5", "--sizes", "3", "4"]),
    ("exp_family_sweep.py", ["--max-n", "5", "--large", "16"]),
])
def test_script_exits_zero(script, args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_sweep_timing_prints_one_row_per_size():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "sweep_timing.py"), "--repeat", "1",
         "--rational-sizes", "3", "4", "--float-sizes", "8"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split()[:2] for line in proc.stdout.splitlines()[1:]]
    assert rows == [["rational", "3"], ["certificate", "3"], ["permanent", "3"], ["inverse", "3"],
                    ["alpha", "3"], ["cli-bound", "3"],
                    ["rational", "4"], ["certificate", "4"], ["permanent", "4"], ["inverse", "4"],
                    ["alpha", "4"], ["cli-bound", "4"],
                    ["float64", "8"], ["certificate", "8"], ["gram-zero", "8"], ["exp-csv", "8"],
                    ["csv-3dec", "8"], ["csv-20sig", "8"], ["csv-20sig-rep", "8"],
                    ["csv-repr", "8"]]


def test_sweep_timing_prints_the_float_gap_to_the_per_step_sweep():
    # n = 70 runs one panel product, so the gap is small but may be nonzero
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "sweep_timing.py"), "--repeat", "1",
         "--rational-sizes", "--float-sizes", "8", "70"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [row for row in map(str.split, proc.stdout.splitlines()) if row[0] == "float64"]
    assert [(row[1], row[-2]) for row in rows] == [("8", "gap"), ("70", "gap")]
    assert float(rows[0][-1]) == 0.0 and float(rows[1][-1]) < 1e-12
