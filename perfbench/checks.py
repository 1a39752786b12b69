"""Output checks, applied outside the timed region.

Each checker returns None when the output is right and a one-line reason
otherwise.  They hold for any seed:

* rational ``bound`` reports: ``exact_perm <= process_bound``, and the
  process bound equals the product of the ``recursive_u`` diagonal
  computed exactly (plus the row-sum and ``--eps`` bounds dominate);
* float ``bound`` reports: a finite bound that matches a numpy reference
  sweep within relative 1e-9 and stays below a certified ``--eps`` bound;
* ``verify`` output: exit 0, at least one PASS and no FAIL line.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

REL_TOL = 1e-9


def reference_float_bound(path) -> float:
    """The plus-update sweep in numpy on the CSV parsed with float(), pivots multiplied in order."""
    with open(path) as f:
        a = np.array([[float(x) for x in line.split(",")] for line in f if line.strip()])
    n = a.shape[0]
    for t in range(n - 1):
        a[t + 1:, t + 1:] += np.outer(a[t + 1:, t], a[t, t + 1:]) / a[t, t]
    return math.prod(float(a[t, t]) for t in range(n))


def _load_report(stdout: str):
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return None
    return report if isinstance(report, dict) else None


def check_float_report(stdout: str, reference: float) -> str | None:
    report = _load_report(stdout)
    if report is None:
        return "output is not one JSON report"
    bound = float(report["process_bound"])
    if not math.isfinite(bound):
        return f"non-finite process_bound {report['process_bound']!r}"
    if not math.isclose(bound, reference, rel_tol=REL_TOL):
        return f"process_bound {bound!r} differs from the reference sweep {reference!r}"
    dd = report.get("diag_dominance")
    if dd and dd["certified"]:
        cert = float(dd["bound"])
        if not math.isfinite(cert) or bound > cert * (1 + REL_TOL):
            return f"process_bound {bound!r} above the certified bound {dd['bound']!r}"
    return None


def check_rational_report(report: dict, matrix) -> str | None:
    """``matrix`` is the exact input (a permbound Matrix)."""
    from permbound.process import recursive_u

    if report.get("arithmetic") != "rational":
        return f"arithmetic {report.get('arithmetic')!r}, expected rational"
    bound = Fraction(report["process_bound"])
    if "exact_perm" in report:
        exact = Fraction(report["exact_perm"])
        if exact > bound:
            return f"exact_perm {exact} above process_bound"
        if exact > Fraction(report["rowsum_bound"]):
            return f"exact_perm {exact} above rowsum_bound"
    u = recursive_u(matrix).entries
    expected = math.prod((u[i][i] for i in range(matrix.n)), start=Fraction(1))
    if bound != expected:
        return "process_bound differs from the recursive_u diagonal product"
    dd = report.get("diag_dominance")
    if dd and dd["certified"]:
        cert = Fraction(dd["bound"])
        if bound > cert or Fraction(report.get("exact_perm", 0)) > cert:
            return "a bound exceeds the certified diag_dominance bound"
    return None


def check_rational_output(stdout: str, matrices: list) -> str | None:
    """One JSON report per line, one line per matrix in ``matrices``."""
    lines = stdout.splitlines()
    if len(lines) != len(matrices):
        return f"{len(lines)} report lines for {len(matrices)} matrices"
    for line, m in zip(lines, matrices):
        report = _load_report(line)
        if report is None:
            return "a line is not a JSON report"
        reason = check_rational_report(report, m)
        if reason:
            return reason
    return None


def check_verify_output(stdout: str) -> str | None:
    lines = stdout.splitlines()
    failed = [line for line in lines if line.startswith("FAIL")]
    if failed:
        return failed[0][:200]
    if not any(line.startswith("PASS") for line in lines):
        return "no PASS line"
    return None
