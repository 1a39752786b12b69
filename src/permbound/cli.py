"""Command line front end.

    permbound bound  INPUT [flags]      one JSON report for one matrix
    permbound family NAME key=val ...   JSON-lines reports for a family
    permbound verify INPUT --suite S    PASS/FAIL property checks

Reports serialize every numeric field as a string ("p/q" for rationals,
decimal for floats) and are byte-identical across runs; timing is opt-in
via --timing since it would break that determinism.  Exit codes: 0 ok,
1 check failed, 2 input error, 3 numeric error; an error exits with its
class's `exit_code`.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

from .bounds import (
    BoundedInput,
    cycle_sum_cases,
    cycle_sum_ratio,
    diag_dominance_certify,
    entry_bound_check,
    exp_family,
    perm_ratio_cases,
    perm_ratio_check,
    rowsum_bound,
    verify_majorant,
)
from .errors import (
    ConditionViolated, ParameterOutOfRange, ParseError, PermboundError, PreconditionViolated,
    ZeroPermanent, ZeroPivot,
)
from .matcore import Matrix, ones, permanent_memo, permanent_ryser, ryser_fits
from .matio import ParsedMatrix, as_subject, matrix_as_strings, parse_matrix_file
from .permschur import BlockSplit, condense, rank1_update_permanent, row_uncrossing_sides, schur_permanent_bound, two_row_inequality_sides
from .perminv import check_identity_dominance
from .process import run_process
from .psd import GramMatrix, alpha_coefficients, permanent_tensor, psd_schur_check, tensor_fits
from .scalars import FLOAT64, RATIONAL, coerce, eq_scalar, format_scalar, leq_scalar

OK, CHECK_FAILED = 0, 1

RATIONAL_DEFAULT_MAX_N = 12


def _error_exit(exc: PermboundError) -> int:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return exc.exit_code


def _pick_arithmetic(flag: str | None, n: int) -> str:
    if flag:
        return RATIONAL if flag == "rational" else FLOAT64
    return RATIONAL if n <= RATIONAL_DEFAULT_MAX_N else FLOAT64


def _number(key: str, text: str) -> Fraction:
    """Parse a decimal or "p/q" parameter exactly; a malformed one is an input error."""
    try:
        return coerce(text, RATIONAL)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterOutOfRange(f"bad {key} value {text!r}: {exc}") from exc


def _timed(phases: dict[str, int], name: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), with its wall time in whole ms put in phases[name]."""
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    phases[name] = int((time.perf_counter() - started) * 1000)
    return result


def _build_report(parsed: ParsedMatrix, arithmetic: str, exact_max: int, ordering=None,
                  eps: str | None = None, want_snapshots: bool = False,
                  want_timing: bool = False) -> dict:
    started = time.perf_counter()
    phases = {}  # the phases that ran, for --timing's phase_ms
    subject = _timed(phases, "convert", as_subject, parsed, arithmetic)
    m = subject.gram if isinstance(subject, GramMatrix) else subject
    trace = _timed(phases, "process", run_process, subject, ordering=ordering)
    rowsum = _timed(phases, "rowsum", rowsum_bound, m)
    report = {
        "id": parsed.matrix_id,
        "n": m.n,
        "arithmetic": arithmetic,
        "process_bound": format_scalar(trace.bound, arithmetic),
        "rowsum_bound": format_scalar(rowsum, arithmetic),
        "ratios": None,
    }
    if m.n <= exact_max and ryser_fits(m):
        exact = _timed(phases, "exact", permanent_ryser, m)
        report["exact_perm"] = format_scalar(exact, arithmetic)
        if exact != 0:
            report["ratios"] = {
                "process_over_exact": format_scalar(trace.bound / exact, arithmetic),
                "rowsum_over_exact": format_scalar(rowsum / exact, arithmetic),
            }
    if eps is not None:
        res = _timed(phases, "certify", diag_dominance_certify, m, _number("eps", eps))
        report["diag_dominance"] = {
            "eps": format_scalar(res.eps, arithmetic),
            "certified": res.certified,
            "bound": None if res.bound is None else format_scalar(res.bound, arithmetic),
        }
        if res.violation is not None:
            report["diag_dominance"]["violation"] = list(res.violation)
    if want_snapshots:
        snapshots = _timed(phases, "snapshots", getattr, trace, "snapshots")
        report["snapshots"] = [matrix_as_strings(s) for s in snapshots]
    if want_timing:
        report["elapsed_ms"] = int((time.perf_counter() - started) * 1000)
        report["phase_ms"] = phases
    return report


def _emit(lines: list[str], out: str | None):
    text = "\n".join(lines) + "\n"
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise ParameterOutOfRange(f"cannot write --out {out!r}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def cmd_bound(args) -> int:
    started = time.perf_counter()
    parsed = parse_matrix_file(args.input, lambda n: _pick_arithmetic(args.arithmetic, n))
    parse_ms = int((time.perf_counter() - started) * 1000)
    arithmetic = _pick_arithmetic(args.arithmetic, parsed.matrix.n)
    ordering = None
    if args.ordering:
        try:
            ordering = tuple(int(p) for p in args.ordering.split(","))
        except ValueError as exc:
            raise ParseError(f"bad --ordering {args.ordering!r}") from exc
    report = _build_report(parsed, arithmetic, args.exact_max, ordering=ordering, eps=args.eps,
                           want_snapshots=args.snapshots, want_timing=args.timing)
    if args.timing:
        report["parse_ms"] = parse_ms
    _emit([json.dumps(report, sort_keys=True)], args.out)
    return OK


# family name -> the parameters it takes; argparse rejects any other name
_FAMILIES = {"exp": {"n", "c"}, "allones": {"n"}, "random-dd": {"n", "eps", "delta", "seed"}}


def _family_instances(name: str, params: dict[str, str], count: int):
    """Yield (ParsedMatrix, eps-or-None) pairs for a named family."""
    def need(key):
        if key not in params:
            raise ParameterOutOfRange(f"family {name!r} needs parameter {key}=...")
        return params[key]

    def intval(key):
        try:
            return int(need(key))
        except ValueError as exc:
            raise ParameterOutOfRange(f"{key} must be an integer") from exc

    extra = set(params) - _FAMILIES[name]
    if extra:
        raise ParameterOutOfRange(f"unknown parameters for {name!r}: {sorted(extra)}")
    if count < 1:
        raise ParameterOutOfRange("count must be >= 1")
    n = intval("n")
    if n < 1:
        raise ParameterOutOfRange(f"n = {n} must be >= 1")
    if name == "exp":
        c = _number("c", need("c"))
        ident = f"exp(n={n},c={need('c')})"
        yield ParsedMatrix(ident, exp_family(n, c)), None
        return
    if name == "allones":
        yield ParsedMatrix(f"allones(n={n})", ones(n)), None
        return
    # random-dd: unit diagonal, off-diagonal entries delta * r with random
    # r in {3/4, 13/16, 7/8, 15/16, 1}, which keeps the Thm 1.4 condition
    # satisfiable for small enough delta while varying with the seed.
    eps = need("eps")
    _number("eps", eps)  # fail before any report is built
    delta = _number("delta", need("delta"))
    if delta < 0:
        raise ParameterOutOfRange(f"delta = {delta} must be >= 0")
    seed = intval("seed")
    for idx in range(count):
        rng = random.Random(seed + idx)
        rows = [
            [
                Fraction(1) if i == j else delta * Fraction(12 + rng.randint(0, 4), 16)
                for j in range(n)
            ]
            for i in range(n)
        ]
        ident = f"random-dd(n={n},eps={eps},delta={delta},seed={seed + idx})"
        yield ParsedMatrix(ident, Matrix(rows, RATIONAL)), eps


def cmd_family(args) -> int:
    params = {}
    for item in args.params:
        if "=" not in item:
            raise ParameterOutOfRange(f"family parameters look like key=value, got {item!r}")
        key, value = item.split("=", 1)
        params[key] = value
    lines = []
    for parsed, eps in _family_instances(args.name, params, args.count):
        arithmetic = _pick_arithmetic(args.arithmetic, parsed.matrix.n)
        report = _build_report(parsed, arithmetic, args.exact_max, eps=eps,
                               want_timing=args.timing)
        lines.append(json.dumps(report, sort_keys=True))
    _emit(lines, args.out)
    return OK


class _Suite:
    """Accumulates PASS/FAIL/SKIP lines for cmd_verify on an n x n input."""

    def __init__(self, n: int):
        self.n = n
        self.lines: list[str] = []
        self.failed = False

    def run(self, name: str, fn, min_n: int = 1):
        if self.n < min_n:
            self.skip(name, f"needs n >= {min_n}")
            return
        try:
            detail = fn()
        except ConditionViolated as exc:
            self.failed = True
            self.lines.append(f"FAIL {name}: {exc}")
            return
        except (ZeroPivot, ZeroPermanent) as exc:  # the check would divide by zero
            self.skip(name, str(exc))
            return
        if detail is None:
            self.lines.append(f"PASS {name}")
        else:
            self.failed = True
            self.lines.append(f"FAIL {name}: {detail}")

    def skip(self, name: str, reason: str):
        self.lines.append(f"SKIP {name}: {reason}")


def _check_schur(suite: _Suite, parsed: ParsedMatrix):
    m = parsed.matrix
    n = m.n

    def rank1():
        pair = rank1_update_permanent(BlockSplit(m, n - 1))
        return None if pair.holds else f"lhs {pair.lhs} != rhs {pair.rhs}"

    def schur_bound():
        zero = []
        for d in range(1, n):
            try:
                pair = schur_permanent_bound(BlockSplit(m, d))
            except ZeroPermanent as exc:  # no bound at this split; check the others
                zero.append(exc)
                continue
            if not pair.holds:
                return f"exact > bound at d = {d}"
            if d == n - 1 and not eq_scalar(pair.lhs, pair.rhs, m.kind):
                return f"k = 1 split not an equality: {pair.lhs} vs {pair.rhs}"
        if len(zero) == n - 1:
            raise zero[0]
        return None

    def dominance():
        return None if check_identity_dominance(m).holds else "a product fails to dominate I"

    suite.run("rank1-identity", rank1, min_n=2)
    suite.run("schur-bound", schur_bound, min_n=2)
    suite.run("identity-dominance", dominance)


def _check_uncross(suite: _Suite, parsed: ParsedMatrix):
    m = parsed.matrix
    n = m.n

    def uncross():
        for d in range(0, n):
            split = BlockSplit(m, d)
            for i_star in range(1, split.k + 1):
                pair = row_uncrossing_sides(split, i_star)
                if not pair.holds:
                    return f"violated at d = {d}, i* = {i_star}"
                if (d == 0 or split.k == 1) and not eq_scalar(pair.lhs, pair.rhs, m.kind):
                    return f"expected equality at d = {d}, k = {split.k}"
        return None

    def two_row():
        pair = two_row_inequality_sides(BlockSplit(m, n - 2))
        return None if pair.holds else f"lhs {pair.lhs} > rhs {pair.rhs}"

    def condense_check():
        pivot = m.entry(1, 1)
        if pivot == 0:
            raise ZeroPermanent("per(B) = a_{1,1} = 0")
        lhs = permanent_ryser(m) / pivot
        rhs = permanent_ryser(condense(BlockSplit(m, 1)))
        return None if leq_scalar(lhs, rhs, m.kind) else f"{lhs} > {rhs}"

    suite.run("row-uncrossing", uncross)
    suite.run("two-row-inequality", two_row, min_n=2)
    suite.run("condense-inequality", condense_check, min_n=2)


def _has_unit_diagonal(m: Matrix) -> bool:
    return all(eq_scalar(x, 1, m.kind) for x in m.diagonal())


def _check_boundedness(suite: _Suite, parsed: ParsedMatrix):
    m = parsed.matrix
    n = m.n
    x = BoundedInput(m, max(Fraction(1), m.entries.max()))

    def entry_scan():
        violation = entry_bound_check(x)
        return None if violation is None else f"entry bound violated at {violation}"

    def perm_ratio():
        rng = random.Random(0) if n > 5 else None
        for s, i, j in perm_ratio_cases(n, rng, 60):
            res = perm_ratio_check(x, s, i, j)
            if not res.holds:
                return f"ratio {res.lhs} > {res.rhs} at S = {s}, i = {i}, j = {j}"
        return None

    def cycle_sum():
        rng = random.Random(0) if n > 5 else None
        for t, s in cycle_sum_cases(n, rng, 60):
            for i0 in s if rng is None else (rng.choice(s),):
                res = cycle_sum_ratio(x, t, s, i0)
                if not res.holds:
                    return f"ratio {res.lhs} > {res.rhs} at t = {t}, S = {s}, i0 = {i0}"
        return None

    suite.run("entry-bound", entry_scan)
    suite.run("perm-ratio", perm_ratio)
    suite.run("cycle-sum", cycle_sum, min_n=3)


def _check_psd(suite: _Suite, parsed: ParsedMatrix):
    g = as_subject(parsed, RATIONAL)
    n = g.n

    def consistency():
        return None if g.gram == parsed.matrix else "factor^T factor mismatch"

    def tensor():
        lhs = permanent_tensor(g)
        rhs = permanent_ryser(g.gram)
        return None if lhs == rhs else f"tensor {lhs} != ryser {rhs}"

    def schur():
        res = psd_schur_check(g)
        return None if res.holds else f"exact {res.lhs} > rhs {res.rhs}"

    def alpha():
        split = BlockSplit(g.gram, n - 1)
        coeffs = alpha_coefficients(split.b, split.y.col(1))
        bad = [k for k, v in enumerate(coeffs) if v < 0]
        return None if not bad else f"negative alpha at positions {bad}"

    def soundness():
        exact = permanent_ryser(g.gram)
        bound = run_process(g).bound
        return None if leq_scalar(exact, bound, g.gram.kind) else f"per {exact} > bound {bound}"

    suite.run("gram-consistency", consistency)
    if tensor_fits(g):
        suite.run("tensor-permanent", tensor)
    else:
        suite.skip("tensor-permanent", "tensor space too large")
    suite.run("psd-schur", schur, min_n=2)
    suite.run("alpha-nonneg", alpha, min_n=2)
    suite.run("process-soundness", soundness)


def _check_majorant(suite: _Suite, parsed: ParsedMatrix):
    def majorant():
        if not parsed.majorant.is_nonneg():  # it cannot bound a non-negative input's recursion
            return "the majorant has a negative entry"
        verify_majorant(parsed.matrix, parsed.majorant)
        return None

    if parsed.matrix.is_nonneg():
        suite.run("majorant-recursion", majorant)
    else:  # a Gram input may have negative entries; its suite lines still print
        suite.skip("majorant-recursion", "needs a non-negative matrix")


# suite name -> (checks, requirement on the input or None, what it needs)
_SUITES = {
    "schur": (_check_schur, None, None),
    "uncross": (_check_uncross, None, None),
    "boundedness": (
        _check_boundedness,
        lambda p: _has_unit_diagonal(p.matrix) and p.matrix.is_nonneg(),
        "a unit-diagonal non-negative matrix",
    ),
    "psd": (_check_psd, lambda p: p.factor is not None, "a gram-kind input with a factor"),
}


def cmd_verify(args) -> int:
    """Run the chosen suite, or every suite under "all".

    A suite whose requirement fails is an input error when asked for by
    name and a SKIP line under "all".  A majorant field is checked under
    any suite, and is a SKIP line when the matrix has a negative entry.
    """
    parsed = parse_matrix_file(args.input)
    suite = _Suite(parsed.matrix.n)
    with permanent_memo():  # the suites share many permanents; each is computed once
        for name, (checks, requires, needs) in _SUITES.items():
            if args.suite not in (name, "all"):
                continue
            if requires is not None and not requires(parsed):
                if args.suite != "all":
                    raise PreconditionViolated(f"{name} suite needs {needs}")
                suite.skip(name, f"needs {needs}")
                continue
            checks(suite, parsed)
        if parsed.majorant is not None:
            _check_majorant(suite, parsed)
    print("\n".join(suite.lines))
    return CHECK_FAILED if suite.failed else OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permbound",
        description="Certified permanent upper bounds via the permanent process",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    reports = argparse.ArgumentParser(add_help=False)  # the options bound and family share
    reports.add_argument("--arithmetic", choices=["float", "rational"], default=None,
                         help="default: rational for n <= 12, float above")
    reports.add_argument("--exact-max", type=int, default=10, dest="exact_max",
                         help="compute the exact permanent when n <= this (default 10)")
    reports.add_argument("--timing", action="store_true",
                         help="include elapsed_ms and phase_ms, and for bound parse_ms")
    reports.add_argument("--out", default=None, help="write the output here instead of stdout")

    p_bound = sub.add_parser("bound", parents=[reports], help="compute bounds for one matrix file")
    p_bound.add_argument("input", help="csv or json matrix file")
    p_bound.add_argument("--ordering", default=None, help="permutation like 2,1,3")
    p_bound.add_argument("--eps", default=None, help="run the diagonal-dominance certificate")
    p_bound.add_argument("--snapshots", action="store_true", help="include A^(t) sequence")
    p_bound.set_defaults(fn=cmd_bound)

    p_family = sub.add_parser("family", parents=[reports],
                              help="run a parametrized matrix family")
    p_family.add_argument("name", choices=list(_FAMILIES))
    p_family.add_argument("params", nargs="*", help="key=value family parameters")
    p_family.add_argument("--count", type=int, default=1,
                          help="instances for random families (seed, seed+1, ...)")
    p_family.set_defaults(fn=cmd_family)

    p_verify = sub.add_parser("verify", help="run property checks against a matrix file")
    p_verify.add_argument("input")
    p_verify.add_argument("--suite", choices=[*_SUITES, "all"], default="all")
    p_verify.set_defaults(fn=cmd_verify)
    return parser


_PARSER = _build_parser()  # built once per process; parse_args leaves it unchanged


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except PermboundError as exc:
        return _error_exit(exc)


if __name__ == "__main__":
    raise SystemExit(main())
