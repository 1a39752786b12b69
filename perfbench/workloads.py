"""Workload definitions: seeded input files and the request mix of each workload.

A workload is a fixed list of requests (one *cycle*).  The benchmark
repeats whole cycles, so every run sees the same mix in the same
proportions whatever the seed or the machine speed; the seed changes
only the matrix entries.  Each mix is laid out so that, sorted by
latency, the median and the tail percentile fall inside a band of
requests of one kind rather than on the boundary between two kinds whose
latencies differ, where a small shift would move the percentile a lot.

Requests that hit a defect known at the time the benchmark was written
carry ``may_fail``: they are counted as failed (never dropped), and the
run is only marked incorrect when a request *without* that mark fails.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

FLOAT, RATIONAL, FAMILY, VERIFY = "bound-float", "bound-rational", "family", "verify"

DEFECT_NONFINITE = "float bound printed as inf/nan with exit 0"
DEFECT_INT_STR = "rational bound exceeds the 4300-digit int->str limit in format_scalar"
DEFECT_GRAM_ALL = "verify --suite all on a Gram input with negative entries stops at NegativeEntry"


@dataclass
class Request:
    """One CLI invocation: ``argv`` for ``permbound.cli.main`` plus what the checker needs."""

    label: str
    kind: str
    argv: list[str]
    matrix_file: Path | None = None
    may_fail: str | None = None
    family: tuple[str, dict[str, str], int] | None = None


@dataclass
class Workload:
    name: str
    tail_pct: float          # the highest percentile with >= 10 requests beyond it
    min_cycles: int          # cycles needed for that, run even past --seconds
    warmup_cycles: int
    requests: list[Request] = field(default_factory=list)


def _rng(workload: str, seed: int, label: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{label}")


def _write_csv(path: Path, rows) -> Path:
    with path.open("w") as f:
        for row in rows:
            f.write(",".join(row))
            f.write("\n")
    return path


def _frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---- bound-float-large -------------------------------------------------------

def _dominant_rows(rng: random.Random, n: int):
    """Theorem-1.4 diagonally dominant: diagonal 1..3, off-diagonal 5e-5..9e-5.

    4 * n * (9e-5)^2 <= 5e-5 for n <= 1500, so ``--eps 1`` certifies.
    """
    for i in range(n):
        yield [str(rng.randint(1, 3)) if i == j else f"0.0000{rng.randint(5, 9)}" for j in range(n)]


def _exp_rows(n: int):
    """c^-|i-j| at c = sqrt(n), as 20-digit decimals (long literals, no randomness)."""
    with localcontext() as ctx:
        ctx.prec = 20
        c = Decimal(n).sqrt()
        powers = [format(c ** -k, ".19E") for k in range(n)]
    for i in range(n):
        yield [powers[abs(i - j)] for j in range(n)]


def _dense_rows(rng: random.Random, n: int):
    """Dense uniform 3-decimal entries in [0.001, 0.999]."""
    for _ in range(n):
        yield [f"0.{rng.randint(1, 999):03d}" for _ in range(n)]


def float_large(seed: int, work: Path, smoke: bool = False) -> Workload:
    w = Workload(
        "bound-float-large",
        tail_pct=72.0, min_cycles=4, warmup_cycles=0,
    )
    small, large = (16, 32) if smoke else (256, 512)
    # Sorted by latency the mix is three cheap requests (~0.5 s), the exp input
    # three times (~0.75 s), then --eps and the two n=512 inputs (1.4-2.1 s), so
    # the median sits in the middle of the exp band and p72 inside the --eps band
    # once there are four cycles.  --eps runs at n=256 only: at n=512 it alone
    # takes ~6 s, and exp at n=512 (~3.3 s) is left out for the same reason.
    plan = [
        ("dd-a", small, "dd", []), ("dd-b", small, "dd", []), ("dense", small, "dense", []),
        ("exp-a", small, "exp", []), ("exp-b", small, "exp", []), ("exp-c", small, "exp", []),
        ("dd-c", small, "dd", ["--eps", "1"]), ("dd", large, "dd", []), ("dense", large, "dense", []),
    ]
    exp_files: dict[int, Path] = {}
    for tag, n, kind, extra in plan:
        label = f"{tag}-{n}"
        path = work / f"{label}.csv"
        if kind == "exp":
            # the exp family has no randomness: one file per n serves every exp request
            if n not in exp_files:
                exp_files[n] = _write_csv(path, _exp_rows(n))
            path = exp_files[n]
        elif kind == "dd":
            _write_csv(path, _dominant_rows(_rng(w.name, seed, label), n))
        else:
            _write_csv(path, _dense_rows(_rng(w.name, seed, label), n))
        w.requests.append(Request(
            label + ("-eps" if extra else ""), FLOAT, ["bound", str(path), *extra],
            matrix_file=path, may_fail=DEFECT_NONFINITE if kind == "dense" else None,
        ))
    return w


# ---- bound-exact-small -------------------------------------------------------

def _positive_rows(rng: random.Random, n: int, lo: int, hi: int):
    for _ in range(n):
        yield [_frac(Fraction(rng.randint(lo, hi), rng.randint(lo, hi))) for _ in range(n)]


def _dominant_rational_rows(rng: random.Random, n: int):
    """Unit diagonal, off-diagonal (12..16)/(128 n): certifies with eps = 1."""
    for i in range(n):
        yield ["1" if i == j else _frac(Fraction(rng.randint(12, 16), 128 * n)) for j in range(n)]


def _exact_requests(name: str, seed: int, work: Path, smoke: bool, variant: str) -> list[Request]:
    reqs = []
    sizes = (4, 5, 6) if smoke else (6, 7, 8, 9, 10, 11, 12)
    # Entries p/q with p, q <= 6 keep the n=12 bound near 2.6k digits, under the
    # 4300-digit str() limit; the n=14 request below is meant to cross it.
    for n in sizes:
        label = f"pos-{n}-{variant}"
        path = _write_csv(work / f"{label}.csv", _positive_rows(_rng(name, seed, label), n, 1, 6))
        reqs.append(Request(label, RATIONAL, ["bound", str(path)], matrix_file=path))
    for n in ((4, 5) if smoke else (6, 8, 10)):
        label = f"dd-{n}-{variant}"
        path = _write_csv(work / f"{label}.csv", _dominant_rational_rows(_rng(name, seed, label), n))
        reqs.append(Request(label + "-eps", RATIONAL, ["bound", str(path), "--eps", "1"], matrix_file=path))
    fam_n = "5" if smoke else "10"
    fam_seed = str(_rng(name, seed, f"family-{variant}").randint(0, 10**6))
    params = {"n": fam_n, "eps": "1", "delta": "1/80", "seed": fam_seed}
    reqs.append(Request(
        f"family-random-dd-{variant}", FAMILY,
        ["family", "random-dd", *(f"{k}={v}" for k, v in params.items()), "--count", "4"],
        family=("random-dd", params, 4),
    ))
    params = {"n": "6" if smoke else "12", "c": "2"}
    reqs.append(Request(f"family-exp-{variant}", FAMILY,
                        ["family", "exp", *(f"{k}={v}" for k, v in params.items())], family=("exp", params, 1)))
    # At n=14 the exact bound has >20k digits for entries in 10..99.
    label = f"pos-14-rational-{variant}"
    path = _write_csv(work / f"{label}.csv", _positive_rows(_rng(name, seed, label), 14, 10, 99))
    reqs.append(Request(label, RATIONAL, ["bound", str(path), "--arithmetic", "rational"],
                        matrix_file=path, may_fail=DEFECT_INT_STR))
    return reqs


def exact_small(seed: int, work: Path, smoke: bool = False) -> Workload:
    w = Workload(
        "bound-exact-small",
        tail_pct=96.0, min_cycles=8, warmup_cycles=1,
    )
    # Three variants of every request: the cost of exact arithmetic depends on
    # the entries, and averaging over variants keeps it from following the seed.
    for v in range(1 if smoke else 3):
        w.requests += _exact_requests(w.name, seed, work, smoke, f"v{v}")
    return w


# ---- verify-suites -----------------------------------------------------------

def _unit_diagonal_rows(rng: random.Random, n: int):
    for i in range(n):
        yield ["1" if i == j else _frac(Fraction(rng.randint(1, 8), 4)) for j in range(n)]


def _gram_doc(rng: random.Random, n: int, d: int = 3) -> dict:
    """A Gram input V^T V with a d x n factor; every column nonzero, some Gram entry negative."""
    while True:
        v = [[Fraction(rng.randint(-4, 4), 2) for _ in range(n)] for _ in range(d)]
        if any(all(v[k][j] == 0 for k in range(d)) for j in range(n)):
            continue
        g = [[sum(v[k][i] * v[k][j] for k in range(d)) for j in range(n)] for i in range(n)]
        if any(x < 0 for row in g for x in row):
            return {"n": n, "kind": "gram",
                    "entries": [[_frac(x) for x in row] for row in g],
                    "factor": [[_frac(x) for x in row] for row in v]}


def verify_suites(seed: int, work: Path, smoke: bool = False) -> Workload:
    w = Workload(
        "verify-suites",
        tail_pct=82.0, min_cycles=5, warmup_cycles=0,
    )
    # n=7 appears twice so the mix has an odd size (the median sits inside a
    # class) and the tail band holds two classes.
    all_sizes = [("a", 4), ("a", 5)] if smoke else [("a", 5), ("a", 6), ("a", 7), ("b", 7), ("a", 8)]
    for tag, n in all_sizes:
        label = f"all-{n}{tag}"
        path = _write_csv(work / f"{label}.csv", _unit_diagonal_rows(_rng(w.name, seed, label), n))
        w.requests.append(Request(label, VERIFY, ["verify", str(path), "--suite", "all"], matrix_file=path))
    for n in ((3, 4) if smoke else (4, 5, 6, 7, 8)):
        label = f"psd-{n}"
        path = work / f"{label}.json"
        path.write_text(json.dumps(_gram_doc(_rng(w.name, seed, label), n)))
        w.requests.append(Request(label, VERIFY, ["verify", str(path), "--suite", "psd"], matrix_file=path))
    label = "gram-all"
    path = work / f"{label}.json"
    path.write_text(json.dumps(_gram_doc(_rng(w.name, seed, label), 6)))
    w.requests.append(Request(label, VERIFY, ["verify", str(path), "--suite", "all"],
                              matrix_file=path, may_fail=DEFECT_GRAM_ALL))
    return w


BUILDERS = {
    "bound-float-large": float_large,
    "bound-exact-small": exact_small,
    "verify-suites": verify_suites,
}
