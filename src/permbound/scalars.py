"""Scalar arithmetic kinds and the comparison policy.

Every matrix carries one of two scalar kinds: exact rationals backed by
``fractions.Fraction`` (the default, used for all equality contracts) and
IEEE float64.  Float mode compares equalities at relative tolerance 1e-9
and checks inequalities with a 1e-12 relative slack to absorb rounding;
rational mode compares exactly; `first_failure` applies that policy
entrywise to arrays, and `first_strict_failure` compares with no slack in
either kind, for the certificates.  `to_float64` is the rounding rule from an exact
value to float64; `quotient` divides int by int, exactly or rounded once.
A `SidePair` records both sides of one such check together with its
verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .errors import NonFinite

Scalar = Union[Fraction, float]

RATIONAL = "rational"
FLOAT64 = "float64"

REL_EQ = 1e-9
ABS_EQ = 1e-12
INEQ_SLACK = 1e-12
_MAX_DIGITS = 4300  # CPython's int <-> decimal string limit; a longer exact literal is refused


def coerce(value, kind: str) -> Scalar:
    """Coerce a number (or rational literal string) into the given kind.

    Rational mode accepts int, Fraction, and strings like "3", "-7/2" or
    "0.25" (decimals are parsed exactly).  Floats are rejected in rational
    mode: silently expanding a binary float into a fraction invites
    surprises in exactness contracts.  Float mode rounds the exact value once
    by `to_float64`.  A string is a ValueError when malformed, or when its
    exponent magnitude plus its length passes 4300, before 10^exp is built.
    """
    if kind == RATIONAL:
        if isinstance(value, bool):
            raise TypeError("bool is not a scalar")
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        if isinstance(value, str):
            return _exact(value)
        raise TypeError(f"cannot use {type(value).__name__} as an exact rational")
    if kind == FLOAT64:
        return to_float64(_exact(value) if isinstance(value, str) else value)
    raise ValueError(f"unknown scalar kind: {kind!r}")


def _exact(text: str) -> Fraction:
    """Fraction(text), once an exponent is known not to build an int past _MAX_DIGITS."""
    if "e" in text or "E" in text:
        try:
            digits = abs(int(text.lower().rpartition("e")[2])) + len(text)
        except ValueError:  # not an exponent: Fraction names the bad literal
            digits = 0
        if digits > _MAX_DIGITS:
            raise ValueError(f"{text[:40]!r} has over {_MAX_DIGITS} digits")
    return Fraction(text)


def to_float64(x) -> float:
    """Exact x rounded to float64, except that a nonzero x that rounds to +-0.0 becomes
    +-5e-324, the smallest subnormal of its sign; beyond the float64 range it is NonFinite."""
    try:
        f = float(x)
    except OverflowError as exc:
        raise NonFinite(f"an entry is outside the float64 range: {exc}") from exc
    if f == 0 and x != 0:
        return math.copysign(5e-324, f)
    return f


def zero(kind: str) -> Scalar:
    return Fraction(0) if kind == RATIONAL else 0.0


def one(kind: str) -> Scalar:
    return Fraction(1) if kind == RATIONAL else 1.0


def quotient(num: int, den: int, kind: str) -> Scalar:
    """num / den for ints with den > 0: exact, or rounded once to float64.

    A float64 quotient beyond the float64 range is +-inf.
    """
    if kind == RATIONAL:
        return Fraction(num, den)
    try:
        return num / den  # int true division rounds correctly
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def format_scalar(x: Scalar, kind: str) -> str:
    """Serialize a scalar as a decimal or "p/q" string (lossless).

    A float64 inf or nan has no such string and raises NonFinite.
    """
    if kind == RATIONAL:
        x = Fraction(x)
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    x = float(x)
    if not math.isfinite(x):
        raise NonFinite(f"float64 value {x!r} is not finite")
    return repr(x)


def eq_scalar(x: Scalar, y: Scalar, kind: str) -> bool:
    """Equality under the kind's policy: exact, or rel. tol. 1e-9."""
    if kind == RATIONAL:
        return x == y
    return math.isclose(x, y, rel_tol=REL_EQ, abs_tol=ABS_EQ)


def leq_scalar(x: Scalar, y: Scalar, kind: str) -> bool:
    """x <= y, with a 1e-12-scaled slack in float mode."""
    if kind == RATIONAL:
        return x <= y
    return x <= y + INEQ_SLACK * max(1.0, abs(x), abs(y))


def first_failure(lhs: np.ndarray, rhs: np.ndarray, kind: str):
    """The first (i, j), 1-based in row-major order, where leq_scalar(lhs_ij, rhs_ij) fails.

    lhs and rhs are arrays, or a scalar on one side, broadcast to one shape.
    leq_scalar can fail only where lhs <= rhs fails outright, so only those
    entries are checked.
    """
    lhs, rhs = np.broadcast_arrays(lhs, rhs)
    for i, j in np.argwhere(~(lhs <= rhs)):
        if not leq_scalar(lhs.item(i, j), rhs.item(i, j), kind):
            return int(i) + 1, int(j) + 1
    return None


def first_strict_failure(lhs: np.ndarray, rhs: np.ndarray):
    """The first (i, j), 1-based in row-major order, where lhs <= rhs fails, with no
    slack in either kind (a nan fails); lhs and rhs broadcast as in `first_failure`."""
    bad = np.argwhere(~np.less_equal(lhs, rhs))
    return (int(bad[0][0]) + 1, int(bad[0][1]) + 1) if len(bad) else None


@dataclass(frozen=True)
class SidePair:
    """Two sides of an (in)equality, plus the comparison under the kind's policy."""

    lhs: Scalar
    rhs: Scalar
    holds: bool
