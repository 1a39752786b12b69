"""Exception types shared by every module in the package.

Each class carries the CLI exit code it ends in: 2 for an input error, 3
for a numeric error, and 1 (a failed check) otherwise.
"""

from __future__ import annotations


class PermboundError(Exception):
    """Base class for all errors raised by this package."""
    exit_code = 1


class NotSquare(PermboundError):
    """A square matrix was required (permanent, process)."""
    exit_code = 2


class DimensionTooLarge(PermboundError):
    """Input exceeds an exact computation's guard (2^n or d^n terms, or the bit budget)."""
    exit_code = 3


class DimensionMismatch(PermboundError):
    """Shapes of the supplied blocks or vectors do not tile."""
    exit_code = 2


class IndexOutOfRange(PermboundError):
    """A 1-based row/column index falls outside [1, n] or repeats."""
    exit_code = 2


class NegativeEntry(PermboundError):
    """A matrix that must be entrywise non-negative has a negative entry."""
    exit_code = 2


class ZeroPermanent(PermboundError):
    """per(B) = 0 where a permanental inverse or a ratio denominator is needed."""
    exit_code = 3


class ParameterOutOfRange(PermboundError):
    """A scalar parameter (n, M, k, t, c, eps, ...) violates its range."""
    exit_code = 2


class PreconditionViolated(PermboundError):
    """A structural hypothesis (unit diagonal, entries in [0, M]) fails."""
    exit_code = 2


class InvalidGram(PermboundError):
    """A claimed Gram matrix is inconsistent with positive semidefiniteness."""
    exit_code = 2


class NonFinite(PermboundError):
    """A float64 value overflowed to inf or nan, or an entry is outside the float64 range."""
    exit_code = 3


class ParseError(PermboundError):
    """A matrix file could not be parsed."""
    exit_code = 2


class ZeroPivot(PermboundError):
    """A pivot a^(t)_{t,t} needed as a divisor is zero.

    Carries the 1-based step index ``t`` when known.
    """
    exit_code = 3

    def __init__(self, t: int | None = None, message: str | None = None):
        self.t = t
        if message is None:
            message = f"zero pivot at step {t}" if t is not None else "zero pivot"
        super().__init__(message)


class ConditionViolated(PermboundError):
    """A per-entry certificate condition fails; carries the 1-based (i, j)."""

    def __init__(self, i: int, j: int, message: str | None = None):
        self.i = i
        self.j = j
        super().__init__(message or f"condition violated at entry ({i}, {j})")
