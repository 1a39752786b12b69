"""Exception types shared by every module in the package."""

from __future__ import annotations


class PermboundError(Exception):
    """Base class for all errors raised by this package."""


class NotSquare(PermboundError):
    """A square matrix was required (permanent, determinant, process)."""


class DimensionTooLarge(PermboundError):
    """Input exceeds an exact-oracle guard (factorial or 2^n blowup)."""


class DimensionMismatch(PermboundError):
    """Shapes of the supplied blocks or vectors do not tile."""


class IndexOutOfRange(PermboundError):
    """A 1-based row/column index falls outside [1, n] or repeats."""


class NegativeEntry(PermboundError):
    """A matrix that must be entrywise non-negative has a negative entry."""


class NegativeInput(PermboundError):
    """The process requires a non-negative matrix or a certified Gram matrix."""


class ZeroPermanent(PermboundError):
    """per(B) = 0 where a permanental inverse or a ratio denominator is needed."""


class ParameterOutOfRange(PermboundError):
    """A scalar parameter (n, M, k, t, c, eps, ...) violates its range."""


class PreconditionViolated(PermboundError):
    """A structural hypothesis (unit diagonal, entries in [0, M]) fails."""


class InvalidGram(PermboundError):
    """A claimed Gram matrix is inconsistent with positive semidefiniteness."""


class NonFinite(PermboundError):
    """A float64 value overflowed to inf or nan, or an entry is outside the float64 range."""


class ParseError(PermboundError):
    """A matrix file could not be parsed."""


class ZeroPivot(PermboundError):
    """A pivot a^(t)_{t,t} needed as a divisor is zero.

    Carries the 1-based step index ``t`` when known.
    """

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
