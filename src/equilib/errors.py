"""Exception types shared across the package, and the checked conversions
that turn malformed outside input into InvalidInput.

Every error raised by the public API derives from :class:`EquilibError`,
so callers can catch one base class.  The concrete classes mirror the
failure modes of the domain: invalid geometry or parameters, evaluation
outside a law's domain, non-integrable tails, and solver breakdowns.
"""

from __future__ import annotations

import contextlib
import math
import numbers


class EquilibError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(EquilibError, ValueError):
    """A value violates a documented precondition (geometry, parameters, schema)."""


class DomainError(EquilibError, ValueError):
    """A law or field was evaluated outside its domain (d <= 0, off-grid, ...)."""


class NotIntegrable(EquilibError, ValueError):
    """The force law has no finite potential (tail integral diverges)."""


class InvalidPins(InvalidInput):
    """Pinned positions do not leave a valid region for the free particles."""


class InfeasibleBracket(EquilibError, RuntimeError):
    """The particles do not fit between the pins, or on the circle, with every
    gap at least the law's d_min; or the outer particles of a zero-centered
    problem cannot balance one side of it."""


class InsufficientEquations(InvalidInput):
    """A reconstruction problem offers fewer usable equations than unknowns."""


class Inapplicable(EquilibError, ValueError):
    """A certificate's hypotheses do not hold for the given configuration."""


class PostconditionViolation(EquilibError, RuntimeError):
    """A solver result contradicts a guaranteed postcondition."""


_NOT_REAL = (TypeError, ValueError, OverflowError)  # what float() raises on a non-number


def _real(value, label: str) -> float:
    """A float from outside input; anything float() rejects is InvalidInput."""
    try:
        return float(value)
    except _NOT_REAL as exc:
        raise InvalidInput(f"{label}: expected a number, got {value!r}") from exc


def _reals(value, label: str, convert=_real) -> list:
    """A list of convert(item) values, floats by default; a non-list is InvalidInput."""
    if not isinstance(value, (list, tuple)):
        raise InvalidInput(f"{label}: expected a list, got {value!r}")
    if convert is _real:  # one float() pass; when it fails, the loop names the first bad item
        with contextlib.suppress(*_NOT_REAL):
            return list(map(float, value))
    return [convert(v, label) for v in value]


def _below(value, lo: float) -> bool:
    """True for a number, not a bool, below lo: a value that the caller's
    own range check rejects before `_check_integer` does."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and value < lo


def _check_integer(name: str, value, lo: float, hi: float = math.inf) -> None:
    """value must be an integer, not a bool, in [lo, hi], or InvalidInput."""
    integer = type(value) is int or type(value) is not bool and isinstance(value, numbers.Integral)
    if not integer or not lo <= value <= hi:  # a plain int skips the ABC test, about 0.5 us
        raise InvalidInput(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")


class NoConvergence(EquilibError, RuntimeError):
    """An iterative solver ended without a result its checks accept.

    Where Newton ran, the message names why it stopped: "target", "stalled",
    "singular" or "budget".  Carries enough context to report a partial
    result: the last iterate (``last``, a tuple of floats), the residual it
    achieved (``residual``) and the number of iterations spent
    (``iterations``).
    """

    def __init__(self, message: str, *, last=None, residual: float | None = None,
                 iterations: int | None = None):
        super().__init__(message)
        self.last = last
        self.residual = residual
        self.iterations = iterations
