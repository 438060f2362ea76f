"""Repulsive force laws between identical particles.

A force law is a strictly decreasing, strictly positive function F of the
pair distance d > 0, with a finite potential E(d) = integral of F from d to
infinity.  The physical coupling constant is fixed to 1: scaling F rescales
every equilibrium computation uniformly, so nothing is lost.

Three kinds are provided:

* :class:`InversePowerLaw`     F(d) = d**-k        (k >= 2)
* :class:`StretchedExponentialLaw`  F(d) = exp(-d**k)   (k >= 1)
* :class:`TabulatedLaw`        monotone piecewise-cubic interpolation of
  (distance, force) samples, plus a declared analytic tail beyond the grid.

Potentials use closed forms (no quadrature): the inverse-power potential is
d**(1-k)/(k-1) and the stretched-exponential potential reduces to an upper
incomplete gamma function.  Sums of F over arithmetic progressions of
distances - the workhorse behind infinite-tail force computations - use a
Hurwitz-zeta / geometric-series closed form whenever one exists, with a
small certified relative error, and fall back to compensated term-by-term
summation bounded by the integral test otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import gamma as _gamma_fn
from scipy.special import gammaincc as _gammaincc
from scipy.special import zeta as _hurwitz_zeta

from .errors import DomainError, InvalidInput, NotIntegrable

__all__ = [
    "ForceLaw",
    "InversePowerLaw",
    "StretchedExponentialLaw",
    "TabulatedLaw",
    "LawVerification",
    "KahanSum",
    "eval_force",
    "eval_potential",
    "eval_force_derivative",
    "tail_force_bound",
    "verify_law",
    "force_sum_arithmetic",
    "law_to_json",
    "law_from_json",
]

# Relative error budgets for closed-form evaluations, calibrated against
# 40-digit reference values with a safety factor above 15x.
_ZETA_REL_ERR = 1e-14
_GEOMETRIC_REL_ERR = 5e-15
_INCGAMMA_REL_ERR = 1e-12

_EPS = math.ulp(1.0) / 2  # unit roundoff for float64


def _inflate_up(x: float, ops: int) -> float:
    """Round x outward (toward +inf) by one ulp per arithmetic operation."""
    for _ in range(ops):
        x = math.nextafter(x, math.inf)
    return x


class KahanSum:
    """Compensated accumulator tracking a rounding-error bound.

    The bound 2 * eps * sum(|terms|) is the standard estimate for
    compensated summation; the O(n * eps**2) remainder is negligible at
    the term counts used here.
    """

    __slots__ = ("total", "_c", "abs_total")

    def __init__(self) -> None:
        self.total = 0.0
        self._c = 0.0
        self.abs_total = 0.0

    def add(self, term: float) -> None:
        y = term - self._c
        t = self.total + y
        self._c = (t - self.total) - y
        self.total = t
        self.abs_total += abs(term)

    def fp_error(self) -> float:
        return 2.0 * _EPS * self.abs_total


def _require_distance(d: float) -> float:
    d = float(d)
    if not math.isfinite(d) or d <= 0.0:
        raise DomainError(f"pair distance must be finite and positive, got {d!r}")
    return d


class ForceLaw:
    """Common interface of all force-law kinds.  Instances are immutable."""

    kind: str

    def force(self, d: float) -> float:
        raise NotImplementedError

    def potential(self, d: float) -> float:
        raise NotImplementedError

    def force_derivative(self, d: float) -> float:
        raise NotImplementedError

    # Vectorized, validation-free paths for hot loops and brute-force checks.
    def force_array(self, d: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def potential_array(self, d: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def force_derivative_array(self, d: np.ndarray) -> np.ndarray:
        d = np.asarray(d, dtype=float)
        return np.array([self.force_derivative(x) for x in d.ravel()]).reshape(d.shape)

    def arithmetic_sum(self, start: float, gap: float) -> tuple[float, float] | None:
        """Closed form of sum_{j>=0} F(start + j*gap) with an error bound.

        Returns None when no closed form exists for this law; callers then
        fall back to term-by-term summation.
        """
        return None

    def to_json_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class InversePowerLaw(ForceLaw):
    """F(d) = d**-k with exponent k >= 2."""

    k: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.k) or self.k < 2.0:
            raise InvalidInput(f"inverse-power exponent must be >= 2, got {self.k!r}")

    kind = "inverse_power"

    def force(self, d: float) -> float:
        return _require_distance(d) ** -self.k

    def potential(self, d: float) -> float:
        d = _require_distance(d)
        return d ** (1.0 - self.k) / (self.k - 1.0)

    def force_derivative(self, d: float) -> float:
        d = _require_distance(d)
        return -self.k * d ** (-self.k - 1.0)

    def force_array(self, d: np.ndarray) -> np.ndarray:
        return np.asarray(d, dtype=float) ** -self.k

    def potential_array(self, d: np.ndarray) -> np.ndarray:
        return np.asarray(d, dtype=float) ** (1.0 - self.k) / (self.k - 1.0)

    def force_derivative_array(self, d: np.ndarray) -> np.ndarray:
        return -self.k * np.asarray(d, dtype=float) ** (-self.k - 1.0)

    def arithmetic_sum(self, start: float, gap: float) -> tuple[float, float]:
        # sum_{j>=0} (start + j*gap)**-k  ==  gap**-k * zeta(k, start/gap)
        value = gap ** -self.k * float(_hurwitz_zeta(self.k, start / gap))
        return value, value * _ZETA_REL_ERR + 4 * math.ulp(value)

    def to_json_dict(self) -> dict:
        return {"kind": "inverse_power", "k": self.k}


@dataclass(frozen=True)
class StretchedExponentialLaw(ForceLaw):
    """F(d) = exp(-d**k) with exponent k >= 1."""

    k: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.k) or self.k < 1.0:
            raise InvalidInput(
                f"stretched-exponential exponent must be >= 1, got {self.k!r}"
            )

    kind = "exp"

    def force(self, d: float) -> float:
        return math.exp(-(_require_distance(d) ** self.k))

    def potential(self, d: float) -> float:
        d = _require_distance(d)
        if self.k == 1.0:
            return math.exp(-d)
        a = 1.0 / self.k
        # integral of exp(-z**k) from d: substitute u = z**k.
        return float(_gammaincc(a, d**self.k)) * float(_gamma_fn(a)) / self.k

    def force_derivative(self, d: float) -> float:
        d = _require_distance(d)
        return -self.k * d ** (self.k - 1.0) * math.exp(-(d**self.k))

    def force_array(self, d: np.ndarray) -> np.ndarray:
        d = np.asarray(d, dtype=float)
        return np.exp(-(d**self.k))

    def potential_array(self, d: np.ndarray) -> np.ndarray:
        d = np.asarray(d, dtype=float)
        if self.k == 1.0:
            return np.exp(-d)
        a = 1.0 / self.k
        return _gammaincc(a, d**self.k) * float(_gamma_fn(a)) / self.k

    def force_derivative_array(self, d: np.ndarray) -> np.ndarray:
        d = np.asarray(d, dtype=float)
        return -self.k * d ** (self.k - 1.0) * np.exp(-(d**self.k))

    def arithmetic_sum(self, start: float, gap: float) -> tuple[float, float] | None:
        if self.k != 1.0:
            return None  # terms decay super-exponentially; summation is cheap
        # Geometric series: exp(-start) / (1 - exp(-gap)).
        value = math.exp(-start) / -math.expm1(-gap)
        return value, value * _GEOMETRIC_REL_ERR + 4 * math.ulp(value)

    def to_json_dict(self) -> dict:
        return {"kind": "exp", "k": self.k}


_TAIL_KINDS = ("cutoff", "inverse_power", "exp")


@dataclass(frozen=True)
class TabulatedTail:
    """Analytic continuation of a tabulated law beyond its last sample.

    The tail is matched continuously at the last grid point: beyond d_max
    the force is amplitude * d**-k ("inverse_power"), amplitude *
    exp(-d**k) ("exp"), or identically zero ("cutoff", finite support).
    """

    kind: str
    k: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _TAIL_KINDS:
            raise InvalidInput(f"unknown tabulated tail kind {self.kind!r}")
        if self.kind != "cutoff" and (not math.isfinite(self.k) or self.k <= 0.0):
            raise InvalidInput("tabulated tail exponent must be positive")

    def to_json_dict(self) -> dict:
        if self.kind == "cutoff":
            return {"kind": "cutoff"}
        return {"kind": self.kind, "k": self.k}


@dataclass(frozen=True)
class TabulatedLaw(ForceLaw):
    """Force law given by (distance, force) samples plus a declared tail.

    Between samples the force is a monotone piecewise-cubic interpolant, so
    strictly decreasing data stays strictly decreasing.  Below the first
    sample the law is undefined (DomainError).  Beyond the last sample the
    declared tail applies; without one the force is undefined there and the
    potential does not exist.

    The potential integrates the interpolant exactly (piecewise polynomial
    antiderivative) and adds the closed-form tail integral.
    """

    samples: tuple[tuple[float, float], ...]
    tail: TabulatedTail | None = None

    kind = "tabulated"

    def __post_init__(self) -> None:
        pts = tuple((float(d), float(f)) for d, f in self.samples)
        if len(pts) < 2:
            raise InvalidInput("tabulated law needs at least two samples")
        ds = [p[0] for p in pts]
        if ds[0] <= 0.0:
            raise InvalidInput("tabulated distances must be positive")
        if any(b <= a for a, b in zip(ds, ds[1:])):
            raise InvalidInput("tabulated distances must be strictly increasing")
        if any(not math.isfinite(p[0]) or not math.isfinite(p[1]) for p in pts):
            raise InvalidInput("tabulated samples must be finite")
        object.__setattr__(self, "samples", pts)
        fs = np.array([p[1] for p in pts])
        interp = PchipInterpolator(np.array(ds), fs, extrapolate=False)
        object.__setattr__(self, "_interp", interp)
        object.__setattr__(self, "_interp_deriv", interp.derivative())
        object.__setattr__(self, "_interp_anti", interp.antiderivative())

    @property
    def d_min(self) -> float:
        return self.samples[0][0]

    @property
    def d_max(self) -> float:
        return self.samples[-1][0]

    @property
    def _f_max(self) -> float:
        """Force value at the last sample, where the tail is matched."""
        return self.samples[-1][1]

    def _tail_amplitude(self) -> float:
        t = self.tail
        if t.kind == "inverse_power":
            return self._f_max * self.d_max**t.k
        return self._f_max * math.exp(self.d_max**t.k)

    def _tail_force(self, d: float) -> float:
        t = self.tail
        if t is None:
            raise DomainError(
                f"distance {d!r} beyond tabulated range and no declared tail"
            )
        if t.kind == "cutoff":
            return 0.0
        if t.kind == "inverse_power":
            return self._tail_amplitude() * d**-t.k
        return self._tail_amplitude() * math.exp(-(d**t.k))

    def _tail_potential(self, d: float) -> float:
        """Integral of the declared tail from max(d, d_max) to infinity."""
        t = self.tail
        if t is None:
            raise NotIntegrable("tabulated law has no declared tail")
        lo = max(d, self.d_max)
        if t.kind == "cutoff":
            return 0.0
        if t.kind == "inverse_power":
            if t.k <= 1.0:
                raise NotIntegrable(
                    f"declared power tail with exponent {t.k} is not integrable"
                )
            return self._tail_amplitude() * lo ** (1.0 - t.k) / (t.k - 1.0)
        a = 1.0 / t.k
        return (
            self._tail_amplitude()
            * float(_gammaincc(a, lo**t.k))
            * float(_gamma_fn(a))
            / t.k
        )

    def force(self, d: float) -> float:
        d = _require_distance(d)
        if d < self.d_min:
            raise DomainError(f"distance {d!r} below tabulated range")
        if d > self.d_max:
            return self._tail_force(d)
        return float(self._interp(d))

    def potential(self, d: float) -> float:
        d = _require_distance(d)
        if d < self.d_min:
            raise DomainError(f"distance {d!r} below tabulated range")
        if d >= self.d_max:
            return self._tail_potential(d)
        grid_part = float(self._interp_anti(self.d_max) - self._interp_anti(d))
        return grid_part + self._tail_potential(self.d_max)

    def force_derivative(self, d: float) -> float:
        d = _require_distance(d)
        if d < self.d_min:
            raise DomainError(f"distance {d!r} below tabulated range")
        if d > self.d_max:
            t = self.tail
            if t is None:
                raise DomainError(
                    f"distance {d!r} beyond tabulated range and no declared tail"
                )
            if t.kind == "cutoff":
                return 0.0
            if t.kind == "inverse_power":
                return -t.k * self._tail_amplitude() * d ** (-t.k - 1.0)
            return -t.k * d ** (t.k - 1.0) * self._tail_force(d)
        return float(self._interp_deriv(d))

    def force_array(self, d: np.ndarray) -> np.ndarray:
        d = np.asarray(d, dtype=float)
        out = np.empty_like(d)
        below = d < self.d_min
        if np.any(below):
            raise DomainError("distance below tabulated range")
        beyond = d > self.d_max
        inside = ~beyond
        out[inside] = self._interp(d[inside])
        if np.any(beyond):
            t = self.tail
            if t is None:
                raise DomainError("distance beyond tabulated range and no tail")
            if t.kind == "cutoff":
                out[beyond] = 0.0
            elif t.kind == "inverse_power":
                out[beyond] = self._tail_amplitude() * d[beyond] ** -t.k
            else:
                out[beyond] = self._tail_amplitude() * np.exp(-(d[beyond] ** t.k))
        return out

    def potential_array(self, d: np.ndarray) -> np.ndarray:
        d = np.asarray(d, dtype=float)
        return np.array([self.potential(x) for x in d])

    def arithmetic_sum(self, start: float, gap: float) -> tuple[float, float] | None:
        t = self.tail
        if t is None:
            raise NotIntegrable("tabulated law has no declared tail")
        if t.kind == "exp" and t.k != 1.0:
            return None  # cheap term-by-term fallback handles this
        # Finitely many terms land on the grid; the rest follow the tail.
        n_grid = max(0, int(math.ceil((self.d_max - start) / gap)) + 1)
        acc = KahanSum()
        j = 0
        while j < n_grid:
            d = start + j * gap
            if d > self.d_max:
                break
            acc.add(self.force(d))
            j += 1
        err = acc.fp_error() + 5e-15 * acc.abs_total  # interpolant evaluation slop
        rest_start = start + j * gap
        if t.kind == "cutoff":
            return acc.total, err
        amp = self._tail_amplitude()
        if t.kind == "inverse_power":
            if t.k <= 1.0:
                raise NotIntegrable(
                    f"declared power tail with exponent {t.k} is not integrable"
                )
            rest = amp * gap**-t.k * float(_hurwitz_zeta(t.k, rest_start / gap))
            rest_err = rest * _ZETA_REL_ERR + 4 * math.ulp(rest)
        else:  # exp tail with k == 1
            rest = amp * math.exp(-rest_start) / -math.expm1(-gap)
            rest_err = rest * _GEOMETRIC_REL_ERR + 4 * math.ulp(rest)
        return acc.total + rest, err + rest_err

    def to_json_dict(self) -> dict:
        return {
            "kind": "tabulated",
            "samples": [[d, f] for d, f in self.samples],
            "tail": None if self.tail is None else self.tail.to_json_dict(),
        }


# ---------------------------------------------------------------------------
# Module-level operations
# ---------------------------------------------------------------------------


def eval_force(law: ForceLaw, d: float) -> float:
    """Force magnitude F(d) between two particles at distance d > 0."""
    return law.force(d)


def eval_potential(law: ForceLaw, d: float) -> float:
    """Pair potential E(d): the integral of F from d to infinity."""
    return law.potential(d)


def eval_force_derivative(law: ForceLaw, d: float) -> float:
    """dF/dd at distance d; strictly negative for a valid law."""
    return law.force_derivative(d)


def tail_force_bound(law: ForceLaw, start: float, c: float) -> float:
    """Upper bound on sum_{j>=0} F(start + j*c) for any gaps >= c.

    Integral test: each term after the first is at most the mean of F over
    the preceding length-c interval, so the sum is bounded by
    F(start) + E(start)/c.  The returned value is rounded outward by a few
    ulps plus the closed-form evaluation budgets, keeping it a certified
    upper bound.
    """
    start = _require_distance(start)
    if not math.isfinite(c) or c <= 0.0:
        raise InvalidInput(f"minimal gap c must be positive, got {c!r}")
    f0 = law.force(start)
    e0 = law.potential(start)
    bound = f0 * (1.0 + _INCGAMMA_REL_ERR) + e0 * (1.0 + _INCGAMMA_REL_ERR) / c
    return _inflate_up(bound, 8)


def force_sum_arithmetic(
    law: ForceLaw,
    start: float,
    gap: float,
    tol: float = 1e-12,
    max_terms: int = 1_000_000,
) -> tuple[float, float]:
    """Sum of F over the arithmetic distance progression start, start+gap, ...

    Returns (value, error_bound) where error_bound covers truncation and
    floating-point effects.  A closed form is used when the law provides
    one; otherwise terms are accumulated (compensated) until the certified
    remaining-tail bound drops below tol, which is then folded into the
    error bound.
    """
    start = _require_distance(start)
    if not math.isfinite(gap) or gap <= 0.0:
        raise InvalidInput(f"gap must be positive, got {gap!r}")
    closed = law.arithmetic_sum(start, gap)
    if closed is not None:
        return closed
    acc = KahanSum()
    j = 0
    while j < max_terms:
        d = start + j * gap
        remaining = tail_force_bound(law, d, gap)
        if remaining <= tol:
            return acc.total, acc.fp_error() + remaining
        acc.add(law.force(d))
        j += 1
    remaining = tail_force_bound(law, start + j * gap, gap)
    return acc.total, acc.fp_error() + remaining


@dataclass(frozen=True)
class LawVerification:
    """Outcome of verify_law: which invariants hold on the checked grid."""

    positive: bool
    strictly_decreasing: bool
    integrable: bool
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.positive and self.strictly_decreasing and self.integrable

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "positive": self.positive,
            "strictly_decreasing": self.strictly_decreasing,
            "integrable": self.integrable,
            "failures": list(self.failures),
        }


def _default_grid(law: ForceLaw) -> np.ndarray:
    if isinstance(law, TabulatedLaw):
        grid = np.geomspace(law.d_min, law.d_max, 256)
        return np.unique(np.concatenate([grid, [d for d, _ in law.samples]]))
    return np.geomspace(0.1, 100.0, 256)


def verify_law(law: ForceLaw, grid: Sequence[float] | None = None) -> LawVerification:
    """Check positivity, strict monotonicity and tail integrability.

    Positivity and strict decrease are checked pointwise on the grid (the
    sample grid plus a refinement, for tabulated laws); integrability asks
    for a finite potential at the leftmost grid point.
    """
    pts = np.asarray(grid, dtype=float) if grid is not None else _default_grid(law)
    if pts.ndim != 1 or len(pts) < 2 or np.any(pts <= 0):
        raise InvalidInput("verification grid must be 1-d with positive entries")
    pts = np.sort(pts)
    failures: list[str] = []
    values = np.array([law.force(float(d)) for d in pts])
    positive = bool(np.all(values > 0.0))
    if not positive:
        failures.append("force is not strictly positive on the grid")
    decreasing = bool(np.all(np.diff(values) < 0.0))
    if not decreasing:
        failures.append("force is not strictly decreasing on the grid")
    try:
        e = law.potential(float(pts[0]))
        integrable = math.isfinite(e)
        if not integrable:
            failures.append("potential is not finite")
    except NotIntegrable as exc:
        integrable = False
        failures.append(f"tail not integrable: {exc}")
    return LawVerification(positive, decreasing, integrable, tuple(failures))


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------


def law_to_json(law: ForceLaw) -> dict:
    return law.to_json_dict()


def law_from_json(obj: dict) -> ForceLaw:
    """Parse {"kind": ..., ...} into a force law, validating parameters."""
    if not isinstance(obj, dict):
        raise InvalidInput("law: expected an object")
    kind = obj.get("kind")
    if kind == "inverse_power":
        if "k" not in obj:
            raise InvalidInput("law.k: required")
        return InversePowerLaw(float(obj["k"]))
    if kind == "exp":
        if "k" not in obj:
            raise InvalidInput("law.k: required")
        return StretchedExponentialLaw(float(obj["k"]))
    if kind == "tabulated":
        samples = obj.get("samples")
        if not isinstance(samples, list) or not samples:
            raise InvalidInput("law.samples: required")
        tail_obj = obj.get("tail")
        tail = None
        if tail_obj is not None:
            if not isinstance(tail_obj, dict) or "kind" not in tail_obj:
                raise InvalidInput("law.tail: expected an object with a kind")
            tail = TabulatedTail(tail_obj["kind"], float(tail_obj.get("k", 0.0)))
        return TabulatedLaw(tuple((float(d), float(f)) for d, f in samples), tail)
    raise InvalidInput(f"law.kind: unknown kind {kind!r}")
