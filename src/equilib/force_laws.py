"""Repulsive force laws between identical particles.

A force law is a strictly decreasing, strictly positive function F of the
pair distance d > 0, with a finite potential E(d) = integral of F from d to
infinity.  The physical coupling constant is fixed to 1: scaling F rescales
every equilibrium computation uniformly, so nothing is lost.

Three kinds are provided:

* :class:`InversePowerLaw`     F(d) = d**-k        (k >= 2)
* :class:`StretchedExponentialLaw`  F(d) = exp(-d**k)   (k >= 1)
* :class:`TabulatedLaw`        monotone piecewise-cubic (PCHIP) interpolation
  of (distance, force) samples, plus a declared analytic tail beyond the grid.

Potentials use closed forms (no quadrature): the inverse-power potential is
d**(1-k)/(k-1), the stretched-exponential potential is the upper incomplete
gamma function Gamma(1/k, d**k)/k (series below x = 1/k + 1, Lentz
continued fraction above), and the tabulated potential integrates each
cubic piece exactly.  Sums of F over arithmetic progressions of distances -
the workhorse behind infinite-tail force computations - use a closed form
whenever one exists: Hurwitz zeta by Euler-Maclaurin for inverse powers and
the geometric series for exp(-d), each with a proved error bound.  Other
laws fall back to term-by-term summation in blocks, bounded by the integral
test.  Everything here is numpy and the math module: the closed forms are
elementwise, so one call sums the tails seen from a whole array of starts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, InvalidInput, NotIntegrable, _real

__all__ = [
    "ForceLaw",
    "InversePowerLaw",
    "StretchedExponentialLaw",
    "TabulatedLaw",
    "LawVerification",
    "eval_force",
    "eval_potential",
    "eval_force_derivative",
    "tail_force_bound",
    "verify_law",
    "force_sum_arithmetic",
    "law_to_json",
    "law_from_json",
]

_EPS = math.ulp(1.0) / 2  # unit roundoff for float64

# Relative error budgets of the closed forms, as evaluated in float64.
#
# Hurwitz zeta (`_zeta_sum`): the Euler-Maclaurin truncation budget.
# `_zeta_plan` takes enough direct terms that the first omitted Bernoulli
# correction stays below it, which proves the truncation error; it adds
# the rounding budget of the evaluation, (8n - 1)(1 + 2 rho)u for an
# n-column block: about 1.7e-14 for every k, with n = 19.
_ZETA_REL_ERR = _EPS / 2
_GEOMETRIC_REL_ERR = 5e-15
# Upper incomplete gamma (`_upper_gamma`): the series runs until its next
# term is below 2**-56 of the sum, the continued fraction until its next
# factor is within 4u of 1.  The prefactor exp(a log x - x) carries about
# (x + 10)u for x <= 745, and the cancellation in Gamma(a) - gamma(a, x)
# on the series side (x < a + 1) stays below a factor 45 (below 9 in the
# form used for a < 1/4).  50-digit checks over a in (0, 1] and x in
# [1e-6, 700] stay below 1e-13; the budget keeps a factor 10 above that.
_INCGAMMA_REL_ERR = 1e-12

# Tail sums take start and gap as the caller computed them: start may carry
# up to three roundings (the distance to the tail plus a periodic tail's
# offset, or the grid walk of a tabulated law) and gap one.  A relative
# change eps in every distance moves sum F(d_j) by at most
# eps * sum d_j |F'(d_j)|, which is k * sum for d**-k and at most
# (start + 1) * sum for exp(-d); closed-form bounds add 4u times that.
_PERTURB = 4 * _EPS
# The zeta form adds two roundings of its own to every distance: the
# product j*gap and the sum start + j*gap.
_ZETA_BASE_ROUNDINGS = 2 * _EPS
_TINY = math.ulp(0.0)  # smallest subnormal


# ---------------------------------------------------------------------------
# Special functions: Hurwitz zeta, upper incomplete gamma, PCHIP
# ---------------------------------------------------------------------------

_EM_DIRECT = 9  # terms summed directly before Euler-Maclaurin takes over
_EM_BERNOULLI = 8  # Bernoulli corrections B_2 .. B_16
# B_2, B_4, ..., B_18 as (numerator, denominator)
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
              (-3617, 510), (43867, 798))


@functools.lru_cache(maxsize=64)
def _zeta_plan(k: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Columns and relative error budget of the Euler-Maclaurin sum for x**-k.

    Returns (offsets, exponents, coeffs, gap_powers, rel).  Column c of the
    block is coeff[c] * gap**gap_powers[c] * (start + offset[c] * gap) **
    exponent[c].  In units of the gap, with a = start/gap and x = a + N,
    the columns are the M corrections c_i x**(1-k-2i), where c_i =
    B_2i / (2i)! * k (k+1) ... (k+2i-2), from i = M down to 1, then
    x**-k / 2, x**(1-k) / (k-1) and the direct terms (a + j)**-k from
    j = N-1 down to 0: smallest first.

    The exact sum is at least x**(1-k) / (k-1) (the tail integral) and at
    least a**-k (its first term), so relative to it a correction term
    |c_i| x**(1-k-2i) is at most the smaller of |c_i| (k-1) / N**(2i) and
    its largest value over a >= 0 against a**-k, |c_i| (k / (k+2i-1))**k
    (N (1 + k/(2i-1)))**(1-2i).  N starts at _EM_DIRECT and grows until
    the first omitted term (i = M+1) is below _ZETA_REL_ERR and the
    corrections together (rho) below 1/2; N stays near 10 for every k.
    The budget returned covers rounding too: each of the n columns carries
    one power (under one ulp, 2u), its coefficient (c_i, a power of the
    gap and their product: 4u) and the product of the two (u); any order of
    the n - 1 additions adds (n - 1)u; all relative to the sum of |terms|,
    which is at most (1 + 2 rho) times the sum.
    """

    def correction(i: int) -> float:
        rising = math.prod(k + r for r in range(2 * i - 1))
        num, den = _BERNOULLI[i - 1]
        return num / (den * math.factorial(2 * i)) * rising  # int / int rounds once

    def relative(i: int, n_direct: int) -> float:
        p = 2 * i - 1
        against_integral = (k - 1.0) * n_direct ** -(p + 1.0)
        against_first = (k / (k + p)) ** k * (n_direct * (1.0 + k / p)) ** -float(p)
        return abs(correction(i)) * min(against_integral, against_first)

    n_direct = _EM_DIRECT
    while True:
        omitted = relative(_EM_BERNOULLI + 1, n_direct)
        rho = sum(relative(i, n_direct) for i in range(1, _EM_BERNOULLI + 1))
        if omitted <= _ZETA_REL_ERR and rho <= 0.5:
            break
        n_direct += 1
    order = range(_EM_BERNOULLI, 0, -1)
    direct = [float(j) for j in range(n_direct - 1, -1, -1)]
    offsets = [float(n_direct)] * (_EM_BERNOULLI + 2) + direct
    exponents = [-k - 2 * i + 1 for i in order] + [-k, 1.0 - k] + [-k] * n_direct
    coeffs = [correction(i) for i in order] + [0.5, 1.0 / (k - 1.0)] + [1.0] * n_direct
    gap_powers = [2.0 * i - 1.0 for i in order] + [0.0, -1.0] + [0.0] * n_direct
    n = len(coeffs)
    rel = (7 * n + (n - 1)) * _EPS * (1.0 + 2.0 * rho) + omitted
    plan = (offsets, exponents, coeffs, gap_powers)
    return (*(np.array(v) for v in plan), rel)


def _zeta_sum(k: float, start, gap: float) -> tuple:
    """sum_{j>=0} (start + j*gap)**-k == gap**-k * zeta(k, start/gap), elementwise.

    Euler-Maclaurin: with a = start/gap and x = a + N,
    zeta(k, a) = sum_{j<N} (a+j)**-k + x**(1-k)/(k-1) + x**-k/2
                 + sum_{i<=M} B_2i/(2i)! k(k+1)...(k+2i-2) x**(-k-2i+1) + R,
    where R lies between 0 and the first omitted correction (every even
    derivative of x**-k is positive).  The terms are taken in distance
    units, as powers of start + j*gap, so the leading ones over- or
    underflow only where the sum does.  All powers come from one call over an (n, N+M+2) block,
    then one row sum; a row's sum does not depend on how many rows the
    block has.  The bound is the plan's budget, the rounding carried in
    start and gap, and an absolute allowance for powers that underflow
    (`_zeta_columns`, cached per k and gap).
    """
    shifts, exponents, scaled, rel, underflow = _zeta_columns(k, gap)
    d = np.asarray(start, dtype=float)[..., None] + shifts
    value = np.add.reduce(scaled * d**exponents, axis=-1)
    return value, value * rel + underflow


@functools.lru_cache(maxsize=256)
def _zeta_columns(k: float, gap: float) -> tuple:
    """The plan of `_zeta_sum` for one (k, gap): (shifts j*gap, exponents,
    coefficients times powers of the gap, relative bound, absolute bound).

    The relative bound adds the rounding carried in start and gap and four
    ulps of the result; the absolute one covers powers that underflow: each
    is off by up to one subnormal ulp before its coefficient scales it, and
    each later rounding by one more.
    """
    offsets, exponents, coeffs, gap_powers, rel = _zeta_plan(k)
    scaled = coeffs * gap**gap_powers
    rel += (_PERTURB + _ZETA_BASE_ROUNDINGS) * k + 8 * _EPS
    underflow = 2.0 * (float(np.abs(scaled).sum()) + len(scaled)) * _TINY
    shifts = offsets * gap
    for array in (shifts, exponents, scaled):
        array.setflags(write=False)
    return shifts, exponents, scaled, rel, underflow


def _geometric_sum(start, gap: float) -> tuple:
    """sum_{j>=0} exp(-(start + j*gap)) == exp(-start) / (1 - exp(-gap)), elementwise."""
    value = np.exp(-start) / -math.expm1(-gap)
    bound = value * (_GEOMETRIC_REL_ERR + _PERTURB * (start + 1.0)) + 4 * np.spacing(value)
    return value, bound


_SERIES_STOP = 2.0**-56  # a term below this fraction of the sum cannot change it
_GAMMA_MAX_ITERS = 2000
_SMALL_A = 0.25


@functools.lru_cache(maxsize=64)
def _gamma1p_minus1_over_a(a: float) -> float:
    """(Gamma(1 + a) - 1) / a for 0 < a <= 1/4, without cancellation.

    Uses log Gamma(1 + a) = -euler_gamma a + sum_{n>=2} (-1)**n zeta(n) a**n / n.
    """
    terms = [-0.5772156649015329 * a]
    n = 2
    while True:
        zeta_n = float(_zeta_sum(float(n), 1.0, 1.0)[0])
        term = (-1) ** n * zeta_n * a**n / n
        terms.append(term)
        if abs(term) < _SERIES_STOP * abs(terms[0]):
            break
        n += 1
    return math.expm1(math.fsum(terms)) / a


def _upper_gamma(a: float, x) -> np.ndarray:
    """Gamma(a, x) = integral of t**(a-1) exp(-t) from x to infinity, elementwise.

    a > 0 and x >= 0.  Below x = a + 1 it is Gamma(a) - gamma(a, x) with
    the power series of gamma(a, x), in a form that avoids the cancellation
    against Gamma(a) ~ 1/a when a < 1/4.
    Above, the Legendre continued fraction, evaluated by modified Lentz
    (Numerical Recipes 6.2).  Each element stops on its own test, so its
    value does not depend on the other elements of x.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    low = x < a + 1.0
    if np.any(low):
        xs = x[low]
        with np.errstate(divide="ignore"):
            log_x = np.log(xs)
        if a < _SMALL_A:
            # Gamma(a, x) = (Gamma(1+a) - 1)/a - expm1(a log x)/a
            #               - x**a sum_{n>=1} (-x)**n / (n! (a + n)).
            term = np.ones_like(xs)
            series = np.zeros_like(xs)
            for n in range(1, _GAMMA_MAX_ITERS):
                term = term * -xs / n
                series = series + term / (a + n)
                if np.all(np.abs(term) <= _SERIES_STOP * np.abs(series)):
                    break
            head = _gamma1p_minus1_over_a(a) - np.expm1(a * log_x) / a
            out[low] = head - np.exp(a * log_x) * series
        else:
            term = np.full_like(xs, 1.0 / a)
            series = term.copy()
            for n in range(1, _GAMMA_MAX_ITERS):
                term = term * xs / (a + n)
                series = series + term
                if np.all(term <= _SERIES_STOP * series):
                    break
            out[low] = math.gamma(a) - series * np.exp(a * log_x - xs)
    high = ~low
    if np.any(high):
        xs = x[high]
        # For x >= a + 1 every denominator stays positive: no zero guards.
        b = xs + (1.0 - a)
        c = np.full_like(xs, 1e300)
        d = 1.0 / b
        h = d.copy()
        live = np.ones(xs.shape, dtype=bool)
        for i in range(1, _GAMMA_MAX_ITERS):
            an = -i * (i - a)
            b += 2.0
            d = 1.0 / (an * d + b)
            c = b + an / c
            delta = d * c
            np.multiply(h, delta, out=h, where=live)
            delta -= 1.0
            live &= np.abs(delta) > 4 * _EPS
            if not live.any():
                break
        out[high] = np.exp(a * np.log(xs) - xs) * h
    out[x == math.inf] = 0.0  # where the prefactor above is exp(inf - inf)
    return out


def _pchip_end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point end slope, clipped to keep the data's shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


class _Pchip:
    """Monotone piecewise-cubic Hermite interpolant of samples (x, y).

    Node slopes follow Fritsch and Carlson as scipy's PchipInterpolator
    does: the weighted harmonic mean of the two neighbouring secants, or 0
    where they differ in sign or one is 0, and a one-sided three-point rule
    at the ends.  On [x_i, x_{i+1}] the cubic is c0 s**3 + c1 s**2 + c2 s
    + c3 with s = t - x_i; value, slope and antiderivative (from x_0) are
    its closed forms, summed term by term in ascending powers of s.  Points
    outside [x_0, x_n] use the nearest piece; callers stay inside.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        h = np.diff(x)
        m = np.diff(y) / h
        slopes = np.full(len(x), m[0])
        if len(x) > 2:
            w1 = 2 * h[1:] + h[:-1]
            w2 = h[1:] + 2 * h[:-1]
            flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
            with np.errstate(divide="ignore", invalid="ignore"):
                harmonic = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
                slopes[1:-1] = np.where(flat, 0.0, 1.0 / harmonic)
            slopes[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
            slopes[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (slopes[:-1] + slopes[1:] - 2 * m) / h
        c0, c1, c2, c3 = t / h, (m - slopes[:-1]) / h - t, slopes[:-1], y[:-1]
        self.x = x
        self.value_coeffs = (c3, c2, c1, c0)
        self.slope_coeffs = (c2, 2 * c1, 3 * c0)
        # The antiderivative's constant on piece i is its value at x_i, so
        # it is continuous: piece i-1 (constant included) evaluated at h.
        anti = (c3, c2 / 2, c1 / 3, c0 / 4)
        const = [0.0]
        for i in range(len(h) - 1):
            const.append(self._powers([const[-1]] + [c[i] for c in anti], h[i]))
        self.integral_coeffs = (np.array(const), *anti)

    @staticmethod
    def _powers(coeffs, s):
        """coeffs[0] + coeffs[1] s + coeffs[2] s**2 + ..., added in that order."""
        total, z = coeffs[0], s
        for c in coeffs[1:]:
            total = total + c * z
            z = z * s
        return total

    def _evaluate(self, coeffs, t):
        i = np.clip(np.searchsorted(self.x, t, "right") - 1, 0, len(self.x) - 2)
        return self._powers([c[i] for c in coeffs], t - self.x[i])

    def value(self, t):
        return self._evaluate(self.value_coeffs, t)

    def slope(self, t):
        return self._evaluate(self.slope_coeffs, t)

    def integral(self, t):
        return self._evaluate(self.integral_coeffs, t)


def _require_distance(d: float) -> float:
    d = float(d)
    if not math.isfinite(d) or d <= 0.0:
        raise DomainError(f"pair distance must be finite and positive, got {d!r}")
    return d


def _require_distances(d) -> np.ndarray:
    """`_require_distance` for a float or an array, as a float array."""
    d = np.asarray(d, dtype=float)
    bad = ~(np.isfinite(d) & (d > 0.0))
    if bad.any():
        _require_distance(d[bad].flat[0])
    return d


def _scalar(kernel, d: float) -> float:
    """An array kernel at one distance, on a 1-element array (on a 0-d one
    numpy returns scalars inside the kernel); overflow to inf is a value."""
    with np.errstate(over="ignore"):
        return float(kernel(np.array([_require_distance(d)]))[0])


class ForceLaw:
    """Common interface of all force-law kinds.  Instances are immutable."""

    kind: str

    def force(self, d: float) -> float:
        return _scalar(self.force_array, d)

    def potential(self, d: float) -> float:
        return _scalar(self.potential_array, d)

    def force_derivative(self, d: float) -> float:
        return _scalar(self.force_derivative_array, d)

    # Vectorized, validation-free paths for hot loops and brute-force checks.
    def force_array(self, d: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def potential_array(self, d: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def force_derivative_array(self, d: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def arithmetic_sum(self, start, gap: float) -> tuple | None:
        """Closed form of sum_{j>=0} F(start + j*gap) with an error bound.

        `start` is a float or an array of starts; value and bound follow its
        shape.  The bound also covers rounding in start and gap (see
        `force_sum_arithmetic`).  Returns None when no closed form exists
        for this law; callers then fall back to term-by-term summation.
        """
        return None

    def to_json_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class InversePowerLaw(ForceLaw):
    """F(d) = d**-k with exponent k >= 2."""

    k: float

    def __post_init__(self) -> None:
        # Above 1e18 the Euler-Maclaurin corrections of `_zeta_plan` overflow.
        if not 2.0 <= self.k <= 1e18:
            raise InvalidInput(f"inverse-power exponent must be in [2, 1e18], got {self.k!r}")

    kind = "inverse_power"

    def force_array(self, d: np.ndarray) -> np.ndarray:
        return np.asarray(d, dtype=float) ** -self.k

    def potential_array(self, d: np.ndarray) -> np.ndarray:
        return np.asarray(d, dtype=float) ** (1.0 - self.k) / (self.k - 1.0)

    def force_derivative_array(self, d: np.ndarray) -> np.ndarray:
        return -self.k * np.asarray(d, dtype=float) ** (-self.k - 1.0)

    def arithmetic_sum(self, start, gap: float) -> tuple:
        return _zeta_sum(self.k, start, gap)

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

    def force_array(self, d: np.ndarray) -> np.ndarray:
        d = np.asarray(d, dtype=float)
        return np.exp(-(d**self.k))

    def potential_array(self, d: np.ndarray) -> np.ndarray:
        d = np.asarray(d, dtype=float)
        if self.k == 1.0:
            return np.exp(-d)
        # integral of exp(-z**k) from d: substitute u = z**k.
        return _upper_gamma(1.0 / self.k, d**self.k) / self.k

    def force_derivative_array(self, d: np.ndarray) -> np.ndarray:
        d = np.asarray(d, dtype=float)
        f = np.exp(-(d**self.k))
        out = -self.k * d ** (self.k - 1.0) * f
        if self.k > 2.0:  # then d**(k-1) can overflow where F underflows to 0
            out[f == 0.0] = -0.0
        return out

    def arithmetic_sum(self, start, gap: float) -> tuple | None:
        if self.k != 1.0:
            return None  # terms decay super-exponentially; summation is cheap
        return _geometric_sum(start, gap)

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
        object.__setattr__(self, "_pchip", _Pchip(np.array(ds), np.array([p[1] for p in pts])))
        # The tail is matched at the last sample: amplitude * tail(d_max) = F(d_max).
        t, d_max, amplitude = self.tail, ds[-1], pts[-1][1]
        try:
            if t is not None and t.kind == "inverse_power":
                amplitude *= d_max**t.k
            elif t is not None and t.kind == "exp":
                amplitude *= math.exp(d_max**t.k)
        except OverflowError:
            amplitude = math.inf
        if not math.isfinite(amplitude):
            raise InvalidInput(f"tabulated {t.kind} tail amplitude overflows at d_max = {d_max!r}")
        object.__setattr__(self, "_amplitude", amplitude)

    @property
    def d_min(self) -> float:
        return self.samples[0][0]

    @property
    def d_max(self) -> float:
        return self.samples[-1][0]

    def _beyond(self, d: np.ndarray) -> np.ndarray:
        """Mask of distances past the grid; raises below the first sample."""
        below = d < self.d_min
        if below.any():
            raise DomainError(f"distance {float(d[below][0])!r} below tabulated range")
        return d > self.d_max

    def _tail_force_array(self, d: np.ndarray) -> np.ndarray:
        t = self.tail
        if t is None:
            raise DomainError(f"distance {float(d[0])!r} beyond tabulated range and no tail")
        if t.kind == "cutoff":
            return np.zeros_like(d)
        if t.kind == "inverse_power":
            return self._amplitude * d**-t.k
        return self._amplitude * np.exp(-(d**t.k))

    def force_array(self, d: np.ndarray) -> np.ndarray:
        d = np.asarray(d, dtype=float)
        out = np.empty_like(d)
        beyond = self._beyond(d)
        inside = ~beyond
        out[inside] = self._pchip.value(d[inside])
        if np.any(beyond):
            out[beyond] = self._tail_force_array(d[beyond])
        return out

    def potential_array(self, d: np.ndarray) -> np.ndarray:
        d = np.asarray(d, dtype=float)
        inside = ~self._beyond(d)
        t = self.tail
        if t is None:
            raise NotIntegrable("tabulated law has no declared tail")
        if t.kind == "inverse_power" and t.k <= 1.0:
            raise NotIntegrable(f"declared power tail with exponent {t.k} is not integrable")
        # The tail integral from max(d, d_max); inside the grid the exact
        # integral of the interpolant up to d_max is added to it.
        lo = np.maximum(d, self.d_max)
        if t.kind == "cutoff":
            out = np.zeros_like(d)
        elif t.kind == "inverse_power":
            out = self._amplitude * lo ** (1.0 - t.k) / (t.k - 1.0)
        else:
            out = self._amplitude * _upper_gamma(1.0 / t.k, lo**t.k) / t.k
        grid_part = self._pchip.integral(self.d_max) - self._pchip.integral(d[inside])
        out[inside] = grid_part + out[inside]
        return out

    def force_derivative_array(self, d: np.ndarray) -> np.ndarray:
        d = np.asarray(d, dtype=float)
        out = np.empty_like(d)
        beyond = self._beyond(d)
        inside = ~beyond
        out[inside] = self._pchip.slope(d[inside])
        if np.any(beyond):
            t, x = self.tail, d[beyond]
            if t is None:
                raise DomainError(f"distance {float(x[0])!r} beyond tabulated range and no tail")
            if t.kind == "cutoff":
                out[beyond] = 0.0
            elif t.kind == "inverse_power":
                out[beyond] = -t.k * self._amplitude * x ** (-t.k - 1.0)
            else:
                out[beyond] = -t.k * x ** (t.k - 1.0) * self._tail_force_array(x)
        return out

    def arithmetic_sum(self, start, gap: float) -> tuple | None:
        t = self.tail
        if t is None:
            raise NotIntegrable("tabulated law has no declared tail")
        if t.kind == "exp" and t.k != 1.0:
            return None  # cheap term-by-term fallback handles this
        if t.kind == "inverse_power" and t.k <= 1.0:
            raise NotIntegrable(f"declared power tail with exponent {t.k} is not integrable")
        if np.ndim(start):  # one grid walk per start
            pairs = [self.arithmetic_sum(s, gap) for s in np.ravel(start).tolist()]
            value, bound = (np.array(v, dtype=float).reshape(np.shape(start)) for v in zip(*pairs))
            return value, bound
        # Finitely many terms land on the grid; the rest follow the tail.
        d = start + np.arange(max(0, int((self.d_max - start) // gap) + 2)) * gap
        d = d[d <= self.d_max]
        f = self.force_array(d)
        grid = math.fsum(f.tolist())
        # Rounding of the sum, interpolant evaluation slop, 4u d |F'(d)| for
        # the rounding of each grid distance (as in _sum_terms) and u d |F'(d)|
        # for the interpolant's local coordinate.
        slope = -float(np.sum(d * self.force_derivative_array(d)))
        err = _EPS * abs(grid) + 5e-15 * float(np.sum(f)) + 5 * _EPS * slope
        if t.kind == "cutoff":
            return grid, err
        amp = self._amplitude
        rest_start = start + len(d) * gap
        if t.kind == "inverse_power":
            rest, rest_err = _zeta_sum(t.k, rest_start, gap)
        else:  # exp tail with k == 1
            rest, rest_err = _geometric_sum(rest_start, gap)
        rest = amp * rest
        # The rest carries the rounding of amp, of the product and of the sum.
        return grid + rest, err + amp * rest_err + 5 * _EPS * rest

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


def _certified_forces(law: ForceLaw, d, d_err=0.0) -> tuple[np.ndarray, np.ndarray]:
    """F(d) and a bound on its distance from F at the exact distance, elementwise.

    `d` is an array of computed distances, each within `d_err` (a float or
    an array like d) of the exact one.  The bound is u(4F - 3d F') + ulp(0)
    - F' d_err: a few ulps of F, the condition number d|F'|/F times the
    rounding of d and of d**k inside F (large for exp(-d**k) far out), the
    smallest subnormal in case F underflows, and |F'| times the error of d.
    """
    f = law.force_array(d)
    slope = law.force_derivative_array(d)
    bound = _EPS * (4.0 * f - 3.0 * d * slope) + _TINY
    if isinstance(d_err, np.ndarray) or d_err:
        bound -= slope * d_err
    return f, bound


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
    return float(_tail_bound(law.force(start), law.potential(start), c))


def _tail_bound(f, e, c: float):
    """F + E/c from evaluated force and potential, rounded outward (elementwise)."""
    bound = f * (1.0 + _INCGAMMA_REL_ERR) + e * (1.0 + _INCGAMMA_REL_ERR) / c
    for _ in range(8):  # one ulp per operation
        bound = np.nextafter(bound, math.inf)
    return bound


def force_sum_arithmetic(
    law: ForceLaw,
    start,
    gap: float,
    tol: float = 1e-12,
    max_terms: int = 1_000_000,
) -> tuple:
    """Sum of F over the arithmetic distance progression start, start+gap, ...

    `start` is a float, or an array of starts that share `gap`; value and
    bound then come back as arrays of its shape.  Returns (value,
    error_bound) where error_bound covers truncation and floating-point
    effects, including up to three roundings in start and one in gap from
    the arithmetic that produced them.  Inverse powers (Hurwitz zeta) and
    exp(-d) (geometric series) are closed forms evaluated elementwise; a
    tabulated law walks its grid for each start; other laws add terms, for
    all starts at once, until the certified remaining-tail bound drops below
    tol, which is then folded into the error bound.  Term-by-term summation
    also replaces a closed form whose bound is not finite.
    """
    starts = _require_distances(start)
    if not math.isfinite(gap) or gap <= 0.0:
        raise InvalidInput(f"gap must be positive, got {gap!r}")
    scalar = starts.ndim == 0
    closed = law.arithmetic_sum(float(starts) if scalar else starts, gap)
    # A finite sum of the bounds means every bound is finite.
    bound_ok = closed is not None and math.isfinite(closed[1] if scalar else closed[1].sum())
    if not bound_ok:
        closed = _sum_terms(law, starts, gap, tol, max_terms)
    value, err = closed
    if scalar:
        return float(value), float(err)
    return value, err


_FIRST_BLOCK = 32  # terms per start in the first block; each next block doubles


def _sum_terms(law: ForceLaw, starts: np.ndarray, gap: float, tol: float, max_terms: int) -> tuple:
    """Term-by-term force_sum_arithmetic for an array of starts.

    A start's sum stops before its first term j whose tail_force_bound
    falls to tol (or at j = max_terms), and that bound joins its error.
    Terms are evaluated in blocks of j for all unfinished starts at once
    and summed with math.fsum.  Each term carries 4u F for its evaluation,
    4u d |F'(d)| for the rounding of d (three roundings carried in start,
    one in gap, two in forming d) and 2u d |F'(d)| for one ulp of d**k; the
    sum adds u for its one rounding.  The remainder bound is loose by far
    more than the same allowance on the terms it covers.
    """
    flat = starts.reshape(-1)
    kept: list[list[float]] = [[] for _ in flat]
    slope = [0.0] * len(flat)  # sum of d |F'(d)| over the kept terms
    remaining = [0.0] * len(flat)
    todo = np.arange(len(flat))
    j0, size = 0, _FIRST_BLOCK
    while todo.size:
        j = np.arange(j0, min(j0 + size, max_terms + 1))
        d = flat[todo, None] + j * gap
        f = law.force_array(d)
        # The tail bound exceeds F, so only terms with F <= tol can end a
        # sum; the potential is evaluated for those (and at max_terms) only.
        bound = np.full_like(d, math.inf)
        ask = (f <= tol) | (j == max_terms)
        if ask.any():
            bound[ask] = _tail_bound(f[ask], law.potential_array(d[ask]), gap)
        stop = (bound <= tol) | (j == max_terms)
        done = stop.any(axis=1)
        cut = np.where(done, stop.argmax(axis=1), len(j)).tolist()
        pull = -d * law.force_derivative_array(d)
        for r, row in enumerate(todo.tolist()):
            kept[row] += f[r, : cut[r]].tolist()
            slope[row] += math.fsum(pull[r, : cut[r]].tolist())
            if done[r]:
                remaining[row] = float(bound[r, cut[r]])
        todo = todo[~done]
        j0, size = j0 + len(j), 2 * size
    value = np.array([math.fsum(terms) for terms in kept])  # positive terms: value = mass
    err = _EPS * (5 * value + 6 * np.array(slope)) + np.array(remaining)
    return value.reshape(starts.shape), err.reshape(starts.shape)


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
        return InversePowerLaw(_real(obj["k"], "law.k"))
    if kind == "exp":
        if "k" not in obj:
            raise InvalidInput("law.k: required")
        return StretchedExponentialLaw(_real(obj["k"], "law.k"))
    if kind == "tabulated":
        samples = obj.get("samples")
        if not isinstance(samples, list) or not samples:
            raise InvalidInput("law.samples: required")
        if not all(isinstance(p, (list, tuple)) and len(p) == 2 for p in samples):
            raise InvalidInput("law.samples: expected [distance, force] pairs")
        tail_obj = obj.get("tail")
        tail = None
        if tail_obj is not None:
            if not isinstance(tail_obj, dict) or "kind" not in tail_obj:
                raise InvalidInput("law.tail: expected an object with a kind")
            tail = TabulatedTail(tail_obj["kind"], _real(tail_obj.get("k", 0.0), "law.tail.k"))
        pairs = tuple(
            (_real(d, "law.samples"), _real(f, "law.samples")) for d, f in samples
        )
        return TabulatedLaw(pairs, tail)
    raise InvalidInput(f"law.kind: unknown kind {kind!r}")
