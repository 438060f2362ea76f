"""Tail sums and special functions against 50-digit mpmath oracles.

`force_sum_arithmetic` must return a value within its own bound of the
exact sum on every path: Hurwitz zeta (inverse powers), the geometric
series (exp(-d)), term-by-term summation (exp(-d**k), k != 1) and the grid
walk of tabulated laws.  The exact sums are taken in mpmath from the float
start and gap.  The upper incomplete gamma function behind the
stretched-exponential potentials is held to its relative budget, and the
PCHIP interpolant is cross-checked against scipy when scipy is installed.
"""

import bisect

import mpmath as mp
import numpy as np
import pytest

import equilib as eq
from equilib import force_laws as fl

mp.mp.dps = 50

WIDE = np.geomspace(1e-3, 1e6, 10)  # starts and gaps on the zeta path


def assert_within(value, bound, exact, label):
    err = abs(mp.mpf(float(value)) - exact)
    assert err <= mp.mpf(float(bound)), (label, float(err), float(bound))


@pytest.mark.parametrize("k", [2.0, 2.001, 3.0, 6.5])
def test_zeta_tail_sums_within_bound(k):
    law = eq.InversePowerLaw(k)
    for gap in WIDE.tolist():
        values, bounds = eq.force_sum_arithmetic(law, WIDE, gap)
        for start, value, bound in zip(WIDE.tolist(), values, bounds):
            exact = mp.mpf(gap) ** -mp.mpf(k) * mp.zeta(mp.mpf(k), mp.mpf(start) / mp.mpf(gap))
            assert_within(value, bound, exact, (k, start, gap))


def euler_maclaurin_power_sum(k, start, gap, direct=40, bernoulli=30):
    """sum_{j>=0} (start + j*gap)^-k from mpmath primitives: `direct` terms,
    then Euler-Maclaurin with `bernoulli` Bernoulli terms for the rest.  At
    60 digits it agrees with itself under more terms to 1e-61 on the cases
    below, where mpmath.zeta is off by up to 2.3e-10 relative."""
    k, start, gap = mp.mpf(k), mp.mpf(start), mp.mpf(gap)
    total = mp.fsum((start + j * gap) ** -k for j in range(direct))
    x = start + direct * gap
    total += x ** (1 - k) / ((k - 1) * gap) + x**-k / 2
    for p in range(1, bernoulli + 1):  # f^(2p-1)(x) = -k(k+1)...(k+2p-2) x^(-k-2p+1)
        derivative = -mp.rf(k, 2 * p - 1) * x ** (-k - 2 * p + 1)
        total -= mp.bernoulli(2 * p) / mp.factorial(2 * p) * gap ** (2 * p - 1) * derivative
    return total


@pytest.mark.parametrize("k", [30, 50, 100])
def test_large_power_zeta_tail_sums_within_bound(k):
    # Absolute errors: under k = 100 the far sums underflow to 0.
    law = eq.InversePowerLaw(k)
    with mp.workdps(60):
        for gap in (0.5, 1.0, 3.0):
            for ratio in (200, 1000, 3000, 7300):  # start / gap
                value, bound = eq.force_sum_arithmetic(law, ratio * gap, gap)
                exact = euler_maclaurin_power_sum(k, ratio * gap, gap)
                assert_within(value, bound, exact, (k, ratio * gap, gap))


def test_geometric_tail_sums_within_bound():
    law = eq.StretchedExponentialLaw(1.0)
    starts = [1e-3, 0.3, 1.0, 7.5, 40.0, 300.0, 700.0]
    for gap in (1e-3, 0.05, 0.3, 1.0, 5.0, 100.0):
        for start in starts:
            value, bound = eq.force_sum_arithmetic(law, start, gap)
            exact = mp.exp(-mp.mpf(start)) / -mp.expm1(-mp.mpf(gap))
            assert_within(value, bound, exact, (start, gap))


def exact_terms(force, start, gap):
    """sum_{j>=0} force(start + j*gap) for a super-exponentially decaying force."""
    total, j = mp.mpf(0), 0
    while True:
        term = force(mp.mpf(start) + j * mp.mpf(gap))
        total += term
        if term < total * mp.mpf(10) ** -60:
            return total
        j += 1


@pytest.mark.parametrize("k", [1.5, 2.0, 3.0])
def test_term_by_term_tail_sums_within_bound(k):
    law = eq.StretchedExponentialLaw(k)
    starts = np.array([0.02, 0.3, 1.0, 2.7, 6.0])
    for gap in (0.05, 0.3, 1.0, 4.0):
        values, bounds = eq.force_sum_arithmetic(law, starts, gap)
        for start, value, bound in zip(starts.tolist(), values, bounds):
            exact = exact_terms(lambda d: mp.exp(-(d ** mp.mpf(k))), start, gap)
            assert_within(value, bound, exact, (k, start, gap))


GRID = np.linspace(0.5, 10.0, 40)
TAILS = {
    "cutoff": eq.TabulatedTail("cutoff"),
    "inverse_power": eq.TabulatedTail("inverse_power", 2.0),
    "exp": eq.TabulatedTail("exp", 1.0),
    "stretched_exp": eq.TabulatedTail("exp", 1.5),
}


def exact_tabulated_force(law):
    """The law as an exact function: its cubic pieces and tail in mpmath."""
    knots = [mp.mpf(x) for x in law._pchip.x.tolist()]
    coeffs = [c.tolist() for c in law._pchip.value_coeffs]  # c3, c2, c1, c0
    tail = law.tail
    d_max = mp.mpf(law.d_max)
    if tail.kind == "inverse_power":
        amp = mp.mpf(law.samples[-1][1]) * d_max ** mp.mpf(tail.k)
    elif tail.kind == "exp":
        amp = mp.mpf(law.samples[-1][1]) * mp.exp(d_max ** mp.mpf(tail.k))

    def force(d):
        if d > d_max:
            if tail.kind == "cutoff":
                return mp.mpf(0)
            if tail.kind == "inverse_power":
                return amp * d ** -mp.mpf(tail.k)
            return amp * mp.exp(-(d ** mp.mpf(tail.k)))
        i = min(max(bisect.bisect_right(knots, d) - 1, 0), len(knots) - 2)
        s = d - knots[i]
        return sum(mp.mpf(c[i]) * s**p for p, c in enumerate(coeffs))

    return force


@pytest.mark.parametrize("name", list(TAILS))
def test_tabulated_tail_sums_within_bound(name):
    law = eq.TabulatedLaw(tuple((d, d**-2.0) for d in GRID.tolist()), TAILS[name])
    force = exact_tabulated_force(law)
    tail = law.tail
    for gap in (0.35, 1.0, 2.5):
        for start in (0.5, 0.93, 2.0, 4.4, 9.7, 10.0, 11.5, 30.0):
            value, bound = eq.force_sum_arithmetic(law, start, gap)
            if tail.kind == "inverse_power":
                # Grid terms one by one, the power tail in closed form.
                j = 0
                exact = mp.mpf(0)
                while mp.mpf(start) + j * mp.mpf(gap) <= law.d_max:
                    exact += force(mp.mpf(start) + j * mp.mpf(gap))
                    j += 1
                first = mp.mpf(start) + j * mp.mpf(gap)
                amp = force(first) * first ** mp.mpf(tail.k)
                exact += amp * mp.mpf(gap) ** -mp.mpf(tail.k) * mp.zeta(
                    mp.mpf(tail.k), first / mp.mpf(gap)
                )
            elif tail.kind == "cutoff":
                exact = mp.mpf(0)
                j = 0
                while mp.mpf(start) + j * mp.mpf(gap) <= law.d_max:
                    exact += force(mp.mpf(start) + j * mp.mpf(gap))
                    j += 1
            else:
                exact = exact_terms(force, start, gap)
            assert_within(value, bound, exact, (name, start, gap))


@pytest.mark.parametrize("a", [0.001, 0.01, 0.05, 0.1, 0.2, 0.25, 1 / 3, 0.5, 2 / 3, 0.9, 1.0])
def test_upper_incomplete_gamma_within_budget(a):
    x = np.concatenate([np.geomspace(1e-6, 700.0, 80), [a + 1.0, np.nextafter(a + 1.0, 0.0)]])
    got = fl._upper_gamma(a, x)
    for xv, gv in zip(x.tolist(), got.tolist()):
        exact = mp.gammainc(mp.mpf(a), mp.mpf(xv))
        assert abs(mp.mpf(gv) - exact) <= fl._INCGAMMA_REL_ERR * exact, (a, xv)


def test_upper_incomplete_gamma_value_does_not_depend_on_the_batch():
    x = np.geomspace(1e-3, 50.0, 37)
    together = fl._upper_gamma(0.4, x)
    alone = np.array([fl._upper_gamma(0.4, np.array([v]))[0] for v in x.tolist()])
    assert np.array_equal(together, alone)


def test_upper_incomplete_gamma_at_infinity_is_zero_without_warnings():
    # d**1.5 overflows to inf at d = 1e300.  Gamma(a, inf) = 0 must come
    # without an invalid-value RuntimeWarning, which this suite makes an
    # error, and without moving the finite elements of the batch.
    law = eq.StretchedExponentialLaw(1.5)
    assert law.potential(1e300) == 0.0
    assert fl.tail_force_bound(law, 1e300, 1.0) == 4e-323
    x = np.array([0.5, 3.0, np.inf])
    got = fl._upper_gamma(2.0 / 3.0, x)
    assert got[2] == 0.0
    assert np.array_equal(got[:2], fl._upper_gamma(2.0 / 3.0, x[:2]))


def test_stretched_exponential_potential_matches_oracle():
    for k in (1.5, 2.0, 6.5):
        law = eq.StretchedExponentialLaw(k)
        for d in (0.05, 0.5, 1.0, 2.0, 4.0):
            if d**k > 700.0:  # the potential underflows
                continue
            exact = mp.gammainc(1 / mp.mpf(k), mp.mpf(d) ** mp.mpf(k)) / mp.mpf(k)
            # One rounding of d**k moves the result by up to d**k u relatively.
            tol = fl._INCGAMMA_REL_ERR + 4 * d**k * 2.0**-53
            assert abs(mp.mpf(law.potential(d)) - exact) <= tol * exact, (k, d)


def test_pchip_matches_scipy():
    interpolate = pytest.importorskip("scipy.interpolate")
    rng = np.random.default_rng(5)
    for trial in range(12):
        x = np.unique(rng.uniform(0.1, 20.0, int(rng.integers(2, 30))))
        if len(x) < 2:
            continue
        y = np.sort(rng.uniform(0.01, 5.0, len(x)))[::-1].copy()
        if trial % 3 == 0:  # not monotone: flat slopes at sign changes
            y = rng.uniform(-1.0, 1.0, len(x))
        ref = interpolate.PchipInterpolator(x, y, extrapolate=False)
        mine = fl._Pchip(x, y)
        t = np.concatenate([x, rng.uniform(x[0], x[-1], 100)])
        scale = float(np.max(np.abs(y)))
        for got, want in (
            (mine.value(t), ref(t)),
            (mine.slope(t), ref.derivative()(t)),
            (mine.integral(t), ref.antiderivative()(t)),
        ):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-14 * scale)
