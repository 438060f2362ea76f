import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equilib as eq
from equilib.force_laws import _FIRST_BLOCK

LAWS = [eq.InversePowerLaw(2), eq.InversePowerLaw(3), eq.StretchedExponentialLaw(1)]


def test_force_point_values():
    assert eq.eval_force(eq.InversePowerLaw(2), 2.0) == 0.25
    assert eq.eval_force(eq.InversePowerLaw(3), 1.0) == 1.0
    assert eq.eval_force(eq.StretchedExponentialLaw(1), math.log(2.0)) == pytest.approx(
        0.5, rel=1e-15
    )


def test_force_rejects_nonpositive_distance():
    for law in LAWS:
        with pytest.raises(eq.DomainError):
            eq.eval_force(law, 0.0)
        with pytest.raises(eq.DomainError):
            eq.eval_force(law, -1.0)


def test_potential_point_values():
    assert eq.eval_potential(eq.InversePowerLaw(2), 2.0) == pytest.approx(0.5, rel=1e-15)
    assert eq.eval_potential(eq.InversePowerLaw(3), 1.0) == pytest.approx(0.5, rel=1e-15)
    assert eq.eval_potential(eq.StretchedExponentialLaw(1), 1.0) == pytest.approx(
        math.exp(-1.0), rel=1e-15
    )


def test_derivative_point_values():
    assert eq.eval_force_derivative(eq.InversePowerLaw(2), 1.0) == pytest.approx(-2.0, rel=1e-15)
    assert eq.eval_force_derivative(eq.InversePowerLaw(2), 2.0) == pytest.approx(-0.25, rel=1e-15)
    assert eq.eval_force_derivative(eq.StretchedExponentialLaw(1), 0.5) == pytest.approx(
        -math.exp(-0.5), rel=1e-15
    )


def test_derivative_matches_finite_difference():
    h = 1e-6
    for law in LAWS:
        for d in (0.3, 1.0, 2.7):
            fd = (eq.eval_force(law, d + h) - eq.eval_force(law, d - h)) / (2 * h)
            assert eq.eval_force_derivative(law, d) == pytest.approx(fd, rel=1e-7)


def test_tail_bound_closed_form_values():
    # The bound is the closed form rounded outward by a few parts in 1e12 so
    # it stays an upper bound after floating-point evaluation.
    law = eq.InversePowerLaw(2)
    # F(1) + integral of t^-2 from 1: 1 + 1 = 2.
    assert eq.tail_force_bound(law, 1.0, 1.0) == pytest.approx(2.0, rel=1e-11)
    assert eq.tail_force_bound(law, 1.0, 1.0) >= 2.0
    # F(10) + integral from 10: 0.01 + 0.1.
    assert eq.tail_force_bound(law, 10.0, 1.0) == pytest.approx(0.11, rel=1e-11)
    assert eq.tail_force_bound(law, 10.0, 1.0) >= 0.11


def test_tail_bound_dominates_true_series():
    """The bound must sit above the actual infinite sum it covers.

    Oracle: partial sum of 1/(1+k)^2 over one million terms, plus an integral
    bound on the discarded remainder, brackets the true value (pi^2/6).
    """
    law = eq.InversePowerLaw(2)
    bound = eq.tail_force_bound(law, 1.0, 1.0)
    k = np.arange(1_000_000, dtype=float)
    partial = float(np.sum(1.0 / (1.0 + k) ** 2))
    remainder = 1.0 / (1.0 + k[-1])
    assert partial == pytest.approx(math.pi**2 / 6.0, abs=2e-6)
    assert bound >= partial + remainder


@settings(max_examples=60, deadline=None)
@given(
    start=st.floats(0.1, 40.0, allow_nan=False),
    extra=st.floats(0.01, 10.0, allow_nan=False),
    gap=st.floats(0.2, 3.0, allow_nan=False),
)
def test_tail_bound_strictly_decreasing_in_start(start, extra, gap):
    for law in LAWS:
        assert eq.tail_force_bound(law, start + extra, gap) < eq.tail_force_bound(law, start, gap)


def test_arithmetic_force_sum_matches_closed_forms():
    val, err = eq.force_sum_arithmetic(eq.InversePowerLaw(2), 1.0, 1.0)
    assert err <= 1e-12
    assert abs(val - math.pi**2 / 6.0) <= err + 1e-13

    # Exponential terms form a geometric series.
    val, err = eq.force_sum_arithmetic(eq.StretchedExponentialLaw(1), 0.7, 0.4)
    closed = math.exp(-0.7) / (1.0 - math.exp(-0.4))
    assert abs(val - closed) <= err + 1e-13


def test_arithmetic_force_sum_error_bound_covers_slow_oracle():
    # Oracle: direct summation of enough terms that the leftover is provably
    # below 1e-13 by the integral test.
    law = eq.InversePowerLaw(3)
    start, gap = 0.5, 0.7
    val, err = eq.force_sum_arithmetic(law, start, gap)
    j = np.arange(5_000_000, dtype=float)
    terms = 1.0 / (start + j * gap) ** 3
    direct = float(np.sum(terms))
    leftover = 1.0 / (2.0 * gap * (start + len(j) * gap) ** 2)
    assert leftover < 1e-13
    assert abs(val - direct) <= err + leftover + 1e-12


def test_force_sum_requires_positive_start():
    with pytest.raises(eq.DomainError):
        eq.force_sum_arithmetic(eq.InversePowerLaw(2), 0.0, 1.0)


def test_verify_law_accepts_builtin():
    rep = eq.verify_law(eq.InversePowerLaw(2), grid=np.linspace(0.1, 10.0, 200))
    assert rep.positive
    assert rep.strictly_decreasing
    assert rep.integrable
    assert rep.failures == ()


def test_verify_law_flags_flat_segment():
    flat = eq.TabulatedLaw(
        samples=((0.5, 2.0), (1.0, 1.0), (2.0, 1.0), (4.0, 0.2)),
        tail=eq.TabulatedTail("inverse_power", 3.0),
    )
    rep = eq.verify_law(flat)
    assert not rep.strictly_decreasing
    assert any("strictly decreasing" in f for f in rep.failures)


def test_verify_law_flags_non_integrable_tail():
    harmonic = eq.TabulatedLaw(
        samples=tuple((d, 1.0 / d) for d in (0.5, 1.0, 2.0, 4.0, 8.0)),
        tail=eq.TabulatedTail("inverse_power", 1.0),
    )
    rep = eq.verify_law(harmonic)
    assert not rep.integrable
    assert any("not integrable" in f for f in rep.failures)


@settings(max_examples=60, deadline=None)
@given(
    d1=st.floats(0.05, 20.0, allow_nan=False),
    d2=st.floats(0.05, 20.0, allow_nan=False),
)
def test_force_positive_and_strictly_decreasing(d1, d2):
    lo, hi = sorted((d1, d2))
    for law in LAWS:
        f_lo = eq.eval_force(law, lo)
        f_hi = eq.eval_force(law, hi)
        assert f_lo > 0.0
        # Adjacent floats can round to the same force value; strictness is
        # only assertable once the separation is resolvable.
        if hi > lo:
            assert f_hi <= f_lo
        if hi - lo >= 1e-9:
            assert f_hi < f_lo


def test_law_json_round_trip():
    for law in LAWS:
        again = eq.law_from_json(eq.law_to_json(law))
        for d in (0.3, 1.0, 4.2):
            assert eq.eval_force(again, d) == eq.eval_force(law, d)


TABULATED_GRID = np.linspace(0.5, 10.0, 40)


def tabulated_inverse_square(tail):
    return eq.TabulatedLaw(samples=tuple((d, d**-2.0) for d in TABULATED_GRID), tail=tail)


@pytest.mark.parametrize(
    "law",
    [
        tabulated_inverse_square(eq.TabulatedTail("cutoff")),
        tabulated_inverse_square(eq.TabulatedTail("inverse_power", 2.0)),
        tabulated_inverse_square(eq.TabulatedTail("exp", 1.0)),
        tabulated_inverse_square(eq.TabulatedTail("exp", 1.5)),
        eq.InversePowerLaw(2.5),
        eq.StretchedExponentialLaw(1.5),
        eq.InversePowerLaw(2),
        eq.InversePowerLaw(3),
        eq.StretchedExponentialLaw(1),
    ],
    ids=["cutoff", "inverse_power", "exp", "stretched_exp",
         "inverse_power_potential", "stretched_exp_potential",
         "inverse_power_2", "inverse_power_3", "exp_1"],
)
def test_tabulated_arrays_match_scalar_methods(law):
    # The scalars are the array kernels on one element: the same bits, for
    # every law kind and every quantity (F, E and F').
    mids = 0.5 * (TABULATED_GRID[1:] + TABULATED_GRID[:-1])
    beyond = TABULATED_GRID[-1] * np.array([1.0 + 1e-12, 1.25, 2.0, 3.7])
    d = np.concatenate([TABULATED_GRID, mids, beyond])
    pairs = [(law.potential_array, law.potential), (law.force_array, law.force),
             (law.force_derivative_array, law.force_derivative)]
    for array_fn, scalar_fn in pairs:
        got = array_fn(d)
        ref = np.array([scalar_fn(x) for x in d])
        assert got.shape == d.shape
        assert np.array_equal(got, ref), array_fn.__name__
    block = d[-12:].reshape(3, 4)
    for array_fn in (law.potential_array, law.force_derivative_array):
        assert np.array_equal(array_fn(block), array_fn(d[-12:]).reshape(3, 4))


def test_scalar_domain_errors_name_the_distance():
    tailed = tabulated_inverse_square(eq.TabulatedTail("inverse_power", 2.0))
    untailed = tabulated_inverse_square(None)
    for fn in (tailed.force, tailed.potential, tailed.force_derivative):
        with pytest.raises(eq.DomainError, match="distance 0.375 below"):
            fn(0.375)
    for fn in (untailed.force, untailed.force_derivative):
        with pytest.raises(eq.DomainError, match="distance 12.5 beyond"):
            fn(12.5)
    with pytest.raises(eq.NotIntegrable):
        untailed.potential(12.5)
    # Every law names the smallest distance of its domain.
    assert [law.d_min for law in LAWS] == [0.0] * len(LAWS)
    assert tailed.d_min == untailed.d_min == tailed.samples[0][0]


def test_extreme_distances_and_exponents_stay_in_the_float_range():
    # Python's float power raises OverflowError where numpy returns inf; the
    # scalar closed forms follow numpy's values there.
    stretched, steep = eq.StretchedExponentialLaw(1.5), eq.StretchedExponentialLaw(3.0)
    assert stretched.force(1e300) == 0.0
    assert stretched.force_derivative(1e300) == 0.0
    assert eq.InversePowerLaw(2).force(1e-200) == math.inf
    assert eq.InversePowerLaw(2).force_derivative(1e-200) == -math.inf
    far = np.array([2.0, 1e200, 1e300])
    with np.errstate(all="ignore"):  # numpy's overflow warnings are expected here
        for law in (stretched, steep, eq.StretchedExponentialLaw(1e300)):
            for fn in (law.force_array, law.potential_array, law.force_derivative_array):
                assert np.all(np.isfinite(fn(far))), (law, fn.__name__)
        assert steep.force_derivative_array(far)[1:].tolist() == [0.0, 0.0]
    # The Euler-Maclaurin corrections of the zeta form overflow past k = 1e18.
    value, bound = eq.force_sum_arithmetic(eq.InversePowerLaw(1e18), 1.5, 1.0)
    assert (value, bound < 1e-60) == (0.0, True)
    with pytest.raises(eq.InvalidInput):
        eq.InversePowerLaw(1.1e18)


def test_closed_form_with_an_overflowing_bound_falls_back_to_summation():
    # gap**17 overflows in the zeta columns; one term is left at this gap.
    with np.errstate(all="ignore"):
        value, bound = eq.force_sum_arithmetic(eq.InversePowerLaw(2), 4.25, 1e300)
    assert math.isfinite(bound)
    assert abs(value - 4.25**-2) <= bound


def test_term_sums_stop_at_a_non_finite_term(monkeypatch):
    # At gaps of 1e-160 the closed form's bound overflows and so do the first
    # 1/d^2 terms: each sum is inf after its first block and stops there.
    evaluated = []
    original = eq.InversePowerLaw.force_array

    def spy(self, d):
        evaluated.append(np.size(d))
        return original(self, d)

    monkeypatch.setattr(eq.InversePowerLaw, "force_array", spy)
    with np.errstate(all="ignore"):
        value, bound = eq.force_sum_arithmetic(eq.InversePowerLaw(2), [1e-160, 3e-160], 1e-160)
    assert np.isinf(value).all() and np.isinf(bound).all()
    assert sum(evaluated) <= 2 * _FIRST_BLOCK


def test_term_sum_that_misses_its_tolerance_certifies_nothing():
    # exp(-d^1.5) terms 1e-300 apart do not decay within max_terms, so the
    # remainder bound is never met and the sum's error bound is infinite.
    value, bound = eq.force_sum_arithmetic(eq.StretchedExponentialLaw(1.5), 1e-300, 1e-300,
                                           max_terms=1000)
    assert (value, bound) == (1000.0, math.inf)
    # A sum that meets its tolerance keeps its bits.
    assert eq.force_sum_arithmetic(eq.StretchedExponentialLaw(1.5), 0.5, 1.0) == (
        0.8821715483605539, 2.3426528815429696e-13)


def test_tail_sums_overflow_quietly():
    # Powers of a tiny or huge start or gap overflow: 1/d^2 at starts and
    # gaps of 1e-160 (sum and bound inf), at a gap of 1e-310 (a term sum
    # whose bound is inf), at starts and gaps of 1e200 or a gap of 1e300,
    # and exp(-d^2000) at d = 2.  Each sum comes back without a warning,
    # where warnings are errors and no solver has opened an error state.
    law = eq.InversePowerLaw(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, bound = eq.force_sum_arithmetic(law, [1e-160, 3e-160], 1e-160)
        assert value.tolist() == bound.tolist() == [math.inf, math.inf]
        assert eq.force_sum_arithmetic(law, 1e-160, 1e-160) == (math.inf, math.inf)
        assert eq.force_sum_arithmetic(law, 1.0, 1e-310, max_terms=1000) == (1000.0, math.inf)
        value, bound = eq.force_sum_arithmetic(eq.StretchedExponentialLaw(1), 1.0, 1e-310,
                                               max_terms=1000)
        assert bound == math.inf
        value, bound = eq.force_sum_arithmetic(law, [1e200, 3e200], 1e200)
        assert value.tolist() == [0.0, 0.0] and np.isfinite(bound).all()
        assert eq.force_sum_arithmetic(law, 2.0, 1e300)[0] == 0.25
        value, bound = eq.force_sum_arithmetic(eq.StretchedExponentialLaw(2000.0), 2.0, 1.0)
        assert value == 0.0 and math.isfinite(bound)
    assert np.geterr()["over"] == "warn"  # the error state closed with the call


def test_tabulated_arrays_keep_domain_rules():
    tailed = tabulated_inverse_square(eq.TabulatedTail("inverse_power", 2.0))
    untailed = tabulated_inverse_square(None)
    below = np.array([1.0, 0.4])
    for law in (tailed, untailed):
        for fn in (law.force_array, law.potential_array, law.force_derivative_array):
            with pytest.raises(eq.DomainError):
                fn(below)
    past = np.array([1.0, 12.0])
    with pytest.raises(eq.DomainError):
        untailed.force_array(past)
    with pytest.raises(eq.DomainError):
        untailed.force_derivative_array(past)
    # No tail means no potential anywhere, as for the scalar method.
    with pytest.raises(eq.NotIntegrable):
        untailed.potential_array(np.array([1.0, 2.0]))
    with pytest.raises(eq.NotIntegrable):
        untailed.potential(1.0)
    edge = untailed.force_derivative_array(np.array([1.0, untailed.d_max]))
    assert np.array_equal(edge, [untailed.force_derivative(1.0), untailed.force_derivative(10.0)])
    harmonic = tabulated_inverse_square(eq.TabulatedTail("inverse_power", 1.0))
    with pytest.raises(eq.NotIntegrable):
        harmonic.potential_array(np.array([1.0, 12.0]))


ARRAY_SUM_LAWS = {
    "1/d^2": eq.InversePowerLaw(2),
    "1/d^2.5": eq.InversePowerLaw(2.5),
    "exp(-d)": eq.StretchedExponentialLaw(1),
    "exp(-d^1.5)": eq.StretchedExponentialLaw(1.5),
    "tabulated-cutoff": tabulated_inverse_square(eq.TabulatedTail("cutoff")),
    "tabulated-power": tabulated_inverse_square(eq.TabulatedTail("inverse_power", 2.0)),
    "tabulated-exp": tabulated_inverse_square(eq.TabulatedTail("exp", 1.0)),
    "tabulated-stretched": tabulated_inverse_square(eq.TabulatedTail("exp", 1.5)),
}


@pytest.mark.parametrize("name", list(ARRAY_SUM_LAWS))
def test_force_sum_arithmetic_array_matches_scalar_calls(name):
    law = ARRAY_SUM_LAWS[name]
    # Starts on, between and past the tabulated grid, in a 2 x 4 block.
    starts = np.array([[0.5, 0.93, 2.0, 4.4], [9.7, 10.0, 11.5, 30.0]])
    for gap in (0.35, 1.0, 2.5):
        value, bound = eq.force_sum_arithmetic(law, starts, gap)
        assert value.shape == bound.shape == starts.shape
        for idx in np.ndindex(starts.shape):
            scalar = eq.force_sum_arithmetic(law, float(starts[idx]), gap)
            assert all(isinstance(v, float) for v in scalar)
            assert (value[idx], bound[idx]) == scalar, (idx, gap)


@pytest.mark.parametrize("name", list(ARRAY_SUM_LAWS))
def test_force_sum_arithmetic_array_keeps_error_types(name):
    law = ARRAY_SUM_LAWS[name]
    for bad_start in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(eq.DomainError):
            eq.force_sum_arithmetic(law, bad_start, 1.0)
        with pytest.raises(eq.DomainError):
            eq.force_sum_arithmetic(law, np.array([1.0, bad_start, 2.0]), 1.0)
    for bad_gap in (0.0, -0.5, math.nan):
        with pytest.raises(eq.InvalidInput):
            eq.force_sum_arithmetic(law, 1.0, bad_gap)
        with pytest.raises(eq.InvalidInput):
            eq.force_sum_arithmetic(law, np.array([1.0, 2.0]), bad_gap)


@pytest.mark.parametrize("k", [2, 3, 2.5, 6, 17.3])
def test_inverse_power_arrays_keep_the_bits_of_python_float_exponents(k):
    # The law raises to read-only 0-d operands -k and -k - 1, built once; the
    # reference is the expression with Python-float exponents they replaced.
    # Exponents at most -2 take numpy's general power loop either way.
    law = eq.InversePowerLaw(k)

    def force(d):
        return np.asarray(d, dtype=float) ** -k

    def derivative(d):
        return -k * np.asarray(d, dtype=float) ** (-k - 1.0)

    rng = np.random.default_rng(35)
    d = 10.0 ** rng.uniform(-300.0, 300.0, size=100_000)  # overflow to inf included
    inputs = [d, d[:60].reshape(6, 10), d[:7].tolist(), float(d[0]), np.array(d[1]), 1e-300,
              1e300, [1, 2, 3]]
    with np.errstate(all="ignore"):
        for got_fn, want_fn in ((law.force_array, force),
                                (law.force_derivative_array, derivative)):
            for x in inputs:
                got, want = got_fn(x), want_fn(x)
                assert type(got) is type(want) and got.dtype == want.dtype
                assert np.shape(got) == np.shape(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (k, x)
        assert np.isinf(law.force_array(d)).any() and np.isinf(law.force_derivative_array(d)).any()
    assert not law._minus_k.flags.writeable and not law._minus_k1.flags.writeable
    assert law == eq.InversePowerLaw(k) and repr(law) == f"InversePowerLaw(k={k!r})"


def test_tail_sum_parameters_raise_their_documented_errors():
    # tol -1 or NaN ran all max_terms terms and returned an infinite bound;
    # tol inf returned 0.0; a string or array gap, start, distance or c
    # raised a raw TypeError or ValueError.
    law = eq.StretchedExponentialLaw(1.5)
    for tol in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(eq.InvalidInput, match="tol must be finite and nonnegative"):
            eq.force_sum_arithmetic(law, 1.0, 1.0, tol)
        with pytest.raises(eq.InvalidInput, match="tol must be finite and nonnegative"):
            eq.force_sum_arithmetic(eq.InversePowerLaw(2), np.array([1.0, 2.0]), 1.0, tol)
    # 0 stays valid: a closed form has no truncation, term sums never meet it.
    assert eq.force_sum_arithmetic(eq.InversePowerLaw(2), 1.0, 1.0, 0.0) == (
        eq.force_sum_arithmetic(eq.InversePowerLaw(2), 1.0, 1.0))
    assert eq.force_sum_arithmetic(law, 1.0, 1.0, 0, max_terms=50)[1] == math.inf
    for bad in ("a", np.array([1.0, 2.0]), None, [1.0]):
        with pytest.raises(eq.InvalidInput, match="gap: expected a number"):
            eq.force_sum_arithmetic(law, 1.0, bad)
        with pytest.raises(eq.InvalidInput, match="tol: expected a number"):
            eq.force_sum_arithmetic(law, 1.0, 1.0, bad)
        with pytest.raises(eq.InvalidInput, match="minimal gap c: expected a number"):
            eq.tail_force_bound(law, 1.0, bad)
        for fn in (eq.eval_force, eq.eval_potential, eq.eval_force_derivative,
                   lambda law, d: eq.tail_force_bound(law, d, 1.0)):
            with pytest.raises(eq.InvalidInput, match="pair distance: expected a number"):
                fn(law, bad)
    for bad in ("a", [1.0, "a"], 10**400):
        with pytest.raises(eq.InvalidInput, match="pair distance: expected numbers"):
            eq.force_sum_arithmetic(law, bad, 1.0)
    # Numbers of other types keep working, with the float's value.
    assert eq.force_sum_arithmetic(law, 1, 1, 1e-12) == eq.force_sum_arithmetic(
        law, 1.0, np.float64(1.0), np.float64(1e-12))
    assert eq.tail_force_bound(law, 1, 1) == eq.tail_force_bound(law, 1.0, np.float64(1.0))


def test_tabulated_grid_sum_past_the_float_range_is_inf():
    # The grid terms were added with math.fsum, which raised a raw
    # OverflowError ("intermediate overflow in fsum") from both calls.
    law = eq.TabulatedLaw(((0.5, 1.5e308), (3.5, 1e308)), eq.TabulatedTail("cutoff"))
    assert eq.force_sum_arithmetic(law, 0.5, 0.5) == (math.inf, math.inf)
    cfg = eq.LineConfig((0.0, 0.5), eq.TailModel.none(), eq.TailModel.arithmetic(1.0, 0.5),
                        0.5, 0.5)
    report = eq.residual_report(cfg, law)
    assert [row.f_plus for row in report.rows] == [math.inf, math.inf]
    assert report.max_error_bound == math.inf


def test_stretched_exponential_slopes_agree_where_the_force_underflows():
    # The tabulated exp tail had no guard for d**(k-1) overflowing where F
    # underflows: its array slope was NaN where the closed form's is -0.0,
    # and both scalar slopes warned "invalid value encountered in multiply".
    table = eq.TabulatedLaw(((1.0, 0.5), (2.0, 0.1)), eq.TabulatedTail("exp", 3.0))
    closed = eq.StretchedExponentialLaw(3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for law in (table, closed):
            for slope in (law.force_derivative(1e200), eq.eval_force_derivative(law, 1e200)):
                assert slope == 0.0 and math.copysign(1.0, slope) == -1.0
    with np.errstate(over="ignore"):  # F itself overflows d**k to inf, a value
        values = [law.force_derivative_array(np.array([1e200, 3.0])) for law in (table, closed)]
    for out in values:
        assert out[0] == 0.0 and np.signbit(out[0]) and out[1] < 0.0


@pytest.mark.parametrize("k", [1.0, 1.5, 2.0])
def test_stretched_exponential_slope_keeps_its_bare_expression_up_to_k_2(k):
    # At k <= 2 the slope stays the unguarded expression, bit for bit, and
    # runs under the caller's error state.
    d = np.geomspace(1e-3, 1e3, 97)
    law = eq.StretchedExponentialLaw(k)
    expect = -k * d ** (k - 1.0) * np.exp(-(d**k))
    assert law.force_derivative_array(d).tobytes() == expect.tobytes()
    table = eq.TabulatedLaw(((0.5, 2.0), (1.0, 1.0)), eq.TabulatedTail("exp", k))
    far = d[d > 1.0]
    tail = table._amplitude * np.exp(-(far**k))
    assert table.force_derivative_array(far).tobytes() == (-k * far ** (k - 1.0) * tail).tobytes()


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
def test_verify_law_rejects_non_finite_grid_entries(entry):
    # A NaN or infinite entry raised DomainError from the force evaluation.
    with pytest.raises(eq.InvalidInput, match="verification grid"):
        eq.verify_law(eq.InversePowerLaw(2), [entry, 1.0])
