import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equilib as eq

COULOMB = eq.InversePowerLaw(2)
EXP = eq.StretchedExponentialLaw(1)


def test_difference_field_identical_sets_cancel_exactly():
    value, err = eq.eval_difference_field([-3.0, -1.0], [-1.0, -3.0], 2.0, COULOMB)
    assert value == 0.0
    assert err == 0.0


@pytest.mark.parametrize(
    "xs, w, x_tail",
    [([0.0, 2e-154], 1e-154, None), ([0.0], 1e-200, None),
     ([0.0], 1e-200, eq.TailModel.arithmetic(-1e-200, 1e-200))],
    ids=["sum-overflows", "term-overflows", "tail-overflows"])
def test_difference_field_beyond_the_largest_float_is_inf(xs, w, x_tail):
    # The sum raised OverflowError, and the overflowing forces warned.
    assert eq.eval_difference_field(xs, [], w, COULOMB, x_tail=x_tail) == (math.inf, math.inf)


def test_difference_field_of_opposite_infinities_is_nan_with_an_infinite_bound():
    value, err = eq.eval_difference_field([0.0], [2e-200], 1e-200, COULOMB)
    assert math.isnan(value) and err == math.inf


def test_difference_field_two_term_example():
    value, err = eq.eval_difference_field([-1.0], [-2.0], 0.0, COULOMB)
    assert value == pytest.approx(0.75, rel=1e-15)
    assert err < 1e-14


def test_difference_field_is_antisymmetric():
    x = [-0.5, -2.2, -7.0]
    y = [-1.1, -3.0]
    for w in (0.0, 1.3, 10.0):
        a, _ = eq.eval_difference_field(x, y, w, COULOMB)
        b, _ = eq.eval_difference_field(y, x, w, COULOMB)
        assert a == -b


def test_difference_field_rejects_coincident_source():
    with pytest.raises(eq.DomainError):
        eq.eval_difference_field([0.0], [-2.0], 0.0, COULOMB)


def test_difference_field_equal_tails_cancel():
    tail = eq.TailModel.arithmetic(first=-5.0, gap=1.0)
    with_tails, _ = eq.eval_difference_field(
        [-1.0], [-2.0], 1.0, COULOMB, x_tail=tail, y_tail=tail
    )
    without, _ = eq.eval_difference_field([-1.0], [-2.0], 1.0, COULOMB)
    assert with_tails == without


def test_difference_field_tail_mismatch_matches_closed_form():
    # Exponential tails sum as geometric series, giving an exact reference.
    x_tail = eq.TailModel.arithmetic(first=-3.0, gap=1.0)
    y_tail = eq.TailModel.arithmetic(first=-3.5, gap=1.0)
    w = 0.75
    value, err = eq.eval_difference_field([-1.0], [-1.0], w, EXP, x_tail=x_tail, y_tail=y_tail)
    geom = 1.0 / (1.0 - math.exp(-1.0))
    closed = math.exp(-(w + 3.0)) * geom - math.exp(-(w + 3.5)) * geom
    assert abs(value - closed) <= err + 1e-14


@settings(max_examples=80, deadline=None)
@given(
    xs=st.lists(st.floats(-20.0, -0.1, allow_nan=False), min_size=0, max_size=5),
    ys=st.lists(st.floats(-20.0, -0.1, allow_nan=False), min_size=0, max_size=5),
    w=st.floats(0.0, 15.0, allow_nan=False),
)
def test_difference_field_bounded_by_symmetric_difference(xs, ys, w):
    value, err = eq.eval_difference_field(xs, ys, w, COULOMB)
    from collections import Counter

    survivors = Counter(xs)
    survivors.subtract(Counter(ys))
    bound = sum(abs(mult) * eq.eval_force(COULOMB, abs(p)) for p, mult in survivors.items() if mult)
    assert abs(value) <= bound + err + 1e-12


def test_mobius_map_values():
    assert eq.mobius_map(1.0) == 0.0
    assert eq.mobius_map(0.0) == -1.0
    assert eq.mobius_inverse(0.0) == 1.0


def test_mobius_round_trips():
    for w in (0.5, 2.0, 100.0):
        assert eq.mobius_inverse(eq.mobius_map(w)) == pytest.approx(w, rel=1e-12)
    for z in (-0.9, 0.0, 0.9):
        assert eq.mobius_map(eq.mobius_inverse(z)) == pytest.approx(z, abs=1e-12)


def test_blaschke_integer_points_match_harmonic_oracle():
    # With w_n = n the n-th term is exactly 2/(1+n), so the partial sum is
    # twice a harmonic number. fsum gives the reference.
    N = 2000
    report = eq.blaschke_partial_sum(range(N + 1), N, growth_constant=1.0)
    oracle = math.fsum(2.0 / (1.0 + n) for n in range(N + 1))
    assert report.partial_sum == pytest.approx(oracle, rel=1e-12)
    assert report.partial_sum == pytest.approx(report.lower_bound_sum, rel=1e-12)
    rows = report.rows()
    assert len(rows) == N + 1
    assert rows[0][:2] == (0, 0.0)
    assert rows[-1][4] == pytest.approx(report.partial_sum, rel=1e-12)


def test_blaschke_one_minus_z_is_positive_and_decreasing():
    report = eq.blaschke_partial_sum(range(101), 100, growth_constant=1.0)
    terms = report.one_minus_z
    assert np.all(terms > 0.0)
    assert np.all(np.diff(terms) < 0.0)


def test_blaschke_doubling_gains_at_least_n_lower_curve_terms():
    # Terms N+1 .. 2N are each at least 2/(1 + 2CN).
    N = 500
    C = 1.0
    small = eq.blaschke_partial_sum(range(N + 1), N, growth_constant=C)
    big = eq.blaschke_partial_sum(range(2 * N + 1), 2 * N, growth_constant=C)
    gain = big.partial_sum - small.partial_sum
    assert gain >= N * 2.0 / (1.0 + 2.0 * C * N) - 1e-12


def test_blaschke_uniformly_discrete_beats_log_integral():
    rng = np.random.default_rng(5)
    N = 100_000
    w = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.0, size=N))])
    report = eq.blaschke_partial_sum(w, N, growth_constant=1.0)
    assert report.partial_sum >= report.lower_bound_sum - 1e-9
    assert report.partial_sum >= 2.0 * (math.log(N) - 1.0)


def test_blaschke_reads_line_config_with_tail():
    cfg = eq.LineConfig(
        window=(0.0, 1.0, 2.0),
        left_tail=eq.TailModel.none(),
        right_tail=eq.TailModel.arithmetic(first=3.0, gap=1.0),
        c=1.0,
        C=1.0,
    )
    report = eq.blaschke_partial_sum(cfg, 50)
    oracle = math.fsum(2.0 / (1.0 + n) for n in range(51))
    assert report.partial_sum == pytest.approx(oracle, rel=1e-12)
    assert report.growth_constant == 1.0


def test_blaschke_input_validation():
    with pytest.raises(eq.InvalidInput):
        eq.blaschke_partial_sum(range(11), 10)  # growth constant unknown
    with pytest.raises(eq.InvalidInput):
        eq.blaschke_partial_sum([0.0, 2.0, 1.0], 2, growth_constant=3.0)
    with pytest.raises(eq.InvalidInput):
        eq.blaschke_partial_sum([1.0, 2.0, 3.0], 2, growth_constant=3.0)  # w_0 != 0
    with pytest.raises(eq.InvalidInput):
        eq.blaschke_partial_sum([0.0, 5.0], 1, growth_constant=1.0)  # grows too fast
    with pytest.raises(eq.InvalidInput):
        eq.blaschke_partial_sum(range(3), 0, growth_constant=1.0)


def trivial_problem(m, n_observed=13, multi_start=None, rng_seed=None):
    window = tuple(float(i) for i in range(n_observed))
    return eq.ReconstructionProblem(
        w_window=window,
        m=m,
        law=COULOMB,
        right_tail=eq.TailModel.arithmetic(first=window[-1] + 1.0, gap=1.0),
        far_left_tail=eq.TailModel.arithmetic(first=-(m + 1.0), gap=1.0),
        multi_start=multi_start,
        rng_seed=rng_seed,
    )


def test_reconstruction_buffer_carries_nothing_from_one_start_to_the_next():
    # Every start writes its trials into the one buffer of its
    # _reconstruction_system; solving start B after start A gives the bits
    # of solving B alone.
    from equilib import diagnostics
    from equilib.solvers import _ordered_newton

    problem = trivial_problem(3)
    a, b = np.array([-3.4, -2.3, -0.8]), np.array([-2.9, -2.05, -1.1])

    def runs(*starts):
        system, ordered, _, _ = diagnostics._reconstruction_system(problem, 5)
        return [_ordered_newton(system, q, ordered, 50, 1e-14) for q in starts]

    after_a, alone = runs(a, b)[1], runs(b)[0]
    assert after_a.steps == alone.steps > 2 and after_a.stop == alone.stop
    for got, want in zip((after_a.u, after_a.r, *after_a.path), (alone.u, alone.r, *alone.path)):
        assert got.tobytes() == want.tobytes()


def test_reconstruct_recovers_planted_trivial_positions():
    report = eq.reconstruct_left_tail(trivial_problem(3, multi_start=8, rng_seed=1))
    assert len(report.clusters) == 1
    assert report.converged_count == 8
    assert report.equations_used == 5
    center = report.clusters[0].center
    assert center == pytest.approx((-3.0, -2.0, -1.0), abs=1e-6)


def test_reconstruct_single_unknown_matches_bisection_oracle():
    # One equation: the leftmost observed particle balances iff the unknown
    # sits where F(w0 - q) equals the pull from the right.
    window = (0.0, 1.0)
    pull = eq.eval_force(COULOMB, 1.0)

    def balance(q):
        return eq.eval_force(COULOMB, -q) - pull

    lo, hi = -10.0, -0.01
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if balance(lo) * balance(mid) <= 0:
            hi = mid
        else:
            lo = mid
    oracle = 0.5 * (lo + hi)
    problem = eq.ReconstructionProblem(w_window=window, m=1, law=COULOMB)
    report = eq.reconstruct_left_tail(problem)
    assert len(report.clusters) == 1
    assert report.clusters[0].center[0] == pytest.approx(oracle, abs=1e-8)


def test_reconstruct_insufficient_equations():
    # Three observations, no right tail: the rightmost cannot be balanced, so
    # only two equations exist for three unknowns.
    with pytest.raises(eq.InsufficientEquations):
        eq.reconstruct_left_tail(
            eq.ReconstructionProblem(w_window=(0.0, 1.0, 2.0), m=3, law=COULOMB)
        )


def test_reconstruct_infeasible_data_yields_no_clusters():
    # No left completion can balance this window: the middle particle always
    # feels a net pull toward the unknowns.
    problem = eq.ReconstructionProblem(
        w_window=(0.0, 1.0, 2.0), m=1, law=COULOMB, multi_start=6, rng_seed=3
    )
    report = eq.reconstruct_left_tail(problem)
    assert len(report.clusters) == 0
    assert report.converged_count == 0
    assert report.starts == 6


def test_reconstruct_mirrored_recovers_right_side():
    observed = tuple(float(i) for i in range(-12, 1))
    problem = eq.ReconstructionProblem.mirrored_problem(
        observed=observed,
        m=2,
        law=COULOMB,
        observed_tail=eq.TailModel.arithmetic(first=-13.0, gap=1.0),
        far_tail=eq.TailModel.arithmetic(first=3.0, gap=1.0),
        multi_start=6,
        rng_seed=2,
    )
    report = eq.reconstruct_left_tail(problem)
    assert report.mirrored
    assert len(report.clusters) == 1
    assert report.clusters[0].center == pytest.approx((1.0, 2.0), abs=1e-6)


def test_reconstruct_report_serializes():
    report = eq.reconstruct_left_tail(trivial_problem(1, multi_start=3, rng_seed=0))
    data = report.to_json_dict()
    assert data["starts"] == 3
    assert data["converged_count"] == 3
    assert len(data["clusters"]) == 1
    assert set(data["clusters"][0]) >= {"center", "members", "residual"}


def test_reconstruct_validates_window():
    with pytest.raises(eq.InvalidInput):
        eq.ReconstructionProblem(w_window=(1.0, 0.0), m=1, law=COULOMB)
    with pytest.raises(eq.InvalidInput):
        eq.ReconstructionProblem(w_window=(-1.0, 1.0), m=1, law=COULOMB)
    with pytest.raises(eq.InvalidInput):
        eq.ReconstructionProblem(
            w_window=(0.0, 1.0),
            m=1,
            law=COULOMB,
            right_tail=eq.TailModel.arithmetic(first=0.5, gap=1.0),
        )


@pytest.mark.parametrize(
    "field, value",
    [("multi_start", 0), ("multi_start", -5), ("multi_start", 2.7), ("rng_seed", -1),
     ("rng_seed", 2.5), ("m", 2.7), ("m", 0), ("m", True), ("m", "a"), ("m", None)],
)
def test_reconstruction_problem_rejects_bad_start_fields(field, value):
    # These once ran 1, 1 and 2 starts, raised numpy's ValueError and
    # TypeError from the random generator, or fitted int(m) unknowns.
    fields = {"m": 1, field: value}
    with pytest.raises(eq.InvalidInput, match=f"^{field} "):
        eq.ReconstructionProblem(w_window=(0.0, 1.0), law=COULOMB, **fields)


def test_reconstruction_start_is_kept_only_when_its_report_certifies_it():
    # Four Gauss-Newton steps leave this start at |net| = 1.6e-8: above
    # residual_tol (1e-9) plus the report's bound, below the old 100 x
    # residual_tol threshold, which kept it.  A fifth step reaches the
    # rounding floor and the start is certified.
    problem = eq.ReconstructionProblem(w_window=(0.0, 1.0), m=1, law=COULOMB, multi_start=1,
                                       far_left_tail=eq.TailModel.arithmetic(-4.0, 2.0))
    short = eq.reconstruct_left_tail(problem, eq.SolverOptions(max_sweeps=4, residual_tol=1e-9))
    assert short.clusters == () and short.converged_count == 0
    full = eq.reconstruct_left_tail(problem, eq.SolverOptions(max_sweeps=5, residual_tol=1e-9))
    assert full.converged_count == 1 and full.clusters[0].residual < 1e-15


def test_reconstruction_target_comes_from_the_first_ordered_start():
    # The mid-gap start (-2.5) lies beyond the far-left tail's first
    # particle (-2), so it is no valid configuration; the Newton target is
    # taken at the first ordered start instead, and three random starts
    # certify the one answer.
    problem = eq.ReconstructionProblem(w_window=(0.0, 1.0), m=1, law=COULOMB, multi_start=8,
                                       rng_seed=0,
                                       far_left_tail=eq.TailModel.arithmetic(-2.0, 4.0))
    report = eq.reconstruct_left_tail(problem)
    assert report.converged_count == 3 and len(report.clusters) == 1
    assert report.clusters[0].center == (-1.2024870291618341,)


def test_reconstruction_order_hook_matches_its_first_rule_through_the_shared_test(monkeypatch):
    # The hook asks the solvers' _increasing for the order and makes the
    # decisions of its first rule, np.all(np.diff(q) > 0), NaN and +-inf
    # included.
    from equilib import diagnostics

    problem = trivial_problem(3)
    _, ordered, _, _ = diagnostics._reconstruction_system(problem, 5)
    far_first, w0 = problem.far_left_tail.first, problem.w_window[0]

    def first_rule(q):
        with np.errstate(invalid="ignore"):
            return bool(np.all(np.isfinite(q)) and q[0] > far_first and q[-1] < w0
                        and np.all(np.diff(q) > 0.0))

    calls = []
    shared = diagnostics._increasing
    monkeypatch.setattr(diagnostics, "_increasing", lambda q: calls.append(1) or shared(q))
    inf, nan = math.inf, math.nan
    cases = [(-3.0, -2.0, -1.0), (-3.0, -3.0, -1.0), (-2.0, -3.0, -1.0),
             (-3.0, -2.0, -2.0 + 1e-16), (-3.0, -2.0, np.nextafter(-2.0, 0.0)),
             (-5.0, -2.0, -1.0), (-3.0, -2.0, 0.5), (-3.0, nan, -1.0), (nan, nan, nan),
             (-inf, -2.0, -1.0), (-3.0, -2.0, inf), (-3.0, inf, -1.0), (-inf, -inf, -1.0)]
    for q in cases:
        assert ordered(np.array(q)) == first_rule(np.array(q)), q
    assert calls
