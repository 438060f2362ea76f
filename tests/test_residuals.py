import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equilib as eq
from equilib import residuals
from equilib.configurations import TWO_PI
from equilib.residuals import _ccw_offsets

COULOMB = eq.InversePowerLaw(2)


def finite_line(window):
    window = tuple(float(p) for p in window)
    g = np.diff(window)
    return eq.LineConfig(
        window=window,
        left_tail=eq.TailModel.none(),
        right_tail=eq.TailModel.none(),
        c=float(min(g)),
        C=float(max(g)),
    )


def trivial_line(n, gap=1.0):
    half = (n - 1) / 2.0
    window = tuple((i - half) * gap for i in range(n))
    return eq.LineConfig(
        window=window,
        left_tail=eq.TailModel.arithmetic(first=window[0] - gap, gap=gap),
        right_tail=eq.TailModel.arithmetic(first=window[-1] + gap, gap=gap),
        c=gap,
        C=gap,
    )


def naive_side_forces(window, i, law):
    f_minus = math.fsum(eq.eval_force(law, window[i] - p) for p in window[:i])
    f_plus = math.fsum(eq.eval_force(law, p - window[i]) for p in window[i + 1 :])
    return f_minus, f_plus


def test_side_forces_three_particles():
    # Oracle: the two-term sums by hand. F(1)=1 from the left of the middle
    # particle, F(2)=0.25 from its right, so the net is 0.25 - 1.
    f_minus, f_plus, err = eq.side_forces(finite_line([0, 1, 3]), 1, COULOMB)
    assert f_minus == pytest.approx(1.0, rel=1e-15)
    assert f_plus == pytest.approx(0.25, rel=1e-15)
    assert f_plus - f_minus == pytest.approx(-0.75, rel=1e-15)
    assert 0.0 <= err < 1e-13


def test_trivial_configuration_cancels_to_error_bound():
    cfg = trivial_line(9)
    for i in range(cfg.n):
        report = eq.residual_report(cfg, COULOMB, tolerance=1e-13)
        row = report.rows[i]
        assert abs(row.net) <= row.error_bound
        assert row.error_bound <= 1e-12


def test_max_gap_right_endpoint_feels_less_from_the_left():
    # Unique largest gap [0, 3]; its right endpoint must receive strictly less
    # force from the left than its left endpoint does.
    cfg = finite_line([-2, -1, 0, 3, 5, 6])
    f_minus_x = eq.side_forces(cfg, 2, COULOMB)[0]
    f_minus_y = eq.side_forces(cfg, 3, COULOMB)[0]
    assert f_minus_y < f_minus_x


def test_residual_report_finite_triple():
    report = eq.residual_report(finite_line([0, 1, 3]), COULOMB)
    # Oracle: direct summation. Particle 0 is pushed by F(1) + F(3).
    expect = 1.0 + 1.0 / 9.0
    assert report.max_abs_net == pytest.approx(expect, rel=1e-14)
    worst = max(report.rows, key=lambda r: abs(r.net))
    assert worst.index == 0
    assert not report.in_equilibrium()


def test_residual_report_rows_match_naive_sums():
    window = [0.0, 0.7, 1.1, 2.9, 3.4]
    report = eq.residual_report(finite_line(window), COULOMB)
    for i, row in enumerate(report.rows):
        f_minus, f_plus = naive_side_forces(window, i, COULOMB)
        assert row.f_minus == pytest.approx(f_minus, abs=1e-12)
        assert row.f_plus == pytest.approx(f_plus, abs=1e-12)
        assert row.net == pytest.approx(f_plus - f_minus, abs=1e-12)


def test_periodic_pattern_is_never_at_rest():
    # Gaps alternating 1, 2 on both sides: some particle always feels a push
    # that the error bound cannot explain away.
    window = (0.0, 1.0, 3.0, 4.0, 6.0)
    cfg = eq.LineConfig(
        window=window,
        left_tail=eq.TailModel.periodic(anchor=-2.0, pattern=(2.0, 1.0)),
        right_tail=eq.TailModel.periodic(anchor=7.0, pattern=(1.0, 2.0)),
        c=1.0,
        C=2.0,
    )
    report = eq.residual_report(cfg, COULOMB)
    assert report.max_abs_net > report.max_error_bound
    assert not report.in_equilibrium()


def test_tailed_sums_match_long_explicit_expansion():
    cfg = trivial_line(5, gap=1.0)
    i = 0
    f_minus, f_plus, err = eq.side_forces(cfg, i, COULOMB)
    # Oracle: expand the left tail to one million explicit sources. Terms
    # beyond that are covered by the integral remainder.
    x = cfg.window[i]
    tail_positions = x - 1.0 - np.arange(1_000_000, dtype=float)
    explicit = float(np.sum(1.0 / (x - tail_positions) ** 2))
    remainder = 1.0 / (x - tail_positions[-1])
    assert explicit <= f_minus + 1e-12
    assert f_minus <= explicit + remainder + 1e-12
    finite_part = naive_side_forces(cfg.window, i, COULOMB)[1]
    right_tail = float(
        np.sum(1.0 / (cfg.window[-1] + 1.0 + np.arange(1_000_000, dtype=float) - x) ** 2)
    )
    assert f_plus == pytest.approx(finite_part + right_tail, abs=1e-5)


def test_circle_square_is_at_rest():
    cfg = eq.CircleConfig(angles=(0.0, math.pi / 2, math.pi, 3 * math.pi / 2))
    report = eq.circle_residual_report(cfg, COULOMB)
    for row in report.rows:
        assert abs(row.net) <= max(row.error_bound, 1e-13)
    assert report.in_equilibrium()


def test_circle_antipodal_pair_is_at_rest():
    report = eq.circle_residual_report(eq.CircleConfig(angles=(0.0, math.pi)), COULOMB)
    assert report.max_abs_net == 0.0
    assert report.in_equilibrium()


def test_circle_near_antipodal_counts_as_zero_force():
    # Geodesic distances within the antipodal band contribute nothing.
    report = eq.circle_residual_report(
        eq.CircleConfig(angles=(0.0, math.pi - 1e-10)), COULOMB
    )
    assert report.max_abs_net == 0.0


def test_circle_half_turn_triple():
    cfg = eq.CircleConfig(angles=(0.0, math.pi / 2, math.pi))
    report = eq.circle_residual_report(cfg, COULOMB)
    nets = [row.net for row in report.rows]
    # Middle particle balanced by symmetry; the two ends see only the middle
    # one (their mutual distance is exactly antipodal) and get pushed apart.
    assert nets[1] == pytest.approx(0.0, abs=1e-13)
    magnitude = eq.eval_force(COULOMB, math.pi / 2)
    assert abs(nets[0]) == pytest.approx(magnitude, rel=1e-13)
    assert nets[0] == pytest.approx(-nets[2], rel=1e-13)


def ccw_offset_cases():
    rng = np.random.default_rng(29)
    top = np.nextafter(TWO_PI, 0.0)  # one ulp below 2 pi
    for n in range(2, 65):
        theta = np.sort(rng.uniform(0.0, TWO_PI, size=n))
        yield theta
        yield theta - theta[0]  # angle 0 first
    # Each size comes twice in a row above (the kept 2 pi block is reused)
    # and changes from case to case below (it is rebuilt).
    yield np.array([0.0, top])
    yield np.array([-0.0, 1.0, top])
    yield np.array([0.0, np.nextafter(top, 0.0), top])  # neighbours one ulp apart
    yield np.array([1.0, np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0)])
    yield np.array([0.0, 5e-324, 1e-323, 2e-310, 2.2250738585072014e-308, 3.0])  # subnormal
    yield np.array([5e-324, top])
    yield np.array([math.pi - 1e-9, math.pi, np.nextafter(math.pi, 4.0), 4.0])


def test_ccw_offsets_match_numpy_mod_byte_for_byte():
    # For angles increasing in [0, 2 pi), adding 2 pi below the diagonal is
    # numpy's mod, bit for bit, signed zeros included.
    for theta in ccw_offset_cases():
        expect = (theta - theta[:, None]) % TWO_PI
        assert _ccw_offsets(theta).tobytes() == expect.tobytes(), theta


def test_ccw_offsets_match_numpy_mod_when_n_is_interleaved():
    # The 2 pi block is the corner of one kept block for the largest n seen,
    # so a pass that cycles through n (17 grows it midway) gets numpy's mod
    # every time, and the kept block stays read-only.
    rng = np.random.default_rng(41)
    for n in (16, 3, 16, 2, 9, 16, 17, 4):
        theta = np.sort(rng.uniform(0.0, TWO_PI, size=n))
        theta -= theta[0]
        expect = (theta - theta[:, None]) % TWO_PI
        assert _ccw_offsets(theta).tobytes() == expect.tobytes(), n
        block = residuals._LOWER_TWO_PI
        assert len(block) >= n and not block.flags.writeable
        with pytest.raises(ValueError):
            block[-1, 0] = 0.0
    # A block past the solvers' largest n (a report's) is built, not kept.
    theta = np.linspace(0.0, 6.0, eq.MAX_PARTICLES + 1)
    assert _ccw_offsets(theta).tobytes() == ((theta - theta[:, None]) % TWO_PI).tobytes()
    assert residuals._LOWER_TWO_PI is block and len(block) <= eq.MAX_PARTICLES


def test_report_rows_are_slotted_and_frozen():
    # Rows carry no per-instance __dict__, which makes each one cheaper to build.
    cfg = eq.CircleConfig(angles=(0.0, math.pi / 2, 4.0))
    row = eq.circle_residual_report(cfg, COULOMB).rows[0]
    assert not hasattr(row, "__dict__")
    with pytest.raises(AttributeError):
        row.net = 0.0


def test_report_serialization_shapes():
    report = eq.residual_report(finite_line([0, 1, 3]), COULOMB)
    data = report.to_json_dict()
    assert data["geometry"] == "line"
    assert len(data["rows"]) == 3
    assert set(data["rows"][0]) >= {"index", "f_minus", "f_plus", "net", "error_bound"}
    csv_text = report.to_csv()
    assert csv_text.splitlines()[0].startswith("index,")
    assert len(csv_text.strip().splitlines()) == 4


@settings(max_examples=60, deadline=None)
@given(
    gaps=st.lists(st.floats(0.2, 3.0, allow_nan=False), min_size=1, max_size=7),
    index=st.integers(0, 7),
)
def test_side_forces_match_naive_summation(gaps, index):
    window = list(np.cumsum([0.0] + gaps))
    i = min(index, len(window) - 1)
    cfg = finite_line(window)
    f_minus, f_plus, err = eq.side_forces(cfg, i, COULOMB)
    naive_minus, naive_plus = naive_side_forces(window, i, COULOMB)
    assert f_minus == pytest.approx(naive_minus, abs=1e-12)
    assert f_plus == pytest.approx(naive_plus, abs=1e-12)
    assert abs(f_minus - naive_minus) <= err + 1e-13
    assert abs(f_plus - naive_plus) <= err + 1e-13


def jittered_line(n, rng, tails=True):
    """n particles with gaps in [0.6, 1.4]; arithmetic left tail, periodic right tail."""
    window = np.cumsum(rng.uniform(0.6, 1.4, n)) - 0.5 * n
    left = right = eq.TailModel.none()
    if tails:
        left = eq.TailModel.arithmetic(first=window[0] - 1.0, gap=1.0)
        right = eq.TailModel.periodic(anchor=window[-1] + 1.0, pattern=(1.0, 0.7))
    return eq.LineConfig(
        window=tuple(window.tolist()), left_tail=left, right_tail=right, c=0.5, C=1.5
    )


@pytest.mark.parametrize(
    "law",
    [COULOMB, eq.InversePowerLaw(3), eq.StretchedExponentialLaw(1), eq.StretchedExponentialLaw(1.5)],
    ids=["1/d^2", "1/d^3", "exp(-d)", "exp(-d^1.5)"],
)
def test_side_forces_equal_report_rows(law):
    rng = np.random.default_rng(5)
    for tails in (False, True):
        cfg = jittered_line(9, rng, tails=tails)
        report = eq.residual_report(cfg, law)
        for i, row in enumerate(report.rows):
            assert eq.side_forces(cfg, i, law) == (row.f_minus, row.f_plus, row.error_bound)
            assert row.net == row.f_plus - row.f_minus


def test_side_forces_check_what_residual_report_checks():
    # side_forces is row `index` of residual_report, input checks included:
    # an infinite tolerance truncated the tail (f_minus 0.42699 for 0.43287),
    # and a bool or float index ran as an integer or raised a TypeError.
    law, cfg = eq.StretchedExponentialLaw(1.5), eq.LineConfig.trivial(1.0, 5)
    row = eq.residual_report(cfg, law, indices=[2]).rows[0]
    assert eq.side_forces(cfg, 2, law) == (row.f_minus, row.f_plus, row.error_bound)
    assert eq.side_forces(cfg, np.int64(2), law) == eq.side_forces(cfg, 2, law)
    for tolerance in (math.nan, -1e-12, math.inf):
        with pytest.raises(eq.InvalidInput, match="tolerance must be finite and nonnegative"):
            eq.side_forces(cfg, 2, law, tolerance)
    for index in (True, 2.0, -1, 5, "2"):
        with pytest.raises(eq.InvalidInput, match="indices must be increasing window indices"):
            eq.side_forces(cfg, index, law)
    with pytest.raises(eq.InvalidInput, match="expects a line configuration"):
        eq.side_forces(eq.CircleConfig((0.0, 1.0, 2.0)), 0, law)


def test_window_longer_than_one_block_matches_fsum_oracle():
    from equilib import residuals

    n = 300
    assert n * n > residuals._BLOCK_PAIRS  # more than one block of rows
    cfg = jittered_line(n, np.random.default_rng(11))
    report = eq.residual_report(cfg, COULOMB)
    window = np.array(cfg.window)
    for i, row in enumerate(report.rows):
        x = window[i]
        left = COULOMB.force_array(x - window[:i]).tolist()
        right = COULOMB.force_array(window[i + 1 :] - x).tolist()
        for start, stride in cfg.left_tail.progressions(x, "left"):
            left.append(eq.force_sum_arithmetic(COULOMB, start, stride)[0])
        runs = cfg.right_tail.progressions(x, "right")
        for start, stride in runs:
            right.append(eq.force_sum_arithmetic(COULOMB, start, stride, 1e-12 / len(runs))[0])
        assert row.f_minus == math.fsum(left)
        assert row.f_plus == math.fsum(right)


TABULATED = eq.TabulatedLaw(
    tuple((d, d**-2.0) for d in np.geomspace(0.5, 12.0, 25).tolist()),
    eq.TabulatedTail("inverse_power", 2.0),
)


@pytest.mark.parametrize(
    "law",
    [COULOMB, eq.StretchedExponentialLaw(1), eq.StretchedExponentialLaw(1.5), TABULATED],
    ids=["1/d^2", "exp(-d)", "exp(-d^1.5)", "tabulated"],
)
def test_report_subset_rows_are_bit_identical_to_the_full_report(law):
    from equilib import residuals

    rng = np.random.default_rng(17)
    n = 300  # rows of the full report span two blocks of _BLOCK_PAIRS
    assert n * n > residuals._BLOCK_PAIRS
    cases = [(jittered_line(9, rng, tails=False), [[0], [2, 3, 8]]),
             (jittered_line(9, rng), [[4], [0, 1, 7, 8]]),
             (jittered_line(n, rng), [[0, 217, 218, 299], [5, 150, 250, 251, 298]])]
    for cfg, subsets in cases:
        full = eq.residual_report(cfg, law)
        for subset in subsets:
            part = eq.residual_report(cfg, law, indices=subset)
            hexed = [(r.index, *map(float.hex, (r.f_minus, r.f_plus, r.net, r.error_bound)))
                     for r in part.rows]
            assert hexed == [
                (r.index, *map(float.hex, (r.f_minus, r.f_plus, r.net, r.error_bound)))
                for r in (full.rows[i] for i in subset)
            ]
            assert part.max_abs_net == max(abs(r.net) for r in part.rows)
            assert part.max_error_bound == max(r.error_bound for r in part.rows)


@pytest.mark.parametrize("indices", [[9], [-1], [1, 1], [3, 2], [], [1.5], [[1, 2]]],
                         ids=["past-end", "negative", "repeated", "unsorted", "empty",
                              "fraction", "nested"])
def test_report_rejects_bad_indices(indices):
    with pytest.raises(eq.InvalidInput):
        eq.residual_report(trivial_line(9), COULOMB, indices=indices)


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1e-3])
def test_report_rejects_bad_tolerance(tolerance):
    with pytest.raises(eq.InvalidInput):
        eq.residual_report(trivial_line(9), COULOMB, tolerance=tolerance)


class NaNBeyond(eq.InversePowerLaw):
    """1/d^2 that reads NaN at pair distances above 2.5."""

    def force_array(self, d):
        return np.where(d > 2.5, math.nan, super().force_array(d))


def test_a_nan_row_makes_the_report_maxima_nan():
    # A NaN after a finite row used to slip past max(), leaving a finite
    # maximum and an in_equilibrium verdict.  The overflow at the 1e-200
    # gaps is quiet: pytest turns a RuntimeWarning into an error.
    line = eq.residual_report(eq.LineConfig.finite([-10.0, 0.0, 1e-200, 2e-200]), COULOMB,
                              indices=[0, 2])
    circle = eq.circle_residual_report(eq.CircleConfig(angles=(0.0, 0.5, 1.0, 4.0)),
                                       NaNBeyond(2))
    for report in (line, circle):
        assert math.isfinite(report.rows[0].net) and math.isnan(report.rows[1].net)
        assert math.isnan(report.max_abs_net) and math.isnan(report.max_error_bound)
        assert not report.in_equilibrium(1.0)


# Six particles 0.9e-154 apart under 1/d**2: every force term is finite,
# but the sum of the terms on the long side of an end particle is not.
OVERFLOWING_LINE = [i * 0.9e-154 for i in range(6)]


def test_a_side_sum_beyond_the_largest_float_is_inf():
    # math.fsum raised OverflowError on such a sum.
    report = eq.residual_report(eq.LineConfig.finite(OVERFLOWING_LINE), COULOMB)
    assert report.rows[0].f_plus == math.inf and report.rows[-1].f_minus == math.inf
    assert math.isfinite(report.rows[1].f_plus)
    assert report.max_abs_net == math.inf and not report.in_equilibrium(1.0)
    certificate = eq.check_internal_force_monotonicity(
        eq.LineConfig.finite(OVERFLOWING_LINE), COULOMB, (0, 6))
    forces = certificate.details["forces"]
    assert (forces[0], forces[-1]) == (-math.inf, math.inf)


@pytest.mark.parametrize("law", [
    eq.TabulatedLaw(((0.5, 1.5e308), (3.5, 1e308))),
    eq.TabulatedLaw(((0.5, 1e308), (4.0, 1.0)), eq.TabulatedTail("inverse_power", 2.0)),
], ids=["side-sum-overflows", "bound-overflows"])
def test_circle_report_answers_under_overflow(law):
    # The first raised OverflowError from fsum, the second warned of an
    # overflow in the pair bounds; pytest turns a RuntimeWarning into an error.
    report = eq.circle_residual_report(eq.CircleConfig((0.0, 1.0, 2.0, 3.0, 4.0, 5.0)), law)
    assert not report.in_equilibrium()
    assert not math.isfinite(report.max_error_bound)


def circle_oracle(angles, law):
    """Per-pair loop: counterclockwise-pushing and clockwise-pushing sums."""
    rows = []
    for i, a in enumerate(angles):
        behind, ahead = [], []
        for j, b in enumerate(angles):
            delta = (b - a) % (2 * math.pi)
            arc = min(delta, 2 * math.pi - delta)
            if j == i or abs(arc - math.pi) <= eq.ANTIPODAL_BAND:
                continue
            f = float(law.force_array(np.array([arc]))[0])
            (ahead if delta < math.pi else behind).append(f)
        rows.append((math.fsum(behind), math.fsum(ahead)))
    return rows


@pytest.mark.parametrize("law", [COULOMB, eq.StretchedExponentialLaw(1)], ids=["1/d^2", "exp(-d)"])
def test_circle_report_matches_per_pair_oracle(law):
    rng = np.random.default_rng(3)
    for n in (2, 3, 5, 8, 16):
        angles = np.sort(rng.uniform(0.0, 2 * math.pi, n))
        # One exactly antipodal pair, which must contribute nothing.
        angles[1] = angles[0] + math.pi if angles[0] < math.pi else angles[1]
        cfg = eq.CircleConfig(angles=tuple(np.sort(angles).tolist()))
        report = eq.circle_residual_report(cfg, law)
        for row, (behind, ahead) in zip(report.rows, circle_oracle(cfg.angles, law)):
            assert (row.f_minus, row.f_plus, row.net) == (behind, ahead, behind - ahead)


def reference_circle_residual_report(config, law):
    """circle_residual_report spelled out: forces of the counted pairs
    written into a zero block through a boolean index, then one fsum per
    row and side."""
    angles = np.array(config.angles)
    delta = (angles - angles[:, None]) % (2 * math.pi)
    arc = np.minimum(delta, 2 * math.pi - delta)
    counted = np.abs(arc - math.pi) > eq.ANTIPODAL_BAND
    counted.ravel()[:: len(angles) + 1] = False
    F = np.zeros_like(arc)
    F[counted] = law.force_array(arc[counted])
    ahead = delta < math.pi
    f_minus = [math.fsum(row) for row in np.where(ahead, 0.0, F).tolist()]
    f_plus = [math.fsum(row) for row in np.where(ahead, F, 0.0).tolist()]
    return [(fm, fp, fm - fp) for fm, fp in zip(f_minus, f_plus)]


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize(
    "law",
    [COULOMB, eq.InversePowerLaw(3), eq.StretchedExponentialLaw(1),
     eq.StretchedExponentialLaw(1.5)],
    ids=["1/d^2", "1/d^3", "exp(-d)", "exp(-d^1.5)"],
)
def test_circle_report_rows_match_reference_byte_for_byte(law):
    from test_solvers import kernel_test_angles  # random, exact-pi and in-band pairs

    configs = [eq.CircleConfig(tuple(theta.tolist())) for theta in kernel_test_angles()]
    # A pair 2e-15 apart, whose 1/d^30 force overflows to inf.
    overflow = [(eq.CircleConfig((0.0, 1.0, 1.0 + 2e-15, 3.0)), eq.InversePowerLaw(30))]
    for cfg, case_law in [(cfg, law) for cfg in configs] + overflow:
        report = eq.circle_residual_report(cfg, case_law)
        rows = [(r.f_minus, r.f_plus, r.net) for r in report.rows]
        expect = reference_circle_residual_report(cfg, case_law)
        assert [tuple(map(float.hex, row)) for row in rows] == [
            tuple(map(float.hex, row)) for row in expect
        ], cfg.angles
        assert float.hex(report.max_abs_net) == float.hex(max(abs(row[2]) for row in expect))
