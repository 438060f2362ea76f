"""residual_report, circle_residual_report and eval_difference_field
against a 50-digit oracle.

Every row must satisfy |net - exact| <= error_bound, and each side sum must
lie within the bound too.  The exact sums are taken in mpmath from the float
window positions (or angles) and tail parameters, so they measure
everything between the inputs and the reported floats: pair distances,
force evaluation, summation and the closed-form or truncated tail sums.
"""

import mpmath as mp
import numpy as np
import pytest

import equilib as eq

mp.mp.dps = 50

LAWS = {
    "1/d^2": eq.InversePowerLaw(2),
    "1/d^3": eq.InversePowerLaw(3),
    "exp(-d)": eq.StretchedExponentialLaw(1),
    "exp(-d^1.5)": eq.StretchedExponentialLaw(1.5),
}
SCALES = (0.3, 1.0, 5.0, 20.0)
WINDOWS_PER_CASE = 3


def exact_force(law, d):
    if isinstance(law, eq.InversePowerLaw):
        return d ** -mp.mpf(law.k)
    return mp.exp(-(d ** mp.mpf(law.k)))


def exact_tail(law, start, gap):
    """sum_{j>=0} F(start + j*gap) in mpmath."""
    if isinstance(law, eq.InversePowerLaw):
        k = mp.mpf(law.k)
        return gap**-k * mp.zeta(k, start / gap)
    if law.k == 1.0:
        return mp.exp(-start) / (1 - mp.exp(-gap))
    total, j = mp.mpf(0), 0
    while True:  # exp(-d^k), k > 1: terms fall super-exponentially
        term = exact_force(law, start + j * gap)
        total += term
        if term < total * mp.mpf(10) ** -60:
            return total
        j += 1


TAILS = ("none", "arithmetic", "periodic")


def random_config(rng, scale, tails):
    n = int(rng.integers(3, 10))
    gaps = scale * rng.uniform(0.5, 1.5, n - 1)
    window = rng.uniform(-100.0, 100.0) + np.concatenate([[0.0], np.cumsum(gaps)])
    all_gaps = list(gaps)
    left = right = eq.TailModel.none()
    if tails == "arithmetic":
        lead, lgap, trail, rgap = scale * rng.uniform(0.5, 1.5, 4)
        left = eq.TailModel.arithmetic(first=window[0] - lead, gap=lgap)
        right = eq.TailModel.arithmetic(first=window[-1] + trail, gap=rgap)
        all_gaps += [window[0] - left.first, lgap, right.first - window[-1], rgap]
    elif tails == "periodic":  # a 2- or 3-gap pattern on each side
        lead, trail = scale * rng.uniform(0.5, 1.5, 2)
        lpat, rpat = (scale * rng.uniform(0.5, 1.5, int(rng.integers(2, 4))) for _ in "lr")
        left = eq.TailModel.periodic(anchor=window[0] - lead, pattern=lpat.tolist())
        right = eq.TailModel.periodic(anchor=window[-1] + trail, pattern=rpat.tolist())
        all_gaps += [window[0] - left.first, right.first - window[-1], *lpat, *rpat]
    return eq.LineConfig(
        window=tuple(window.tolist()),
        left_tail=left,
        right_tail=right,
        c=float(min(all_gaps)) * 0.999,
        C=float(max(all_gaps)) * 1.001,
    )


def exact_tail_model(law, x, tail):
    """Force at x from every particle of an arithmetic or periodic tail."""
    steps = [mp.mpf(g) for g in tail.gap_values()]
    start, period, total = abs(x - mp.mpf(tail.first)), mp.fsum(steps), mp.mpf(0)
    for step in steps:  # one arithmetic run per gap of the pattern
        total += exact_tail(law, start, period)
        start += step
    return total


def exact_sides(cfg, law, i):
    x = [mp.mpf(p) for p in cfg.window]
    minus = mp.fsum(exact_force(law, x[i] - p) for p in x[:i])
    plus = mp.fsum(exact_force(law, p - x[i]) for p in x[i + 1 :])
    if not cfg.left_tail.is_none:
        minus += exact_tail_model(law, x[i], cfg.left_tail)
    if not cfg.right_tail.is_none:
        plus += exact_tail_model(law, x[i], cfg.right_tail)
    return minus, plus


def ratio(err, bound):
    """err / bound, with 0/0 = 0 and anything else over 0 infinite."""
    if bound > 0:
        return float(err / bound)
    return 0.0 if err == 0 else np.inf


@pytest.mark.parametrize("tails", TAILS, ids=["finite", "tails", "periodic"])
@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("law_name", list(LAWS))
def test_residual_rows_within_bound_of_exact(law_name, scale, tails):
    law = LAWS[law_name]
    case = (list(LAWS).index(law_name), SCALES.index(scale), TAILS.index(tails))
    rng = np.random.default_rng([20261018, *case])
    violations, worst = [], 0.0
    for _ in range(WINDOWS_PER_CASE):
        cfg = random_config(rng, scale, tails)
        report = eq.residual_report(cfg, law)
        for row in report.rows:
            minus, plus = exact_sides(cfg, law, row.index)
            errors = (
                abs(mp.mpf(row.net) - (plus - minus)),
                abs(mp.mpf(row.f_minus) - minus),
                abs(mp.mpf(row.f_plus) - plus),
            )
            for err in errors:
                worst = max(worst, ratio(err, row.error_bound))
                if ratio(err, row.error_bound) > 1.0:
                    violations.append((cfg.window, row.index, ratio(err, row.error_bound)))
    assert not violations, f"{len(violations)} sums outside their bound, worst ratio {worst:.3g}"


def circle_row_ratios(cfg, law, indices):
    """err / bound of the net and both side sums of the circle report rows
    `indices`.  Arcs are taken exactly between the float angles on a circle
    of circumference 2 pi, so the rounding of each arc counts as error."""
    two_pi = 2 * mp.pi
    theta = [mp.mpf(a) for a in cfg.angles]
    rows = eq.circle_residual_report(cfg, law).rows
    ratios = []
    for row in (rows[i] for i in indices):
        sides = {True: [], False: []}  # ahead (pushes clockwise) or behind
        for j, t in enumerate(theta):
            delta = (t - theta[row.index]) % two_pi
            arc = min(delta, two_pi - delta)
            if j != row.index and abs(arc - mp.pi) > eq.ANTIPODAL_BAND:
                sides[delta < mp.pi].append(exact_force(law, arc))
        behind, ahead = mp.fsum(sides[False]), mp.fsum(sides[True])
        for got, exact in ((row.net, behind - ahead), (row.f_minus, behind), (row.f_plus, ahead)):
            ratios.append(ratio(abs(mp.mpf(got) - exact), row.error_bound))
    return ratios


@pytest.mark.parametrize("law_name", list(LAWS))
def test_circle_rows_within_bound_of_exact(law_name):
    law = LAWS[law_name]
    rng = np.random.default_rng(3)
    violations, worst = [], 0.0
    for _ in range(100):
        angles = np.sort(rng.uniform(0.0, 2 * np.pi, int(rng.integers(3, 12))))
        cfg = eq.CircleConfig(angles=tuple(angles.tolist()))
        ratios = circle_row_ratios(cfg, law, range(cfg.n))
        worst = max(worst, *ratios)
        violations += [(cfg.angles, r) for r in ratios if r > 1.0]
    assert not violations, f"{len(violations)} sums outside their bound, worst ratio {worst:.3g}"


@pytest.mark.parametrize("n", [128, 256])
@pytest.mark.parametrize("law_name", ["1/d^2", "1/d^3", "exp(-d)"])
def test_large_circle_rows_within_bound_of_exact(law_name, n):
    # At these sizes a solver's circle verdict can rest on the error bound:
    # under 1/d^3 at n = 128, rounded equal spacing has |net| 5.0e-10 and
    # the rng_seed 0 solve 2.1e-9, against a bound of 2.0e-9.
    cfg = eq.CircleConfig(tuple(2.0 * np.pi * i / n for i in range(n)))
    ratios = circle_row_ratios(cfg, LAWS[law_name], (0, 1, n // 3, n // 2, n - 1))
    assert max(ratios) <= 1.0, max(ratios)


@pytest.mark.parametrize("law_name", list(LAWS))
def test_difference_field_within_bound_of_exact(law_name):
    law = LAWS[law_name]
    rng = np.random.default_rng(11)
    violations, worst = [], 0.0
    for _ in range(400):
        x, y = (rng.uniform(-30.0, -0.5, int(rng.integers(1, 6))).tolist() for _ in "xy")
        w = float(rng.uniform(0.1, 3.0))
        value, bound = eq.eval_difference_field(x, y, w, law)
        exact = mp.fsum(exact_force(law, w - mp.mpf(p)) for p in x) - mp.fsum(
            exact_force(law, w - mp.mpf(p)) for p in y
        )
        r = ratio(abs(mp.mpf(value) - exact), bound)
        worst = max(worst, r)
        if r > 1.0:
            violations.append((x, y, w, r))
    assert not violations, f"{len(violations)} fields outside their bound, worst ratio {worst:.3g}"


def test_underflowing_pair_force_stays_within_bound():
    # exp(-760) is below the smallest subnormal: the float force is 0.
    cfg = eq.LineConfig(window=(0.0, 760.0), c=760.0, C=760.0)
    law = eq.StretchedExponentialLaw(1)
    exact = exact_force(law, mp.mpf(760))
    for row in eq.residual_report(cfg, law).rows:
        assert row.f_minus + row.f_plus == 0.0
        assert exact <= row.error_bound


@pytest.mark.parametrize("law_name", list(LAWS))
def test_internal_forces_within_bound_of_exact(law_name):
    # check_internal_force_monotonicity states each internal force with an
    # error bound (the lhs_err/rhs_err of its evidence rows); the rightward
    # force on a particle from the rest of the block must lie within it.
    law = LAWS[law_name]
    rng = np.random.default_rng(3)
    violations, worst = [], 0.0
    for w in range(200):
        scale = (1.0, 5.0, 20.0)[w % 3]
        gaps = scale * rng.uniform(0.7, 1.3, int(rng.integers(3, 9)))
        window = rng.uniform(-100.0, 100.0) + np.concatenate([[0.0], np.cumsum(gaps)])
        cfg = eq.LineConfig(
            window=tuple(window.tolist()), c=float(min(gaps)), C=float(max(gaps))
        )
        cert = eq.check_internal_force_monotonicity(cfg, law, (0, cfg.n))
        forces = cert.details["forces"]
        errs = [row.lhs_err for row in cert.evidence] + [cert.evidence[-1].rhs_err]
        x = [mp.mpf(p) for p in cfg.window]
        for k, (force, err) in enumerate(zip(forces, errs)):
            exact = mp.fsum(exact_force(law, x[k] - p) for p in x[:k]) - mp.fsum(
                exact_force(law, p - x[k]) for p in x[k + 1 :]
            )
            miss = abs(mp.mpf(force) - exact)
            ratio = float(miss / err) if err > 0 else (0.0 if miss == 0 else np.inf)
            worst = max(worst, ratio)
            if ratio > 1.0:
                violations.append((cfg.window, k, ratio))
    assert not violations, f"{len(violations)} forces outside their bound, worst ratio {worst:.3g}"
