import math
import warnings

import numpy as np
import pytest

import equilib as eq

COULOMB = eq.InversePowerLaw(2)
EXP = eq.StretchedExponentialLaw(1)


def bisect(fn, lo, hi, iters=200):
    flo = fn(lo)
    assert flo * fn(hi) < 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * fn(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def canonical_angle_errors(cfg):
    canon = eq.canonicalize_circle(cfg)
    target = 2.0 * math.pi / len(canon.angles)
    return [abs(a - i * target) for i, a in enumerate(canon.angles)]


def test_circle_square_from_seed_seven():
    cfg, stats = eq.solve_circle_equilibrium(4, COULOMB, opts=eq.SolverOptions(rng_seed=7))
    assert stats.converged
    assert stats.residual < 1e-10
    assert max(canonical_angle_errors(cfg)) < 1e-8


def test_circle_two_particles_go_antipodal():
    for seed in (0, 1, 2):
        cfg, stats = eq.solve_circle_equilibrium(2, COULOMB, opts=eq.SolverOptions(rng_seed=seed))
        assert stats.converged
        canon = eq.canonicalize_circle(cfg)
        assert canon.angles == pytest.approx((0.0, math.pi), abs=1e-8)


def test_circle_seven_exponential_equal_spacing():
    for seed in (3, 11, 29):
        cfg, stats = eq.solve_circle_equilibrium(7, EXP, opts=eq.SolverOptions(rng_seed=seed))
        assert stats.converged
        assert max(canonical_angle_errors(cfg)) < 1e-8


@pytest.mark.parametrize("seed", [77769504, 955279319])
def test_circle_sixteen_cubic_hard_starts_reach_equal_spacing(seed):
    # Random starts with a very short arc, where 1/d^3 is stiffest; both
    # once ended in NoConvergence.
    law = eq.InversePowerLaw(3)
    cfg, stats = eq.solve_circle_equilibrium(16, law, opts=eq.SolverOptions(rng_seed=seed))
    assert stats.converged
    assert stats.residual <= 1e-10
    assert max(canonical_angle_errors(cfg)) < 1e-8


def test_circle_no_convergence_reports_last_solved_iterate(monkeypatch):
    # Without its rounding-floor allowance the rest check fails at equal
    # spacing from this start, so all six rounds run; the error must
    # describe the last solved iterate, not a fresh random draw.
    monkeypatch.setattr(eq.solvers, "_circle_rounding_floor", lambda J: 0.0)
    law = eq.InversePowerLaw(3)
    opts = eq.SolverOptions(rng_seed=217, residual_tol=1e-16)
    with pytest.raises(eq.NoConvergence) as info:
        eq.solve_circle_equilibrium(16, law, opts=opts)
    assert info.value.residual < 1e-10
    assert max(canonical_angle_errors(info.value.last)) < 1e-8


def test_circle_equal_spacing_passes_the_rest_check():
    # Equal spacing is already at rest: the exact-rule gradient check must
    # pass at its rounding floor (about 1.3e-13 at n = 16 under 1/d^3), so
    # no Newton step is taken.
    for law in (COULOMB, eq.InversePowerLaw(3), EXP):
        for n in range(2, 17):
            equal = [2.0 * math.pi * i / n for i in range(n)]
            cfg, stats = eq.solve_circle_equilibrium(n, law, init=equal)
            assert stats.newton_iters == 0, (law, n)
            assert stats.residual <= 1e-10


def test_circle_seed_eight_finishes_in_its_first_round():
    # The first draw of seed 8 ends at equal spacing with the exact-rule
    # gradient at its rounding floor, above 1e-13; that round must be
    # accepted.  A redraw would part from the solve started at that draw.
    law = eq.InversePowerLaw(3)
    cfg, stats = eq.solve_circle_equilibrium(16, law, opts=eq.SolverOptions(rng_seed=8))
    first_draw = np.random.default_rng(8).uniform(0.0, 2.0 * math.pi, size=16)
    again, again_stats = eq.solve_circle_equilibrium(
        16, law, init=first_draw, opts=eq.SolverOptions(rng_seed=1)
    )
    assert again.angles == cfg.angles
    assert again_stats.newton_iters == stats.newton_iters
    assert max(canonical_angle_errors(cfg)) < 1e-8


def test_circle_coincident_init_angles_converge_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg, stats = eq.solve_circle_equilibrium(3, COULOMB, init=[0.0, 0.0, 1.0])
    assert stats.converged
    assert max(canonical_angle_errors(cfg)) < 1e-8


def test_circle_output_is_at_rest():
    cfg, _ = eq.solve_circle_equilibrium(5, COULOMB, opts=eq.SolverOptions(rng_seed=13))
    report = eq.circle_residual_report(cfg, COULOMB)
    assert report.max_abs_net <= 1e-10


def test_pinned_segment_single_interior_centers():
    positions, stats = eq.solve_pinned_segment([0.0], [2.0], 1, COULOMB)
    assert stats.converged
    assert positions == pytest.approx((1.0,), abs=1e-10)
    positions, _ = eq.solve_pinned_segment([0.0], [2.0], 1, EXP)
    assert positions == pytest.approx((1.0,), abs=1e-10)


def test_pinned_segment_pair_matches_bisection_oracle():
    # By symmetry the two interior particles sit at 1.5 -+ s where s balances
    # F(1.5 - s) = F(2 s) + F(1.5 + s). Bisection gives the reference root.
    def balance(s):
        return (
            eq.eval_force(COULOMB, 1.5 - s)
            - eq.eval_force(COULOMB, 2.0 * s)
            - eq.eval_force(COULOMB, 1.5 + s)
        )

    s = bisect(balance, 0.05, 0.74)
    positions, stats = eq.solve_pinned_segment([0.0], [3.0], 2, COULOMB)
    assert stats.converged
    assert positions == pytest.approx((1.5 - s, 1.5 + s), abs=1e-8)


def test_pinned_segment_energy_never_increases():
    _, stats = eq.solve_pinned_segment(
        [0.0], [5.0], 4, COULOMB, opts=eq.SolverOptions(track_energy=True)
    )
    trace = stats.energy_trace
    assert len(trace) >= 2
    for before, after in zip(trace, trace[1:]):
        assert after <= before + 1e-12


@pytest.mark.parametrize("law", [COULOMB, eq.InversePowerLaw(3), EXP], ids=repr)
def test_pinned_segment_energy_never_increases_under_every_law(law):
    _, stats = eq.solve_pinned_segment(
        [0.0], [9.0], 8, law, opts=eq.SolverOptions(track_energy=True)
    )
    trace = stats.energy_trace
    assert len(trace) >= 2
    for before, after in zip(trace, trace[1:]):
        assert after <= before + 1e-12


def test_pinned_segment_without_ordered_equilibrium_raises_no_convergence():
    # exp(-d) is bounded, so eight particles between pins 3 apart crowd
    # together: the energy has no minimum inside the ordered region.
    with pytest.raises(eq.NoConvergence) as info:
        eq.solve_pinned_segment([0.0], [3.0], 8, EXP)
    last = info.value.last
    assert len(last) == 8
    assert 0.0 < last[0] and last[-1] < 3.0
    assert all(p < q for p, q in zip(last, last[1:]))


def test_pinned_segment_raises_when_starved_of_sweeps():
    with pytest.raises(eq.NoConvergence):
        eq.solve_pinned_segment([0.0], [3.0], 2, COULOMB, opts=eq.SolverOptions(max_sweeps=2))


def test_pinned_segment_rejects_bad_pins():
    with pytest.raises(eq.InvalidPins):
        eq.solve_pinned_segment([2.0], [0.0], 1, COULOMB)


def test_sweep_moves_lone_particle_to_center():
    cfg = eq.LineConfig(
        window=(0.0, 0.5, 2.0),
        left_tail=eq.TailModel.none(),
        right_tail=eq.TailModel.none(),
        c=0.5,
        C=1.5,
    )
    out, stats = eq.sweep_relax(cfg, fixed=[0, 2], law=COULOMB)
    assert out.window[1] == pytest.approx(1.0, abs=1e-10)
    again, stats2 = eq.sweep_relax(out, fixed=[0, 2], law=COULOMB)
    assert stats2.max_displacement <= 1e-10
    assert again.window == pytest.approx(out.window, abs=1e-10)


def test_sweep_requires_fixed_extremes():
    cfg = eq.LineConfig(
        window=(0.0, 1.0, 2.0),
        left_tail=eq.TailModel.none(),
        right_tail=eq.TailModel.none(),
        c=1.0,
        C=1.0,
    )
    with pytest.raises(eq.InvalidInput):
        eq.sweep_relax(cfg, fixed=[0], law=COULOMB)


def test_sweep_is_a_fixed_point_at_rest():
    positions, stats = eq.solve_pinned_segment([0.0], [4.0], 3, COULOMB)
    cfg = stats.config
    out, sweep_stats = eq.sweep_relax(cfg, fixed=[0, cfg.n - 1], law=COULOMB)
    assert sweep_stats.max_displacement <= 1e-9


def test_left_pin_pull_drags_everything_left_boundedly():
    """Moving the left pin left by eps walks each free particle left, never by
    more than eps, and never to the right of where it started."""
    eps = 0.05
    _, stats = eq.solve_pinned_segment([0.0], [5.0], 4, COULOMB)
    base = stats.config.window
    perturbed = (base[0] - eps,) + base[1:]
    g = np.diff(perturbed)
    cfg = eq.LineConfig(
        window=perturbed,
        left_tail=eq.TailModel.none(),
        right_tail=eq.TailModel.none(),
        c=float(min(g)),
        C=float(max(g)),
    )
    fixed = [0, cfg.n - 1]
    for _ in range(200):
        cfg, sweep_stats = eq.sweep_relax(cfg, fixed=fixed, law=COULOMB)
        for i in range(1, cfg.n - 1):
            moved = cfg.window[i] - base[i]
            assert -eps - 1e-12 <= moved <= 1e-12
        if sweep_stats.max_displacement <= 1e-12:
            break
    report = eq.residual_report(cfg, COULOMB)
    free_nets = [abs(r.net) for r in report.rows[1:-1]]
    assert max(free_nets) < 1e-10


def test_zero_centered_single_pair_is_exempt():
    cfg, stats = eq.solve_zero_centered(eq.ZeroCenteredProblem(a=-1.0, b=1.0, n=1, law=COULOMB))
    assert cfg.window == pytest.approx((-1.0, 0.0, 1.0), abs=1e-12)
    assert stats.converged


def test_zero_centered_symmetric_matches_scalar_oracle():
    # With a = -b the outermost pair satisfies a single scalar equation.
    def outer_balance(x2):
        return eq.eval_force(COULOMB, x2 - 1.0) - (
            eq.eval_force(COULOMB, 1.0)
            + eq.eval_force(COULOMB, 2.0)
            + eq.eval_force(COULOMB, x2 + 1.0)
        )

    oracle = bisect(outer_balance, 1.0 + 1e-9, 10.0)
    cfg, stats = eq.solve_zero_centered(eq.ZeroCenteredProblem(a=-1.0, b=1.0, n=2, law=COULOMB))
    assert stats.converged
    x = cfg.window
    assert len(x) == 5
    assert x[1] == pytest.approx(-1.0, abs=1e-8)
    assert x[3] == pytest.approx(1.0, abs=1e-8)
    assert x[4] == pytest.approx(oracle, abs=1e-9)
    assert x[0] == pytest.approx(-oracle, abs=1e-9)


def test_zero_centered_asymmetric_targets():
    cfg, stats = eq.solve_zero_centered(eq.ZeroCenteredProblem(a=-1.0, b=2.0, n=3, law=COULOMB))
    assert stats.converged
    x = cfg.window
    assert len(x) == 7
    assert abs(x[2] + 1.0) < 1e-8
    assert abs(x[4] - 2.0) < 1e-8
    report = eq.residual_report(cfg, COULOMB)
    exempt = {0, 3, len(x) - 1}
    for row in report.rows:
        if row.index not in exempt:
            assert abs(row.net) < 1e-8


@pytest.mark.parametrize("law", [eq.InversePowerLaw(3), EXP], ids=repr)
def test_zero_centered_hits_targets_under_other_laws(law):
    n, a, b = 4, -2.0, 0.5
    cfg, stats = eq.solve_zero_centered(eq.ZeroCenteredProblem(a=a, b=b, n=n, law=law))
    assert stats.converged
    x = cfg.window
    assert abs(x[n - 1] - a) < 1e-8
    assert abs(x[n + 1] - b) < 1e-8
    report = eq.residual_report(cfg, law)
    for row in report.rows:
        if row.index not in (0, n, 2 * n):
            assert abs(row.net) < 1e-8


def test_zero_centered_infeasible_exponential():
    # The required balancing force exceeds the exponential law's supremum, so
    # no bracket can exist for the outer particle.
    with pytest.raises(eq.InfeasibleBracket):
        eq.solve_zero_centered(eq.ZeroCenteredProblem(a=-1.0, b=0.3, n=2, law=EXP))


def test_zero_centered_raises_when_starved_of_iterations():
    with pytest.raises(eq.NoConvergence):
        eq.solve_zero_centered(
            eq.ZeroCenteredProblem(a=-1.0, b=1.0, n=3, law=COULOMB),
            opts=eq.SolverOptions(max_outer_iters=1),
        )


def test_zero_centered_starved_error_carries_last_and_residual():
    with pytest.raises(eq.NoConvergence) as info:
        eq.solve_zero_centered(
            eq.ZeroCenteredProblem(a=-1.0, b=1.0, n=3, law=COULOMB),
            opts=eq.SolverOptions(max_outer_iters=1),
        )
    last = info.value.last
    assert isinstance(last, eq.LineConfig)
    assert last.n == 7
    assert last.window[2] == -1.0 and last.window[3] == 0.0 and last.window[4] == 1.0
    assert math.isfinite(info.value.residual) and info.value.residual > 1e-10


def trivial_left(n=8, gap=1.0):
    window = tuple(-gap * (n - i) for i in range(n))
    return eq.LineConfig(
        window=window,
        left_tail=eq.TailModel.arithmetic(first=window[0] - gap, gap=gap),
        right_tail=eq.TailModel.none(),
        c=gap,
        C=gap,
    )


def test_extend_right_trivial_anchor_stays_trivial():
    cfg = trivial_left()
    positions, stats = eq.extend_right(cfg, 0.0, COULOMB)
    assert stats.converged
    gaps_out = np.diff([cfg.window[-1]] + list(positions))
    assert gaps_out == pytest.approx(np.ones_like(gaps_out), abs=1e-8)


def test_extend_right_stretched_anchor_respects_gap_bounds():
    for delta in (1.5, 2.0):
        cfg = trivial_left()
        positions, stats = eq.extend_right(
            cfg, cfg.window[-1] + delta, COULOMB, opts=eq.SolverOptions(position_tol=0.5)
        )
        gaps_out = np.diff([cfg.window[-1]] + list(positions))
        assert np.all(gaps_out >= 1.0 - 1e-8)
        assert np.all(gaps_out <= delta + 1e-8)


def test_extend_right_rejects_bad_input():
    with pytest.raises(eq.InvalidInput):
        eq.extend_right([-3.0, -3.0, -1.0], 0.0, COULOMB)
    with pytest.raises(eq.InvalidInput):
        eq.extend_right([-2.0, -1.0, 0.5], 1.5, COULOMB)


def test_extend_right_emits_requested_point_count():
    cfg = trivial_left()
    positions, _ = eq.extend_right(
        cfg, 0.0, COULOMB, opts=eq.SolverOptions(extension_points=8)
    )
    assert len(positions) >= 8
