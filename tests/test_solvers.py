import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest

import equilib as eq
from equilib.configurations import TWO_PI
from equilib.residuals import ANTIPODAL_BAND
from equilib.solvers import (
    _arcs,
    _circle_forces,
    _half_arc_step,
    _in_circle_order,
    _multi_start,
    _ordered_newton,
)

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
    # A report that fails every round runs all six; the error must describe
    # the last solved iterate and its report, not a fresh random draw.
    reports = []

    def failing_report(config, law):
        reports.append(eq.circle_residual_report(config, law))
        return dataclasses.replace(reports[-1], max_error_bound=math.inf)

    monkeypatch.setattr(eq.solvers, "circle_residual_report", failing_report)
    law = eq.InversePowerLaw(3)
    with pytest.raises(eq.NoConvergence) as info:
        eq.solve_circle_equilibrium(16, law, opts=eq.SolverOptions(rng_seed=217))
    assert len(reports) == 6
    assert info.value.residual == reports[-1].max_abs_net < 1e-10
    assert isinstance(info.value.last, tuple) and len(info.value.last) == 16
    assert eq.circle_residual_report(eq.CircleConfig(info.value.last), law) == reports[-1]
    assert max(canonical_angle_errors(eq.CircleConfig(info.value.last))) < 1e-8


def test_circle_round_with_an_invalid_iterate_fails(monkeypatch):
    # Every round whose iterate is no valid CircleConfig fails; after the
    # sixth the error carries that round's iterate.
    rounds = []

    def invalid(angles):
        rounds.append(angles)
        raise eq.InvalidInput("rejected")

    monkeypatch.setattr(eq.solvers, "CircleConfig", invalid)
    with pytest.raises(eq.NoConvergence, match="collapsed") as info:
        eq.solve_circle_equilibrium(5, COULOMB, opts=eq.SolverOptions(rng_seed=3))
    assert len(rounds) == 6 and info.value.last == rounds[-1]


@pytest.mark.parametrize(
    "n, law, opts, floor",
    [
        (3, eq.InversePowerLaw(3), eq.SolverOptions(residual_tol=0.0), None),
        (16, eq.InversePowerLaw(3), eq.SolverOptions(rng_seed=217, residual_tol=1e-16), 0.0),
    ],
    ids=["n3-tol0", "n16-seed217-floor0"],
)
def test_circle_verdict_allows_the_report_error_bound(monkeypatch, n, law, opts, floor):
    # Both final iterates sit at equal spacing with a net force above the
    # tolerance but within the report's certified bound (1.4e-16 against
    # 8.9e-16, and 1.2e-13 against 5.5e-13): the report calls them at rest.
    if floor is not None:
        monkeypatch.setattr(eq.solvers, "_circle_rounding_floor", lambda J: floor)
    cfg, stats = eq.solve_circle_equilibrium(n, law, opts=opts)
    report = eq.circle_residual_report(cfg, law)
    assert stats.converged and stats.residual == report.max_abs_net > opts.residual_tol
    assert report.in_equilibrium(opts.residual_tol)
    assert max(canonical_angle_errors(cfg)) < 1e-8


@pytest.mark.parametrize("n", [32, 64])
@pytest.mark.parametrize(
    "law", [COULOMB, eq.InversePowerLaw(3), EXP], ids=["1/d^2", "1/d^3", "exp"]
)
def test_circle_random_starts_certify_above_sixteen_particles(law, n):
    cfg, stats = eq.solve_circle_equilibrium(n, law, opts=eq.SolverOptions(rng_seed=1))
    assert stats.converged
    assert eq.circle_residual_report(cfg, law).in_equilibrium(1e-10)
    assert max(canonical_angle_errors(cfg)) < 1e-8


def test_circle_equal_spacing_passes_the_rest_check():
    # Equal spacing is already at rest: its smoothed gradient (up to about
    # 1.5e-13, at n = 13 under 1/d^3) may sit above Newton's 1e-13 exit but
    # not above the gradient's rounding floor, so no Newton step is taken,
    # and the round's circle_residual_report certifies the start.
    for law in (COULOMB, eq.InversePowerLaw(3), EXP):
        for n in range(2, 17):
            equal = [2.0 * math.pi * i / n for i in range(n)]
            cfg, stats = eq.solve_circle_equilibrium(n, law, init=equal)
            assert stats.newton_iters == 0, (law, n)
            assert stats.residual <= 1e-10


def test_circle_seed_eight_finishes_in_its_first_round():
    # The first draw of seed 8 ends at equal spacing with a smoothed
    # gradient of about 1.2e-13: above Newton's 1e-13 exit, below the
    # gradient's rounding floor.  That round's certified report must accept
    # it.  A redraw would part from the solve started at that draw.
    law = eq.InversePowerLaw(3)
    cfg, stats = eq.solve_circle_equilibrium(16, law, opts=eq.SolverOptions(rng_seed=8))
    first_draw = np.random.default_rng(8).uniform(0.0, 2.0 * math.pi, size=16)
    again, again_stats = eq.solve_circle_equilibrium(
        16, law, init=first_draw, opts=eq.SolverOptions(rng_seed=1)
    )
    assert again.angles == cfg.angles
    assert again_stats.newton_iters == stats.newton_iters
    assert max(canonical_angle_errors(cfg)) < 1e-8


FROZEN_CIRCLE = [
    (
        COULOMB, 5, 7, 7,
        "(0.0, 1.256637061435917, 2.5132741228718345, 3.7699111843077517, 5.026548245743669)",
    ),
    (
        eq.InversePowerLaw(3), 16, 77769504, 12,
        "(0.0, 0.39269908169872414, 0.7853981633974481, 1.1780972450961715, "
        "1.5707963267948957, 1.9634954084936196, 2.356194490192344, 2.7488935718910685, "
        "3.1415926535897927, 3.534291735288517, 3.926990816987241, 4.319689898685965, "
        "4.71238898038469, 5.105088062083413, 5.497787143782138, 5.890486225480862)",
    ),
    (
        EXP, 7, 3, 5,
        "(0.0, 0.8975979010256553, 1.7951958020513106, 2.692793703076966, "
        "3.590391604102621, 4.487989505128276, 5.385587406153931)",
    ),
    (COULOMB, 2, 0, 6, "(0.0, 3.141592653589793)"),
    (eq.InversePowerLaw(3), 2, 0, 5, "(0.0, 3.141592653589793)"),
    (EXP, 2, 0, 5, "(0.0, 3.1415926535898775)"),
]


@pytest.mark.parametrize(
    "law, n, seed, iters, angles",
    FROZEN_CIRCLE,
    ids=["1/d^2", "1/d^3", "exp", "1/d^2-n2", "1/d^3-n2", "exp-n2"],
)
def test_circle_output_is_frozen(law, n, seed, iters, angles):
    # Exact angles and step counts of the solver as first recorded: a
    # refactor of the kernel or the Newton driver must not move a digit.
    cfg, stats = eq.solve_circle_equilibrium(n, law, opts=eq.SolverOptions(rng_seed=seed))
    assert repr(cfg.angles) == angles
    assert stats.newton_iters == iters


def test_circle_outputs_over_many_starts_are_frozen():
    # 135 solves: a digest of every angle repr and step count as first
    # recorded, so a kernel or driver change that moves any digit fails.
    digest = hashlib.sha256()
    for law in (COULOMB, eq.InversePowerLaw(3), EXP):
        for n in range(2, 17):
            for seed in range(3):
                cfg, stats = eq.solve_circle_equilibrium(
                    n, law, opts=eq.SolverOptions(rng_seed=seed)
                )
                digest.update(f"{cfg.angles!r} {stats.newton_iters}\n".encode())
    assert digest.hexdigest() == (
        "a66c9ca11406c852a49a108cc187511dbe700323988c498eb36dc5457ebe0ab6"
    )


LINE_LAWS = (COULOMB, eq.InversePowerLaw(3), EXP)


def unit_lattice_left(length):
    window = tuple(float(i) for i in range(-length, 0))
    return eq.LineConfig(
        window=window,
        left_tail=eq.TailModel.arithmetic(first=-length - 1.0, gap=1.0),
        right_tail=eq.TailModel.none(),
        c=1.0,
        C=1.0,
    )


def line_solver_records():
    """One text line per solve of a fixed grid: every output float repr and
    step count of the pinned-segment, zero-centered, extension and
    multi-start reconstruction solvers, or the error they raise."""

    def run(label, call, describe):
        try:
            return f"{label} " + describe(call())
        except eq.NoConvergence as exc:
            return f"{label} NoConvergence {exc.residual!r} {exc.iterations!r}"

    for li, law in enumerate(LINE_LAWS):
        for n_interior in range(3, 9):
            for left, right in (([0.0], [1.1 * (n_interior + 1)]),
                                ([-1.0, 0.0], [0.9 * (n_interior + 1), 0.9 * n_interior + 2.0])):
                yield run(
                    f"segment {li} {n_interior} {left} {right}",
                    lambda: eq.solve_pinned_segment(left, right, n_interior, law),
                    lambda res: f"{res[0]!r} {res[1].sweeps} {res[1].residual!r}",
                )
        for n in (2, 3, 4):
            for a, b in ((-1.0, 1.3), (-0.8, 1.0)):
                yield run(
                    f"zero-centered {li} {n} {a} {b}",
                    lambda: eq.solve_zero_centered(eq.ZeroCenteredProblem(a=a, b=b, n=n, law=law)),
                    lambda res: f"{res[0].window!r} {res[1].outer_iters} {res[1].residual!r}",
                )
        for length in (4, 6, 8):
            for delta in (1.0, 1.3):
                if delta == 1.0:
                    opts = eq.SolverOptions(extension_points=length + 2)
                else:
                    opts = eq.SolverOptions(extension_points=6, guard_band=2, position_tol=0.5)
                yield run(
                    f"extend {li} {length} {delta}",
                    lambda: eq.extend_right(unit_lattice_left(length), -1.0 + delta, law, opts),
                    lambda res: (
                        f"{res[0]!r} {res[1].sweeps} {res[1].levels_used} "
                        f"{res[1].level_disagreement!r} {res[1].residual!r} "
                        f"{res[1].config.right_tail.first!r}"
                    ),
                )
    lattice = tuple(float(i) for i in range(8))
    perturbed = (0.0, 1.05, 2.2, 3.1, 4.0, 5.0, 6.0, 7.0)
    tail = eq.TailModel.arithmetic(first=8.0, gap=1.0)
    for li, law in enumerate(LINE_LAWS):
        for pi, (window, m, right) in enumerate(
            ((lattice, 3, tail), (perturbed, 3, tail), (perturbed[:2], 1, eq.TailModel.none()))
        ):
            problem = eq.ReconstructionProblem(
                w_window=window,
                m=m,
                law=law,
                right_tail=right,
                far_left_tail=eq.TailModel.arithmetic(first=-(m + 1.0), gap=1.0),
                multi_start=5,
                rng_seed=li,
            )
            yield run(
                f"reconstruct {li} {pi}",
                lambda: eq.reconstruct_left_tail(problem),
                lambda rep: f"{rep.clusters!r} {rep.converged_count} {rep.equations_used}",
            )


def test_line_solver_outputs_are_frozen():
    # A digest of every output float repr and step count of the line
    # solvers over a fixed grid (three laws, 3-8 interior particles, unit
    # and stretched extensions, least-squares and square reconstruction),
    # as first recorded: a kernel or Newton change must not move a digit.
    digest = hashlib.sha256()
    for line in line_solver_records():
        digest.update(f"{line}\n".encode())
    assert digest.hexdigest() == (
        "5929f1c7f743744c2604cbfd6e82e2559d7c47e98a62d89133764f40e9a29427"
    )


def stretched_left(gaps, tail_gap):
    """A left configuration ending at -1 with the given gaps (left to
    right) and an arithmetic left tail; c < C, so the trial gaps differ."""
    window = [-1.0]
    for g in reversed(gaps):
        window.insert(0, window[0] - g)
    return eq.LineConfig(
        window=tuple(window),
        left_tail=eq.TailModel.arithmetic(first=window[0] - tail_gap, gap=tail_gap),
        right_tail=eq.TailModel.none(),
        c=min(gaps + [tail_gap]),
        C=max(gaps + [tail_gap]),
    )


def extension_cluster_records():
    """One text line per multi-start extension: the output and the repr of
    stats.clusters.  The second option set starves the trials of Newton
    steps, so some runs keep a later trial's center and some keep none."""
    lefts = (
        stretched_left([0.9, 1.1, 1.0, 1.2], 1.0),
        stretched_left([1.0, 0.6, 1.5, 0.9, 1.1], 1.2),
        stretched_left([0.5, 2.0, 0.5], 2.0),
    )
    option_sets = (
        dict(extension_points=5, guard_band=2, position_tol=0.5, multi_start=6),
        dict(extension_points=8, guard_band=2, position_tol=1e-12,
             truncation_levels=(2,), max_sweeps=5, multi_start=8),
    )
    for li, law in enumerate(LINE_LAWS):
        for ci, left in enumerate(lefts):
            for delta in (0.9, 1.4):
                for oi, fields in enumerate(option_sets):
                    opts = eq.SolverOptions(rng_seed=li + ci, **fields)
                    label = f"extend-clusters {li} {ci} {delta} {oi}"
                    try:
                        out, stats = eq.extend_right(left, -1.0 + delta, law, opts)
                    except eq.NoConvergence as exc:
                        yield f"{label} NoConvergence {exc.residual!r} {exc.iterations!r}"
                    else:
                        yield f"{label} {out!r} {stats.clusters!r}"


def test_extension_clusters_are_frozen():
    # A digest of 36 multi-start extensions (three laws, three stretched
    # left configurations, two anchors, two option sets): the trial draws,
    # their order and the clustering must not move a digit.  Re-pinned when
    # the trials began to solve the level of the output; only the clusters
    # of the 18 runs that stop before their last level moved.  Re-pinned
    # again when Newton's own residual stopped gating trials: only
    # "extend-clusters 0 2 1.4 1" moved, from no cluster to one.
    digest = hashlib.sha256()
    for line in extension_cluster_records():
        digest.update(f"{line}\n".encode())
    assert digest.hexdigest() == (
        "d824dc4077ab75012704ceeb106578e345b9eff5c2bc16c896de6c8bfc3c5bc1"
    )


def test_extension_trial_is_judged_by_the_report_alone():
    # Record "extend-clusters 0 2 1.4 1": the fourth of eight trials ends
    # on its five-step budget short of Newton's exit (max |net| <=
    # residual_tol / 2 over every extension row), at |net| 5.4e-11 on the
    # certified rows, within residual_tol (1e-10).  The report accepts it,
    # so it is the one cluster.
    left = stretched_left([0.5, 2.0, 0.5], 2.0)
    opts = eq.SolverOptions(rng_seed=2, extension_points=8, guard_band=2, position_tol=1e-12,
                            truncation_levels=(2,), max_sweeps=5, multi_start=8)
    out, stats = eq.extend_right(left, 0.4, COULOMB, opts)
    assert len(stats.clusters) == 1
    assert max(abs(c - y) for c, y in zip(stats.clusters[0], out)) <= 1e-9


def test_extension_clusters_come_from_the_level_of_the_output():
    # The levels agree at level 2 here (position_tol 0.5), so the trials
    # must solve level 2 too; solving the last level put the one center
    # 7.4e-3 away from the output.
    left = stretched_left([0.9, 1.1, 1.0, 1.2], 1.0)
    opts = eq.SolverOptions(extension_points=5, guard_band=2, position_tol=0.5, multi_start=6)
    out, stats = eq.extend_right(left, -0.1, COULOMB, opts)
    assert stats.levels_used == 2 < len(opts.truncation_levels)
    assert stats.clusters
    for center in stats.clusters:
        assert max(abs(c - y) for c, y in zip(center, out)) <= 1e-9


def test_extension_trials_are_accepted_only_by_the_certified_report(monkeypatch):
    # The output is certified first; a report wrapper then rejects every
    # later configuration (each a trial's) with an infinite error bound.
    # Each trial must be judged by that report, so no cluster survives,
    # while the output and its residual stay as without the wrapper.
    from equilib import solvers

    left = stretched_left([0.9, 1.1, 1.0, 1.2], 1.0)
    opts = eq.SolverOptions(extension_points=5, guard_band=2, position_tol=0.5, multi_start=6)
    out, stats = eq.extend_right(left, -0.1, COULOMB, opts)
    assert stats.clusters
    reports = []
    original = solvers.residual_report

    def reject_after_the_first(config, *args, **kwargs):
        report = original(config, *args, **kwargs)
        reports.append(config)
        if len(reports) > 1:
            report = dataclasses.replace(report, max_error_bound=math.inf)
        return report

    monkeypatch.setattr(solvers, "residual_report", reject_after_the_first)
    again, again_stats = eq.extend_right(left, -0.1, COULOMB, opts)
    assert (again, again_stats.residual) == (out, stats.residual)
    assert again_stats.clusters == ()
    assert len(reports) == 1 + opts.multi_start
    assert all(cfg.window[: left.n + 1] == reports[0].window[: left.n + 1] for cfg in reports)


def test_extension_accepts_a_left_junction_wider_than_every_other_gap():
    # The left configuration's junction gap (2) is its widest gap.  The
    # certified configuration takes its bounds from all of its own gaps,
    # junctions included; leaving the left junction out raised InvalidInput
    # ("gap 2.0 outside declared bounds").
    left = eq.LineConfig((-4.0, -3.0, -2.0, -1.0), eq.TailModel.arithmetic(-6.0, 1.0),
                         eq.TailModel.none(), 1.0, 2.0)
    opts = eq.SolverOptions(extension_points=6, guard_band=2, position_tol=0.5)
    out, stats = eq.extend_right(left, -0.5, COULOMB, opts)
    assert out[0] == -0.5 and stats.converged
    assert stats.config.C == left.junction_gap("left") == 2.0
    assert stats.config.c <= min(stats.config.window_gaps())


def test_multi_start_drops_failed_starts_and_clusters_in_the_given_order():
    # Residual per start, None where the solve fails; each start is solved
    # once.  A point joins the first cluster within the radius (max norm,
    # inclusive), else it opens one.
    residuals = {0.0: 3e-12, 0.3: None, 1.0: 1e-12, 0.5: 1e-13, 2.0: None, 0.95: 2e-12}
    solved = []

    def solve(start):
        solved.append(float(start[0]))
        res = residuals[float(start[0])]
        return None if res is None else (start, res)

    starts = [np.array([v, -v]) for v in residuals]
    in_start_order = _multi_start(starts, solve, 0.5)
    assert solved == list(residuals)
    assert [(c.tolist(), k, r) for c, k, r in in_start_order] == [
        ([0.0, -0.0], 2, 3e-12), ([1.0, -1.0], 2, 1e-12)]
    by_residual = _multi_start(starts, solve, 0.3, order=lambda s: (s[1], tuple(s[0])))
    assert [(c.tolist(), k, r) for c, k, r in by_residual] == [
        ([0.5, -0.5], 1, 1e-13), ([1.0, -1.0], 2, 1e-12), ([0.0, -0.0], 1, 3e-12)]
    assert [k for _, k, _ in _multi_start(starts, solve, 0.01)] == [1, 1, 1, 1]
    assert _multi_start([], solve, 1.0) == []


def reference_circle_forces(law, theta, smooth_w):
    """The circle kernel as first written, one numpy call per operation."""
    delta = (theta[None, :] - theta[:, None]) % TWO_PI
    u = np.minimum(delta, TWO_PI - delta)
    s = np.where(delta < math.pi, 1.0, -1.0)
    np.fill_diagonal(s, 0.0)
    r = np.clip((math.pi - u) / smooth_w, 0.0, 1.0)
    dr = np.where((u > math.pi - smooth_w) & (u < math.pi), -1.0 / smooth_w, 0.0)
    np.fill_diagonal(u, 1.0)
    F = law.force_array(u)
    g = np.sum(F * r * s, axis=1)
    J = (law.force_derivative_array(u) * r + F * dr) * (s * s)
    np.fill_diagonal(J, 0.0)
    np.fill_diagonal(J, -np.sum(J, axis=1))
    return g, J


def kernel_test_angles():
    rng = np.random.default_rng(2024)
    for n in range(2, 17):
        for _ in range(4):
            theta = np.sort(rng.uniform(0.0, TWO_PI, size=n))
            yield theta - theta[0]
        # A pair at exactly pi and a pair inside the antipodal band.
        for far in (math.pi, math.pi + 0.5 * ANTIPODAL_BAND):
            rest = rng.uniform(0.0, TWO_PI, size=n - 2)
            yield np.sort(np.concatenate([[0.0, far], rest]))


@pytest.mark.parametrize("smooth_w", [0.35], ids=["smoothed"])
@pytest.mark.parametrize(
    "law",
    [COULOMB, eq.InversePowerLaw(3), EXP, eq.StretchedExponentialLaw(1.5)],
    ids=["1/d^2", "1/d^3", "exp", "exp-1.5"],
)
def test_circle_kernel_matches_reference_bit_for_bit(law, smooth_w):
    for theta in kernel_test_angles():
        g, jac = _circle_forces(law, theta)
        J = jac()
        g_ref, J_ref = reference_circle_forces(law, theta, smooth_w)
        # Bytes, not values: the sign of a zero must match as well.
        assert g.tobytes() == g_ref.tobytes(), theta
        assert J.tobytes() == J_ref.tobytes(), theta


def reference_arcs(free):
    return np.diff(np.concatenate([[0.0], free, [TWO_PI]]))


def reference_half_arc_step(free, du):
    shrink = -np.diff(np.concatenate([[0.0], du, [0.0]])) / reference_arcs(free)
    worst = float(np.max(shrink))
    return 0.5 / worst if worst > 0.5 else 1.0


def test_circle_order_predicate_matches_positive_arcs():
    rng = np.random.default_rng(5)
    cases = [
        np.array([1.0]),  # n = 2: one free angle, no neighbor pairs
        np.array([0.0]),
        np.array([TWO_PI]),
        np.array([0.0, 1.0]),
        np.array([1.0, TWO_PI]),
        np.array([1.0, 1.0, 2.0]),
        np.array([1.0, math.nan, 2.0]),
        np.array([math.nan]),
        np.array([-1e-300, 1.0]),
        np.array([5e-324, 1.0]),
        np.array([1.0, np.nextafter(1.0, 2.0)]),
    ]
    for _ in range(1000):
        free = rng.uniform(-0.5, TWO_PI + 0.5, size=int(rng.integers(1, 16)))
        if rng.random() < 0.5:
            free = np.sort(free)
        if rng.random() < 0.3:
            free = np.round(free, 1)  # equal neighbors
        cases.append(free)
    for free in cases:
        assert np.array_equal(_arcs(free), reference_arcs(free), equal_nan=True)
        assert _in_circle_order(free) == bool(np.all(reference_arcs(free) > 0.0)), free


def test_half_arc_step_matches_reference():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        n_free = int(rng.integers(1, 16))
        free = np.sort(rng.uniform(0.0, TWO_PI, size=n_free))
        du = rng.normal(scale=10.0 ** rng.uniform(-3, 1), size=n_free)
        du[rng.random(n_free) < 0.3] = 0.0
        assert _half_arc_step(free, du) == reference_half_arc_step(free, du)
    for free, du in (([1.0], [0.0]), ([1.0, 2.0], [0.0, 0.0]), ([1.0, 2.0], [-0.0, 0.0])):
        free, du = np.array(free), np.array(du)
        assert _half_arc_step(free, du) == reference_half_arc_step(free, du) == 1.0


def test_half_arc_step_with_nan_matches_reference():
    # ndarray.max propagates a NaN shrink ratio, which yields the full step;
    # a max over floats would skip a NaN placed after a large shrink.
    free = np.array([1.0, 2.0, 3.0])
    for du in ([math.nan, 0.0, 5.0], [-5.0, math.nan, 0.0], [0.0, 5.0, math.nan],
               [math.inf, math.inf, 0.0]):
        du = np.array(du)
        with np.errstate(invalid="ignore"):
            expect = reference_half_arc_step(free, du)
        assert _half_arc_step(free, du) == expect == 1.0


def test_tailed_sweep_output_is_frozen():
    cfg = eq.LineConfig(
        window=(0.0, 0.9, 2.3, 3.1, 4.0, 5.0),
        left_tail=eq.TailModel.arithmetic(first=-1.0, gap=1.0),
        right_tail=eq.TailModel.arithmetic(first=6.0, gap=1.0),
        c=0.7,
        C=1.4,
    )
    out, stats = eq.sweep_relax(cfg, fixed=[0, 5], law=eq.StretchedExponentialLaw(1.5))
    assert repr(out.window) == (
        "(0.0, 1.1269628858613006, 2.090574825759801, 3.04783125925779, 4.028857256939851, 5.0)"
    )
    assert repr(stats.displacements) == (
        "(0.0, 0.22696288586130053, -0.20942517424019869, -0.05216874074221023, "
        "0.028857256939851084, 0.0)"
    )
    assert stats.moved == 4 and stats.endpoint_flags == ()


@pytest.mark.parametrize("extra_row", [False, True], ids=["square", "least-squares"])
def test_newton_builds_one_jacobian_per_step_taken(extra_row):
    # r(u) = target - u^3, optionally with a consistent extra equation:
    # _ordered_newton must build J only to take a step, never for a start
    # already at rest, for rejected trials or for the final iterate.
    target = np.array([8.0, 27.0])
    built = []

    def system(u):
        r = target - u**3
        if extra_row:
            r = np.append(r, 35.0 - (u**3).sum())

        def jac():
            built.append(u.copy())
            J = np.diag(-3.0 * u**2)
            return np.vstack([J, -3.0 * u**2]) if extra_row else J

        return r, jac

    def positive(u):
        return bool(np.all(u > 0.0))

    u, r, steps, _, _ = _ordered_newton(system, np.array([2.0, 3.0]), positive, 50, 1e-12)
    assert steps == 0 and built == []
    u, r, steps, _, _ = _ordered_newton(system, np.array([1.0, 1.0]), positive, 50, 1e-12)
    assert np.abs(r).max() <= 1e-12
    assert steps > 0 and len(built) == steps


@pytest.mark.parametrize("reason", ["target", "stalled", "singular", "budget"])
def test_newton_names_why_it_stopped(reason):
    # r(u) = 8 - u^3 from u = 1 reaches its root unless the order rejects
    # every trial (u <= 1), J is singular or the budget is one step.
    def system(u):
        r = 8.0 - u**3
        return r, lambda: np.zeros((1, 1)) if reason == "singular" else np.diag(-3.0 * u**2)

    ordered = (lambda u: bool(u[0] <= 1.0)) if reason == "stalled" else (lambda u: True)
    max_steps = 1 if reason == "budget" else 50
    u, r, steps, _, stop = _ordered_newton(system, np.array([1.0]), ordered, max_steps, 1e-12)
    assert stop == reason
    assert (np.abs(r).max() <= 1e-12) == (reason == "target")
    assert (steps == 1) == (reason != "target")


@pytest.mark.parametrize(
    "solve",
    [
        lambda: eq.solve_pinned_segment([0.0], [3.0], 2, COULOMB, eq.SolverOptions(max_sweeps=1)),
        lambda: eq.extend_right(stretched_left([0.9, 1.1, 1.0, 1.2], 1.0), -0.1, COULOMB,
                                eq.SolverOptions(max_sweeps=1)),
        lambda: eq.extend_right(stretched_left([0.9, 1.1, 1.0, 1.2], 1.0), -0.1, COULOMB,
                                eq.SolverOptions(max_sweeps=1, truncation_levels=(2,))),
    ],
    ids=["segment", "extension-levels", "extension-report"],
)
def test_starved_solver_names_its_budget(solve):
    # One Newton step is too few: the error says the budget stopped Newton,
    # whether the levels disagree or the report rejects the single level.
    with pytest.raises(eq.NoConvergence, match=r"\(budget\)$"):
        solve()


def test_circle_builds_one_jacobian_per_step_taken():
    # The circle kernel builds J only when asked: a start already at rest
    # takes no step and builds none, and over the 135 solves of the digest
    # test J is built once per step plus a few rounding-floor exit tests.
    calls = []

    class Counting:
        def __init__(self, law):
            self.law = law

        def force_array(self, d):
            return self.law.force_array(d)

        def force_derivative_array(self, d):
            if np.ndim(d) == 2:  # a Jacobian build; the residual report's call is 1-D
                calls.append(np.shape(d))
            return self.law.force_derivative_array(d)

    equal = [2.0 * math.pi * i / 8 for i in range(8)]
    cfg, stats = eq.solve_circle_equilibrium(8, Counting(COULOMB), init=equal)
    assert (stats.newton_iters, calls) == (0, [])
    steps = 0
    for law in (COULOMB, eq.InversePowerLaw(3), EXP):
        for n in range(2, 17):
            for seed in range(3):
                _, stats = eq.solve_circle_equilibrium(
                    n, Counting(law), opts=eq.SolverOptions(rng_seed=seed)
                )
                steps += stats.newton_iters
    assert steps == 1375
    assert steps <= len(calls) <= 1400


@pytest.mark.parametrize(
    "field, value",
    [
        ("residual_tol", -1e-10), ("residual_tol", math.nan), ("position_tol", -1.0),
        ("position_tol", math.nan), ("max_sweeps", -1), ("max_outer_iters", -1),
        ("extension_points", -1), ("guard_band", -1), ("truncation_levels", ()),
        ("truncation_levels", (1, 0)), ("truncation_levels", (-2,)), ("multi_start", 0),
        ("multi_start", 2.5), ("rng_seed", -1), ("rng_seed", 2.5), ("rng_seed", True),
        ("max_sweeps", 2.5), ("max_outer_iters", 1.5), ("extension_points", True),
        ("guard_band", 1.5), ("truncation_levels", (1.5,)), ("truncation_levels", (1, True)),
    ],
)
def test_solver_options_reject_out_of_range_values(field, value):
    with pytest.raises(eq.InvalidInput, match=field):
        eq.SolverOptions(**{field: value})


def test_solver_options_accept_zero_budgets_and_tolerances():
    opts = eq.SolverOptions(residual_tol=0.0, position_tol=0.0, max_sweeps=0,
                            max_outer_iters=0, extension_points=0, guard_band=0)
    assert opts.max_sweeps == 0 and opts.residual_tol == 0.0


def test_sweep_relax_builds_no_derivatives():
    # Placement bisects on the net force alone; with tails on both sides a
    # derivative evaluation would cost a 400-term block per call.
    calls = []

    class CountingLaw(eq.InversePowerLaw):
        def force_derivative_array(self, d):
            calls.append(np.shape(d))
            return super().force_derivative_array(d)

    cfg = eq.LineConfig(
        window=(0.0, 0.9, 2.3, 3.1, 4.0, 5.0),
        left_tail=eq.TailModel.arithmetic(first=-1.0, gap=1.0),
        right_tail=eq.TailModel.arithmetic(first=6.0, gap=1.0),
        c=0.7,
        C=1.4,
    )
    out, stats = eq.sweep_relax(cfg, fixed=[0, 5], law=CountingLaw(2))
    assert calls == []
    assert stats.moved == 4
    assert out.window == eq.sweep_relax(cfg, fixed=[0, 5], law=COULOMB)[0].window


def test_circle_coincident_init_angles_converge_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg, stats = eq.solve_circle_equilibrium(3, COULOMB, init=[0.0, 0.0, 1.0])
    assert stats.converged
    assert max(canonical_angle_errors(cfg)) < 1e-8
    # Round 0 is skipped (an arc below 1e-6): these pin a redraw round.
    assert repr(cfg.angles) == "(0.0, 2.0943951023931953, 4.188790204786391)"
    assert stats.newton_iters == 5


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
    assert isinstance(last, tuple) and all(isinstance(v, float) for v in last)
    assert len(last) == 7
    assert last[2] == -1.0 and last[3] == 0.0 and last[4] == 1.0
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


def test_particle_counts_above_the_maximum_raise_before_solving():
    law = eq.InversePowerLaw(2)
    too_many = eq.MAX_PARTICLES + 1
    with pytest.raises(eq.InvalidInput, match="exceeds the maximum"):
        eq.solve_circle_equilibrium(too_many, law)
    with pytest.raises(eq.InvalidInput, match="exceeds the maximum"):
        eq.solve_pinned_segment([0.0], [1.0], too_many, law)
    with pytest.raises(eq.InvalidInput, match="exceeds the maximum"):
        eq.ZeroCenteredProblem(a=-1.0, b=1.0, n=too_many, law=law)


@pytest.mark.parametrize(
    "solve, rows",
    [
        (lambda: eq.extend_right(trivial_left(), 0.0, COULOMB,
                                 opts=eq.SolverOptions(extension_points=8)), 8 - 4 + 1),
        (lambda: eq.solve_pinned_segment([0.0, 1.0], [7.0], 5, COULOMB), 5),
        (lambda: eq.solve_zero_centered(eq.ZeroCenteredProblem(-1.0, 1.5, 3, COULOMB)), 2 * 3 - 2),
    ],
    ids=["extend", "segment", "zero-centered"],
)
def test_independent_checks_evaluate_only_the_certified_rows(monkeypatch, solve, rows):
    # A count, not a time: each solver's check through the residuals module
    # evaluates exactly the rows it certifies (N - K + 1, n_interior, 2n - 2).
    from equilib import residuals

    evaluated = []
    original = residuals._certified_rows

    def spy(law, x, *args):
        evaluated.append(len(x))
        return original(law, x, *args)

    monkeypatch.setattr(residuals, "_certified_rows", spy)
    solve()
    assert evaluated == [rows]


def test_kernels_evaluate_forces_only_at_real_pair_distances():
    # The table starts at 1.5, so a force at a self-distance placeholder of
    # 1.0 raises DomainError; every real pair distance here is in range.
    law = eq.TabulatedLaw(((1.5, 2.0), (4.0, 0.1), (8.0, 0.01)),
                          eq.TabulatedTail("inverse_power", 2.0))
    ring, _ = eq.solve_circle_equilibrium(3, law, init=[0.0, TWO_PI / 3, 2 * TWO_PI / 3])
    assert eq.circle_residual_report(ring, law).max_abs_net <= 1e-13
    interior, stats = eq.solve_pinned_segment([0.0], [6.0], 2, law)
    assert eq.residual_report(stats.config, law, indices=[1, 2]).in_equilibrium(1e-10)
    cfg, _ = eq.solve_zero_centered(eq.ZeroCenteredProblem(-6.0, 6.0, 2, law))
    assert eq.residual_report(cfg, law, indices=[1, 3]).in_equilibrium(1e-10)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_zero_centered_start_stays_in_a_tabulated_domain(n):
    # Start increments of 0.5/j times b put x_2 at 2.5, a gap of 0.5 below
    # the table's first distance of 1.5; the floor d_min / min(b, -a) keeps
    # every start gap in range.
    law = eq.TabulatedLaw(((1.5, 2.0), (4.0, 0.1), (8.0, 0.01)),
                          eq.TabulatedTail("inverse_power", 2.0))
    cfg, stats = eq.solve_zero_centered(eq.ZeroCenteredProblem(-2.0, 2.0, n, law))
    assert stats.converged
    rows = [i for i in range(1, 2 * n) if i != n]
    assert eq.residual_report(cfg, law, indices=rows).in_equilibrium(1e-10)
    assert min(np.diff(cfg.window)) >= law.d_min


@pytest.mark.parametrize("a, b, n", [(-1.6, 1.6, 6), (-1.55, 1.7, 5)])
def test_zero_centered_rounded_start_gaps_stay_in_a_tabulated_domain(a, b, n):
    # b (1 + d_min / b) rounds to a gap of 1.4999999999999991 (resp.
    # ...96) past b, below the table's first distance of 1.5; the start is
    # raised by ulps so the solve fails on its residual, not on the domain.
    law = eq.TabulatedLaw(((1.5, 2.0), (4.0, 0.1), (8.0, 0.01)),
                          eq.TabulatedTail("inverse_power", 2.0))
    with pytest.raises(eq.NoConvergence) as info:
        eq.solve_zero_centered(eq.ZeroCenteredProblem(a, b, n, law),
                               eq.SolverOptions(max_outer_iters=0))
    assert min(np.diff(info.value.last)) >= law.d_min


@pytest.mark.parametrize("a, b, n", [(-1.6, 1.6, 3), (-1.6, 1.6, 4), (-1.6, 1.6, 5),
                                     (-1.6, 1.6, 6), (-1.55, 1.7, 5)])
def test_zero_centered_newton_trials_stay_in_a_tabulated_domain(a, b, n):
    # A halved step can keep the order and still bring a gap below the
    # table's first distance of 1.5; such a trial is rejected like a broken
    # order, so the solve fails on its residual, not on the domain.
    law = eq.TabulatedLaw(((1.5, 2.0), (4.0, 0.1), (8.0, 0.01)),
                          eq.TabulatedTail("inverse_power", 2.0))
    with pytest.raises(eq.NoConvergence) as info:
        eq.solve_zero_centered(eq.ZeroCenteredProblem(a, b, n, law))
    assert min(np.diff(info.value.last)) >= law.d_min
