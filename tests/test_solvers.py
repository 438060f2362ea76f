import contextlib
import dataclasses
import hashlib
import math
import sys
import threading
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
    _increasing,
    _multi_start,
    _SOLVE_STATE,
    _ordered_newton,
    _solve,
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
    # Residual per start, None where the solve fails; each distinct start is
    # solved once.  A point joins the first cluster within the radius (max norm,
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
    # A repeated start (every start when c = C) is solved once per call and
    # counts once per occurrence; the failing 0.3 is dropped both times.
    solved.clear()
    repeated = _multi_start(starts + starts[:2], solve, 0.5)
    assert solved == list(residuals)
    assert [(c.tolist(), k) for c, k, _ in repeated] == [([0.0, -0.0], 3), ([1.0, -1.0], 2)]


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


def test_increasing_matches_the_numpy_comparison():
    # Python float compares decide like numpy's elementwise ones: NaN fails,
    # -0.0 and 0.0 are equal, and so are equal neighbours.
    rng = np.random.default_rng(7)
    nan, inf = math.nan, math.inf
    cases = [[], [1.0], [nan], [0.0, -0.0], [-0.0, 0.0], [-0.0, 1.0], [-1.0, -0.0],
             [1.0, 1.0], [1.0, 1.0, 2.0], [1.0, nan], [nan, 1.0], [1.0, nan, 2.0],
             [-inf, 0.0, inf], [inf, inf], [5e-324, 1e-323], [1.0, np.nextafter(1.0, 2.0)]]
    for _ in range(500):
        x = np.round(rng.uniform(-3.0, 3.0, size=int(rng.integers(0, 12))), 1)
        cases.append(np.sort(x) if rng.random() < 0.5 else x)
    for x in cases:
        x = np.array(x, dtype=float)
        assert _increasing(x) is bool((x[1:] > x[:-1]).all()), x


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
        "(0.0, 1.126962885861505, 2.090574825759935, 3.0478312592573373, 4.0288572569393155, 5.0)"
    )
    assert repr(stats.displacements) == (
        "(0.0, 0.22696288586150504, -0.20942517424006502, -0.052168740742662756, "
        "0.028857256939315512, 0.0)"
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


def test_newton_rejects_a_trial_outside_the_domain_but_not_the_start():
    # r(u) = 8 - u^3 is defined here only up to u = 1.5: a trial past it is
    # rejected like a broken order, so Newton stalls below 1.5; a start past
    # it raises.
    def system(u):
        if u[0] > 1.5:
            raise eq.DomainError(f"{u[0]!r} past 1.5")
        return 8.0 - u**3, lambda: np.diag(-3.0 * u**2)

    u, r, steps, _, stop = _ordered_newton(system, np.array([1.0]), lambda u: True, 50, 1e-12)
    assert stop == "stalled" and 1.0 < u[0] <= 1.5
    with pytest.raises(eq.DomainError):
        _ordered_newton(system, np.array([2.0]), lambda u: True, 50, 1e-12)


@pytest.mark.parametrize("rows", [1, 2], ids=["square", "overdetermined"])
def test_newton_never_stops_on_a_nan_residual_as_target(rows):
    # max|r| <= tol is False for NaN, so a NaN iterate is never finished;
    # no trial lowers a NaN merit, so the step stalls.
    system = lambda u: (np.full(rows, np.nan), lambda: np.ones((rows, 1)))
    u, r, steps, _, stop = _ordered_newton(system, np.array([1.0]), lambda u: True, 10, 1e-12)
    assert (stop, steps) == ("stalled", 1)


def test_newton_stops_quietly_on_a_jacobian_that_turns_singular():
    # The run's one error state records invalid values: the system's own
    # (inf - inf on every evaluation) leave the first step alone, and LAPACK's
    # on the second step's singular J stop Newton with "singular", warning of nothing.
    def system(u):
        np.subtract(np.inf, np.full(1, np.inf))  # an invalid value, discarded
        r = np.array([8.0, 27.0]) - u**3
        J = np.diag(-3.0 * u**2) if u[0] == 1.0 else np.zeros((2, 2))
        return r, lambda: J

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, r, steps, path, stop = _ordered_newton(system, np.array([1.0, 1.0]),
                                                  lambda u: True, 50, 1e-12)
    assert (stop, steps, len(path)) == ("singular", 2, 2)


def test_newton_runs_in_threads_keep_their_own_singular_record():
    # The invalid-value record belongs to one run: singular and regular runs
    # in four threads, switching often, each stop for their own reason.
    def run(singular):
        def system(u):
            return 8.0 - u**3, lambda: np.zeros((1, 1)) if singular else np.diag(-3.0 * u**2)

        return _ordered_newton(system, np.array([1.0]), lambda u: True, 50, 1e-12)[4]

    stops, interval = [], sys.getswitchinterval()

    def worker(k):
        for i in range(200):
            singular = (k + i) % 2 == 1
            stops.append(run(singular) == ("singular" if singular else "target"))

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(stops) == 800 and all(stops)


def test_solve_matches_numpy_solve_bit_for_bit():
    # _solve calls numpy's private LAPACK gufunc; a numpy release that moves
    # or changes it fails here rather than in a frozen-output test.
    def run_solve(A, b):  # _solve inside the error state a Newton run enters
        flagged = {}
        with np.errstate(call=flagged.__setitem__, **_SOLVE_STATE):
            return _solve(A, b, flagged)

    rng = np.random.default_rng(23)
    for n in range(1, 17):
        for _ in range(5):
            A = rng.normal(size=(n, n)) + n * np.eye(n)
            b = rng.normal(size=n)
            assert run_solve(A, b).tobytes() == np.linalg.solve(A, b).tobytes()
            J = rng.normal(size=(n + 2, n))  # a Levenberg-Marquardt normal matrix
            normal = J.T @ J
            normal[np.diag_indices_from(normal)] += 1e-12 * np.max(np.diag(normal))
            rhs = -(J.T @ rng.normal(size=n + 2))
            assert run_solve(normal, rhs).tobytes() == np.linalg.solve(normal, rhs).tobytes()
            view = A[::-1, ::-1].T  # a strided view, as J[1:, 1:] of the circle is
            assert run_solve(view, b).tobytes() == np.linalg.solve(view, b).tobytes()
    for A in (np.zeros((3, 3)), np.outer([1.0, 2.0, 4.0], np.ones(3))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for solve in (run_solve, np.linalg.solve):
                with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
                    solve(A, np.ones(3))


def test_newton_steps_bypass_numpy_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    _, stats = eq.solve_circle_equilibrium(9, COULOMB, opts=eq.SolverOptions(rng_seed=3))
    assert stats.newton_iters > 0
    _, stats = eq.solve_pinned_segment([0.0, 1.0], [5.0], 4, EXP)
    assert stats.sweeps > 0

    def overdetermined(u):  # r = (8, 27, 35) - (u0^3, u1^3, u0^3 + u1^3)
        cubes = u**3
        return (np.array([8.0, 27.0, 35.0]) - np.append(cubes, cubes.sum()),
                lambda: np.vstack([np.diag(-3.0 * u**2), -3.0 * u**2]))

    _, _, steps, _, stop = _ordered_newton(overdetermined, np.array([1.0, 1.0]),
                                           lambda u: True, 50, 1e-12)
    assert stop == "target" and steps > 0


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
        d_min = 0.0

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
        ("max_sweeps", "a"), ("truncation_levels", ("a",)), ("truncation_levels", 5),
        ("truncation_levels", np.array([1, 2])),
    ],
)
def test_solver_options_reject_out_of_range_values(field, value):
    with pytest.raises(eq.InvalidInput, match=field):
        eq.SolverOptions(**{field: value})


def test_solver_options_accept_zero_budgets_and_tolerances():
    opts = eq.SolverOptions(residual_tol=0.0, position_tol=0.0, max_sweeps=0,
                            max_outer_iters=0, extension_points=0, guard_band=0)
    assert opts.max_sweeps == 0 and opts.residual_tol == 0.0


def test_sweep_relax_places_each_particle_in_few_kernel_calls(monkeypatch):
    # Each placement is a short Newton run on one row of the line kernel,
    # about 4.5 kernel calls per particle here.  A kernel call builds its
    # derivatives at most once: one block for the window and one per tail.
    from equilib import solvers

    calls, derivatives = [], []
    kernel = solvers._line_forces

    def counted(*args, **kwargs):
        calls.append(args[2].tolist())
        return kernel(*args, **kwargs)

    class CountingLaw(eq.InversePowerLaw):
        def force_derivative_array(self, d):
            derivatives.append(np.shape(d))
            return super().force_derivative_array(d)

    cfg = eq.LineConfig(
        window=(0.0, 0.9, 2.3, 3.1, 4.0, 5.0),
        left_tail=eq.TailModel.arithmetic(first=-1.0, gap=1.0),
        right_tail=eq.TailModel.arithmetic(first=6.0, gap=1.0),
        c=0.7,
        C=1.4,
    )
    monkeypatch.setattr(solvers, "_line_forces", counted)
    out, stats = eq.sweep_relax(cfg, fixed=[0, 5], law=CountingLaw(2))
    assert stats.moved == 4 and stats.endpoint_flags == ()
    assert sorted(set(map(tuple, calls))) == [(1,), (2,), (3,), (4,)]
    assert len(calls) <= 10 * 4
    assert 0 < len(derivatives) <= 3 * len(calls)
    assert out.window == eq.sweep_relax(cfg, fixed=[0, 5], law=COULOMB)[0].window


COARSE_TABLE = ((1.5, 2.0), (4.0, 0.1), (8.0, 0.01))


@pytest.mark.parametrize("tail", [None, eq.TabulatedTail("inverse_power", 2.0)],
                         ids=["no-tail", "power-tail"])
def test_sweep_relax_stays_in_a_tabulated_domain(tail):
    # Every gap of this window is in the coarse table's domain [1.5, 8], so
    # the placements must relax it without raising DomainError.
    law = eq.TabulatedLaw(COARSE_TABLE, tail)
    none = eq.TailModel.none()
    cfg = eq.LineConfig((0.0, 2.0, 4.2, 6.0, 8.0), none, none, 1.8, 2.2)
    for _ in range(100):
        cfg, stats = eq.sweep_relax(cfg, fixed=[0, 4], law=law)
        assert stats.endpoint_flags == ()
        if stats.max_displacement <= 1e-12:
            break
    assert eq.residual_report(cfg, law, indices=[1, 2, 3]).max_abs_net < 1e-10


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("tabulated", [False, True], ids=["exp", "tabulated"])
def test_sweep_relax_flags_a_particle_without_a_root(side, tabulated):
    # A dense tail on one side outweighs the far neighbor everywhere between
    # the pins, so the free particle has no root and is pushed to the other
    # side: up to that neighbor, or up to d_min from it under a table, where
    # Newton's next step would still stop short of the neighbor.
    if tabulated:
        law = eq.TabulatedLaw(COARSE_TABLE, eq.TabulatedTail("exp", 1.0))
        width, d_min, gap = 5.0, 1.5, 0.05
    else:
        law, width, d_min, gap = EXP, 2.0, 0.0, 0.01
    none = eq.TailModel.none()
    tail_gap = max(d_min, gap)  # from the pin next to the tail to its first particle
    if side == "left":
        tails, toward = (eq.TailModel.arithmetic(-tail_gap, gap), none), 2
    else:
        tails, toward = (none, eq.TailModel.arithmetic(width + tail_gap, gap)), 0
    cfg = eq.LineConfig((0.0, width / 2, width), *tails, gap, width / 2)
    opts = eq.SolverOptions()
    out, stats = eq.sweep_relax(cfg, fixed=[0, 2], law=law, opts=opts)
    assert stats.endpoint_flags == (1,)
    distance = abs(out.window[toward] - out.window[1])
    if tabulated:  # in the law's domain, at its boundary up to Newton's last halvings
        assert d_min <= distance < d_min + 1e-9
    else:
        assert 0.0 < distance <= opts.placement_tol()


@pytest.mark.parametrize("offset", [0.0, 1e5, 1e7])
def test_sweep_relax_does_not_flag_a_root_at_its_rounding_floor(offset):
    # Far from 0 the spacing of floats exceeds placement_tol, so Newton
    # stalls next to the root instead of reaching its tolerance.
    none = eq.TailModel.none()
    window = tuple(offset + d for d in (0.0, 1.0, 2.5, 3.1, 4.0))
    out, stats = eq.sweep_relax(eq.LineConfig(window, none, none, 0.5, 1.5), [0, 4], COULOMB)
    assert stats.endpoint_flags == () and stats.moved == 3
    assert out.window[2] - offset == pytest.approx(2.0795382656, abs=1e-9)


def test_sweep_relax_flags_a_flat_net_force_quietly():
    # The table is flat on [1, 4], so the free particle is pushed right by a
    # constant net force with zero slope: Newton cannot step, and the
    # particle is flagged where it stands.
    law = eq.TabulatedLaw(((1.0, 1.0), (4.0, 1.0), (5.0, 0.5)), eq.TabulatedTail("cutoff"))
    none = eq.TailModel.none()
    cfg = eq.LineConfig((-1.5, 0.0, 1.5, 3.0), none, none, 1.5, 1.5)
    out, stats = eq.sweep_relax(cfg, [0, 1, 3], law)
    assert stats.endpoint_flags == (2,) and out.window == cfg.window


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_circle_rejects_a_non_finite_init(bad):
    # A NaN angle must not be redrawn into equal spacing, nor an infinite
    # one reach np.mod, which warns.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(eq.InvalidInput, match="finite"):
            eq.solve_circle_equilibrium(3, COULOMB, init=[0.0, bad, 1.0])


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


def test_pinned_segment_solves_a_law_without_a_potential():
    # A table without a tail has a force but no potential: a segment solve
    # evaluates forces only, and only a request for the energy raises.
    law = eq.TabulatedLaw(((1.5, 2.0), (4.0, 0.1), (8.0, 0.01)))
    positions, _ = eq.solve_pinned_segment([0.0], [9.0], 4, law)
    assert positions == (
        1.6918738710152648, 3.56787276605403, 5.4321272339459705, 7.3081261289847355
    )
    with pytest.raises(eq.NotIntegrable):
        eq.solve_pinned_segment([0.0], [9.0], 4, law, opts=eq.SolverOptions(track_energy=True))


def test_pinned_segment_energy_trace_is_frozen():
    # The energy of the start and of each iterate Newton accepted, bit for bit.
    _, stats = eq.solve_pinned_segment([0.0], [5.0], 4, COULOMB,
                                       opts=eq.SolverOptions(track_energy=True))
    assert repr(stats.energy_trace) == (
        "(8.5, 8.447715201548606, 8.447548527210788, 8.44754852542366, 8.447548525423658)"
    )


_SCALE_LAWS = {"1/d^2": COULOMB, "1/d^3": eq.InversePowerLaw(3),
               "exp(-d^1.5)": eq.StretchedExponentialLaw(1.5)}
_SHORT_EXTENSION = eq.SolverOptions(extension_points=1, guard_band=0, truncation_levels=(1,))
_SCALE_SOLVES = {
    "segment": lambda law, g: eq.solve_pinned_segment([0.0], [5 * g], 4, law),
    "extend": lambda law, g: eq.extend_right([-5 * g, -4 * g, -3 * g, -2 * g, -g], 0.0, law,
                                             _SHORT_EXTENSION),
    "zero-centered": lambda law, g: eq.solve_zero_centered(
        eq.ZeroCenteredProblem(-g, 1.25 * g, 3, law)),
}
# Under inverse powers pair forces overflow at tiny gaps and tail sums at huge
# ones; under exp(-d^1.5) d^1.5 overflows at huge gaps.  The last row's three
# cases were quiet already and keep them so.
_SCALE_CASES = [
    *[(solve, law, gap) for law in ("1/d^2", "1/d^3")
      for solve, gaps in (("segment", (1e-300, 1e-200, 1e-160)),
                          ("extend", (1e-300, 1e-200, 1e-160, 1e150, 1e300)))
      for gap in gaps],
    *[(solve, "exp(-d^1.5)", 1e300) for solve in _SCALE_SOLVES],
    ("segment", "1/d^2", 1e300), ("extend", "exp(-d^1.5)", 1e150),
    ("zero-centered", "1/d^2", 1e-300),
]


@pytest.mark.parametrize("solve, law, gap", _SCALE_CASES,
                         ids=lambda v: v if isinstance(v, str) else f"{v:.0e}")
def test_solvers_answer_quietly_at_extreme_scales(solve, law, gap):
    # A solve returns or raises an EquilibError; pytest turns a RuntimeWarning
    # into an error.
    with contextlib.suppress(eq.EquilibError):
        _SCALE_SOLVES[solve](_SCALE_LAWS[law], gap)


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


POWER_TABLE = eq.TabulatedLaw(((1.5, 2.0), (4.0, 0.1), (8.0, 0.01)),
                              eq.TabulatedTail("inverse_power", 2.0))


def test_extension_trials_stay_in_a_tabulated_domain():
    # Newton's first full steps bring a gap below the table's first distance
    # of 1.5; such a trial is rejected like a broken order, and the extension
    # solves.
    left = eq.LineConfig((-10.0, -8.0, -6.0, -4.0, -2.0), eq.TailModel.arithmetic(-12.0, 2.0),
                         eq.TailModel.none(), 2.0, 2.0)
    opts = eq.SolverOptions(extension_points=6, guard_band=2, position_tol=0.5)
    out, stats = eq.extend_right(left, -0.4, POWER_TABLE, opts)
    assert stats.converged and len(out) == 7
    assert eq.residual_report(stats.config, POWER_TABLE, indices=range(5, 10)).in_equilibrium(1e-10)
    assert min(np.diff(stats.config.window)) >= POWER_TABLE.d_min


def test_pinned_segment_stalls_at_a_tabulated_domain_boundary():
    # Three interior particles between pins 6 apart start at gaps of exactly
    # d_min = 1.5, and the first is pushed left, out of the domain: every
    # trial is rejected, and the solve stalls.
    with pytest.raises(eq.NoConvergence, match=r"\(stalled\)$"):
        eq.solve_pinned_segment([0.0], [6.0], 3, POWER_TABLE)


def test_pinned_segment_without_room_in_a_tabulated_domain_is_infeasible():
    # Five gaps of at least 1.5 do not fit between pins 6 apart.
    with pytest.raises(eq.InfeasibleBracket):
        eq.solve_pinned_segment([0.0], [6.0], 4, POWER_TABLE)


@pytest.mark.parametrize("lo, hi, n", [(1.1, 5.6000000000000005, 2), (0.5, 9.500000000000002, 5)])
def test_pinned_segment_rounded_start_gaps_stay_in_a_tabulated_domain(lo, hi, n):
    # Equal spacing rounds the first gap to 1.4999999999999996 (resp.
    # ...91), below the table's first distance; the start is raised by ulps
    # so the solve fails on its residual, not on the domain.
    with pytest.raises(eq.NoConvergence) as info:
        eq.solve_pinned_segment([lo], [hi], n, POWER_TABLE, eq.SolverOptions(max_sweeps=0))
    assert min(np.diff([lo, *info.value.last, hi])) >= POWER_TABLE.d_min


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_circle_starts_in_a_tabulated_domain(seed):
    # Every start arc is at least the table's first distance of 1.5: random
    # draws below it are redrawn, and so is an init arc of 1.0.
    opts = eq.SolverOptions(rng_seed=seed)
    for init in (None, [0.0, 1.0, 3.0]):
        ring, _ = eq.solve_circle_equilibrium(3, POWER_TABLE, init=init, opts=opts)
        assert eq.circle_residual_report(ring, POWER_TABLE).in_equilibrium(1e-10)
    with pytest.raises(eq.InfeasibleBracket):  # 5 * 1.5 > 2 pi
        eq.solve_circle_equilibrium(5, POWER_TABLE, opts=opts)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_circle_solves_where_its_start_floor_leaves_little_room(seed):
    # Four arcs of at least 1.5 leave 0.28 of the circle spare, so a uniform
    # draw qualifies about once in 11,000 tries and all 1,000 of a round fail;
    # the start squeezed into that room reaches equal spacing (arcs 1.571).
    ring, _ = eq.solve_circle_equilibrium(4, POWER_TABLE, opts=eq.SolverOptions(rng_seed=seed))
    assert eq.circle_residual_report(ring, POWER_TABLE).in_equilibrium(1e-10)
    assert max(abs(arc - TWO_PI / 4) for arc in ring.arc_gaps()) <= 1e-12


def test_circle_newton_iterates_are_not_views_of_the_angle_buffer(monkeypatch):
    # The circle system writes each trial into one angle vector; every
    # iterate Newton accepted keeps the bytes it had when it was evaluated,
    # although later trials (and one more after the run) overwrite that vector.
    from equilib import solvers

    driver, lengths = solvers._ordered_newton, []

    def spy(system, u, *args, **kwargs):
        seen = {id(u): (u, u.tobytes())}

        def recording(trial):
            seen[id(trial)] = (trial, trial.tobytes())
            return system(trial)

        out = driver(recording, u, *args, **kwargs)
        system(TWO_PI * np.arange(1, len(u) + 1) / (len(u) + 1))
        for p in out[3]:
            trial, evaluated = seen[id(p)]
            assert trial is p and p.tobytes() == evaluated
        lengths.append(len(out[3]))
        return out

    monkeypatch.setattr(solvers, "_ordered_newton", spy)
    for seed in range(3):
        eq.solve_circle_equilibrium(8, COULOMB, opts=eq.SolverOptions(rng_seed=seed))
    assert min(lengths) > 2


def test_pinned_segment_energy_is_quiet_at_extreme_scales():
    # exp(-d^1.5) overflows its power at these distances; the energy runs in
    # Newton's error state, so pytest sees no RuntimeWarning.
    _, stats = eq.solve_pinned_segment([0.0], [5e300], 4, eq.StretchedExponentialLaw(1.5),
                                       eq.SolverOptions(track_energy=True))
    assert stats.energy_trace == (0.0,)


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


class _NewtonCalled(Exception):
    """Carries the arguments of a solver's first _ordered_newton call."""


def first_newton_call(monkeypatch, solve):
    """(system, start, ordered) that `solve` hands to _ordered_newton first;
    the solve stops there."""
    from equilib import solvers

    def capture(system, u, ordered, *args, **kwargs):
        raise _NewtonCalled(system, u, ordered)

    with monkeypatch.context() as patch:
        patch.setattr(solvers, "_ordered_newton", capture)
        with pytest.raises(_NewtonCalled) as info:
            solve()
    return info.value.args


def reference_segment_start(lo, hi, n, d_min):
    # Equal spacing by np.linspace, gaps below d_min raised by ulps.
    start = np.linspace(lo, hi, n + 2)[1:-1]
    for k in range(n if d_min else 0):
        while start[k] - (start[k - 1] if k else lo) < d_min:
            start[k] = np.nextafter(start[k], math.inf)
    return start


def test_pinned_segment_start_matches_linspace_byte_for_byte(monkeypatch):
    # The start is numpy's interior arithmetic without np.linspace: k * step
    # + lo, or k / div * delta + lo where the step rounds to 0 (subnormal spans).
    rng = np.random.default_rng(13)
    cases = [(COULOMB, lo, hi, n) for lo, hi in
             [(0.0, 5e-324), (0.0, 1.5e-323), (-5e-324, 5e-324), (0.0, 2.5e-322), (1e-320, 1.1e-320),
              (1.0, np.nextafter(1.0, 2.0)), (-8.9e307, 8.9e307), (0.0, 1.7e308), (1e300, 1.79e308),
              (-1.79e308, -1e308)] for n in (1, 2, 3, 4, 7, 10)]
    for _ in range(300):
        lo = float(rng.uniform(-1.0, 1.0) * 10.0 ** rng.integers(-6, 6))
        hi = lo + float(rng.uniform(0.0, 1.0) * 10.0 ** rng.integers(-12, 6))
        if hi > lo:
            cases.append((COULOMB, lo, hi, int(rng.integers(1, 40))))
    for _ in range(100):  # tabulated: every start gap at least d_min = 1.5
        n = int(rng.integers(1, 12))
        lo = float(rng.uniform(-10.0, 10.0))
        cases.append((POWER_TABLE, lo, lo + (n + 1) * 1.5 * float(rng.uniform(1.0, 1.2)), n))
    cases += [(POWER_TABLE, 1.1, 5.6000000000000005, 2), (POWER_TABLE, 0.5, 9.500000000000002, 5),
              (POWER_TABLE, 0.0, 6.0, 3)]
    zero_steps = 0
    for law, lo, hi, n in cases:
        d_min = law.d_min
        reference = reference_segment_start(lo, hi, n, d_min)
        if hi - reference[-1] < d_min:  # a start past the right pin is refused before Newton
            with pytest.raises(eq.InfeasibleBracket):
                eq.solve_pinned_segment([lo], [hi], n, law)
            continue
        _, start, _ = first_newton_call(
            monkeypatch, lambda: eq.solve_pinned_segment([lo], [hi], n, law))
        assert start.tobytes() == reference.tobytes(), (lo, hi, n)
        zero_steps += (hi - lo) / (n + 1) == 0.0
    assert zero_steps >= 10


def order_cases(base, specials, rng, low, high):
    """Vectors like `base` with one entry set to each special value or to
    its left neighbour, then 500 random ones (rounded, so ties occur, half
    of them sorted, some with a special entry)."""
    cases = [base]
    for i in range(len(base)):
        for value in [*specials, base[i - 1]]:
            case = base.copy()
            case[i] = value
            cases.append(case)
    for _ in range(500):
        case = np.round(rng.uniform(low, high, size=len(base)) * 2.0) / 2.0
        if rng.random() < 0.3:
            case[rng.integers(len(base))] = specials[rng.integers(len(specials))]
        cases.append(np.sort(case) if rng.random() < 0.5 else case)
    return cases


# name: (solve, its whole window from Newton's unknowns, fixed values, range of random values)
LINE_ORDER_SOLVES = {
    "segment": (
        lambda: eq.solve_pinned_segment([-1.0, 0.0], [3.0, 4.0], 3, COULOMB),
        lambda y: np.concatenate([[-1.0, 0.0], y, [3.0, 4.0]]),
        [0.0, -0.0, 3.0, -1.0, 4.0], -0.5, 3.5),
    "zero-centered": (
        lambda: eq.solve_zero_centered(eq.ZeroCenteredProblem(-1.0, 1.0, 3, COULOMB)),
        lambda u: np.concatenate([u[:2], [-1.0, 0.0, 1.0], u[2:]]),
        [-1.0, 0.0, -0.0, 1.0], -3.0, 3.0),
    "extension": (
        lambda: eq.extend_right(trivial_left(3), 0.0, COULOMB,
                                eq.SolverOptions(extension_points=2, guard_band=1)),
        lambda u: np.concatenate([[-3.0, -2.0, -1.0, 0.0], u]),
        [0.0, -0.0, -1.0], -1.0, 4.0),
}


@pytest.mark.parametrize("name", list(LINE_ORDER_SOLVES))
def test_line_order_hooks_match_the_window_test(monkeypatch, name):
    # Each line solver compares only its unknowns and the fixed particles
    # next to them, as Python floats; it must decide like _increasing over
    # the whole window: NaN, +-inf, -0.0, ties and values equal to a fixed
    # particle included.
    solve, window, fixed, low, high = LINE_ORDER_SOLVES[name]
    _, start, ordered = first_newton_call(monkeypatch, solve)
    nan, inf = math.nan, math.inf
    rng = np.random.default_rng(14)
    for u in order_cases(start.copy(), [nan, inf, -inf, *fixed], rng, low, high):
        assert ordered(u) is _increasing(window(u)), u


LINE_NEWTON_SOLVES = {
    "segment": lambda: eq.solve_pinned_segment([0.0], [9.0], 8, COULOMB),
    "zero-centered": lambda: eq.solve_zero_centered(eq.ZeroCenteredProblem(-1.0, 1.5, 3, COULOMB)),
    "extension": lambda: eq.extend_right(
        trivial_left(8), 0.4, COULOMB,
        eq.SolverOptions(extension_points=6, guard_band=2, position_tol=0.5)),
    "reconstruction": lambda: eq.reconstruct_left_tail(eq.ReconstructionProblem(
        w_window=(0.0, 1.0, 2.2, 3.1, 4.0), m=2, law=COULOMB, multi_start=3, rng_seed=0)),
}


@pytest.mark.parametrize("name", list(LINE_NEWTON_SOLVES))
def test_line_newton_iterates_are_not_views_of_the_window_buffer(monkeypatch, name):
    # Each line solver writes its trials into one window per solve; every
    # iterate Newton accepted keeps the bytes it had when it was evaluated,
    # although later trials (and one more after the run) overwrite that window.
    from equilib import diagnostics, solvers

    driver, lengths = solvers._ordered_newton, []

    def spy(system, u, *args, **kwargs):
        seen = {id(u): (u, u.tobytes())}

        def recording(trial):
            seen[id(trial)] = (trial, trial.tobytes())
            return system(trial)

        out = driver(recording, u, *args, **kwargs)
        with np.errstate(all="ignore"):
            system(u + 0.25)
        for p in out[3]:
            trial, evaluated = seen[id(p)]
            assert trial is p and p.tobytes() == evaluated
        lengths.append(len(out[3]))
        return out

    monkeypatch.setattr(solvers, "_ordered_newton", spy)
    monkeypatch.setattr(diagnostics, "_ordered_newton", spy)
    LINE_NEWTON_SOLVES[name]()
    assert max(lengths) > 2


@pytest.mark.parametrize("tails", [False, True], ids=["no-tails", "tails"])
@pytest.mark.parametrize("free", [slice(2, 5), np.array([0, 1, 5, 6])],
                         ids=["slice", "index-array"])
def test_window_system_is_line_forces_on_the_free_columns(free, tails):
    # The one builder of the line Newton systems writes each trial into the
    # caller's buffer at x[free] and returns _line_forces' rows and the free
    # columns of its J, bit for bit; a J built after a later trial is still
    # that of its own trial.
    from equilib.solvers import _line_forces, _window_system

    window = np.array([0.0, 0.9, 2.3, 3.1, 4.0, 5.0, 6.2])
    left = eq.TailModel.arithmetic(-1.0, 1.0) if tails else None
    right = eq.TailModel.arithmetic(7.0, 1.1) if tails else None
    rows = np.array([1, 2, 3, 4, 5])
    x = window.copy()
    system = _window_system(COULOMB, x, free, rows, left, right, 1e-12)
    rng = np.random.default_rng(3)
    earlier = None
    for _ in range(3):
        trial = window[free] + rng.uniform(-0.05, 0.05, size=len(window[free]))
        net, jacobian = system(trial)
        expected = window.copy()
        expected[free] = trial
        assert x.tobytes() == expected.tobytes()
        reference, reference_jacobian = _line_forces(COULOMB, expected, rows, left, right, 1e-12)
        assert net.tobytes() == reference.tobytes()
        J = reference_jacobian()[0][:, free]
        assert jacobian().shape == (len(rows), len(trial)) and jacobian().tobytes() == J.tobytes()
        if earlier is not None:
            assert earlier[0]().tobytes() == earlier[1].tobytes()
        earlier = jacobian, J


def test_newton_returns_one_record_read_by_name_or_position():
    run = _ordered_newton(lambda u: (u**2 - 2.0, lambda: np.diag(2.0 * u)), np.array([1.0]),
                          lambda u: True, 50, 1e-12)
    assert run._fields == ("u", "r", "steps", "path", "stop")
    u, r, steps, path, stop = run
    assert (u, r, steps, path, stop) == (run.u, run.r, run.steps, run.path, run.stop)
    assert abs(run.u[0] - math.sqrt(2.0)) < 1e-12 and run.stop == "target"
    assert run.path[0][0] == 1.0 and run.path[-1] is run.u and len(run.path) == run.steps + 1


def reference_line_forces(law, x, rows, left_tail=None, right_tail=None, force_tol=1e-13):
    """_line_forces as it was written with two-array self slots and float zeros."""
    from equilib.solvers import _TAIL_JACOBIAN_TERMS

    k = np.arange(len(rows))
    targets = x[rows]
    d = x - targets[:, None]
    dist = np.abs(d)
    dist[k, rows] = dist[0, rows[0] - 1]
    F = law.force_array(dist)
    net = np.add.reduce(np.where(d < 0.0, F, 0.0), axis=1) - np.add.reduce(
        np.where(d > 0.0, F, 0.0), axis=1)
    sides = ((left_tail, "left", 1.0), (right_tail, "right", -1.0))
    tails = [t for t in sides if t[0] is not None and not t[0].is_none]
    for tail, side, sign in tails:
        for start, stride in tail.progressions(targets, side):
            net += sign * eq.force_sum_arithmetic(law, start, stride, force_tol)[0]

    def jacobian():
        dF = law.force_derivative_array(dist)
        dF[k, rows] = 0.0
        J = -dF
        J[k, rows] = np.add.reduce(dF, axis=1)
        shift = np.zeros((len(rows), 1))
        for tail, side, _ in tails:
            near = tail.positions(side, _TAIL_JACOBIAN_TERMS)
            dtail = np.add.reduce(law.force_derivative_array(np.abs(near - targets[:, None])), 1)
            J[k, rows] += dtail
            if side == "right":
                shift = -dtail[:, None]
        return J, shift

    return net, jacobian


@pytest.mark.parametrize("tails", [False, True], ids=["no-tails", "tails"])
@pytest.mark.parametrize("rows", [[1, 2, 3, 4, 5], [0, 1, 2], [1, 2, 4, 5], [3], [6]],
                         ids=["contiguous", "from-zero", "zero-centered", "one-row", "last-row"])
def test_line_kernel_matches_reference_bit_for_bit(rows, tails):
    # The self slots go through one flat index and the sides through 0-d zeros;
    # net, J and the shift column keep the bits of the two-array form, for rows
    # whose rows[0] - 1 wraps to the last column and rows with a gap.
    from equilib.solvers import _line_forces

    rows = np.array(rows)
    left = eq.TailModel.arithmetic(-1.0, 1.0) if tails else None
    right = eq.TailModel.periodic(7.3, (0.9, 1.3)) if tails else None
    rng = np.random.default_rng(35)
    for law in (COULOMB, eq.InversePowerLaw(2.5), eq.StretchedExponentialLaw(1.5)):
        for _ in range(5):
            x = np.cumsum(rng.uniform(0.4, 1.6, size=7)) - 0.3
            net, jacobian = _line_forces(law, x, rows, left, right, 1e-12)
            want, want_jacobian = reference_line_forces(law, x, rows, left, right, 1e-12)
            assert net.tobytes() == want.tobytes()
            (J, shift), (want_J, want_shift) = jacobian(), want_jacobian()
            assert J.tobytes() == want_J.tobytes() and shift.tobytes() == want_shift.tobytes()


def test_newton_merit_is_the_numpy_max_abs_with_nan_kept():
    # max|r| from Python floats must be float(np.maximum.reduce(np.abs(r))),
    # NaN included wherever it stands: a bare max skips a NaN after the first
    # entry, and a NaN merit that read as a number could be accepted.
    from equilib.solvers import _max_abs

    def same(a, b):
        return (math.isnan(a) and math.isnan(b)) or (a == b and math.copysign(1, a) ==
                                                      math.copysign(1, b))

    rng = np.random.default_rng(35)
    for n in (1, 2, 3, 9, 25):
        for _ in range(40):
            r = rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, size=n)
            cases = [r, -r, np.zeros(n), -np.zeros(n)]
            for special in (np.nan, np.inf, -np.inf):
                for at in {0, n // 2, n - 1}:
                    planted = r.copy()
                    planted[at] = special
                    cases.append(planted)
            for case in cases:
                got, want = _max_abs(case), float(np.maximum.reduce(np.abs(case)))
                assert type(got) is float and same(got, want), (case, got, want)
    both = np.array([np.inf, -np.inf, np.nan, 1.0])
    assert math.isnan(_max_abs(both)) and _max_abs(both[:2]) == math.inf


@pytest.mark.parametrize("left, right", [([math.nan], [1.0]), ([0.0], [math.inf]),
                                         ([-math.inf, 0.0], [1.0]), ([0.0], [1.0, math.nan])])
def test_pinned_segment_rejects_non_finite_pins(left, right):
    # A NaN pin warned in the start arithmetic and then raised
    # InfeasibleBracket; an infinite one ran Newton on infinite positions.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(eq.InvalidPins, match="pins must be finite"):
            eq.solve_pinned_segment(left, right, 1, COULOMB)


def test_extend_right_rejects_a_bad_x0():
    # x0 = NaN or inf raised "tail parameters must be finite" from inside
    # Newton, and a string a raw ValueError.
    left = [-2.0, -1.0]
    for x0 in (math.nan, math.inf, -math.inf):
        with pytest.raises(eq.InvalidInput, match="x0 must be finite"):
            eq.extend_right(left, x0, COULOMB)
    with pytest.raises(eq.InvalidInput, match="x0: expected a number"):
        eq.extend_right(left, "a", COULOMB)
