"""Constructive solvers: circle equilibria, pinned segments, sweeps,
zero-centered configurations and right extensions.

Design choices shared by every routine here:

* Every solver is a problem definition over one force kernel per
  geometry and one Newton driver.  `_line_forces` (line windows, tails
  included) and `_circle_forces` (the circle) each give net forces from
  one distance block per evaluation and their dense Jacobian from that
  block on demand, and `_ordered_newton` asks for it only to take a step.
  It runs damped Newton on the whole system at once and halves any step
  which would break the particle order or fail to improve its merit.  The
  circle hooks in a first-step cap (no arc shrinks by more than half) and
  an exit tolerance that follows the gradient's rounding floor.
* Only `sweep_relax` places single particles: bracketed bisection on the
  particle's own net force (one `_line_forces` row, no J), which is strictly
  decreasing in its own coordinate, inside the open interval between its
  neighbors (shrunk by a 1e-9 relative margin, 200-iteration cap).
* Newton steers; it never decides.  `_certify` accepts a result (a circle
  round, an extension trial and a reconstruction start included) only when
  its certified report (residual_report on the line rows it claims,
  circle_residual_report on the circle) is within residual_tol plus those
  rows' largest error bound, and otherwise raises NoConvergence naming why
  Newton stopped (target, stalled, singular or budget).
* All randomness flows through ``SolverOptions.rng_seed``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .configurations import TWO_PI, CircleConfig, LineConfig, TailModel
from .errors import (
    InfeasibleBracket,
    InvalidInput,
    InvalidPins,
    NoConvergence,
    PostconditionViolation,
)
from .force_laws import ForceLaw, force_sum_arithmetic
from .residuals import circle_residual_report, residual_report

__all__ = [
    "MAX_PARTICLES",
    "SolverOptions",
    "ZeroCenteredProblem",
    "SweepStats",
    "SegmentStats",
    "CircleStats",
    "ZeroCenteredStats",
    "ExtendStats",
    "solve_circle_equilibrium",
    "solve_pinned_segment",
    "sweep_relax",
    "solve_zero_centered",
    "extend_right",
]


# Largest particle count a solver accepts (n of the circle, n_interior of a
# pinned segment, n per side of a zero-centered problem).  Each solve holds
# a few dense n x n arrays, so larger counts raise InvalidInput up front.
MAX_PARTICLES = 1024


def _check_count(n: int, name: str) -> None:
    if n > MAX_PARTICLES:
        raise InvalidInput(f"{name} = {n} exceeds the maximum of {MAX_PARTICLES} particles")


def _check_integer(name: str, value, lo: int, hi: float = math.inf) -> None:
    """value must be an integer, not a bool, in [lo, hi], or InvalidInput."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not lo <= value <= hi:
        raise InvalidInput(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances and budgets shared by the solvers.

    position_tol governs outer agreement criteria (truncation-level
    agreement, solution clustering); sweep_relax placements use the
    tighter of position_tol and 1e-12 so residual tolerances stay
    reachable.  The truncation fields apply to extend_right: the output
    has extension_points+1 particles, levels solve extension_points +
    guard_band * level unknowns, and the last guard_band outputs are not
    residual-certified.  max_sweeps is the Newton step budget of
    solve_pinned_segment, of each extend_right relaxation and of each
    reconstruct_left_tail start (and the pass budget of the CLI relax
    task); max_outer_iters is the Newton step budget of
    solve_zero_centered.  The circle solver has a fixed Newton budget.
    Tolerances must be nonnegative; budgets, extension_points, guard_band
    and rng_seed nonnegative integers; truncation_levels nonempty positive
    integers; multi_start an integer in [1, MAX_PARTICLES]; or InvalidInput.
    """

    residual_tol: float = 1e-10
    position_tol: float = 1e-10
    max_sweeps: int = 400
    max_outer_iters: int = 200
    rng_seed: int = 0
    extension_points: int = 16
    guard_band: int = 4
    truncation_levels: tuple[int, ...] = (1, 2, 4)
    multi_start: int = 1
    track_energy: bool = False

    def __post_init__(self) -> None:
        counts = ("max_sweeps", "max_outer_iters", "extension_points", "guard_band")
        for name in ("residual_tol", "position_tol", *counts):
            if not getattr(self, name) >= 0:  # NaN fails as well
                raise InvalidInput(f"{name} must be nonnegative, got {getattr(self, name)!r}")
        if not self.truncation_levels or min(self.truncation_levels) < 1:
            raise InvalidInput(f"truncation_levels must be positive, got {self.truncation_levels}")
        for name in counts:
            _check_integer(name, getattr(self, name), 0)
        for level in self.truncation_levels:
            _check_integer("truncation_levels", level, 1)
        _check_integer("multi_start", self.multi_start, 1, MAX_PARTICLES)  # one solve per start
        _check_integer("rng_seed", self.rng_seed, 0)

    def placement_tol(self) -> float:
        return min(self.position_tol, 1e-12)


@dataclass(frozen=True)
class ZeroCenteredProblem:
    """Particles x_{-n} < ... < x_{-1} ~ a < 0 < x_1 ~ b < ... < x_n.

    Every particle except the two extremes and the one pinned at 0 must be
    in equilibrium; a and b are the required positions of x_{-1} and x_1.
    """

    a: float
    b: float
    n: int
    law: ForceLaw

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise InvalidInput("a and b must be finite")
        if not self.a < 0.0 < self.b:
            raise InvalidInput(f"need a < 0 < b, got a={self.a!r} b={self.b!r}")
        if self.n < 1:
            raise InvalidInput("n must be at least 1")
        _check_count(self.n, "n")


@dataclass
class SweepStats:
    direction: str
    moved: int
    max_displacement: float
    displacements: tuple[float, ...]
    endpoint_flags: tuple[int, ...]


@dataclass
class SegmentStats:
    sweeps: int
    residual: float
    converged: bool
    config: LineConfig
    energy_trace: tuple[float, ...] = ()


@dataclass
class CircleStats:
    sweeps: int
    newton_iters: int
    residual: float
    converged: bool


@dataclass
class ZeroCenteredStats:
    outer_iters: int
    inner_sweeps: int
    target_errors: tuple[float, float]
    residual: float
    converged: bool


@dataclass
class ExtendStats:
    levels_used: int
    level_disagreement: float
    sweeps: int
    continuation_gap: float
    residual: float
    converged: bool
    config: LineConfig | None = None
    clusters: tuple[tuple[float, ...], ...] = ()


# ---------------------------------------------------------------------------
# 1-d placement
# ---------------------------------------------------------------------------

_BISECT_CAP = 200
_BRACKET_MARGIN = 1e-9


def _bisect_place(
    net: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float,
) -> tuple[float, bool]:
    """Root of a decreasing net-force function on (lo, hi).

    Returns (position, endpoint_flagged).  If the force has constant sign
    on the bracket the particle is parked within tol of the endpoint it is
    pushed toward and flagged.
    """
    width = hi - lo
    a = lo + _BRACKET_MARGIN * width
    b = hi - _BRACKET_MARGIN * width
    ga = net(a)
    if ga <= 0.0:  # pushed left everywhere (net decreasing)
        return (max(a, lo + min(tol, width * 0.25)) if ga < 0.0 else a), ga < 0.0
    gb = net(b)
    if gb >= 0.0:  # pushed right everywhere
        return (min(b, hi - min(tol, width * 0.25)) if gb > 0.0 else b), gb > 0.0
    for _ in range(_BISECT_CAP):
        if b - a <= tol:
            break
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        g = net(mid)
        if g > 0.0:
            a = mid
        elif g < 0.0:
            b = mid
        else:
            return mid, False
    return 0.5 * (a + b), False


# ---------------------------------------------------------------------------
# Line kernel and the shared Newton driver
# ---------------------------------------------------------------------------

_TAIL_JACOBIAN_TERMS = 400
_LM_DAMPING_MIN = 1e-12  # relative to the largest diagonal entry of J^T J
_EPS = math.ulp(1.0) / 2


def _line_forces(
    law: ForceLaw,
    x: np.ndarray,
    rows: np.ndarray,
    left_tail: TailModel | None = None,
    right_tail: TailModel | None = None,
    force_tol: float = 1e-13,
) -> tuple[np.ndarray, Callable[[], tuple[np.ndarray, np.ndarray]]]:
    """Rightward net force on the particles x[rows] of an ordered window,
    and its derivatives on demand.

    All pair terms come from one len(rows) x len(x) distance block.
    Returns (net, jacobian): jacobian() builds (J, shift) from that block
    only when called, J[r, c] = d net_r / d x_c and the column shift[r, 0]
    = d net_r / ds for a rigid shift s of the right tail.  Tail values are
    force_sum_arithmetic sums; tail derivatives are truncated after
    _TAIL_JACOBIAN_TERMS particles, which only steers Newton: every solver
    re-checks its result through residual_report.
    """
    k = np.arange(len(rows))
    targets = x[rows]
    d = x[None, :] - targets[:, None]  # source minus target
    dist = np.abs(d)
    dist[k, rows] = dist[0, rows[0] - 1]  # a real pair distance; its F is unused
    F = law.force_array(dist)
    F[k, rows] = 0.0
    net = np.where(d < 0.0, F, 0.0).sum(axis=1) - np.where(d > 0.0, F, 0.0).sum(axis=1)
    sides = ((left_tail, "left", 1.0), (right_tail, "right", -1.0))
    tails = [t for t in sides if t[0] is not None and not t[0].is_none]
    for tail, side, sign in tails:
        for start, stride in tail.progressions(targets, side):
            net += sign * force_sum_arithmetic(law, start, stride, force_tol)[0]

    def jacobian() -> tuple[np.ndarray, np.ndarray]:
        dF = law.force_derivative_array(dist)
        dF[k, rows] = 0.0
        J = -dF
        J[k, rows] = dF.sum(axis=1)
        shift = np.zeros((len(rows), 1))
        for tail, side, _ in tails:
            near = tail.positions(side, _TAIL_JACOBIAN_TERMS)
            dtail = law.force_derivative_array(np.abs(near[None, :] - targets[:, None])).sum(axis=1)
            J[k, rows] += dtail
            if side == "right":
                shift = -dtail[:, None]
        return J, shift

    return net, jacobian


def _increasing(x: np.ndarray) -> bool:
    """Strictly increasing: for floats b > a exactly when b - a > 0."""
    return bool((x[1:] > x[:-1]).all())


def _tailed_config(window: Sequence[float], left_tail: TailModel,
                   right_tail: TailModel) -> LineConfig:
    """The LineConfig of window and tails whose [c, C] are its own extreme
    gaps: window gaps, junction gaps and tail gaps."""
    window = tuple(window)
    gaps = [b - a for a, b in zip(window, window[1:])]
    for tail, junction in ((left_tail, window[0] - left_tail.first),
                           (right_tail, right_tail.first - window[-1])):
        if not tail.is_none:
            gaps += [junction, *tail.gap_values()]
    return LineConfig(window, left_tail, right_tail, min(gaps, default=1.0), max(gaps, default=1.0))


def _certify(config: LineConfig | CircleConfig, law: ForceLaw, rows: Sequence[int] | None,
             residual_tol: float, what: str, last: tuple, iterations: int, stop: str) -> float:
    """The one acceptance rule of every solver: the certified report on the
    rows a result claims (residual_report on `rows` of a LineConfig, or
    circle_residual_report on a CircleConfig, rows None) must be in
    equilibrium within residual_tol plus their largest error bound.  Returns
    their max |net|, or raises NoConvergence naming Newton's `stop`."""
    rep = (circle_residual_report(config, law) if rows is None else
           residual_report(config, law, min(residual_tol * 1e-2, 1e-12), indices=rows))
    if not rep.in_equilibrium(residual_tol):
        raise NoConvergence(
            f"{what} residual {rep.max_abs_net:.3e} above {residual_tol:.3e} plus its "
            f"error bound {rep.max_error_bound:.3e} after {iterations} iterations ({stop})",
            last=last, residual=rep.max_abs_net, iterations=iterations,
        )
    return rep.max_abs_net


def _multi_start(
    starts: Sequence[np.ndarray],
    solve: Callable[[np.ndarray], tuple[np.ndarray, float] | None],
    radius: float,
    order: Callable[[tuple[np.ndarray, float]], object] | None = None,
) -> list[list]:
    """Solve from every start and cluster the solutions greedily.

    Starts where solve returns None are dropped.  The surviving (point,
    residual) pairs are visited in start order, or sorted by the key
    `order`; each joins the first cluster whose center is within `radius`
    in the max norm, or opens one centered on itself.  Returns [center,
    members, residual of the center] per cluster, in order of opening.
    """
    found = [s for s in map(solve, starts) if s is not None]
    if order is not None:
        found.sort(key=order)
    clusters: list[list] = []
    for point, residual in found:
        for cluster in clusters:
            if np.max(np.abs(point - cluster[0])) <= radius:
                cluster[1] += 1
                break
        else:
            clusters.append([point, 1, residual])
    return clusters


def _ordered_newton(
    system: Callable[[np.ndarray], tuple[np.ndarray, Callable[[], np.ndarray]]],
    u: np.ndarray,
    ordered: Callable[[np.ndarray], bool],
    max_steps: int,
    exit_tol: float | Callable[[float, Callable[[], np.ndarray]], float],
    energy: Callable[[np.ndarray], float] | None = None,
    first_step: Callable[[np.ndarray, np.ndarray], float] | None = None,
) -> tuple[np.ndarray, np.ndarray, int, list[float], str]:
    """Damped Newton on system(u) = (r, jac) from an ordered start u.

    Each step solves J du = -r, J = jac() = dr/du, and is halved (at most
    40 times) until the trial keeps the order and is accepted: it must
    lower max|r|, or, when `energy` is given (a function whose gradient is
    -r), pass the Armijo test on the energy with an allowance for the
    energy's own rounding.  The first trial takes the full step, or
    first_step(u, du) of it when that hook is given.  exit_tol may be a
    function of the current max|r| and of `jacobian`, which builds J when
    called.  J is built at most once per accepted iterate, for a step or a
    callable exit_tol that asks for it, and never for rejected trials.
    An overdetermined system (more rows than unknowns) takes damped
    Gauss-Newton steps instead: Levenberg-Marquardt on J^T J, accepted when
    they lower the sum of squares of r.  There a rejected trial raises the
    damping tenfold in place of halving the step, which turns it toward
    steepest descent, and an accepted one lowers it tenfold.
    Returns (u, r, steps, energies, stop); energies holds the start energy
    and the energy after each accepted step, and is empty without `energy`.
    stop is why Newton stopped, for the caller's report to name, never to
    decide by: "target" (max|r| <= exit_tol), "stalled" (no trial accepted:
    rounding floor or order boundary), "singular" (LinAlgError) or "budget".
    """
    r, jac = system(u)
    least_squares = len(r) > len(u)
    damping = _LM_DAMPING_MIN
    J = None  # dr/du at the current iterate, once built

    def jacobian() -> np.ndarray:
        nonlocal J
        J = jac() if J is None else J
        return J

    def merit(res: np.ndarray) -> float:
        return float(res @ res) if least_squares else float(np.abs(res).max())

    def direction() -> np.ndarray:
        J = jacobian()
        if not least_squares:
            return np.linalg.solve(J, -r)
        normal = J.T @ J
        normal[np.diag_indices_from(normal)] += damping * np.max(np.diag(normal))
        return np.linalg.solve(normal, -(J.T @ r))

    def unfinished() -> bool:
        size = float(np.abs(r).max()) if least_squares else merit_r
        return size > (exit_tol(size, jacobian) if callable(exit_tol) else exit_tol)

    energies = [energy(u)] if energy is not None else []
    merit_r = merit(r)  # of the current iterate, kept across its trials
    steps, stop = 0, "target"
    while unfinished():
        if steps >= max_steps:
            stop = "budget"
            break
        steps += 1
        try:
            du = direction()
        except np.linalg.LinAlgError:
            stop = "singular"
            break
        if energy is not None:
            slope = -float(r @ du)  # directional derivative of the energy
        t = first_step(u, du) if first_step is not None else 1.0
        for _ in range(40):
            trial = u + du if t == 1.0 else u + t * du
            if ordered(trial):
                r_t, jac_t = system(trial)
                if energy is None:
                    merit_t = merit(r_t)
                    accept = merit_t < merit_r
                else:
                    e_t = energy(trial)
                    slack = 16.0 * _EPS * abs(energies[-1])
                    accept = e_t <= energies[-1] + 1e-4 * t * slope + slack
                if accept:
                    u, r, jac, J = trial, r_t, jac_t, None
                    merit_r = merit_t if energy is None else merit(r)
                    damping = max(damping / 10.0, _LM_DAMPING_MIN)
                    if energy is not None:
                        energies.append(e_t)
                    break
            if least_squares:
                damping *= 10.0
                du = direction()
            else:
                t *= 0.5
        else:
            stop = "stalled"
            break
    return u, r, steps, energies, stop


# ---------------------------------------------------------------------------
# Sweep relaxation
# ---------------------------------------------------------------------------


def _visiting_order(n: int, fixed: Sequence[int], direction: str) -> list[int]:
    """The non-fixed window indices in sweep order; checks fixed, then direction."""
    fixed_set = set(int(i) for i in fixed)
    if any(i < 0 or i >= n for i in fixed_set):
        raise InvalidInput("fixed index out of range")
    if 0 not in fixed_set or (n - 1) not in fixed_set:
        raise InvalidInput("both extreme window particles must be fixed")
    order = [i for i in range(n) if i not in fixed_set]
    if direction == "rtl":
        order.reverse()
    elif direction != "ltr":
        raise InvalidInput(f"direction must be 'ltr' or 'rtl', got {direction!r}")
    return order


def sweep_relax(
    config: LineConfig,
    fixed: Sequence[int],
    law: ForceLaw,
    direction: str = "ltr",
    opts: SolverOptions | None = None,
) -> tuple[LineConfig, SweepStats]:
    """One Gauss-Seidel relaxation pass: move every non-fixed window particle
    to the root of its net force, visiting in the given direction.

    The two extreme window particles must be fixed.  The output window is
    revalidated; its gap bounds are widened if the sweep moved a gap
    outside the declared [c, C].
    """
    opts = opts or SolverOptions()
    order = _visiting_order(config.n, fixed, direction)
    placement_tol = opts.placement_tol()
    force_tol = min(opts.residual_tol * 1e-2, 1e-12)
    left_tail, right_tail = config.left_tail, config.right_tail
    positions = list(config.window)
    displacements = [0.0] * len(positions)
    flags: list[int] = []
    moved = 0
    for i in order:
        lo, hi = positions[i - 1], positions[i + 1]
        x = np.array(positions)
        row = np.array([i])

        def net(xi: float) -> float:
            x[i] = xi
            return float(_line_forces(law, x, row, left_tail, right_tail, force_tol)[0][0])

        new_x, flagged = _bisect_place(net, lo, hi, placement_tol)
        displacements[i] = new_x - positions[i]
        if new_x != positions[i]:
            moved += 1
        positions[i] = new_x
        if flagged:
            flags.append(i)
    stats = SweepStats(
        direction=direction,
        moved=moved,
        max_displacement=max(abs(d) for d in displacements) if displacements else 0.0,
        displacements=tuple(displacements),
        endpoint_flags=tuple(flags),
    )
    diffs = [b - a for a, b in zip(positions, positions[1:])]
    c = min([config.c] + diffs)
    C = max([config.C] + diffs)
    out = LineConfig(tuple(positions), left_tail, right_tail, c, C)
    return out, stats


# ---------------------------------------------------------------------------
# Pinned segment
# ---------------------------------------------------------------------------


def _segment_energy(law: ForceLaw, pins: np.ndarray, interior: np.ndarray, pairs: tuple) -> float:
    """Interaction energy of the ordered interior particles (mutual + with
    pins); pairs = np.triu_indices(len(interior), 1)."""
    i, j = pairs
    d = np.concatenate([
        np.abs(interior[:, None] - pins[None, :]).ravel(), interior[j] - interior[i]
    ])
    return float(law.potential_array(d).sum())


def solve_pinned_segment(
    fixed_left: Sequence[float],
    fixed_right: Sequence[float],
    n_interior: int,
    law: ForceLaw,
    opts: SolverOptions | None = None,
) -> tuple[tuple[float, ...], SegmentStats]:
    """Equilibrate n_interior particles between two groups of pinned ones.

    Newton on all interior positions at once, from equal spacing, with
    Armijo backtracking on the segment energy.  The energy is strictly
    convex on the ordered region and every accepted step keeps the order,
    so it converges from the start and the energy never increases (up to
    its own rounding); steps that would break the order are halved.  Stops
    once every interior residual is at most residual_tol; _certify on the
    n_interior interior rows then accepts the result or raises
    NoConvergence.  SegmentStats.sweeps counts Newton steps (budget
    max_sweeps) and residual is Newton's final max |net|; with
    track_energy, energy_trace holds the start energy and the energy after
    each accepted step.  A segment without an ordered equilibrium (a
    bounded law crowding particles together) exhausts the budget or stalls
    at the order boundary, and the certified check rejects it.
    """
    opts = opts or SolverOptions()
    left = [float(x) for x in fixed_left]
    right = [float(x) for x in fixed_right]
    if not left or not right:
        raise InvalidPins("both pin groups must be nonempty")
    if any(b <= a for a, b in zip(left, left[1:])) or any(
        b <= a for a, b in zip(right, right[1:])
    ):
        raise InvalidPins("pins must be strictly increasing")
    if n_interior < 1:
        raise InvalidPins("need at least one interior particle")
    _check_count(n_interior, "n_interior")
    gap_lo, gap_hi = left[-1], right[0]
    if gap_lo >= gap_hi:
        raise InvalidPins("left pins must lie strictly below right pins")
    pins = np.array(left + right)
    rows = np.arange(len(left), len(left) + n_interior)
    pairs = (rows[:, None] < rows).nonzero()  # np.triu_indices(n_interior, 1)

    def window(y: np.ndarray) -> np.ndarray:
        return np.concatenate([left, y, right])

    def system(y: np.ndarray) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
        net, jacobian = _line_forces(law, window(y), rows)
        return net, lambda: jacobian()[0][:, rows]

    start = np.linspace(gap_lo, gap_hi, n_interior + 2)[1:-1]
    y, r, steps, energies, stop = _ordered_newton(
        system, start, lambda y: _increasing(window(y)), opts.max_sweeps, opts.residual_tol,
        energy=lambda y: _segment_energy(law, pins, y, pairs))
    interior_out = tuple(y.tolist())
    cfg = LineConfig.finite(window(y).tolist())
    _certify(cfg, law, rows, opts.residual_tol, "pinned segment", interior_out, steps, stop)
    return interior_out, SegmentStats(
        sweeps=steps,
        residual=float(np.abs(r).max()),
        converged=True,
        config=cfg,
        energy_trace=tuple(energies) if opts.track_energy else (),
    )


# ---------------------------------------------------------------------------
# Circle equilibrium
# ---------------------------------------------------------------------------


_SMOOTH_W = 0.35  # width of the shell below pi over which the circle force tapers off


def _circle_forces(law: ForceLaw, theta: np.ndarray) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
    """Gradient g of the smoothed circle energy (the tangential net force is
    -g) and its Jacobian on demand, from one block of pairwise geodesic
    distances u.

    g_i = sum_j s_ij r(u_ij) F(u_ij), where s_ij is +1 when increasing
    theta_i shortens the geodesic to j (source ahead counterclockwise), -1
    when it lengthens it, and 0 on the diagonal.  The ramp r tapers F
    linearly to zero over the last _SMOOTH_W before pi, which removes the
    antipodal jump and keeps the equilibria (see solve_circle_equilibrium).
    jacobian() builds J from the same u, F and r arrays when called; off
    the diagonal J_ij = (r F)'(u_ij), and each row of J sums to zero.
    """
    diagonal = slice(None, None, len(theta) + 1)  # of a flattened n x n block
    delta = (theta - theta[:, None]) % TWO_PI
    u = np.minimum(delta, TWO_PI - delta)
    s = np.where(delta < math.pi, 1.0, -1.0)
    s.ravel()[diagonal] = 0.0
    r = np.minimum(np.maximum((math.pi - u) / _SMOOTH_W, 0.0), 1.0)
    dr = np.where((u > math.pi - _SMOOTH_W) & (u < math.pi), -1.0 / _SMOOTH_W, 0.0)
    u.ravel()[diagonal] = u[0, 1]  # a real pair distance; its F is unused
    F = law.force_array(u)
    g = (F * r * s).sum(axis=1)

    def jacobian() -> np.ndarray:
        J = law.force_derivative_array(u) * r + F * dr
        J_diagonal = J.ravel()[diagonal]
        J_diagonal[:] = 0.0
        J_diagonal[:] = -J.sum(axis=1)
        return J

    return g, jacobian


def _circle_rounding_floor(J: np.ndarray) -> float:
    """Rounding floor of a circle gradient whose Jacobian is J.

    Each stored angle is off by up to about an ulp of 2*pi, which moves
    gradient row i by up to |J_ii| times that; 8 ulps leave a margin of
    more than 5 over equal spacing for n = 2..16 under 1/d^2, 1/d^3 and
    exp(-d), where a flat 1e-13 was below the floor at n = 16 under 1/d^3.
    """
    return 8.0 * math.ulp(TWO_PI) * float(np.abs(J.diagonal()).max())


def _arcs(free: np.ndarray) -> np.ndarray:
    """Arcs between neighbors, particle 0 pinned at angle 0 and the free
    angles after it; the last arc wraps back to particle 0."""
    ends = np.concatenate([[0.0], free, [TWO_PI]])
    return ends[1:] - ends[:-1]


def _in_circle_order(free: np.ndarray) -> bool:
    """Every arc of _arcs(free) positive: for floats a - b > 0 exactly when
    a > b, and a NaN fails either form."""
    return bool(free[0] > 0.0 and free[-1] < TWO_PI) and _increasing(free)


def _half_arc_step(free: np.ndarray, du: np.ndarray) -> float:
    """Largest fraction of the step du that shrinks no arc by more than
    half its length (1.0 when a shrink ratio is NaN)."""
    ends, moves = [0.0, *free.tolist(), TWO_PI], [0.0, *du.tolist(), 0.0]
    shrink = [(m - m_next) / (e_next - e)
              for m, m_next, e, e_next in zip(moves, moves[1:], ends, ends[1:])]
    worst = max(shrink)
    return 0.5 / worst if worst > 0.5 and not any(map(math.isnan, shrink)) else 1.0


def solve_circle_equilibrium(
    n: int,
    law: ForceLaw,
    init: Sequence[float] | None = None,
    opts: SolverOptions | None = None,
) -> tuple[CircleConfig, CircleStats]:
    """Find the equilibrium of n particles on the circle, particle 0 pinned
    at angle 0.

    The antipodal jump in the exact force field (a pair at geodesic
    distance exactly pi contributes nothing, slightly off contributes
    F(pi)) defeats plain descent for even n, so the solver works on a
    smoothed field that tapers the force to zero over a shell of width w
    below pi.  Any configuration whose opposite contributions cancel
    pairwise is an equilibrium of every smoothed field as well, so the
    smoothing moves no roots; it only removes the jump and gives the pair
    alignment mode a finite stiffness F(pi)/w.  The problem is defined
    over the shared pieces: `_circle_forces` gives the gradient from one
    distance block and its Jacobian on demand, and `_ordered_newton` runs
    on the free angles from the sorted start, with "every arc positive" as
    its order.  The circle adds two hooks to that driver.  Its first trial
    step is scaled so that no arc between neighbors shrinks by more than
    half, which keeps the iteration inside the region where equal spacing
    is the only equilibrium.  Newton stops at max|g| <= 1e-13, or at the
    gradient's rounding floor (_circle_rounding_floor) if that is higher
    and max|g| is within residual_tol.  Each round's iterate is then judged
    by _certify on its circle_residual_report, the rule of the line
    solvers: it is accepted when the report is in equilibrium within
    residual_tol plus its error bound.  A round that fails, whose iterate is
    not a valid CircleConfig, or an init with an arc below 1e-6, restarts
    from a fresh random draw (at most six rounds); the sixth round's
    failure is raised, as NoConvergence carrying its iterate.
    CircleStats.sweeps is always 0; newton_iters counts Newton steps across
    all rounds and residual is the accepted report's max |net|.  n may not
    exceed MAX_PARTICLES.
    """
    opts = opts or SolverOptions()
    if n < 2:
        raise InvalidInput("need at least two particles on the circle")
    _check_count(n, "n")
    rng = np.random.default_rng(opts.rng_seed)

    def draw() -> np.ndarray:
        for _ in range(1000):
            theta = rng.uniform(0.0, TWO_PI, size=n)
            ring = sorted(theta.tolist())
            if min(b - a for a, b in zip(ring, [*ring[1:], ring[0] + TWO_PI])) >= 1e-6:
                return theta
        raise NoConvergence("could not draw well-separated initial angles")

    if init is not None:
        theta = np.mod(np.asarray(list(init), dtype=float), TWO_PI)
        if len(theta) != n:
            raise InvalidInput("init must provide one angle per particle")
    else:
        theta = draw()
    t = np.sort(theta % TWO_PI)
    t -= t[0]

    newton_exit = min(1e-13, opts.residual_tol / max(4 * n, 40))
    newton_iters = 0
    pinned = np.zeros(1)  # the angle of particle 0

    def angles(free: np.ndarray) -> np.ndarray:
        return np.concatenate([pinned, free])

    def system(free: np.ndarray) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
        g, jacobian = _circle_forces(law, angles(free))
        return g[1:], lambda: jacobian()[1:, 1:]

    def exit_tol(size: float, jacobian: Callable[[], np.ndarray]) -> float:
        if size <= newton_exit:  # done, whatever the rounding floor
            return newton_exit
        if size > opts.residual_tol:  # beyond the reach of the rounding floor
            return opts.residual_tol
        return max(newton_exit, min(opts.residual_tol, _circle_rounding_floor(jacobian())))

    for round_idx in range(6):
        if round_idx:
            t = np.sort(draw() % TWO_PI)
            t -= t[0]
        elif np.min(_arcs(t[1:])) < 1e-6:
            continue  # (near-)coincident init angles: the field is singular
        free, _, steps, _, stop = _ordered_newton(
            system, t[1:], _in_circle_order, 80, exit_tol, first_step=_half_arc_step
        )
        t = angles(free)
        newton_iters += steps
        try:  # a collapsed iterate or a rejected report fails its round
            config = CircleConfig(tuple(t.tolist()))
            residual = _certify(config, law, None, opts.residual_tol, "circle", config.angles,
                                newton_iters, stop)
        except InvalidInput as exc:
            failure = NoConvergence(
                f"iteration collapsed to an invalid configuration: {exc} "
                f"after {newton_iters} iterations ({stop})",
                last=tuple(t.tolist()), iterations=newton_iters,
            )
        except NoConvergence as exc:
            failure = exc
        else:
            return config, CircleStats(0, newton_iters, residual, True)
    raise failure


# ---------------------------------------------------------------------------
# Zero-centered configurations
# ---------------------------------------------------------------------------


def _force_sup(law: ForceLaw) -> float:
    """Supremum of F over the law's domain: F at its smallest distance
    (infinite for inverse powers, which diverge at 0)."""
    with np.errstate(divide="ignore"):
        return float(law.force_array(np.array([getattr(law, "d_min", 0.0)]))[0])


def solve_zero_centered(
    problem: ZeroCenteredProblem,
    opts: SolverOptions | None = None,
) -> tuple[LineConfig, ZeroCenteredStats]:
    """Newton on the whole zero-centered system.

    x_{-1} = a, x_0 = 0 and x_1 = b are fixed, which leaves the 2n-2
    positions x_{-n}..x_{-2} and x_2..x_n for the 2n-2 equilibrium
    equations of x_{-n+1}..x_{-1} and x_1..x_{n-1}.  The start is
    x_k = b (1 + sum_{j=2..k} max(0.5/j, d_min/min(b, -a))), mirrored with
    a on the left, where d_min is a tabulated law's first sample distance
    (0 otherwise); a start whose rounded gap still falls below d_min is
    raised by ulps until it does not, so every start gap is in the law's
    domain.  Steps that would break the order are halved, and so are
    steps that would leave a tabulated law's domain: a gap below d_min or,
    without a tail, a pair distance the kernel evaluates above d_max.
    ZeroCenteredStats counts Newton steps in outer_iters (budget
    max_outer_iters); inner_sweeps is always 0 and target_errors are exact
    zeros.

    Raises InfeasibleBracket when the n-1 particles beyond b cannot
    balance the pushes F(b) + F(b - a) on x_1 even at the supremum of F
    (likewise F(-a) + F(b - a) on x_{-1}), and NoConvergence with the last
    configuration when _certify on the 2n-2 equilibrium rows alone rejects
    it.
    """
    opts = opts or SolverOptions()
    n, a, b, law = problem.n, problem.a, problem.b, problem.law
    if n == 1:
        return LineConfig.finite((a, 0.0, b)), ZeroCenteredStats(0, 0, (0.0, 0.0), 0.0, True)

    cap = (n - 1) * _force_sup(law)
    for side, inner in (("x_1", b), ("x_{-1}", -a)):
        if cap <= law.force(inner) + law.force(b - a):
            raise InfeasibleBracket(
                f"{side} cannot be balanced: {n - 1} outer particles push at "
                f"most {cap:.6g} under this law"
            )

    d_min = getattr(law, "d_min", 0.0)
    spread = np.cumsum([1.0] + [max(0.5 / j, d_min / min(b, -a)) for j in range(2, n + 1)])[1:]
    x = np.concatenate([a * spread[::-1], [a, 0.0, b], b * spread])
    for k in range(n + 2, 2 * n + 1):  # raise |x_k| by ulps until no rounded gap is below d_min
        while x[k] - x[k - 1] < d_min:
            x[k] = np.nextafter(x[k], math.inf)
        while x[2 * n - k + 1] - x[2 * n - k] < d_min:
            x[2 * n - k] = np.nextafter(x[2 * n - k], -math.inf)
    unknown = np.array([i for i in range(2 * n + 1) if i < n - 1 or i > n + 1])
    rows = np.array([i for i in range(1, 2 * n) if i != n])

    def place(u: np.ndarray) -> np.ndarray:
        out = x.copy()
        out[unknown] = u
        return out

    def system(u: np.ndarray) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
        net, jacobian = _line_forces(law, place(u), rows)
        return net, lambda: jacobian()[0][:, unknown]

    d_max = law.d_max if d_min and law.tail is None else math.inf

    def admissible(u: np.ndarray) -> bool:
        """Ordered; under a tabulated law, every gap at least d_min and the
        kernel's longest pair (an extreme to the farthest row) at most d_max."""
        w = place(u)
        if not d_min:
            return _increasing(w)
        return bool((w[1:] - w[:-1]).min() >= d_min and max(w[-2] - w[0], w[-1] - w[1]) <= d_max)

    u, _, outer, _, stop = _ordered_newton(
        system, x[unknown], admissible, opts.max_outer_iters, opts.residual_tol * 0.5
    )
    cfg = LineConfig.finite(place(u).tolist())
    worst = _certify(cfg, law, rows, opts.residual_tol, "zero-centered", cfg.window, outer, stop)
    return cfg, ZeroCenteredStats(
        outer_iters=outer,
        inner_sweeps=0,
        target_errors=(cfg.window[n - 1] - a, cfg.window[n + 1] - b),
        residual=worst,
        converged=True,
    )


# ---------------------------------------------------------------------------
# Right extension
# ---------------------------------------------------------------------------


def _as_left_config(s_minus: LineConfig | Sequence[float]) -> LineConfig:
    if isinstance(s_minus, LineConfig):
        cfg = s_minus
    else:
        cfg = LineConfig.finite(list(s_minus))
    if not cfg.right_tail.is_none:
        raise InvalidInput("the left configuration must not have a right tail")
    if cfg.window[-1] >= 0.0:
        raise InvalidInput("left configuration positions must all be negative")
    return cfg


def extend_right(
    s_minus: LineConfig | Sequence[float],
    x0: float,
    law: ForceLaw,
    opts: SolverOptions | None = None,
) -> tuple[tuple[float, ...], ExtendStats]:
    """Extend a negative configuration to the right of a pinned first
    particle at x0, so that the extension (x0 included) is in equilibrium.

    Beyond the solved particles an arithmetic continuation with the gap
    halfway between the left configuration's gap bounds is attached; its
    start is a solved unknown matching the equilibrium equation at x0.
    Each truncation level (number of solved particles) runs Newton (budget
    max_sweeps) on the whole system, and levels grow until two successive
    ones agree within position_tol, or NoConvergence names the last level's
    stop reason.  _certify alone accepts the result, on the rows of the
    first extension_points - guard_band + 1 outputs, in the configuration
    of both tails whose [c, C] are its own extreme gaps.  Output gaps must
    lie in [min(c, x0 - x_last), max(C, x0 - x_last)]; a violation raises
    PostconditionViolation.

    With multi_start > 1, that many trials re-solve the level the output
    came from, from gaps drawn uniformly in [c, C] (all gap_a when c = C).
    Trials that _certify accepts on the output's rows (x0 and their first
    extension_points outputs) are clustered in trial order within
    max(10 position_tol, 1e-9) in the max norm; stats.clusters holds the
    centers, first opened first, without member counts.
    """
    opts = opts or SolverOptions()
    cfg = _as_left_config(s_minus)
    x0 = float(x0)
    if x0 <= cfg.window[-1]:
        raise InvalidInput("x0 must lie to the right of the left configuration")
    N, K = opts.extension_points, opts.guard_band
    if N < 1 or K < 0 or N <= K:
        raise InvalidInput("need extension_points > guard_band >= 0")
    b_gap, B_gap = cfg.c, cfg.C
    gap_a = 0.5 * (b_gap + B_gap)
    context = np.array(cfg.window, dtype=float)
    nfix = len(context)
    force_tol = min(opts.residual_tol * 1e-2, 1e-12)

    def relax(u0: np.ndarray) -> tuple[np.ndarray, int, str]:
        """Newton (budget max_sweeps) from u0 = (y_1..y_m, anchor) on the
        equilibria of x0 and y_1..y_m; the anchor starts the continuation."""
        m = len(u0) - 1
        rows = np.arange(nfix, nfix + m + 1)

        def system(u: np.ndarray) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
            x = np.concatenate([context, [x0], u[:m]])
            right = TailModel.arithmetic(float(u[m]), gap_a)
            net, jacobian = _line_forces(law, x, rows, cfg.left_tail, right, force_tol)
            # Columns of J past x0, then the shift column for the anchor.
            return net, lambda: np.concatenate(jacobian(), axis=1)[:, nfix + 1 :]

        u, _, steps, _, stop = _ordered_newton(
            system, u0, lambda u: bool(u[0] > x0) and _increasing(u), opts.max_sweeps,
            opts.residual_tol * 0.5)
        return u, steps, stop

    prev: list[float] | None = None
    sweeps_total = 0
    disagreement = math.inf
    for levels_used, level in enumerate(opts.truncation_levels, 1):
        m = N + K * level
        _check_count(m, "extension_points + guard_band * level")
        if prev is None:
            ys = [x0 + gap_a * (j + 1) for j in range(m)]
        else:
            ys = prev + [prev[-1] + gap_a * (j + 1) for j in range(m - len(prev))]
        u, steps, stop = relax(np.array(ys + [ys[-1] + gap_a]))
        ys = u[:m].tolist()
        sweeps_total += steps
        if prev is not None:
            disagreement = max(abs(p - y) for p, y in zip(prev[: N + 1], ys[: N + 1]))
            if disagreement <= opts.position_tol:
                break
        prev = ys
    else:
        if len(opts.truncation_levels) > 1 and disagreement > opts.position_tol:
            raise NoConvergence(
                f"truncation levels disagree by {disagreement:.3e} (position_tol "
                f"{opts.position_tol:.3e}); the last level's Newton stopped ({stop})",
                last=tuple([x0] + ys[:N]),
                residual=disagreement,
                iterations=levels_used,
            )

    out = [x0] + ys[:N]
    rows = range(len(cfg.window), len(cfg.window) + (N - K) + 1)

    def certify(u: np.ndarray, iterations: int, stop: str) -> tuple[LineConfig, float]:
        full = _tailed_config([*cfg.window, x0, *u[:-1].tolist()], cfg.left_tail,
                              TailModel.arithmetic(float(u[-1]), gap_a))
        last = (x0, *u[:N].tolist())
        return full, _certify(full, law, rows, opts.residual_tol, "extension", last, iterations,
                              stop)

    full, worst = certify(u, levels_used, stop)
    lo, hi = min(b_gap, x0 - cfg.window[-1]), max(B_gap, x0 - cfg.window[-1])
    slack = 1e-9 * max(1.0, hi)
    for g in (q - p for p, q in zip(out, out[1:])):
        if g < lo - slack or g > hi + slack:
            raise PostconditionViolation(f"extension gap {g!r} outside [{lo!r}, {hi!r}]")

    clusters: tuple[tuple[float, ...], ...] = ()
    if opts.multi_start > 1:
        rng = np.random.default_rng(opts.rng_seed)  # trials solve the output's level m
        gap_draws = [rng.uniform(b_gap, B_gap, size=m) if B_gap > b_gap else np.full(m, gap_a)
                     for _ in range(opts.multi_start)]

        def solve(trial: np.ndarray) -> tuple[np.ndarray, float] | None:
            u, steps, stop = relax(np.append(trial, trial[-1] + gap_a))
            try:
                return np.concatenate([[x0], u[:N]]), certify(u, steps, stop)[1]
            except NoConvergence:
                return None

        found = _multi_start(
            [x0 + np.cumsum(gs) for gs in gap_draws], solve, max(opts.position_tol * 10.0, 1e-9)
        )
        clusters = tuple(tuple(center.tolist()) for center, _, _ in found)

    return tuple(out), ExtendStats(
        levels_used=levels_used,
        level_disagreement=disagreement if levels_used > 1 else 0.0,
        sweeps=sweeps_total,
        continuation_gap=gap_a,
        residual=worst,
        converged=True,
        config=full,
        clusters=clusters,
    )
