"""Constructive solvers: circle equilibria, pinned segments, sweeps,
zero-centered configurations and right extensions.

Design choices shared by every routine here:

* Every solver is a problem definition over one force kernel per
  geometry and one Newton driver.  `_line_forces` (line windows, tails
  included) and `_circle_forces` (the circle) each give net forces from
  one distance block per evaluation and their dense Jacobian from that
  block on demand, and `_ordered_newton` asks for it only to take a step.
  It runs damped Newton on the whole system at once and halves any step
  which would break the particle order, leave the law's domain (its
  DomainError) or fail to improve its merit.  The circle hooks in a
  first-step cap (no arc shrinks by more than half) and an exit tolerance
  that follows the gradient's rounding floor.  `_window_system` builds
  every line solver's Newton system but extend_right's.
* Only `sweep_relax` places single particles, each by a one-unknown
  `_ordered_newton` run on the particle's own `_line_forces` row, kept
  between its two neighbors and stopped at a first-order position error of
  placement_tol.
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
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.linalg._umath_linalg import solve1 as _lapack_solve1

from .configurations import (_PI, _TWO_PI, _ZERO, TWO_PI, CircleConfig, LineConfig, TailModel,
                             _own_bounds_config)
from .errors import (
    DomainError,
    InfeasibleBracket,
    InvalidInput,
    InvalidPins,
    NoConvergence,
    PostconditionViolation,
    _below,
    _check_integer,
)
from .force_laws import ForceLaw, force_sum_arithmetic
from .residuals import _ccw_offsets, circle_residual_report, residual_report

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


@dataclass(frozen=True)
class SolverOptions:
    """Tolerances and budgets shared by the solvers.

    position_tol governs outer agreement criteria (truncation-level
    agreement, solution clustering); sweep_relax places a particle to a
    Newton step of placement_tol, the tighter of position_tol and 1e-12, so
    residual tolerances stay reachable.  The truncation fields apply to
    extend_right: the output has extension_points+1 particles, levels solve
    extension_points + guard_band * level unknowns, and the last guard_band
    outputs are not residual-certified.  max_sweeps is the Newton step
    budget of solve_pinned_segment, of each extend_right relaxation and of
    each reconstruct_left_tail start (and the pass budget of the CLI relax
    task); max_outer_iters is the Newton step budget of solve_zero_centered.
    The circle solver and each sweep_relax placement have a fixed budget.
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
    track_energy: bool = False  # segment energy recorded in energy_trace, never enforced

    def __post_init__(self) -> None:
        counts = ("max_sweeps", "max_outer_iters", "extension_points", "guard_band")
        for name in ("residual_tol", "position_tol", *counts):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and value >= 0):  # NaN fails as well
                raise InvalidInput(f"{name} must be nonnegative, got {value!r}")
        levels = self.truncation_levels
        if not isinstance(levels, Sequence):
            raise InvalidInput(f"truncation_levels must be a sequence, got {levels!r}")
        if not levels or not all(isinstance(v, numbers.Real) and v >= 1 for v in levels):
            raise InvalidInput(f"truncation_levels must be positive, got {levels}")
        for name in counts:
            _check_integer(name, getattr(self, name), 0)
        for level in levels:
            _check_integer("truncation_levels", level, 1)
        _check_integer("multi_start", self.multi_start, 1, MAX_PARTICLES)  # one solve per start
        _check_integer("rng_seed", self.rng_seed, 0)

    def placement_tol(self) -> float:
        return min(self.position_tol, 1e-12)


_DEFAULT_OPTIONS = SolverOptions()  # frozen, so every solver may share it


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
        if _below(self.n, 1):
            raise InvalidInput("n must be at least 1")
        _check_integer("n", self.n, 1)
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
    energy_trace: tuple[float, ...] = ()  # recorded under track_energy, never enforced


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
# Line kernel and the shared Newton driver
# ---------------------------------------------------------------------------

_TAIL_JACOBIAN_TERMS = 400
_LM_DAMPING_MIN = 1e-12  # relative to the largest diagonal entry of J^T J


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
    re-checks its result through residual_report.  x is read only during
    the call and jacobian() needs nothing of x, so each solve writes its
    trials into one window buffer (_window_system, or extend_right's own).
    """
    own = np.arange(0, len(rows) * len(x), len(x)) + rows  # flat index of each row's self slot
    targets = x[rows]
    d = x - targets[:, None]  # source minus target, 0 on the diagonal
    dist = np.abs(d)
    dist.ravel()[own] = dist[0, rows[0] - 1]  # a real pair distance; its F is unused
    F = law.force_array(dist)
    net = np.add.reduce(np.where(d < _ZERO, F, _ZERO), axis=1) - np.add.reduce(
        np.where(d > _ZERO, F, _ZERO), axis=1)
    sides = ((left_tail, "left", np.add), (right_tail, "right", np.subtract))
    tails = [t for t in sides if t[0] is not None and not t[0].is_none]
    for tail, side, push in tails:  # the bits of net += +-1.0 * v: the product is exact
        for start, stride in tail.progressions(targets, side):
            push(net, force_sum_arithmetic(law, start, stride, force_tol)[0], out=net)

    def jacobian() -> tuple[np.ndarray, np.ndarray]:
        dF = law.force_derivative_array(dist)
        dF.ravel()[own] = 0.0
        J = -dF
        J.ravel()[own] = np.add.reduce(dF, axis=1)  # a view: J is a fresh block
        shift = np.zeros((len(rows), 1))
        for tail, side, _ in tails:
            near = tail.positions(side, _TAIL_JACOBIAN_TERMS)
            dtail = np.add.reduce(law.force_derivative_array(np.abs(near - targets[:, None])), 1)
            J.ravel()[own] += dtail
            if side == "right":
                shift = -dtail[:, None]
        return J, shift

    return net, jacobian


def _window_system(law: ForceLaw, x: np.ndarray, free: slice | np.ndarray, rows: np.ndarray,
                   left_tail: TailModel | None = None, right_tail: TailModel | None = None,
                   force_tol: float = 1e-13) -> Callable:
    """_ordered_newton's system for the unknowns x[free] of a line window: writes each trial
    into the caller's buffer at x[free]; gives _line_forces on x[rows] with J's free columns."""

    def system(u: np.ndarray) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
        x[free] = u
        net, jacobian = _line_forces(law, x, rows, left_tail, right_tail, force_tol)
        return net, lambda: jacobian()[0][:, free]

    return system


def _increasing(x: np.ndarray | list[float]) -> bool:
    """Every gap of an array or list positive (b > a exactly when b - a > 0), as Python floats."""
    values = x.tolist() if isinstance(x, np.ndarray) else x
    return all(map(operator.lt, values, values[1:]))


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

    `solve` must depend on its start alone: it runs once per distinct start
    (equal bytes), and a repeated start reuses that result, so it still
    counts once per occurrence.  Starts where solve returns None are
    dropped.  The surviving (point, residual) pairs are visited in start
    order, or sorted by the key `order`; each joins the first cluster whose
    center is within `radius` in the max norm, or opens one centered on
    itself.  Returns [center, members, residual of the center] per cluster,
    in order of opening.
    """
    solved: dict[bytes, tuple[np.ndarray, float] | None] = {}
    found = []
    for start in starts:
        key = start.tobytes()
        if key not in solved:
            solved[key] = solve(start)
        if solved[key] is not None:
            found.append(solved[key])
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


_SOLVE_STATE = {"invalid": "call", "over": "ignore", "divide": "ignore", "under": "ignore"}


def _solve(A: np.ndarray, b: np.ndarray, flagged: dict) -> np.ndarray:
    """np.linalg.solve(A, b) for a square float64 A and a 1-d b, bit for bit: its LAPACK gufunc,
    called inside a Newton run's error state, _SOLVE_STATE with `call` recording invalid values
    in `flagged`.  LAPACK flags one for a singular A alone, which raises LinAlgError."""
    flagged.clear()
    x = _lapack_solve1(A, b, signature="dd->d")
    if flagged:
        raise np.linalg.LinAlgError("Singular matrix")
    return x


def _lm_step(J: np.ndarray, r: np.ndarray, damping: float, flagged: dict) -> np.ndarray:
    """Levenberg-Marquardt s = (J^T J + damping max diag)^-1 J^T r; the step is -s."""
    normal = J.T @ J
    normal[np.diag_indices_from(normal)] += damping * np.max(np.diag(normal))
    return _solve(normal, J.T @ r, flagged)


def _max_abs(r: np.ndarray) -> float:
    """max|r| from Python floats, NaN when any entry is, as np.maximum.reduce gives."""
    sizes = list(map(abs, r.tolist()))
    total = sum(sizes)  # NaN exactly when an entry is; a bare max skips a NaN after the first
    return total if total != total else max(sizes)


class NewtonRun(NamedTuple):
    """What _ordered_newton returns, for its callers to read by field name."""

    u: np.ndarray  # the last iterate
    r: np.ndarray  # its residual
    steps: int
    path: list[np.ndarray]  # the iterates accepted, the start first
    stop: str  # why Newton stopped


def _ordered_newton(
    system: Callable[[np.ndarray], tuple[np.ndarray, Callable[[], np.ndarray]]],
    u: np.ndarray,
    ordered: Callable[[np.ndarray], bool],
    max_steps: int,
    exit_tol: float | Callable[[float, Callable[[], np.ndarray]], float],
    first_step: Callable[[np.ndarray, np.ndarray], float] | None = None,
) -> NewtonRun:
    """Damped Newton on system(u) = (r, jac) from an ordered start u.

    Each step solves J du = -r, J = jac() = dr/du, and is halved (at most
    40 times) until the trial keeps the order, lies in the law's domain and
    lowers the merit max|r|, the one acceptance rule of every caller.  A
    trial whose system() raises DomainError is rejected like one that
    breaks the order, so the law alone knows its domain; the start's
    system() is not caught, so a start outside the domain raises.  The
    first trial takes the full step, or first_step(u, du) of it when that
    hook is given.
    exit_tol may be a function of the current max|r| and of `jacobian`,
    which builds J when called.  J is built at most once per accepted
    iterate, for a step or a callable exit_tol that asks for it, and never
    for rejected trials.
    An overdetermined system (more rows than unknowns) takes damped
    Gauss-Newton steps instead: Levenberg-Marquardt on J^T J, accepted when
    they lower the sum of squares of r.  There a rejected trial raises the
    damping tenfold in place of halving the step, which turns it toward
    steepest descent, and an accepted one lowers it tenfold.
    Returns NewtonRun(u, r, steps, path, stop).  path holds the iterates
    accepted, for a caller to record; nothing in it decides a trial.
    A run enters one numpy error state, _solve's: it ignores overflow,
    division by zero and underflow and records invalid values, so a trial
    whose merit is NaN or inf is rejected quietly and a singular J stops it.
    stop is why Newton stopped, for the caller's report to name, never to
    decide by: "target" (max|r| <= exit_tol, so never for a NaN r),
    "stalled" (no trial accepted: rounding floor, order or domain boundary),
    "singular" (LinAlgError) or "budget".
    """
    flagged: dict = {}  # this run's invalid values, as _solve records them
    with np.errstate(call=flagged.__setitem__, **_SOLVE_STATE):
        r, jac = system(u)
        least_squares = len(r) > len(u)
        damping = _LM_DAMPING_MIN
        J = None  # dr/du at the current iterate, once built

        def jacobian() -> np.ndarray:  # for a callable exit_tol; a step reuses its J
            nonlocal J
            J = jac() if J is None else J
            return J

        size = _max_abs(r)  # max|r| of the current iterate
        merit_r = float(r @ r) if least_squares else size  # kept across its trials
        path = [u]
        steps, stop = 0, "target"
        while not size <= (exit_tol(size, jacobian) if callable(exit_tol) else exit_tol):
            if steps >= max_steps:
                stop = "budget"
                break
            steps += 1
            J = jac() if J is None else J
            try:  # the step is du = -s
                s = _lm_step(J, r, damping, flagged) if least_squares else _solve(J, r, flagged)
            except np.linalg.LinAlgError:
                stop = "singular"
                break
            t = 1.0 if first_step is None else first_step(u, np.negative(s))
            for _ in range(40):
                trial = u - s if t == 1.0 else u - t * s
                try:  # a trial out of order or out of the law's domain is rejected
                    r_t, jac_t = system(trial) if ordered(trial) else (None, None)
                except DomainError:
                    r_t = None
                merit_t = (math.inf if r_t is None else float(r_t @ r_t) if least_squares
                           else _max_abs(r_t))
                if merit_t < merit_r:
                    u, r, jac, J, merit_r = trial, r_t, jac_t, None, merit_t
                    size = _max_abs(r) if least_squares else merit_t
                    damping = max(damping / 10.0, _LM_DAMPING_MIN)
                    path.append(u)
                    break
                if least_squares:
                    damping *= 10.0
                    s = _lm_step(J, r, damping, flagged)
                else:
                    t *= 0.5
            else:
                stop = "stalled"
                break
    return NewtonRun(u, r, steps, path, stop)


# ---------------------------------------------------------------------------
# Sweep relaxation
# ---------------------------------------------------------------------------

_PLACEMENT_STEPS = 80  # Newton step budget of each sweep_relax placement


def _visiting_order(n: int, fixed: Sequence[int], direction: str) -> list[int]:
    """The non-fixed window indices in sweep order; checks fixed, then direction."""
    for i in fixed:
        _check_integer("fixed", i, -math.inf)  # its range is checked below
    fixed_set = set(map(int, fixed))
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


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # flag test's -r / J: J may be 0
def sweep_relax(
    config: LineConfig,
    fixed: Sequence[int],
    law: ForceLaw,
    direction: str = "ltr",
    opts: SolverOptions | None = None,
) -> tuple[LineConfig, SweepStats]:
    """One Gauss-Seidel relaxation pass: move every non-fixed window particle
    to the root of its net force, visiting in the given direction.

    Each placement is a one-unknown _ordered_newton run from the current
    position, its trials written into one window buffer per pass and kept
    between the two neighbors, until |net| <= placement_tol * |d net / dx|.
    A particle with no root there is left at Newton's last iterate, where
    not even 2**-39 of a step stays in order and in the law's domain: next
    to the neighbor it is pushed toward (within placement_tol for steps
    below 0.5) or at the domain boundary, or where it stands if the net
    force is flat.  It is flagged in endpoint_flags: Newton stopped short
    and its next step would pass that neighbor or come within the law's
    d_min of it, unlike a stall at the rounding floor of a root.

    The two extreme window particles must be fixed.  The output window is
    revalidated; its gap bounds are widened if the sweep moved a gap
    outside the declared [c, C].
    """
    opts = opts or _DEFAULT_OPTIONS
    order = _visiting_order(config.n, fixed, direction)
    placement_tol = opts.placement_tol()
    force_tol = min(opts.residual_tol * 1e-2, 1e-12)
    d_min = law.d_min
    left_tail, right_tail = config.left_tail, config.right_tail
    x = np.array(config.window, dtype=float)  # each trial is written into its slot
    displacements = [0.0] * len(x)
    flags: list[int] = []
    for i in order:
        lo, hi, row = float(x[i - 1]), float(x[i + 1]), np.array([i])
        system = _window_system(law, x, row, row, left_tail, right_tail, force_tol)
        start = x[row]  # a copy: x[i] holds each trial
        run = _ordered_newton(
            system, start, lambda u: lo < u[0] < hi, _PLACEMENT_STEPS,
            lambda size, jacobian: placement_tol * abs(jacobian()[0, 0]))
        u = run.u
        if run.stop != "target":  # is the step it could not take past a neighbor?
            step = float(-run.r[0] / system(u)[1]()[0, 0])
            if not lo + d_min < u[0] + step < hi - d_min:
                flags.append(i)
        x[i] = u[0]
        displacements[i] = float(u[0] - start[0])
    positions = x.tolist()
    stats = SweepStats(
        direction=direction,
        moved=sum(d != 0.0 for d in displacements),  # u != start exactly when u - start != 0
        max_displacement=max(map(abs, displacements)),
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


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _segment_energy(law: ForceLaw, pins: list[float], interior: np.ndarray) -> float:
    """Interaction energy of the ordered interior particles (mutual + with
    pins), under the error state of _ordered_newton: quiet at any scale."""
    i, j = np.triu_indices(len(interior), 1)
    d = np.concatenate([np.abs(interior[:, None] - pins).ravel(), interior[j] - interior[i]])
    return float(law.potential_array(d).sum())


def solve_pinned_segment(
    fixed_left: Sequence[float],
    fixed_right: Sequence[float],
    n_interior: int,
    law: ForceLaw,
    opts: SolverOptions | None = None,
) -> tuple[tuple[float, ...], SegmentStats]:
    """Equilibrate n_interior particles between two groups of pinned ones.

    Newton on all interior positions at once, from equal spacing, by the
    rule of every solver here: a step is halved until it keeps the order and
    lowers the interior max |net|.  Each trial is written into the interior
    of one window buffer per solve, and its order is checked on its own
    values and the two pins next to them.  Stops once every interior residual
    is at most residual_tol; _certify on the n_interior interior rows then
    accepts the result or raises NoConvergence.  SegmentStats.sweeps counts
    Newton steps (budget max_sweeps) and residual is Newton's final max
    |net|.  A segment without an ordered equilibrium (a bounded law crowding
    particles together) exhausts the budget or stalls at the order or domain
    boundary, and the certified check rejects it.  Under a tabulated law
    every start gap is at least its d_min (a rounded gap below it is raised
    by ulps); when n_interior + 1 such gaps do not fit between the pins,
    InfeasibleBracket is raised before Newton.  A default solve never
    evaluates the potential.  With track_energy, energy_trace records the
    energy of the start, taken before any step (so a law without a
    potential, a tabulated law without a tail, raises NotIntegrable), and of
    each iterate Newton accepted.  It decides nothing: that it does not rise
    (beyond its rounding) is observed, not guaranteed.
    """
    opts = opts or _DEFAULT_OPTIONS
    left = [float(x) for x in fixed_left]
    right = [float(x) for x in fixed_right]
    if not left or not right:
        raise InvalidPins("both pin groups must be nonempty")
    if any(b <= a for a, b in zip(left, left[1:])) or any(
        b <= a for a, b in zip(right, right[1:])
    ):
        raise InvalidPins("pins must be strictly increasing")
    if _below(n_interior, 1):
        raise InvalidPins("need at least one interior particle")
    _check_integer("n_interior", n_interior, 1)
    _check_count(n_interior, "n_interior")
    gap_lo, gap_hi = left[-1], right[0]
    if gap_lo >= gap_hi:
        raise InvalidPins("left pins must lie strictly below right pins")
    d_min = law.d_min
    delta, div = gap_hi - gap_lo, n_interior + 1
    fits, step = div * d_min <= delta, delta / div
    # np.linspace(gap_lo, gap_hi, div + 1)[1:-1] bit for bit, in numpy's arithmetic (subnormal too)
    start = (np.arange(1, div) / div * delta if step == 0.0 else np.arange(1, div) * step) + gap_lo
    for k in range(n_interior if d_min and fits else 0):  # raise rounded gaps to d_min by ulps
        while start[k] - (start[k - 1] if k else gap_lo) < d_min:
            start[k] = np.nextafter(start[k], math.inf)
    if not fits or gap_hi - start[-1] < d_min:
        raise InfeasibleBracket(f"{n_interior} interior particles do not fit between the pins "
                                f"{gap_lo!r} and {gap_hi!r} with every gap at least {d_min!r}")
    inner = slice(len(left), len(left) + n_interior)
    rows = np.arange(len(left), len(left) + n_interior)
    window = np.array(left + start.tolist() + right)  # each trial is written into its interior
    system = _window_system(law, window, inner, rows)
    start_energy = _segment_energy(law, left + right, start) if opts.track_energy else None
    run = _ordered_newton(  # the pins are increasing: only their ends count
        system, start, lambda y: _increasing([gap_lo, *y.tolist(), gap_hi]), opts.max_sweeps,
        opts.residual_tol)
    trace = ([start_energy] + [_segment_energy(law, left + right, p) for p in run.path[1:]]
             if opts.track_energy else [])
    interior_out = tuple(run.u.tolist())
    cfg = LineConfig.finite(left + run.u.tolist() + right)
    _certify(cfg, law, rows, opts.residual_tol, "pinned segment", interior_out, run.steps, run.stop)
    return interior_out, SegmentStats(
        sweeps=run.steps,
        residual=_max_abs(run.r),
        converged=True,
        config=cfg,
        energy_trace=tuple(trace),
    )


# ---------------------------------------------------------------------------
# Circle equilibrium
# ---------------------------------------------------------------------------


_SMOOTH_W = 0.35  # width of the shell below pi over which the circle force tapers off
_W, _SHELL, _SLOPE, _ONE = (np.broadcast_to(v, ()) for v in (  # 0-d operands, like _PI:
    _SMOOTH_W, math.pi - _SMOOTH_W, -1.0 / _SMOOTH_W, 1.0))  # width, shell start, slope, 1


def _circle_forces(law: ForceLaw, theta: np.ndarray) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
    """Gradient g of the smoothed circle energy (the tangential net force is
    -g) and its Jacobian on demand, from one block of pairwise geodesic
    distances u; theta must increase strictly in [0, 2*pi) (_ccw_offsets).

    g_i = sum_j s_ij r(u_ij) F(u_ij), where s_ij is +1 when increasing
    theta_i shortens the geodesic to j (source ahead counterclockwise), -1
    when it lengthens it, and 0 on the diagonal.  The ramp r tapers F
    linearly to zero over the last _SMOOTH_W before pi, which removes the
    antipodal jump and keeps the equilibria (see solve_circle_equilibrium).
    jacobian() builds J from the same u, F and r arrays when called; off
    the diagonal J_ij = (r F)'(u_ij), and each row of J sums to zero.
    """
    diagonal = slice(None, None, len(theta) + 1)  # of a flattened n x n block
    delta = _ccw_offsets(theta)
    u = np.minimum(delta, _TWO_PI - delta)
    # u <= pi: for delta > pi, TWO_PI - delta is exact (Sterbenz) and below pi; no clip at 0.
    r = np.minimum((_PI - u) / _W, _ONE)
    u.ravel()[diagonal] = u[0, 1]  # a real pair distance; its F is unused
    F = law.force_array(u)
    Fr = F * r
    Fr.ravel()[diagonal] = 0.0
    g = np.add.reduce(np.negative(Fr, out=Fr, where=delta >= _PI), 1)  # delta is finite

    def jacobian() -> np.ndarray:
        # dr reads the overwritten diagonal of u, but J's diagonal is rewritten.
        dr = np.where((u > _SHELL) & (u < _PI), _SLOPE, _ZERO)
        J = law.force_derivative_array(u) * r + F * dr
        J_diagonal = J.ravel()[diagonal]
        J_diagonal[:] = 0.0
        J_diagonal[:] = np.negative(np.add.reduce(J, 1))
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
    """Arcs between neighbors: particle 0 at angle 0, the free angles, and back to 0 at 2*pi."""
    ends = np.concatenate([[0.0], free, [TWO_PI]])
    return ends[1:] - ends[:-1]


def _in_circle_order(free: np.ndarray) -> bool:
    """Every arc of _arcs(free) positive (b - a > 0 exactly when b > a; a NaN fails both)."""
    v = free.tolist()
    return 0.0 < v[0] and v[-1] < TWO_PI and all(map(operator.lt, v, v[1:]))


def _half_arc_step(free: np.ndarray, du: np.ndarray) -> float:
    """Largest fraction of the step du that shrinks no arc by more than
    half its length (1.0 when a shrink ratio is NaN)."""
    ends, moves = [0.0, *free.tolist(), TWO_PI], [0.0, *du.tolist(), 0.0]
    shrink = list(map(operator.truediv, map(operator.sub, moves, moves[1:]),
                      map(operator.sub, ends[1:], ends)))
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
    residual_tol plus its error bound.  Every start arc is at least
    max(1e-6, d_min), d_min being a tabulated law's first sample distance
    (0 otherwise); InfeasibleBracket is raised before any draw when n such
    arcs do not fit, and a draw after 1000 failed ones is squeezed to fit.
    A failed round, an iterate that is not a valid CircleConfig or an init
    with a shorter arc restarts from a fresh draw (at most six rounds); the
    sixth round's failure is raised, as NoConvergence carrying its iterate.
    CircleStats.sweeps is always 0; newton_iters counts Newton steps across
    all rounds and residual is the accepted report's max |net|.  n may not
    exceed MAX_PARTICLES, and an init needs n finite angles.
    """
    opts = opts or _DEFAULT_OPTIONS
    if _below(n, 2):
        raise InvalidInput("need at least two particles on the circle")
    _check_integer("n", n, 2)
    _check_count(n, "n")
    floor = max(1e-6, law.d_min)  # smallest start arc
    if n * floor > TWO_PI:
        raise InfeasibleBracket(f"{n} arcs of at least {floor!r} do not fit on the circle")
    rng = np.random.default_rng(opts.rng_seed)

    def start(theta: np.ndarray) -> np.ndarray | None:
        """The sorted angles turned to put the first at 0, or None when an
        arc between neighbors is below floor."""
        t = np.sort(theta % TWO_PI)
        t -= t[0]
        return t if np.minimum.reduce(_arcs(t[1:])) >= floor else None

    def draw() -> np.ndarray:
        # A floor near 2 pi / n defeats uniform draws: the last is squeezed into the room left.
        for tries in range(1001):
            drawn = rng.uniform(0.0, TWO_PI, size=n)
            t = start(drawn if tries < 1000 else
                      np.sort(drawn) * (1.0 - n * floor / TWO_PI) + floor * np.arange(n))
            if t is not None:
                return t
        raise NoConvergence("could not draw well-separated initial angles")

    if init is not None:
        theta = np.asarray(list(init), dtype=float)
        if len(theta) != n:
            raise InvalidInput("init must provide one angle per particle")
        if not np.isfinite(theta).all():
            raise InvalidInput("init angles must be finite")
        theta = np.mod(theta, TWO_PI)  # a tiny negative angle rounds up to 2 pi

    newton_exit = min(1e-13, opts.residual_tol / max(4 * n, 40))
    newton_iters = 0
    angles = np.zeros(n)  # particle 0 pinned at angle 0, each trial's free angles after it

    def system(free: np.ndarray) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
        angles[1:] = free
        g, jacobian = _circle_forces(law, angles)
        return g[1:], lambda: jacobian()[1:, 1:]

    def exit_tol(size: float, jacobian: Callable[[], np.ndarray]) -> float:
        if size <= newton_exit:  # done, whatever the rounding floor
            return newton_exit
        if size > opts.residual_tol:  # beyond the reach of the rounding floor
            return opts.residual_tol
        return max(newton_exit, min(opts.residual_tol, _circle_rounding_floor(jacobian())))

    for round_idx in range(6):
        t = draw() if round_idx or init is None else start(theta)
        if t is None:
            continue  # (near-)coincident init angles, or an arc outside the law's domain
        run = _ordered_newton(system, t[1:], _in_circle_order, 80, exit_tol,
                              first_step=_half_arc_step)
        last = (0.0, *run.u.tolist())
        newton_iters += run.steps
        try:  # a collapsed iterate or a rejected report fails its round
            config = CircleConfig(last)
            residual = _certify(config, law, None, opts.residual_tol, "circle", config.angles,
                                newton_iters, run.stop)
        except InvalidInput as exc:
            failure = NoConvergence(
                f"iteration collapsed to an invalid configuration: {exc} "
                f"after {newton_iters} iterations ({run.stop})",
                last=last, iterations=newton_iters,
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
        return float(law.force_array(np.array([law.d_min]))[0])


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
    domain.  Steps that would break the order or leave the law's domain
    are halved, as in every solver (_ordered_newton); each trial is written
    into one window buffer per solve and ordered with a, 0 and b in place.
    ZeroCenteredStats counts Newton steps in outer_iters (budget
    max_outer_iters); inner_sweeps is always 0 and target_errors are exact zeros.

    Raises InfeasibleBracket when the n-1 particles beyond b cannot
    balance the pushes F(b) + F(b - a) on x_1 even at the supremum of F
    (likewise F(-a) + F(b - a) on x_{-1}), and NoConvergence with the last
    configuration when _certify on the 2n-2 equilibrium rows alone rejects
    it.
    """
    opts = opts or _DEFAULT_OPTIONS
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

    d_min = law.d_min
    spread = np.cumsum([1.0] + [max(0.5 / j, d_min / min(b, -a)) for j in range(2, n + 1)])[1:]
    x = np.concatenate([a * spread[::-1], [a, 0.0, b], b * spread])
    for k in range(n + 2, 2 * n + 1):  # raise |x_k| by ulps until no rounded gap is below d_min
        while x[k] - x[k - 1] < d_min:
            x[k] = np.nextafter(x[k], math.inf)
        while x[2 * n - k + 1] - x[2 * n - k] < d_min:
            x[2 * n - k] = np.nextafter(x[2 * n - k], -math.inf)
    unknown = np.array([i for i in range(2 * n + 1) if i < n - 1 or i > n + 1])
    rows = np.array([i for i in range(1, 2 * n) if i != n])
    pinned = x[n - 1 : n + 2].tolist()  # a, 0 and b

    def place(u: np.ndarray) -> list[float]:
        values = u.tolist()
        values[n - 1 : n - 1] = pinned
        return values

    system = _window_system(law, x, unknown, rows)  # each trial is written into the start
    run = _ordered_newton(system, x[unknown], lambda u: _increasing(place(u)),
                          opts.max_outer_iters, opts.residual_tol * 0.5)
    cfg = LineConfig.finite(place(run.u))
    worst = _certify(cfg, law, rows, opts.residual_tol, "zero-centered", cfg.window, run.steps,
                     run.stop)
    return cfg, ZeroCenteredStats(
        outer_iters=run.steps,
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
    opts = opts or _DEFAULT_OPTIONS
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

    def relax(u0: np.ndarray) -> NewtonRun:
        """Newton (budget max_sweeps) from u0 = (y_1..y_m, anchor) on the
        equilibria of x0 and y_1..y_m; the anchor starts the continuation.
        Trials are written past x0 into one window buffer per relaxation."""
        m = len(u0) - 1
        rows = np.arange(nfix, nfix + m + 1)
        x = np.concatenate([context, [x0], u0[:m]])

        def system(u: np.ndarray) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
            x[nfix + 1 :] = u[:m]
            right = TailModel.arithmetic(float(u[m]), gap_a)
            net, jacobian = _line_forces(law, x, rows, cfg.left_tail, right, force_tol)
            # Columns of J past x0, then the shift column for the anchor.
            return net, lambda: np.concatenate(jacobian(), axis=1)[:, nfix + 1 :]

        return _ordered_newton(system, u0, lambda u: _increasing([x0, *u.tolist()]),
                               opts.max_sweeps, opts.residual_tol * 0.5)

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
        run = relax(np.array(ys + [ys[-1] + gap_a]))
        ys = run.u[:m].tolist()
        sweeps_total += run.steps
        if prev is not None:
            disagreement = max(abs(p - y) for p, y in zip(prev[: N + 1], ys[: N + 1]))
            if disagreement <= opts.position_tol:
                break
        prev = ys
    else:
        if len(opts.truncation_levels) > 1 and disagreement > opts.position_tol:
            raise NoConvergence(
                f"truncation levels disagree by {disagreement:.3e} (position_tol "
                f"{opts.position_tol:.3e}); the last level's Newton stopped ({run.stop})",
                last=tuple([x0] + ys[:N]),
                residual=disagreement,
                iterations=levels_used,
            )

    out = [x0] + ys[:N]
    rows = range(len(cfg.window), len(cfg.window) + (N - K) + 1)

    def certify(run: NewtonRun, iterations: int) -> tuple[LineConfig, float]:
        full = _own_bounds_config([*cfg.window, x0, *run.u[:-1].tolist()], cfg.left_tail,
                                  TailModel.arithmetic(float(run.u[-1]), gap_a))
        last = (x0, *run.u[:N].tolist())
        return full, _certify(full, law, rows, opts.residual_tol, "extension", last, iterations,
                              run.stop)

    full, worst = certify(run, levels_used)
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
            run = relax(np.append(trial, trial[-1] + gap_a))
            try:
                return np.concatenate([[x0], run.u[:N]]), certify(run, run.steps)[1]
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
