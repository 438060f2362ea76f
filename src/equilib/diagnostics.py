"""Difference force fields, the Blaschke divergence diagnostic, and
multi-start reconstruction of unknown left particles.

These operations probe the rigidity of one-sided equilibrium data
numerically.  The difference field measures how distinguishable two left
configurations are from the right half line; the Blaschke partial sum is
the divergence criterion that underpins uniqueness; the reconstruction
runs the inverse problem directly and reports how many distinct answers
multi-start optimization actually finds.  Every finite run of these
diagnostics is a truncation of an infinite statement, so reports carry
the truncation level (terms used, equations used) next to the numbers.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .configurations import LineConfig, TailModel
from .errors import (
    DomainError,
    InsufficientEquations,
    InvalidInput,
    NoConvergence,
    PostconditionViolation,
)
from .force_laws import ForceLaw, _certified_forces, _require_distances, force_sum_arithmetic
from .residuals import residual_report
from .solvers import (
    MAX_PARTICLES, SolverOptions, _certify, _check_integer, _increasing, _line_forces,
    _multi_start, _ordered_newton, _tailed_config
)

__all__ = [
    "BlaschkeReport",
    "ReconstructionCluster",
    "ReconstructionProblem",
    "ReconstructionReport",
    "blaschke_partial_sum",
    "eval_difference_field",
    "mobius_map",
    "mobius_inverse",
    "reconstruct_left_tail",
]

_EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# Difference force field
# ---------------------------------------------------------------------------


def eval_difference_field(
    x_positions,
    y_positions,
    w: float,
    law: ForceLaw,
    x_tail: TailModel | None = None,
    y_tail: TailModel | None = None,
) -> tuple[float, float]:
    """Signed field of the symmetric difference of two source sets at w.

    Returns (value, error_bound) with value = sum over p in X minus sum
    over p in Y of F(|p - w|).  Shared positions cancel exactly before any
    force is evaluated (multiset cancellation), so X == Y gives 0.0 with a
    zero bound, and swapping X and Y flips the sign exactly.  Equal tail
    models cancel the same way; differing tails are summed with certified
    remainder bounds folded into the error bound.  Raises InvalidInput for a
    non-finite w and DomainError when w coincides with a surviving source.
    """
    x_tail = TailModel.none() if x_tail is None else x_tail
    y_tail = TailModel.none() if y_tail is None else y_tail
    w = float(w)
    if not math.isfinite(w):
        raise InvalidInput(f"evaluation point must be finite, got {w!r}")
    counts: Counter = Counter(float(p) for p in x_positions)
    counts.subtract(float(p) for p in y_positions)

    sources = [item for item in sorted(counts.items()) if item[1]]
    p, mults = np.array(sources, dtype=float).reshape(-1, 2).T
    d = np.abs(w - p)
    if (d == 0.0).any():
        raise DomainError(f"evaluation point {w!r} coincides with a source")
    f, bound = _certified_forces(law, _require_distances(d))
    terms = (mults * f).tolist()
    err = float(np.abs(mults) @ bound)

    if x_tail != y_tail:
        for tail, sign in ((x_tail, 1.0), (y_tail, -1.0)):
            if tail.is_none:
                continue
            for start, stride in tail.progressions(w, "left"):
                if start <= 0.0:
                    raise DomainError(
                        f"evaluation point {w!r} is not on the window side of a tail"
                    )
                value, bound = force_sum_arithmetic(law, start, stride, tol=1e-14)
                terms.append(sign * value)
                err += bound

    value = math.fsum(terms)
    return value, err + 2.0 * _EPS * abs(value)


# ---------------------------------------------------------------------------
# Half-plane to disc transform and the divergence diagnostic
# ---------------------------------------------------------------------------


def mobius_map(w: float) -> float:
    """(w - 1) / (w + 1): sends [0, inf) increasingly onto [-1, 1)."""
    return (w - 1.0) / (w + 1.0)


def mobius_inverse(z: float) -> float:
    """(1 + z) / (1 - z): inverse of mobius_map on [-1, 1)."""
    return (1.0 + z) / (1.0 - z)


@dataclass(frozen=True)
class BlaschkeReport:
    """Termwise data behind a partial sum of 1 - z_n.

    `indices`, `w`, `z`, `one_minus_z`, `cumulative` and `lower_curve` are
    aligned arrays over n = 0..N; `partial_sum` is cumulative[-1] and
    `lower_bound_sum` the sum of the curve.  partial_sum >= lower_bound_sum
    holds whenever the growth validation passed.
    """

    indices: np.ndarray
    w: np.ndarray
    z: np.ndarray
    one_minus_z: np.ndarray
    cumulative: np.ndarray
    lower_curve: np.ndarray
    partial_sum: float
    lower_bound_sum: float
    growth_constant: float

    def rows(self) -> list[tuple[int, float, float, float, float]]:
        """(n, w_n, z_n, 1 - z_n, cumulative) rows, CSV-ready."""
        columns = (self.indices, self.w, self.z, self.one_minus_z, self.cumulative)
        return list(zip(*(a.tolist() for a in columns)))


def _blaschke_points(W, N: int, growth_constant: float | None) -> tuple[np.ndarray, float]:
    if isinstance(W, LineConfig):
        pts = list(W.window[: N + 1])
        if len(pts) < N + 1:
            if W.right_tail.is_none:
                raise InvalidInput(
                    f"configuration provides {len(pts)} positions; need {N + 1}"
                )
            pts.extend(W.right_tail.positions("right", N + 1 - len(pts)).tolist())
        C = W.C if growth_constant is None else float(growth_constant)
        return np.asarray(pts, dtype=float), C
    if growth_constant is None:
        raise InvalidInput(
            "growth constant required: pass growth_constant or a configuration "
            "carrying one"
        )
    pts = np.fromiter(W, dtype=float)
    if pts.size < N + 1:
        raise InvalidInput(f"W provides {pts.size} positions; need {N + 1}")
    return pts[: N + 1], float(growth_constant)


def blaschke_partial_sum(
    W,
    N: int,
    growth_constant: float | None = None,
) -> BlaschkeReport:
    """Partial sum of 1 - z_n over n = 0..N against its lower-bound curve.

    W is a nondecreasing sequence of nonnegative positions (or a line
    configuration whose window plus right tail provides them).  Each w_n
    must satisfy w_n <= C n for the growth constant C; then each term
    1 - z_n = 2 / (1 + w_n) dominates 2 / (1 + C n), so the partial sum
    dominates the curve sum, and both diverge like a harmonic series.  A
    large margin means the divergence (hence the uniqueness regime it
    signals) is comfortably active for this W.
    """
    N = int(N)
    if N < 1:
        raise InvalidInput(f"N must be at least 1, got {N}")
    w, C = _blaschke_points(W, N, growth_constant)
    if not math.isfinite(C) or C <= 0.0:
        raise InvalidInput(f"growth constant must be positive, got {C!r}")
    if not (w[0] >= 0.0 and np.isfinite(w).all()):
        raise InvalidInput("positions must be finite and nonnegative")
    if np.any(np.diff(w) < 0.0):
        raise InvalidInput("positions must be nondecreasing")
    n = np.arange(N + 1, dtype=float)
    slack = 1e-12 * np.maximum(1.0, C * n)
    bad = np.nonzero(w > C * n + slack)[0]
    if bad.size:
        k = int(bad[0])
        raise InvalidInput(
            f"growth bound violated: w_{k} = {float(w[k])!r} exceeds "
            f"C*n = {float(C * n[k])!r}"
        )
    z = (w - 1.0) / (w + 1.0)
    one_minus_z = 1.0 - z
    cumulative = np.cumsum(one_minus_z)
    lower_curve = 2.0 / (1.0 + C * n)
    partial_sum = float(cumulative[-1])
    lower_bound_sum = float(np.sum(lower_curve))
    if partial_sum < lower_bound_sum - 1e-9 * (N + 1):
        raise PostconditionViolation(
            "partial sum fell below its lower-bound curve despite the growth "
            "validation"
        )
    return BlaschkeReport(
        indices=np.arange(N + 1),
        w=w,
        z=z,
        one_minus_z=one_minus_z,
        cumulative=cumulative,
        lower_curve=lower_curve,
        partial_sum=partial_sum,
        lower_bound_sum=lower_bound_sum,
        growth_constant=C,
    )


# ---------------------------------------------------------------------------
# Left-tail reconstruction
# ---------------------------------------------------------------------------


def _reflect_tail(tail: TailModel) -> TailModel:
    if tail.is_none:
        return tail
    if tail.kind == "arithmetic":
        return TailModel.arithmetic(-tail.first, tail.gap)
    return TailModel.periodic(-tail.first, tail.pattern)


@dataclass(frozen=True)
class ReconstructionProblem:
    """Observed right data with m unknown particles to its left.

    `w_window` lists the observed positions (sorted increasing, first one
    at or right of 0), continued rightwards by `right_tail` when present.
    The m unknowns live strictly between `far_left_tail` (the assumed
    known continuation further left) and the first observed particle.
    `multi_start` and `rng_seed` override the solver options when set.

    A problem built by `mirrored` probes the converse direction (right
    side unknown); it is the same computation on reflected data and the
    report is reflected back, with no uniqueness claim either way.
    """

    w_window: tuple[float, ...]
    m: int
    law: ForceLaw
    right_tail: TailModel = TailModel.none()
    far_left_tail: TailModel = TailModel.none()
    multi_start: int | None = None
    rng_seed: int | None = None
    mirrored: bool = False

    def __post_init__(self) -> None:
        window = tuple(float(p) for p in self.w_window)
        object.__setattr__(self, "w_window", window)
        if not window:
            raise InvalidInput("w_window must hold at least one observed position")
        if any(b <= a for a, b in zip(window, window[1:])):
            raise InvalidInput("w_window must be strictly increasing")
        if not (window[0] >= 0.0 and all(map(math.isfinite, window))):
            raise InvalidInput("observed positions must be finite and nonnegative")
        if int(self.m) < 1:
            raise InvalidInput(f"m must be at least 1, got {self.m}")
        _check_integer("m", self.m, 1)
        object.__setattr__(self, "m", int(self.m))
        if not self.right_tail.is_none and self.right_tail.first <= window[-1]:
            raise InvalidInput("right tail must start right of the window")
        if not self.far_left_tail.is_none and self.far_left_tail.first >= window[0]:
            raise InvalidInput("far left tail must lie left of the window")
        if self.multi_start is not None:  # one Gauss-Newton solve per start
            _check_integer("multi_start", self.multi_start, 1, MAX_PARTICLES)
        if self.rng_seed is not None:
            _check_integer("rng_seed", self.rng_seed, 0)

    @classmethod
    def mirrored_problem(
        cls,
        observed,
        m: int,
        law: ForceLaw,
        observed_tail: TailModel = TailModel.none(),
        far_tail: TailModel = TailModel.none(),
        multi_start: int | None = None,
        rng_seed: int | None = None,
    ) -> "ReconstructionProblem":
        """Converse experiment: observed nonpositive data, unknowns to the right.

        Reflects through the origin into the canonical form; the report's
        clusters are reflected back by reconstruct_left_tail.
        """
        window = tuple(sorted(-float(p) for p in observed))
        return cls(
            w_window=window,
            m=m,
            law=law,
            right_tail=_reflect_tail(observed_tail),
            far_left_tail=_reflect_tail(far_tail),
            multi_start=multi_start,
            rng_seed=rng_seed,
            mirrored=True,
        )


@dataclass(frozen=True)
class ReconstructionCluster:
    center: tuple[float, ...]
    members: int
    residual: float

    def to_json_dict(self) -> dict:
        return {
            "center": list(self.center),
            "members": self.members,
            "residual": self.residual,
        }


@dataclass(frozen=True)
class ReconstructionReport:
    """Clustered multi-start outcomes; one cluster means one empirical answer.

    `equations_used` records the truncation level: how many observed
    equilibrium equations constrained the fit.
    """

    clusters: tuple[ReconstructionCluster, ...]
    starts: int
    converged_count: int
    equations_used: int
    mirrored: bool = False

    def to_json_dict(self) -> dict:
        return {
            "clusters": [c.to_json_dict() for c in self.clusters],
            "starts": self.starts,
            "converged_count": self.converged_count,
            "equations_used": self.equations_used,
        }


def _gap_bounds(problem: ReconstructionProblem) -> tuple[float, float]:
    gaps = [*np.diff(problem.w_window).tolist(), *problem.far_left_tail.gap_values(),
            *problem.right_tail.gap_values()]
    return (min(gaps), max(gaps)) if gaps else (0.5, 1.5)


def _reconstruction_system(problem: ReconstructionProblem, k: int):
    """(system, ordered, config, rows) for the fit of the m unknowns q.

    The residuals are the rightward net forces on the first k observed
    particles, rows m..m+k-1 of `_line_forces` over q followed by the
    window, with the far-left and right tails; its columns 0..m-1 are the
    analytic Jacobian, built on demand.  `ordered` holds while q is
    increasing, left of the window and right of the far-left tail (a NaN
    or infinite entry fails one of these).  `config(q)` is the LineConfig
    of q, the window and both tails, for an ordered q, whose window rows
    `rows` are the fitted equations.
    """
    m = problem.m
    window = np.array(problem.w_window)
    far, right = problem.far_left_tail, problem.right_tail
    far_first = -math.inf if far.is_none else far.first
    rows = np.arange(m, m + k)

    def system(q: np.ndarray) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
        net, jacobian = _line_forces(problem.law, np.concatenate([q, window]), rows, far, right)
        return net, lambda: jacobian()[0][:, :m]

    def ordered(q: np.ndarray) -> bool:
        return bool(q[0] > far_first and q[-1] < window[0] and _increasing(q))

    def config(q: np.ndarray) -> LineConfig:
        return _tailed_config([*q.tolist(), *problem.w_window], far, right)

    return system, ordered, config, rows


def reconstruct_left_tail(
    problem: ReconstructionProblem,
    opts: SolverOptions | None = None,
) -> ReconstructionReport:
    """Fit the m unknown left positions to the observed equilibrium equations.

    Equations are "net force vanishes" at the first k observed particles,
    k = min(m + 2, usable observations); the last observation is unusable
    when no right tail continues the data (nothing can balance its push).
    Raises InsufficientEquations when k < m.  Each start runs damped
    Gauss-Newton (Levenberg-Marquardt on J^T J, with more damping after a
    trial that breaks the order or does not lower the residuals; at most
    max_sweeps steps) from a truth-free arithmetic initialization (gaps
    drawn between the smallest and largest observed gap), down to
    min(residual_tol / 2, twice the certified rounding bound of the
    residuals at the first ordered start), so that certified starts agree
    to cluster radius.  A start counts only when solvers._certify accepts
    it on the k observed rows; the others are dropped, not fatal.  The
    certified solutions are visited in order of (Gauss-Newton residual,
    position) and each joins the first cluster whose center lies within
    max(position_tol, 1e-11) of it in the max norm, or opens a new one;
    converged_count is their number.  Clusters are reported by member count
    (most first), then residual, then center.
    """
    opts = opts or SolverOptions()
    m = problem.m
    available = len(problem.w_window) - (1 if problem.right_tail.is_none else 0)
    k = min(m + 2, available)
    if k < m:
        raise InsufficientEquations(
            f"{available} usable equilibrium equations cannot pin {m} unknowns")
    starts = problem.multi_start if problem.multi_start is not None else opts.multi_start
    rng = np.random.default_rng(opts.rng_seed if problem.rng_seed is None else problem.rng_seed)
    lo, hi = _gap_bounds(problem)
    system, ordered, config, rows = _reconstruction_system(problem, k)
    gap_draws = [np.full(m, 0.5 * (lo + hi))]
    gap_draws += [rng.uniform(lo, hi, size=m) for _ in range(starts - 1)]
    q_starts = [problem.w_window[0] - np.cumsum(gs)[::-1] for gs in gap_draws]
    # Iterate down to twice the certified rounding bound of the residuals,
    # taken once at the first ordered start: a lower target is noise.
    first = next(filter(ordered, q_starts), None)
    bound = math.inf if first is None else residual_report(
        config(first), problem.law, 1e-13, indices=rows).max_error_bound
    exit_tol = min(0.5 * opts.residual_tol, 2.0 * bound)

    def solve(q0: np.ndarray) -> tuple[np.ndarray, float] | None:
        if not ordered(q0):
            return None
        q, r, steps, _, stop = _ordered_newton(system, q0, ordered, opts.max_sweeps, exit_tol)
        try:
            _certify(config(q), problem.law, rows, opts.residual_tol, "reconstruction start",
                     tuple(q.tolist()), steps, stop)
        except NoConvergence:
            return None
        return q, float(np.max(np.abs(r)))

    found = _multi_start(
        q_starts, solve, max(opts.position_tol, 1e-11), order=lambda s: (s[1], tuple(s[0]))
    )
    found.sort(key=lambda cl: (-cl[1], cl[2], tuple(cl[0])))
    clusters = tuple(
        ReconstructionCluster(
            center=tuple(sorted((-center).tolist()) if problem.mirrored else center.tolist()),
            members=members,
            residual=res,
        )
        for center, members, res in found
    )
    return ReconstructionReport(
        clusters=clusters,
        starts=starts,
        converged_count=sum(members for _, members, _ in found),
        equations_used=k,
        mirrored=problem.mirrored,
    )
