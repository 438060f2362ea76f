"""Equilibrium residuals: net forces with certified error bounds.

For a line configuration the force on a particle splits into the side sums
F_minus (from particles to its left) and F_plus (from the right).  A report
is one pass over the window: a block of rows of pair distances, one
`force_array` and one `force_derivative_array` call per block, and one
elementwise `force_sum_arithmetic` call per tail run for all particles at
once.  Each side is summed with `math.fsum` (window terms and tail sums
together), so the result is correctly rounded and independent of order.

The bound covers everything separating the reported float from the exact
infinite sum of the float positions.  Each pair term carries the one
per-term rule of `force_laws._certified_forces`, u(4F + 3d|F'|) + ulp(0)
+ |F'| d_err with u = 2**-53: a few ulps of F, the condition number
kappa(d) = d|F'(d)|/F(d) times the rounding of d and of d**k inside F
(large for exp(-d**k) far out), one subnormal ulp in case F underflows,
and |F'| times the error d_err of the distance beyond its last rounding.
On the line d_err is 0; on the circle it is 2 ulp(2 pi), since an arc is
a difference of angles in [0, 2 pi).  Each tail run adds its closed-form
or truncation bound, each side u times itself for the fsum rounding, and
the net u|net| for the final subtraction.

Reported line `net` is F_plus - F_minus (the wire-format convention; the
physical rightward force is the negation).  Circle reports use the
tangential force with counterclockwise positive; a particle exactly
antipodal to the target has no well-defined push direction and
contributes zero, applied within a small angular band so the rule is
reachable in floating point.

A report's max_abs_net and max_error_bound are the maxima over its rows;
a NaN net or bound in any row makes that maximum NaN, so such a report is
never in equilibrium.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .configurations import _PI, _TWO_PI, _ZERO, TWO_PI, CircleConfig, LineConfig, TailModel
from .errors import _NOT_REAL, DomainError, InvalidInput, _real
from .force_laws import _EPS, ForceLaw, _certified_forces, _exact_sum, force_sum_arithmetic

__all__ = [
    "ANTIPODAL_BAND",
    "ParticleResidual",
    "ResidualReport",
    "side_forces",
    "residual_report",
    "circle_residual_report",
]

# Pairs within this arc distance of exact antipodality are treated as
# antipodal (zero tangential contribution).  Solvers place symmetric pairs
# far more accurately than this, and random configurations essentially
# never land inside the band.
ANTIPODAL_BAND = 5e-9

# An arc is a difference of angles in [0, 2pi), reduced mod 2pi: its error
# is absolute, about one ulp of 2pi, not relative to the arc.
_ARC_ERR = 2.0 * math.ulp(TWO_PI)

# Pair distances per block of rows in the certified line path, so memory
# stays O(block) however long the window is.
_BLOCK_PAIRS = 1 << 16


@dataclass(frozen=True, slots=True)
class ParticleResidual:
    """Side forces and net residual for one particle.

    `net` is f_plus - f_minus on the line and the counterclockwise-positive
    tangential force on the circle.  `error_bound` bounds |net - exact|.
    """

    index: int
    f_minus: float
    f_plus: float
    net: float
    error_bound: float

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "f_minus": self.f_minus,
            "f_plus": self.f_plus,
            "net": self.net,
            "error_bound": self.error_bound,
        }


@dataclass(frozen=True)
class ResidualReport:
    """Per-particle residual rows plus their maxima."""

    rows: tuple[ParticleResidual, ...]
    max_abs_net: float
    max_error_bound: float
    tolerance: float
    geometry: str

    def in_equilibrium(self, tol: float | None = None) -> bool:
        """True when max |net| <= tol + max error bound and that bound is finite."""
        if tol is None:
            tol = self.tolerance
        return self.max_error_bound < math.inf and self.max_abs_net <= tol + self.max_error_bound

    def to_json_dict(self) -> dict:
        return {
            "geometry": self.geometry,
            "tolerance": self.tolerance,
            "max_abs_net": self.max_abs_net,
            "max_error_bound": self.max_error_bound,
            "in_equilibrium": self.in_equilibrium(),
            "rows": [r.to_json_dict() for r in self.rows],
        }

    def to_csv(self) -> str:
        lines = ["index,f_minus,f_plus,net,error_bound"]
        for r in self.rows:
            lines.append(f"{r.index},{r.f_minus!r},{r.f_plus!r},{r.net!r},{r.error_bound!r}")
        return "\n".join(lines) + "\n"


def _report(index, columns, tolerance: float, geometry: str) -> ResidualReport:
    """Rows from row indices and the lists (f_minus, f_plus, net, error_bound);
    a maximum is NaN when any of its values is (a bare max skips a later NaN)."""
    rows = tuple(map(ParticleResidual, index, *columns))
    maxima = []
    for column in (list(map(abs, columns[2])), columns[3]):
        maxima.append(math.nan if any(map(math.isnan, column)) else max(column))
    return ResidualReport(rows, *maxima, tolerance, geometry)


def _tail_sums(
    law: ForceLaw, x: np.ndarray, tail: TailModel | None, side: str, tol: float
) -> tuple[list[list[float]], list[float]]:
    """Tail sums on one side of every position in x, in one call per run.

    Returns each position's run values and the sum of its run bounds; the
    runs share `tol` as their truncation budget.
    """
    if tail is None or tail.is_none:
        return [[]] * len(x), [0.0] * len(x)
    runs = tail.progressions(x, side)
    values, bounds = zip(*[force_sum_arithmetic(law, start, stride, tol / len(runs))
                           for start, stride in runs])
    return np.array(values).T.tolist(), sum(bounds[1:], bounds[0]).tolist()


@np.errstate(over="ignore", invalid="ignore")
def _certified_rows(
    law: ForceLaw,
    x: np.ndarray,
    sources: np.ndarray,
    left_tail: TailModel | None,
    right_tail: TailModel | None,
    tol: float,
) -> tuple[list[float], list[float], list[float], list[float]]:
    """Certified (f_minus, f_plus, net, error_bound) felt at each position x.

    `sources` are ascending explicit positions; an entry equal to a target
    is the target's own and is skipped.  Rows are evaluated in blocks of
    about _BLOCK_PAIRS pair distances and finished as Python floats, in the
    order of the elementwise numpy expressions they stand for.  A force or
    a side sum that overflows (a gap below about 1e-154 under 1/d**2) comes
    back quietly as inf or NaN, which the report maxima carry.
    """
    left_vals, left_err = _tail_sums(law, x, left_tail, "left", tol)
    right_vals, right_err = _tail_sums(law, x, right_tail, "right", tol)
    lo = sources.searchsorted(x, "left")
    hi = sources.searchsorted(x, "right")
    lo_at, hi_at = lo.tolist(), hi.tolist()
    cols = np.arange(len(sources))
    f_minus, f_plus, slop = [], [], []
    step = max(1, _BLOCK_PAIRS // max(1, len(sources)))
    for b in range(0, len(x), step):
        blk = slice(b, b + step)
        dist = np.abs(sources - x[blk, None])
        other = (cols < lo[blk, None]) | (cols >= hi[blk, None])
        F = np.zeros(dist.shape)
        allowance = np.zeros(dist.shape)
        F[other], allowance[other] = _certified_forces(law, dist[other])
        slop += np.add.reduce(allowance, axis=1).tolist()
        for r, row in enumerate(F.tolist(), start=b):
            f_minus.append(_exact_sum(row[: lo_at[r]] + left_vals[r]))
            f_plus.append(_exact_sum(row[hi_at[r] :] + right_vals[r]))
    net = list(map(operator.sub, f_plus, f_minus))
    err = [s + le + re + _EPS * (abs(fm) + abs(fp) + abs(d))
           for s, le, re, fm, fp, d in zip(slop, left_err, right_err, f_minus, f_plus, net)]
    return f_minus, f_plus, net, err


def side_forces(
    config: LineConfig,
    index: int,
    law: ForceLaw,
    tolerance: float = 1e-12,
) -> tuple[float, float, float]:
    """Side sums (F_minus, F_plus, error_bound) for window particle `index`:
    row `index` of residual_report, whose checks (an integer index in the
    window, a finite nonnegative tolerance) it shares."""
    row = residual_report(config, law, tolerance, indices=[index]).rows[0]
    return row.f_minus, row.f_plus, row.error_bound


def residual_report(
    config: LineConfig,
    law: ForceLaw,
    tolerance: float = 1e-12,
    indices: Sequence[int] | None = None,
) -> ResidualReport:
    """Residual rows for the window particles of a line configuration: all
    of them, or only the increasing window `indices`, each bit-identical to
    its row of the full report (maxima over the returned rows).  The
    tail-sum budget `tolerance` must be finite and nonnegative."""
    if not isinstance(config, LineConfig):
        raise InvalidInput("residual_report expects a line configuration")
    try:  # a valid call pays no more than the conversion
        tolerance = float(tolerance)
    except _NOT_REAL:
        tolerance = _real(tolerance, "tolerance")  # raises
    if not 0.0 <= tolerance < math.inf:  # NaN fails as well
        raise InvalidInput(f"tolerance must be finite and nonnegative, got {tolerance!r}")
    index = np.arange(config.n) if indices is None else np.asarray(indices)
    at = index.tolist()
    if not (index.dtype.kind in "iu" and index.ndim == 1 and at and 0 <= at[0]
            and at[-1] < config.n and all(map(operator.lt, at, at[1:]))):
        raise InvalidInput(f"indices must be increasing window indices, got {indices!r}")
    window = np.array(config.window)
    columns = _certified_rows(law, window[index], window, config.left_tail, config.right_tail,
                              tolerance)
    return _report(at, columns, tolerance, "line")


_LOWER_TWO_PI = np.zeros((0, 0))  # read-only 2*pi below the diagonal, for the largest n seen


def _ccw_offsets(angles: np.ndarray) -> np.ndarray:
    """(angles - angles[:, None]) % TWO_PI bit for bit, for angles increasing in [0, 2*pi),
    where the mod adds 2*pi to the negative differences below the diagonal, keeps the rest;
    the 2*pi come from a corner of one kept block, so a pass through many n builds it once."""
    global _LOWER_TWO_PI
    n, lower = len(angles), _LOWER_TWO_PI
    if len(lower) < n:
        lower = np.tri(n, k=-1) * TWO_PI
        lower.flags.writeable = False
        if n <= 1024:  # up to the solvers' MAX_PARTICLES (8 MB); a larger report's is not kept
            _LOWER_TWO_PI = lower
    offsets = angles - angles[:, None]
    offsets += lower[:n, :n]
    return offsets


@np.errstate(over="ignore", invalid="ignore")  # as in _certified_rows
def circle_residual_report(config: CircleConfig, law: ForceLaw) -> ResidualReport:
    """Tangential net force per particle, counterclockwise positive.

    Each row's bound is the sum of its pair bounds, with a distance error
    of 2 ulp(2 pi) per arc, plus u(|f_minus| + |f_plus| + |net|) for the
    two fsums and the subtraction.  f_minus collects the
    counterclockwise-pushing magnitudes (sources behind the particle),
    f_plus the clockwise-pushing ones; net = f_minus - f_plus.  A source at
    counterclockwise angle delta from the particle sits at arc distance
    min(delta, 2*pi - delta); it is ahead (pushes clockwise) when delta < pi,
    and contributes nothing within ANTIPODAL_BAND of arc pi.  A CircleConfig's
    angles increase strictly in [0, 2*pi), which _ccw_offsets requires.
    """
    if not isinstance(config, CircleConfig):
        raise InvalidInput("circle_residual_report expects a circle configuration")
    delta = _ccw_offsets(np.array(config.angles))
    arc = np.minimum(delta, _TWO_PI - delta)
    counted = np.abs(arc - _PI) > ANTIPODAL_BAND
    counted.ravel()[:: config.n + 1] = False
    distances = arc[counted]
    if np.minimum.reduce(distances, initial=math.inf) <= 0.0:
        raise DomainError("coincident particles on the circle")
    F, allowance = np.zeros(arc.shape), np.zeros(arc.shape)
    F[counted], allowance[counted] = _certified_forces(law, distances, _ARC_ERR)
    slop = np.add.reduce(allowance, 1).tolist()
    ahead = delta < _PI
    f_minus = list(map(_exact_sum, np.where(ahead, _ZERO, F).tolist()))
    f_plus = list(map(_exact_sum, np.where(ahead, F, _ZERO).tolist()))
    net = [fm - fp for fm, fp in zip(f_minus, f_plus)]
    err = [s + _EPS * (abs(fm) + abs(fp) + abs(d))
           for fm, fp, d, s in zip(f_minus, f_plus, net, slop)]
    return _report(range(len(net)), (f_minus, f_plus, net, err), 0.0, "circle")
