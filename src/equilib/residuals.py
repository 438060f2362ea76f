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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .configurations import TWO_PI, CircleConfig, LineConfig, TailModel
from .errors import DomainError, InvalidInput
from .force_laws import ForceLaw, _certified_forces, force_sum_arithmetic

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

_EPS = math.ulp(1.0) / 2
# An arc is a difference of angles in [0, 2pi), reduced mod 2pi: its error
# is absolute, about one ulp of 2pi, not relative to the arc.
_ARC_ERR = 2.0 * math.ulp(TWO_PI)

# Pair distances per block of rows in the certified line path, so memory
# stays O(block) however long the window is.
_BLOCK_PAIRS = 1 << 16


@dataclass(frozen=True)
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
            lines.append(
                f"{r.index},{r.f_minus!r},{r.f_plus!r},{r.net!r},{r.error_bound!r}"
            )
        return "\n".join(lines) + "\n"


def _tail_sums(
    law: ForceLaw, x: np.ndarray, tail: TailModel | None, side: str, tol: float
) -> tuple[list[list[float]], np.ndarray | float]:
    """Tail sums on one side of every position in x, in one call per run.

    Returns each position's run values and the summed bounds; the runs
    share `tol` as their truncation budget.
    """
    if tail is None or tail.is_none:
        return [[] for _ in range(len(x))], 0.0
    runs = tail.progressions(x, side)
    sums = [force_sum_arithmetic(law, start, stride, tol / len(runs)) for start, stride in runs]
    values = np.array([v for v, _ in sums]).T.tolist()
    return values, sum(e for _, e in sums)


def _certified_rows(
    law: ForceLaw,
    x: np.ndarray,
    sources: np.ndarray,
    left_tail: TailModel | None,
    right_tail: TailModel | None,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Certified (f_minus, f_plus, net, error_bound) felt at each position x.

    `sources` are ascending explicit positions; an entry equal to a target
    is the target's own and is skipped.  Rows are evaluated in blocks of
    about _BLOCK_PAIRS pair distances.
    """
    left_vals, left_err = _tail_sums(law, x, left_tail, "left", tol)
    right_vals, right_err = _tail_sums(law, x, right_tail, "right", tol)
    lo = sources.searchsorted(x, "left")
    hi = sources.searchsorted(x, "right")
    lo_at, hi_at = lo.tolist(), hi.tolist()
    cols = np.arange(len(sources))
    f_minus = np.empty(len(x))
    f_plus = np.empty(len(x))
    slop = np.empty(len(x))
    step = max(1, _BLOCK_PAIRS // max(1, len(sources)))
    for b in range(0, len(x), step):
        blk = slice(b, b + step)
        dist = np.abs(sources[None, :] - x[blk, None])
        other = (cols < lo[blk, None]) | (cols >= hi[blk, None])
        F = np.zeros(dist.shape)
        allowance = np.zeros(dist.shape)
        F[other], allowance[other] = _certified_forces(law, dist[other])
        slop[blk] = allowance.sum(axis=1)
        for r, row in enumerate(F.tolist(), start=b):
            f_minus[r] = math.fsum(row[: lo_at[r]] + left_vals[r])
            f_plus[r] = math.fsum(row[hi_at[r] :] + right_vals[r])
    net = f_plus - f_minus
    err = slop + left_err + right_err + _EPS * (np.abs(f_minus) + np.abs(f_plus) + np.abs(net))
    return f_minus, f_plus, net, err


def _require_line(config: LineConfig, what: str) -> np.ndarray:
    if not isinstance(config, LineConfig):
        raise InvalidInput(f"{what} expects a line configuration")
    return np.array(config.window)


def side_forces(
    config: LineConfig,
    index: int,
    law: ForceLaw,
    tolerance: float = 1e-12,
) -> tuple[float, float, float]:
    """Side sums (F_minus, F_plus, error_bound) for window particle `index`.

    The same routine and numbers as row `index` of residual_report.
    """
    window = _require_line(config, "side_forces")
    if not 0 <= index < config.n:
        raise InvalidInput(f"index {index} out of range for window of {config.n}")
    f_minus, f_plus, _, err = _certified_rows(
        law, window[index : index + 1], window, config.left_tail, config.right_tail, tolerance
    )
    return float(f_minus[0]), float(f_plus[0]), float(err[0])


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
    window = _require_line(config, "residual_report")
    if not 0.0 <= tolerance < math.inf:  # NaN fails as well
        raise InvalidInput(f"tolerance must be finite and nonnegative, got {tolerance!r}")
    index = np.arange(config.n) if indices is None else np.asarray(indices)
    if not (index.dtype.kind in "iu" and index.ndim == 1 and index.size and 0 <= index[0]
            and index[-1] < config.n and (index[1:] > index[:-1]).all()):
        raise InvalidInput(f"indices must be increasing window indices, got {indices!r}")
    columns = _certified_rows(
        law, window[index], window, config.left_tail, config.right_tail, tolerance
    )
    values = zip(*(c.tolist() for c in columns))
    rows = tuple(ParticleResidual(i, *row) for i, row in zip(index.tolist(), values))
    return ResidualReport(
        rows=rows,
        max_abs_net=max(abs(r.net) for r in rows),
        max_error_bound=max(r.error_bound for r in rows),
        tolerance=tolerance,
        geometry="line",
    )


def circle_residual_report(config: CircleConfig, law: ForceLaw) -> ResidualReport:
    """Tangential net force per particle, counterclockwise positive.

    Each row's bound is the sum of its pair bounds, with a distance error
    of 2 ulp(2 pi) per arc, plus u(|f_minus| + |f_plus| + |net|) for the
    two fsums and the subtraction.  f_minus collects the
    counterclockwise-pushing magnitudes (sources behind the particle),
    f_plus the clockwise-pushing ones; net = f_minus - f_plus.  A source at
    counterclockwise angle delta from the particle sits at arc distance
    min(delta, 2*pi - delta); it is ahead (pushes clockwise) when delta < pi,
    and contributes nothing within ANTIPODAL_BAND of arc pi.
    """
    if not isinstance(config, CircleConfig):
        raise InvalidInput("circle_residual_report expects a circle configuration")
    angles = np.array(config.angles)
    delta = (angles - angles[:, None]) % TWO_PI
    arc = np.minimum(delta, TWO_PI - delta)
    counted = np.abs(arc - math.pi) > ANTIPODAL_BAND
    counted.ravel()[:: len(angles) + 1] = False
    distances = arc[counted]
    if (distances <= 0.0).any():
        raise DomainError("coincident particles on the circle")
    F = np.zeros_like(arc)
    allowance = np.zeros_like(arc)
    F[counted], allowance[counted] = _certified_forces(law, distances, _ARC_ERR)
    ahead = delta < math.pi
    f_minus = [math.fsum(row) for row in np.where(ahead, 0.0, F).tolist()]
    f_plus = [math.fsum(row) for row in np.where(ahead, F, 0.0).tolist()]
    slop = allowance.sum(axis=1).tolist()
    rows = tuple(
        ParticleResidual(i, fm, fp, fm - fp, s + _EPS * (abs(fm) + abs(fp) + abs(fm - fp)))
        for i, (fm, fp, s) in enumerate(zip(f_minus, f_plus, slop))
    )
    return ResidualReport(
        rows=rows,
        max_abs_net=max(abs(r.net) for r in rows),
        max_error_bound=max(r.error_bound for r in rows),
        tolerance=0.0,
        geometry="circle",
    )
