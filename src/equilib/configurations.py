"""Particle configurations on the real line and on the circle.

A line configuration is a finite, strictly increasing window of positions
plus an optional tail model on each side describing infinitely many further
particles (an arithmetic progression, or a repeating gap pattern).  Gap
bounds c <= gap <= C are part of the data: uniform discreteness and uniform
boundedness are standing assumptions for everything downstream, so they are
enforced at construction time for every gap, including the gaps implied by
tails and the window-tail junctions.

A circle configuration is a strictly increasing list of angles in [0, 2*pi)
on the circle of circumference 2*pi; distances are geodesic (shorter arc).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidInput, _below, _check_integer, _real, _reals

__all__ = [
    "TWO_PI",
    "TailModel",
    "LineConfig",
    "CircleConfig",
    "ExtremalGaps",
    "gaps",
    "extremal_gaps",
    "canonicalize_circle",
    "config_to_json",
    "config_from_json",
    "config_to_csv",
]

TWO_PI = 2.0 * math.pi
# pi, 2*pi and 0 as read-only 0-d operands: numpy converts a Python float operand per call.
_PI, _TWO_PI, _ZERO = (np.broadcast_to(v, ()) for v in (math.pi, TWO_PI, 0.0))


def _check_finite(values: Sequence[float], label: str) -> None:
    if not all(map(math.isfinite, values)):
        raise InvalidInput(f"{label} must be finite")


@dataclass(frozen=True)
class TailModel:
    """One-sided model of infinitely many particles beyond the window.

    kind "none":        no particles beyond the window on that side.
    kind "arithmetic":  particles at first, first ± gap, first ± 2*gap, ...
    kind "periodic":    particles starting at anchor with the given gap
                        pattern repeating outward.

    "Outward" means away from the window: a left tail extends toward
    -infinity, a right tail toward +infinity.  The anchor/first position is
    itself a particle (the tail particle nearest the window).
    """

    kind: str
    first: float = 0.0
    gap: float = 0.0
    pattern: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind == "none":
            return
        if self.kind == "arithmetic":
            _check_finite((self.first, self.gap), "tail parameters")
            if self.gap <= 0.0:
                raise InvalidInput(f"tail gap must be positive, got {self.gap!r}")
            return
        if self.kind == "periodic":
            pattern = tuple(float(g) for g in self.pattern)
            _check_finite((self.first, *pattern), "tail parameters")
            if not pattern:
                raise InvalidInput("periodic tail needs a nonempty gap pattern")
            if any(g <= 0.0 for g in pattern):
                raise InvalidInput("periodic tail gaps must be positive")
            object.__setattr__(self, "pattern", pattern)
            return
        raise InvalidInput(f"unknown tail kind {self.kind!r}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def none(cls) -> "TailModel":
        return cls("none")

    @classmethod
    def arithmetic(cls, first: float, gap: float) -> "TailModel":
        return cls("arithmetic", first=float(first), gap=float(gap))

    @classmethod
    def periodic(cls, anchor: float, pattern: Sequence[float]) -> "TailModel":
        return cls("periodic", first=float(anchor), pattern=tuple(pattern))

    # -- queries ------------------------------------------------------------

    @property
    def is_none(self) -> bool:
        return self.kind == "none"

    def gap_values(self) -> tuple[float, ...]:
        if self.kind == "arithmetic":
            return (self.gap,)
        if self.kind == "periodic":
            return self.pattern
        return ()

    def positions(self, side: str, count: int) -> np.ndarray:
        """First `count` tail particle positions, nearest-to-window first."""
        if self.is_none or count <= 0:
            return np.empty(0)
        sign = -1.0 if side == "left" else 1.0
        if self.kind == "arithmetic":
            return self.first + sign * self.gap * np.arange(count, dtype=float)
        pattern = np.array(self.pattern, dtype=float)
        reps = -(-count // len(pattern))  # ceil division
        steps = np.concatenate([[0.0], np.cumsum(np.tile(pattern, reps))])[:count]
        return self.first + sign * steps

    def progressions(self, x, side: str) -> list[tuple]:
        """Decompose distances from x to all tail particles into arithmetic runs.

        Returns (start_distance, stride) pairs; a periodic tail with a
        p-gap pattern yields p interleaved runs with stride = pattern sum.
        `x` may be a float or an array of positions, and each start then has
        its shape.  Requires x on the window side of the tail (all distances
        positive).
        """
        if self.is_none:
            return []
        if self.kind == "arithmetic":
            return [(abs(self.first - x), self.gap)]
        # Correctly rounded offsets keep each start within three roundings.
        period = math.fsum(self.pattern)
        near = abs(self.first - x)
        return [(near + math.fsum(self.pattern[:m]), period) for m in range(len(self.pattern))]

    def to_json_dict(self) -> dict:
        if self.kind == "none":
            return {"kind": "none"}
        if self.kind == "arithmetic":
            return {"kind": "arithmetic", "first": self.first, "gap": self.gap}
        return {"kind": "periodic", "anchor": self.first, "pattern": list(self.pattern)}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TailModel":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise InvalidInput("tail: expected an object with a kind")
        kind = obj["kind"]
        if kind == "none":
            return cls.none()
        if kind == "arithmetic":
            for key in ("first", "gap"):
                if key not in obj:
                    raise InvalidInput(f"tail.{key}: required")
            return cls.arithmetic(_real(obj["first"], "tail.first"), _real(obj["gap"], "tail.gap"))
        if kind == "periodic":
            for key in ("anchor", "pattern"):
                if key not in obj:
                    raise InvalidInput(f"tail.{key}: required")
            return cls.periodic(_real(obj["anchor"], "tail.anchor"),
                                _reals(obj["pattern"], "tail.pattern"))
        raise InvalidInput(f"tail.kind: unknown kind {kind!r}")


@dataclass(frozen=True)
class LineConfig:
    """Window of positions plus tail models and gap bounds [c, C]."""

    window: tuple[float, ...]
    left_tail: TailModel = field(default_factory=TailModel.none)
    right_tail: TailModel = field(default_factory=TailModel.none)
    c: float = 1.0
    C: float = 1.0

    def __post_init__(self) -> None:
        window = tuple(map(float, self.window))
        if not window:
            raise InvalidInput("window must contain at least one particle")
        _check_finite(window, "window positions")
        object.__setattr__(self, "window", window)
        if not (math.isfinite(self.c) and math.isfinite(self.C)):
            raise InvalidInput("gap bounds must be finite")
        if self.c <= 0.0 or self.C < self.c:
            raise InvalidInput(
                f"gap bounds must satisfy 0 < c <= C, got c={self.c!r} C={self.C!r}"
            )
        slack = 1e-12 * max(1.0, abs(self.c), abs(self.C))
        lo, hi = self.c - slack, self.C + slack
        gaps = _line_gaps(window, self.left_tail, self.right_tail)[0]
        if gaps and (min(gaps) < lo or max(gaps) > hi):  # then name the first gap outside
            g = next(g for g in gaps if g < lo or g > hi)
            raise InvalidInput(f"gap {g!r} outside declared bounds [{self.c!r}, {self.C!r}]")

    # -- constructors -------------------------------------------------------

    @classmethod
    def finite(cls, window: Sequence[float]) -> "LineConfig":
        """Configuration of `window` alone, without tails, whose [c, C] are
        its own smallest and largest gaps (1 and 1 for a single particle)."""
        return _own_bounds_config(window)

    @classmethod
    def trivial(
        cls, gap: float, n_window: int, center: float = 0.0, tails: bool = True
    ) -> "LineConfig":
        """Arithmetic progression: n_window particles plus matching tails."""
        gap = float(gap)
        if gap <= 0.0 or _below(n_window, 1):
            raise InvalidInput("trivial configuration needs gap > 0 and n >= 1")
        _check_integer("n_window", n_window, 1)
        half = (n_window - 1) / 2.0
        window = tuple(center + gap * (i - half) for i in range(n_window))
        if not tails:
            return cls(window, TailModel.none(), TailModel.none(), gap, gap)
        left = TailModel.arithmetic(window[0] - gap, gap)
        right = TailModel.arithmetic(window[-1] + gap, gap)
        return cls(window, left, right, gap, gap)

    # -- queries ------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.window)

    def window_gaps(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in zip(self.window, self.window[1:]))

    def junction_gap(self, side: str) -> float | None:
        tail = self.left_tail if side == "left" else self.right_tail
        if tail.is_none:
            return None
        if side == "left":
            return self.window[0] - tail.first
        return tail.first - self.window[-1]

    def to_json_dict(self) -> dict:
        return {
            "window": list(self.window),
            "left_tail": self.left_tail.to_json_dict(),
            "right_tail": self.right_tail.to_json_dict(),
            "c": self.c,
            "C": self.C,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "LineConfig":
        if not isinstance(obj, dict):
            raise InvalidInput("config: expected an object")
        if "window" not in obj:
            raise InvalidInput("config.window: required")
        window = obj["window"]
        if not isinstance(window, list) or not window:
            raise InvalidInput("config.window: expected a nonempty array")
        window = _reals(window, "config.window")
        left = TailModel.from_json_dict(obj.get("left_tail", {"kind": "none"}))
        right = TailModel.from_json_dict(obj.get("right_tail", {"kind": "none"}))
        if "c" in obj and "C" in obj:
            return cls(tuple(window), left, right, _real(obj["c"], "config.c"),
                       _real(obj["C"], "config.C"))
        if left.is_none and right.is_none:
            return cls.finite(window)
        raise InvalidInput("config.c and config.C: required when tails are present")


@dataclass(frozen=True)
class CircleConfig:
    """n >= 2 particles on the circle of circumference 2*pi."""

    angles: tuple[float, ...]

    def __post_init__(self) -> None:
        angles = tuple(map(float, self.angles))
        if len(angles) < 2:
            raise InvalidInput("circle configuration needs at least two particles")
        _check_finite(angles, "angles")
        if angles[0] < 0.0 or angles[-1] >= TWO_PI:
            raise InvalidInput("angles must lie in [0, 2*pi)")
        if not all(map(operator.lt, angles, angles[1:])):  # finite: not a < b exactly when b <= a
            raise InvalidInput("angles must be strictly increasing")
        object.__setattr__(self, "angles", angles)

    @property
    def n(self) -> int:
        return len(self.angles)

    def arc_gaps(self) -> tuple[float, ...]:
        wrap = TWO_PI - self.angles[-1] + self.angles[0]
        return tuple(b - a for a, b in zip(self.angles, self.angles[1:])) + (wrap,)

    def to_json_dict(self) -> dict:
        return {"angles": list(self.angles)}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "CircleConfig":
        if not isinstance(obj, dict) or "angles" not in obj:
            raise InvalidInput("config.angles: required")
        return cls(tuple(_reals(obj["angles"], "config.angles")))


# ---------------------------------------------------------------------------
# Gap analysis
# ---------------------------------------------------------------------------


def gaps(config: LineConfig | CircleConfig) -> tuple[float, ...]:
    """Ordered gap list: window gaps for a line, cyclic arcs for a circle.

    Circle gaps include the wrap-around arc, so they sum to 2*pi.
    """
    if isinstance(config, CircleConfig):
        return config.arc_gaps()
    return config.window_gaps()


@dataclass(frozen=True)
class ExtremalGaps:
    """Largest and smallest gaps of a configuration, with tie index sets.

    Values are taken over every gap in the configuration (window, junction
    and tail-pattern gaps for a line; cyclic arcs for a circle); the index
    lists refer to window (resp. cyclic) gap positions only, so an extremum
    realized only inside a tail yields an empty index list and the matching
    `*_in_tail` flag.  A strictness flag is true iff some occurrence of the
    extremal gap has an adjacent gap strictly smaller (for the maximum),
    resp. strictly larger (for the minimum); both hold exactly when the gaps
    are not all equal.
    """

    max_value: float
    min_value: float
    max_indices: tuple[int, ...]
    min_indices: tuple[int, ...]
    max_strict: bool
    min_strict: bool
    max_in_tail: bool = False
    min_in_tail: bool = False

    def to_json_dict(self) -> dict:
        return {
            "max_value": self.max_value,
            "min_value": self.min_value,
            "max_indices": list(self.max_indices),
            "min_indices": list(self.min_indices),
            "max_strict": self.max_strict,
            "min_strict": self.min_strict,
            "max_in_tail": self.max_in_tail,
            "min_in_tail": self.min_in_tail,
        }


def _line_gaps(window: tuple[float, ...], left_tail: TailModel, right_tail: TailModel,
               periods: int = 1) -> tuple[list[float], int]:
    """A line configuration's gaps from left to right, and the index of window
    gap 0: the left tail's pattern `periods` times (outermost first) and its
    junction, the window gaps, then the right junction and pattern.  One
    period lists every gap value; two also every adjacent pair a tail
    realizes.  Raises InvalidInput for a window that is not strictly
    increasing or a tail that overlaps it."""
    gaps = list(map(operator.sub, window[1:], window))
    if any(map((0.0).__ge__, gaps)):  # some gap <= 0; a NaN gap is none
        raise InvalidInput("window positions must be strictly increasing")
    outward = {"left": [], "right": []}  # junction first, then the pattern
    for side, tail in (("left", left_tail), ("right", right_tail)):
        if tail.is_none:
            continue
        junction = window[0] - tail.first if side == "left" else tail.first - window[-1]
        if junction <= 0.0:
            raise InvalidInput(f"{side} tail overlaps the window")
        outward[side] = [junction, *tail.gap_values() * periods]
    return outward["left"][::-1] + gaps + outward["right"], len(outward["left"])


def _own_bounds_config(window: Sequence[float], left_tail: TailModel = TailModel.none(),
                       right_tail: TailModel = TailModel.none()) -> LineConfig:
    """The LineConfig of window and tails whose [c, C] are its own smallest
    and largest gaps: window, junction and tail gaps (1 and 1 if none)."""
    window = tuple(map(float, window))
    gaps = _line_gaps(window, left_tail, right_tail)[0]
    return LineConfig(window, left_tail, right_tail, min(gaps, default=1.0),
                      max(gaps, default=1.0))


def extremal_gaps(config: LineConfig | CircleConfig) -> ExtremalGaps:
    """Locate maximal and minimal gaps and report strict-neighbor flags."""
    if isinstance(config, CircleConfig):
        seq, offset, n_window = list(config.arc_gaps()), 0, config.n
    else:
        seq, offset = _line_gaps(config.window, config.left_tail, config.right_tail, periods=2)
        n_window = config.n - 1
        if not seq:
            raise InvalidInput("configuration has no gaps")
    hi, lo = max(seq), min(seq)
    # A run of maximal (minimal) gaps short of the whole list ends next to a
    # smaller (larger) gap, on the line and on the circle.
    strict = lo < hi
    window_slice = seq[offset : offset + n_window]
    max_indices = tuple(i for i, g in enumerate(window_slice) if g == hi)
    min_indices = tuple(i for i, g in enumerate(window_slice) if g == lo)
    return ExtremalGaps(
        max_value=hi,
        min_value=lo,
        max_indices=max_indices,
        min_indices=min_indices,
        max_strict=strict,
        min_strict=strict,
        max_in_tail=not max_indices,
        min_in_tail=not min_indices,
    )


def canonicalize_circle(config: CircleConfig) -> CircleConfig:
    """Rotate so the first particle sits at angle 0.

    Canonical forms are equal exactly when the configurations differ by a
    rotation that maps first particle to first particle; the arc multiset
    is preserved.  Idempotent.
    """
    a0 = config.angles[0]
    if a0 == 0.0:
        return config
    return CircleConfig(tuple(a - a0 for a in config.angles))


# ---------------------------------------------------------------------------
# Serialization helpers shared by the CLI
# ---------------------------------------------------------------------------


def config_to_json(config: LineConfig | CircleConfig) -> dict:
    return config.to_json_dict()


def config_from_json(obj: dict) -> LineConfig | CircleConfig:
    if isinstance(obj, dict) and "angles" in obj:
        return CircleConfig.from_json_dict(obj)
    return LineConfig.from_json_dict(obj)


def config_to_csv(config: LineConfig | CircleConfig) -> str:
    """One row per window particle: index and position (line) or angle."""
    circle = isinstance(config, CircleConfig)
    name, values = ("angle", config.angles) if circle else ("position", config.window)
    lines = [f"index,{name}"] + [f"{i},{v!r}" for i, v in enumerate(values)]
    return "\n".join(lines) + "\n"
