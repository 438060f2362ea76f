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
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidInput

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


def _check_finite(values: Sequence[float], label: str) -> None:
    if any(not math.isfinite(v) for v in values):
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

    def progressions(self, x: float, side: str) -> list[tuple[float, float]]:
        """Decompose distances from x to all tail particles into arithmetic runs.

        Returns (start_distance, stride) pairs; a periodic tail with a
        p-gap pattern yields p interleaved runs with stride = pattern sum.
        Requires x on the window side of the tail (all distances positive).
        """
        if self.is_none:
            return []
        sign = -1.0 if side == "left" else 1.0
        if self.kind == "arithmetic":
            return [(abs(self.first - x), self.gap)]
        period = math.fsum(self.pattern)
        offsets = [0.0]
        for g in self.pattern[:-1]:
            offsets.append(offsets[-1] + g)
        return [(abs(self.first + sign * off - x), period) for off in offsets]

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
            return cls.arithmetic(obj["first"], obj["gap"])
        if kind == "periodic":
            for key in ("anchor", "pattern"):
                if key not in obj:
                    raise InvalidInput(f"tail.{key}: required")
            return cls.periodic(obj["anchor"], obj["pattern"])
        raise InvalidInput(f"tail.kind: unknown kind {kind!r}")


def _gap_slack(c: float, C: float) -> float:
    return 1e-12 * max(1.0, abs(c), abs(C))


@dataclass(frozen=True)
class LineConfig:
    """Window of positions plus tail models and gap bounds [c, C]."""

    window: tuple[float, ...]
    left_tail: TailModel = field(default_factory=TailModel.none)
    right_tail: TailModel = field(default_factory=TailModel.none)
    c: float = 1.0
    C: float = 1.0

    def __post_init__(self) -> None:
        window = tuple(float(x) for x in self.window)
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
        slack = _gap_slack(self.c, self.C)
        diffs = [b - a for a, b in zip(window, window[1:])]
        if any(d <= 0.0 for d in diffs):
            raise InvalidInput("window positions must be strictly increasing")
        all_gaps = list(diffs)
        for side, tail in (("left", self.left_tail), ("right", self.right_tail)):
            if tail.is_none:
                continue
            if side == "left":
                junction = window[0] - tail.first
            else:
                junction = tail.first - window[-1]
            if junction <= 0.0:
                raise InvalidInput(f"{side} tail overlaps the window")
            all_gaps.append(junction)
            all_gaps.extend(tail.gap_values())
        for g in all_gaps:
            if g < self.c - slack or g > self.C + slack:
                raise InvalidInput(
                    f"gap {g!r} outside declared bounds [{self.c!r}, {self.C!r}]"
                )

    # -- constructors -------------------------------------------------------

    @classmethod
    def finite(cls, window: Sequence[float]) -> "LineConfig":
        """Finite configuration; gap bounds are taken from the window itself."""
        window = tuple(float(x) for x in window)
        if len(window) >= 2:
            diffs = [b - a for a, b in zip(window, window[1:])]
            if any(d <= 0.0 for d in diffs):
                raise InvalidInput("window positions must be strictly increasing")
            c, C = min(diffs), max(diffs)
        else:
            c, C = 1.0, 1.0
        return cls(window, TailModel.none(), TailModel.none(), c, C)

    @classmethod
    def trivial(
        cls, gap: float, n_window: int, center: float = 0.0, tails: bool = True
    ) -> "LineConfig":
        """Arithmetic progression: n_window particles plus matching tails."""
        gap = float(gap)
        if gap <= 0.0 or n_window < 1:
            raise InvalidInput("trivial configuration needs gap > 0 and n >= 1")
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
        left = TailModel.from_json_dict(obj.get("left_tail", {"kind": "none"}))
        right = TailModel.from_json_dict(obj.get("right_tail", {"kind": "none"}))
        if "c" in obj and "C" in obj:
            return cls(tuple(window), left, right, float(obj["c"]), float(obj["C"]))
        if left.is_none and right.is_none:
            return cls.finite(window)
        raise InvalidInput("config.c and config.C: required when tails are present")


@dataclass(frozen=True)
class CircleConfig:
    """n >= 2 particles on the circle of circumference 2*pi."""

    angles: tuple[float, ...]

    def __post_init__(self) -> None:
        angles = tuple(float(a) for a in self.angles)
        if len(angles) < 2:
            raise InvalidInput("circle configuration needs at least two particles")
        _check_finite(angles, "angles")
        if angles[0] < 0.0 or angles[-1] >= TWO_PI:
            raise InvalidInput("angles must lie in [0, 2*pi)")
        if any(b <= a for a, b in zip(angles, angles[1:])):
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
        return cls(tuple(obj["angles"]))


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
    resp. strictly larger (for the minimum).
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


def _extended_gap_sequence(config: LineConfig) -> tuple[list[float], int]:
    """Line gaps in left-to-right order with two tail periods per side.

    Returns (sequence, offset) where offset is the index of window gap 0.
    Two periods per side expose every adjacent pair a repeating tail can
    realize, which is all the strictness analysis needs.
    """
    seq: list[float] = []
    left = config.left_tail
    if not left.is_none:
        pattern = list(left.gap_values())
        seq.extend(reversed(pattern + pattern))
        seq.append(config.junction_gap("left"))
    offset = len(seq)
    seq.extend(config.window_gaps())
    right = config.right_tail
    if not right.is_none:
        seq.append(config.junction_gap("right"))
        pattern = list(right.gap_values())
        seq.extend(pattern + pattern)
    return seq, offset


def extremal_gaps(config: LineConfig | CircleConfig) -> ExtremalGaps:
    """Locate maximal and minimal gaps and report strict-neighbor flags."""
    if isinstance(config, CircleConfig):
        seq = list(config.arc_gaps())
        cyclic = True
        offset, n_window = 0, len(seq)
    else:
        seq, offset = _extended_gap_sequence(config)
        cyclic = False
        n_window = len(config.window_gaps())
        if not seq:
            raise InvalidInput("configuration has no gaps")
    hi, lo = max(seq), min(seq)

    def neighbors(i: int) -> list[float]:
        if cyclic:
            return [seq[(i - 1) % len(seq)], seq[(i + 1) % len(seq)]]
        out = []
        if i > 0:
            out.append(seq[i - 1])
        if i + 1 < len(seq):
            out.append(seq[i + 1])
        return out

    max_strict = any(
        seq[i] == hi and any(g < hi for g in neighbors(i)) for i in range(len(seq))
    )
    min_strict = any(
        seq[i] == lo and any(g > lo for g in neighbors(i)) for i in range(len(seq))
    )
    window_slice = seq[offset : offset + n_window]
    max_indices = tuple(i for i, g in enumerate(window_slice) if g == hi)
    min_indices = tuple(i for i, g in enumerate(window_slice) if g == lo)
    return ExtremalGaps(
        max_value=hi,
        min_value=lo,
        max_indices=max_indices,
        min_indices=min_indices,
        max_strict=max_strict,
        min_strict=min_strict,
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
    if isinstance(config, CircleConfig):
        lines = ["index,angle"]
        lines += [f"{i},{a!r}" for i, a in enumerate(config.angles)]
    else:
        lines = ["index,position"]
        lines += [f"{i},{x!r}" for i, x in enumerate(config.window)]
    return "\n".join(lines) + "\n"
