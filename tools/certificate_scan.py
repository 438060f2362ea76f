"""Certify 1,200 random gaps and windows and print one JSON line per input.

Run as `python tools/certificate_scan.py` (no options).  It imports
`equilib` from the `src/` of this checkout and draws every input from
`numpy.random.default_rng(2032)` under one of six laws: 1/d^2, 1/d^3,
exp(-d), exp(-d^1.5), and 1/d^2 and exp(-d) sampled from d = 0.25 to 8 with
a matching tail.

- 400 line extremal-gap certificates: a window of 2-9 particles whose gaps
  are 1, 1.5, 2 or 3 times a scale, nudged by up to 1e-3 half of the time,
  and on each side an arithmetic or a periodic tail whose gaps are window
  gaps, or no tail one time in ten.  The scale is log-uniform in
  [1e-200, 1e200] half of the time and uniform in [0.5, 4] otherwise.  The
  gap is a maximal or a minimal window gap four times in five and any
  window gap otherwise.
- 300 circle extremal-gap certificates: 2-9 particles with arcs drawn the
  same way and scaled to 2 pi, and one time in five a 2-particle ring at
  angles (0, pi - eps), eps log-uniform in [1e-12, 1e-5], so that rings
  inside and outside the antipodal band both occur.
- 300 internal-force monotonicity checks: a line window of 3-10 particles
  drawn as above, without tails, and a (start, stop) block of at least two
  particles.
- 200 gap-ratio reports, half on a line window without tails at one scale
  drawn as above and half on a circle: 2-9 particles whose gaps are drawn
  as above, so ratios often tie, and one time in four a leading run of
  gaps shrinks by a log-uniform factor in [1e-320, 1e-200], so that some
  ratios overflow to inf.

Each line holds the input, with positions and angles as hex floats, and
either the certificate (verdict, conclusion, details with every float as
a hex float, and every evidence row with its numbers as hex floats) or the
error type and message.  Two checkouts print the same lines exactly when
every certificate agrees bit for bit, so `diff` of their outputs lists the
inputs a change to the certificates moves.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINES, CIRCLES, MONOTONE, RATIOS = 400, 300, 300, 200


def hexed(value):
    """`value` with every float in it, at any depth, as a hex float."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [hexed(v) for v in value]
    if isinstance(value, dict):
        return {k: hexed(v) for k, v in value.items()}
    return value


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import equilib as eq

    grid = [0.25 * 2**k for k in range(6)]
    laws = {
        "1/d^2": eq.InversePowerLaw(2),
        "1/d^3": eq.InversePowerLaw(3),
        "exp(-d)": eq.StretchedExponentialLaw(1.0),
        "exp(-d^1.5)": eq.StretchedExponentialLaw(1.5),
        "table 1/d^2": eq.TabulatedLaw(tuple((d, d**-2) for d in grid),
                                       eq.TabulatedTail("inverse_power", 2.0)),
        "table exp(-d)": eq.TabulatedLaw(tuple((d, math.exp(-d)) for d in grid),
                                         eq.TabulatedTail("exp", 1.0)),
    }
    names = list(laws)
    rng = np.random.default_rng(2032)

    def weights(count: int) -> list[float]:
        w = rng.choice([1.0, 1.5, 2.0, 3.0], size=count)
        if rng.random() < 0.5:
            w = w * (1.0 + rng.uniform(-1e-3, 1e-3, size=count))
        return w.tolist()

    def scale() -> float:
        if rng.random() < 0.5:
            return float(10.0 ** rng.uniform(-200.0, 200.0))
        return float(rng.uniform(0.5, 4.0))

    def window(count: int, unit: float) -> list[float]:
        return np.cumsum([0.0] + [unit * w for w in weights(count - 1)]).tolist()

    def tail(side: str, edge: float, gaps: list[float]):
        draw = rng.random()
        step = float(rng.choice(gaps))
        start = edge - step if side == "left" else edge + step
        if draw < 0.1:
            return eq.TailModel.none(), []
        if draw < 0.55:
            gap = float(rng.choice(gaps))
            return eq.TailModel.arithmetic(start, gap), [abs(edge - start), gap]
        pattern = rng.choice(gaps, size=int(rng.integers(1, 4))).tolist()
        return eq.TailModel.periodic(start, pattern), [abs(edge - start), *pattern]

    def pick(values: list[float]) -> int:
        draw = rng.random()
        if draw < 0.4:
            return int(np.argmax(values))
        if draw < 0.8:
            return int(np.argmin(values))
        return int(rng.integers(len(values)))

    def report(line: dict, certify) -> None:
        try:
            cert = certify()
        except eq.EquilibError as err:
            line.update(error=type(err).__name__, message=str(err))
        else:
            line.update(verdict=cert.verdict, conclusion=cert.conclusion,
                        details=hexed(cert.details),
                        evidence=[hexed(row.to_json_dict()) for row in cert.evidence])
        print(json.dumps(line))

    for i in range(LINES):
        name = names[int(rng.integers(len(names)))]
        xs = window(int(rng.integers(2, 10)), scale())
        window_gaps = np.diff(xs).tolist()
        left, left_gaps = tail("left", xs[0], window_gaps)
        right, right_gaps = tail("right", xs[-1], window_gaps)
        all_gaps = window_gaps + left_gaps + right_gaps
        index = pick(window_gaps)
        line = {"i": i, "kind": "line", "law": name, "window": hexed(xs),
                "left": hexed(left.to_json_dict()), "right": hexed(right.to_json_dict()),
                "gap_index": index}

        def certify_line():
            cfg = eq.LineConfig(xs, left, right, min(all_gaps), max(all_gaps))
            return eq.certify_extremal_gap(cfg, laws[name], index)

        report(line, certify_line)

    for i in range(LINES, LINES + CIRCLES):
        name = names[int(rng.integers(len(names)))]
        if rng.random() < 0.2:
            angles = [0.0, math.pi - float(10.0 ** rng.uniform(-12.0, -5.0))]
            index = int(rng.integers(2))
        else:
            w = weights(int(rng.integers(2, 10)))
            angles = (2.0 * math.pi * np.cumsum([0.0] + w[:-1]) / sum(w)).tolist()
            index = pick(w)
        line = {"i": i, "kind": "circle", "law": name, "angles": hexed(angles),
                "gap_index": index}
        report(line, lambda: eq.certify_extremal_gap(eq.CircleConfig(angles), laws[name], index))

    for i in range(LINES + CIRCLES, LINES + CIRCLES + MONOTONE):
        name = names[int(rng.integers(len(names)))]
        xs = window(int(rng.integers(3, 11)), scale())
        start = int(rng.integers(len(xs) - 1))
        stop = int(rng.integers(start + 2, len(xs) + 1))
        line = {"i": i, "kind": "monotone", "law": name, "window": hexed(xs),
                "window_range": [start, stop]}
        report(line, lambda: eq.check_internal_force_monotonicity(
            eq.LineConfig.finite(xs), laws[name], (start, stop)))

    for i in range(LINES + CIRCLES + MONOTONE, LINES + CIRCLES + MONOTONE + RATIOS):
        count = int(rng.integers(2, 10))
        w = weights(count)
        if rng.random() < 0.25:  # tiny gaps first, so that no sum absorbs them
            shrink = float(10.0 ** -rng.uniform(200.0, 320.0))
            tiny = int(rng.integers(1, count))
            w = [v * shrink for v in w[:tiny]] + w[tiny:]
        if rng.random() < 0.5:
            unit = scale()
            xs = np.cumsum([0.0] + [unit * v for v in w[:-1]]).tolist()
            line = {"i": i, "kind": "ratio-line", "window": hexed(xs)}
            report(line, lambda: eq.gap_ratio_report(eq.LineConfig.finite(xs)))
        else:
            angles = (2.0 * math.pi * np.cumsum([0.0] + w[:-1]) / sum(w)).tolist()
            line = {"i": i, "kind": "ratio-circle", "angles": hexed(angles)}
            report(line, lambda: eq.gap_ratio_report(eq.CircleConfig(angles)))


if __name__ == "__main__":
    main()
