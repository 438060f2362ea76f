"""Solve random problems under tabulated laws and print one JSON line per input.

Run as `python tools/tabulated_scan.py` (no options).  It imports `equilib`
from the `src/` of this checkout and uses five tables: the samples
(1.5, 2.0), (4.0, 0.1), (8.0, 0.01) with a 1/d^2 tail, an exp(-d) tail, a
cutoff and no tail, and the samples (0.5, 8.0), (1.0, 2.0), (2.0, 0.5),
(3.0, 0.2), (5.0, 0.05) with a 1/d^3 tail.

- 400 zero-centered problems from `numpy.random.default_rng(2028)`: a table,
  n = 2-7 and -a, b in [0.5, 4].
- 200 pinned segments, then 200 extensions, from `default_rng(2029)`.  A
  segment has 1-8 interior particles, a span of 1-20 between the innermost
  pins and 0-2 outer pins on each side, 1.5-3 apart.  An extension starts
  from a window of 2-5 particles at a gap g in [1.5, 3] ending at -g, with
  an arithmetic left tail of gap g or none, and x0 between 0.2 g and g to
  the right of the window; it solves 2-6 extension points with a guard band
  of 0-2 and position_tol 0.5.
- 150 circle solves from `default_rng(2030)`: a table, n = 2-12 and
  `rng_seed` 0-4.  With d_min 1.5 only n <= 4 fits on the circle, so the
  coarse tables raise InfeasibleBracket above that.
- 150 `sweep_relax` passes from `default_rng(2031)`: a table, a window of
  3-8 particles with gaps in [1.5, 3] starting at 0, an arithmetic tail of
  gap 1.5-3 or none on each side and a direction; one pass with both
  extremes fixed.

Each line holds the input and either the solution (positions and the
residual as hex floats, and the Newton step count; for a relax pass the
free rows' certified residual and the endpoint flags) or the error type and
message.  Two checkouts print the same lines exactly when every solve
agrees bit for bit, so `diff` of their outputs lists the inputs a change
moves.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ZERO_CENTERED, SEGMENTS, EXTENSIONS, CIRCLES, RELAXES = 400, 200, 200, 150, 150


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import equilib as eq

    coarse = ((1.5, 2.0), (4.0, 0.1), (8.0, 0.01))
    fine = ((0.5, 8.0), (1.0, 2.0), (2.0, 0.5), (3.0, 0.2), (5.0, 0.05))
    laws = {
        "power": eq.TabulatedLaw(coarse, eq.TabulatedTail("inverse_power", 2.0)),
        "exp": eq.TabulatedLaw(coarse, eq.TabulatedTail("exp", 1.0)),
        "cutoff": eq.TabulatedLaw(coarse, eq.TabulatedTail("cutoff")),
        "none": eq.TabulatedLaw(coarse),
        "fine-power": eq.TabulatedLaw(fine, eq.TabulatedTail("inverse_power", 3.0)),
    }
    names = list(laws)

    def run(line: dict, solve, last: str = "steps") -> None:
        try:
            positions, residual, steps = solve()
        except eq.EquilibError as err:
            line.update(error=type(err).__name__, message=str(err))
        else:
            line.update(positions=[float(x).hex() for x in positions],
                        residual=float(residual).hex(), **{last: steps})
        print(json.dumps(line))

    rng = np.random.default_rng(2028)
    for i in range(ZERO_CENTERED):
        name = names[int(rng.integers(len(names)))]
        n = int(rng.integers(2, 8))
        a, b = -float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.5, 4.0))

        def zero_centered():
            cfg, stats = eq.solve_zero_centered(eq.ZeroCenteredProblem(a, b, n, laws[name]))
            return cfg.window, stats.residual, stats.outer_iters

        run({"kind": "zero-centered", "i": i, "law": name, "a": a, "b": b, "n": n},
            zero_centered)

    rng = np.random.default_rng(2029)
    for i in range(SEGMENTS):
        name = names[int(rng.integers(len(names)))]
        n = int(rng.integers(1, 9))
        span = float(rng.uniform(1.0, 20.0))
        outer = rng.uniform(1.5, 3.0, size=int(rng.integers(0, 3)))
        left = (-np.cumsum(outer[::-1])[::-1]).tolist() + [0.0]
        outer = rng.uniform(1.5, 3.0, size=int(rng.integers(0, 3)))
        right = [span] + (span + np.cumsum(outer)).tolist()

        def segment():
            positions, stats = eq.solve_pinned_segment(left, right, n, laws[name])
            return positions, stats.residual, stats.sweeps

        run({"kind": "segment", "i": i, "law": name, "left": left, "right": right, "n": n},
            segment)

    for i in range(EXTENSIONS):
        name = names[int(rng.integers(len(names)))]
        k = int(rng.integers(2, 6))
        g = float(rng.uniform(1.5, 3.0))
        tailed = bool(rng.integers(2))
        x0 = -g + float(rng.uniform(0.2, 1.0)) * g
        points = int(rng.integers(2, 7))
        guard = int(rng.integers(0, min(points, 3)))
        window = [-g * j for j in range(k, 0, -1)]
        tail = eq.TailModel.arithmetic(window[0] - g, g) if tailed else eq.TailModel.none()
        cfg = eq.LineConfig(tuple(window), tail, eq.TailModel.none(), g, g)
        opts = eq.SolverOptions(extension_points=points, guard_band=guard, position_tol=0.5)

        def extension():
            positions, stats = eq.extend_right(cfg, x0, laws[name], opts)
            return positions, stats.residual, stats.sweeps

        run({"kind": "extension", "i": i, "law": name, "window": window, "left_tail": tailed,
             "x0": x0, "extension_points": points, "guard_band": guard}, extension)

    rng = np.random.default_rng(2030)
    for i in range(CIRCLES):
        name = names[int(rng.integers(len(names)))]
        n, seed = int(rng.integers(2, 13)), int(rng.integers(0, 5))

        def circle():
            opts = eq.SolverOptions(rng_seed=seed)
            cfg, stats = eq.solve_circle_equilibrium(n, laws[name], opts=opts)
            return cfg.angles, stats.residual, stats.newton_iters

        run({"kind": "circle", "i": i, "law": name, "n": n, "rng_seed": seed}, circle)

    rng = np.random.default_rng(2031)
    for i in range(RELAXES):
        name = names[int(rng.integers(len(names)))]
        window = [0.0, *np.cumsum(rng.uniform(1.5, 3.0, int(rng.integers(2, 8)))).tolist()]
        tails = [float(rng.uniform(1.5, 3.0)) if rng.integers(2) else None for _ in range(2)]
        direction = ("ltr", "rtl")[int(rng.integers(2))]

        def relax():
            left, right = (eq.TailModel.none() if g is None else
                           eq.TailModel.arithmetic(end + sign * g, g)
                           for g, end, sign in zip(tails, (window[0], window[-1]), (-1, 1)))
            gaps = np.diff(window).tolist() + [g for g in tails if g is not None]
            cfg = eq.LineConfig(tuple(window), left, right, min(gaps), max(gaps))
            out, stats = eq.sweep_relax(cfg, [0, cfg.n - 1], laws[name], direction)
            free = list(range(1, cfg.n - 1))
            residual = eq.residual_report(out, laws[name], indices=free).max_abs_net
            return out.window, residual, list(stats.endpoint_flags)

        run({"kind": "relax", "i": i, "law": name, "window": window, "left_gap": tails[0],
             "right_gap": tails[1], "direction": direction}, relax, "endpoint_flags")


if __name__ == "__main__":
    main()
