"""Solve 400 random pinned segments and print one JSON line per input.

Run as `python tools/segment_scan.py` (no options).  It imports `equilib`
from the `src/` of this checkout and draws every input from
`numpy.random.default_rng(2026)`: one of five laws (1/d^2, 1/d^3, 1/d^6,
exp(-d), exp(-d^1.5)), 1-39 interior particles, a span of 0.5-60 between
the innermost pins and 1-3 pins on each side, the outer ones 0.5-3 apart.

Every input is solved with `track_energy` on.  Each line holds the input
and either the solution (interior positions, the final residual and the
energy trace as hex floats, and the Newton step count) or the error type
and message.  Two checkouts print the same lines exactly when every segment
solve and its energy trace agree bit for bit, so `diff` of their outputs
lists the inputs a change to the segment solver moves.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNT = 400


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import equilib as eq

    laws = {
        "1/d^2": eq.InversePowerLaw(2),
        "1/d^3": eq.InversePowerLaw(3),
        "1/d^6": eq.InversePowerLaw(6),
        "exp(-d)": eq.StretchedExponentialLaw(1.0),
        "exp(-d^1.5)": eq.StretchedExponentialLaw(1.5),
    }
    names = list(laws)
    opts = eq.SolverOptions(track_energy=True)
    rng = np.random.default_rng(2026)
    for i in range(COUNT):
        name = names[int(rng.integers(len(names)))]
        n = int(rng.integers(1, 40))
        span = float(rng.uniform(0.5, 60.0))
        outer = rng.uniform(0.5, 3.0, size=int(rng.integers(0, 3)))
        left = (-np.cumsum(outer[::-1])[::-1]).tolist() + [0.0]
        outer = rng.uniform(0.5, 3.0, size=int(rng.integers(0, 3)))
        right = [span] + (span + np.cumsum(outer)).tolist()
        line = {"i": i, "law": name, "left": left, "right": right, "n": n}
        try:
            positions, stats = eq.solve_pinned_segment(left, right, n, laws[name], opts)
        except eq.EquilibError as err:
            line.update(error=type(err).__name__, message=str(err))
        else:
            line.update(positions=[x.hex() for x in positions],
                        residual=stats.residual.hex(), steps=stats.sweeps,
                        energy=[e.hex() for e in stats.energy_trace])
        print(json.dumps(line))


if __name__ == "__main__":
    main()
