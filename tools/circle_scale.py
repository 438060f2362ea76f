"""Time the circle kernel and report at large n, and count circle solve rounds.

Run as `python tools/circle_scale.py [--repeat K]` (default K = 3).  It
imports `equilib` from the `src/` of this checkout and pins BLAS and OpenMP
to one thread.  Under 1/d^2 it prints:

- for n = 128, 256, 512 and 1,024 (sorted uniform angles from
  `numpy.random.default_rng(n)`, turned to put the first at 0): the best of
  K wall times of `_circle_forces`, of the Jacobian it builds on demand and
  of `circle_residual_report`, in milliseconds;
- for n = 128 and 256 and `rng_seed` 0-2: the rounds, Newton steps, final
  residual and wall time of `solve_circle_equilibrium`.  A round is counted
  by each certified report a solve asks for, so a round whose start or
  iterate is rejected before its report is not counted.

Wall times depend on the machine; the counts depend on the code alone, so
two checkouts print the same counts exactly when their solves take the
same path.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNEL_SIZES = (128, 256, 512, 1024)
SOLVE_SIZES = (128, 256)
SEEDS = (0, 1, 2)


def best_ms(call, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e3 * min(times)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3, help="timings per figure (best is kept)")
    repeat = parser.parse_args().repeat
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import equilib as eq
    from equilib import solvers

    law = eq.InversePowerLaw(2)
    print(f"{'n':>5} {'forces ms':>10} {'jacobian ms':>12} {'report ms':>10}")
    for n in KERNEL_SIZES:
        theta = np.sort(np.random.default_rng(n).uniform(0.0, 2.0 * math.pi, size=n))
        theta -= theta[0]
        config = eq.CircleConfig(tuple(theta.tolist()))
        _, jacobian = solvers._circle_forces(law, theta)
        forces = best_ms(lambda: solvers._circle_forces(law, theta), repeat)
        jac = best_ms(jacobian, repeat)
        report = best_ms(lambda: eq.circle_residual_report(config, law), repeat)
        print(f"{n:>5} {forces:>10.2f} {jac:>12.2f} {report:>10.2f}")

    reports = []
    certified = solvers.circle_residual_report

    def counting(config, law):
        reports.append(config.n)
        return certified(config, law)

    solvers.circle_residual_report = counting
    print(f"{'n':>5} {'seed':>4} {'rounds':>6} {'steps':>5} {'residual':>10} {'s':>6}")
    for n in SOLVE_SIZES:
        for seed in SEEDS:
            reports.clear()
            start = time.perf_counter()
            try:
                _, stats = eq.solve_circle_equilibrium(n, law, opts=eq.SolverOptions(rng_seed=seed))
                steps, residual = stats.newton_iters, f"{stats.residual:.2e}"
            except eq.NoConvergence as err:
                steps, residual = err.iterations, type(err).__name__
            elapsed = time.perf_counter() - start
            print(f"{n:>5} {seed:>4} {len(reports):>6} {steps:>5} {residual:>10} {elapsed:>6.2f}")


if __name__ == "__main__":
    main()
