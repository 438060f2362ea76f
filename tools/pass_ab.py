"""Time one benchmark workload at two checkouts in one process, pass by pass.

Run as `python tools/pass_ab.py OTHER_CHECKOUT [--workload W] [--passes N]
[--seed S]` (defaults: `line`, 40 passes, seed 1).  It loads `equilib`
from `src/` and `inputs.py` and `ops.py` from `bench/` of this checkout
and of OTHER_CHECKOUT into one process, generates the workload's ops for
the seed into a temporary directory per side and prepares them there, then
runs one untimed pass per side and N timed pairs of single passes,
alternating which side goes first.  A pass is the summed wall time of the
op calls alone, as in the benchmark; nothing is checked.

Each side keeps its own `sys.modules` entries (`equilib`, its submodules,
`inputs` and `ops`); they are put back before each of its passes, so a
lazy import inside a call (the CLI's, or `equilib`'s public names) binds
that side's modules and never the other's.

It prints each side's minimum, quartiles and median pass time in ms, the
median of the paired ratios this/other and the number of pairs this side
won, then the same median ratio and wins for each op kind's share of the
passes: per law for `circle`, per solver for `line` and per task for
`cli-certify`.  Last comes the verdict of the claim rule, for the whole
pass and for each op kind: whether this side won at least 9/10 of the
pairs, and whether its median beats the other side's by more than the
other side's interquartile range.  Both sides run on the same machine at
nearly the same time, so co-tenant load moves both alike; the paired
ratio is the figure to read.
Files are written only under the temporary directories, never in `bench/`.
"""

from __future__ import annotations

import argparse
import gc
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _owned(name: str) -> bool:
    return name in ("equilib", "inputs", "ops") or name.startswith("equilib.")


def kind(op: dict) -> str:
    """The op kind a pass is split by: a circle op's law, a CLI op's task, else the solver."""
    if op["kind"] == "circle":
        return f"{op['law']['kind']} k={op['law']['k']}"
    return op.get("task", op["kind"])


class Side:
    """One checkout's modules and prepared ops."""

    def __init__(self, root: Path, workload: str, seed: int, workdir: Path) -> None:
        self.modules: dict = {}
        self.enter()
        paths = [str(root / "src"), str(root / "bench")]
        sys.path[:0] = paths
        try:
            import inputs
            import ops
        finally:
            del sys.path[: len(paths)]
        spec = inputs.generate(workload, seed, workdir)
        self.ops = [(ops.PREPARE[op["kind"]](op), ops.BEFORE.get(op["kind"]), kind(op))
                    for op in spec["warmup"] + spec["ops"]]
        self.leave()

    def enter(self) -> None:
        for name in [name for name in sys.modules if _owned(name)]:
            del sys.modules[name]
        sys.modules.update(self.modules)

    def leave(self) -> None:
        self.modules = {name: mod for name, mod in sys.modules.items() if _owned(name)}

    def run_pass(self) -> dict[str, float]:
        """Seconds the op calls of one pass take, summed per op kind."""
        self.enter()
        gc.collect()
        totals: dict[str, float] = {}
        for prepared, before, name in self.ops:
            if before is not None:
                before(prepared)
            start = time.perf_counter()
            prepared.call()
            totals[name] = totals.get(name, 0.0) + time.perf_counter() - start
        self.leave()
        return totals


def summary(name: str, seconds: list[float]) -> str:
    q1, median, q3 = statistics.quantiles([1e3 * s for s in seconds], n=4, method="inclusive")
    return (f"{name:>5}  min {1e3 * min(seconds):8.3f}  q1 {q1:8.3f}  median {median:8.3f}"
            f"  q3 {q3:8.3f} ms/pass")


def paired(label: str, this: list[float], other: list[float]) -> str:
    ratios = [a / b for a, b in zip(this, other)]
    return (f"{label} {statistics.median(ratios):.4f}; "
            f"this faster in {sum(r < 1.0 for r in ratios)} of {len(ratios)} pairs")


def verdict(label: str, this: list[float], other: list[float]) -> str:
    """The claim rule: this side won at least 9/10 of the pairs (ties count for
    neither) and its median beats the other's by more than the other's
    interquartile range."""
    wins = sum(a < b for a, b in zip(this, other))
    q1, other_median, q3 = statistics.quantiles(other, n=4, method="inclusive")
    gain = other_median - statistics.median(this)
    holds = 10 * wins >= 9 * len(this) and gain > q3 - q1
    return (f"{label} {'holds' if holds else 'fails'}: won {wins} of {len(this)} pairs, "
            f"median gain {1e3 * gain:.3f} ms against the other's IQR {1e3 * (q3 - q1):.3f} ms")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="root of the checkout to compare against")
    parser.add_argument("--workload", default="line", choices=("circle", "line", "cli-certify"))
    parser.add_argument("--passes", type=int, default=40, help="timed passes per side")
    parser.add_argument("--seed", type=int, default=1, help="input seed")
    args = parser.parse_args()
    if args.passes < 2:
        parser.error("--passes must be at least 2, for quartiles")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    with tempfile.TemporaryDirectory() as this_dir, tempfile.TemporaryDirectory() as other_dir:
        this = Side(ROOT, args.workload, args.seed, Path(this_dir))
        other = Side(args.other.resolve(), args.workload, args.seed, Path(other_dir))
        this.run_pass(), other.run_pass()  # warm caches on both sides
        passes: dict[str, list[dict[str, float]]] = {"this": [], "other": []}
        for i in range(args.passes):
            order = (("this", this), ("other", other))
            for name, side in order if i % 2 == 0 else order[::-1]:
                passes[name].append(side.run_pass())
    times = {name: [sum(p.values()) for p in runs] for name, runs in passes.items()}
    print(f"{args.workload}, seed {args.seed}, {args.passes} pairs, {len(this.ops)} ops per pass")
    for name, seconds in times.items():
        print(summary(name, seconds))
    print(paired("median ratio this/other", times["this"], times["other"]))
    kinds = sorted(passes["this"][0].keys() & passes["other"][0].keys())
    for name in kinds:
        print(paired(f"  {name}:", [p[name] for p in passes["this"]],
                     [p[name] for p in passes["other"]]))
    print("claim rule (won >= 9/10 of pairs, median gain > the other's IQR):")
    print(verdict("  pass:", times["this"], times["other"]))
    for name in kinds:
        print(verdict(f"  {name}:", [p[name] for p in passes["this"]],
                      [p[name] for p in passes["other"]]))


if __name__ == "__main__":
    main()
