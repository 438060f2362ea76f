"""One workload process of the benchmark (spawned by run.py).

    python3 bench/worker.py INPUTS MODE [--seconds S] [--passes P] [--spans FILE]

MODE is one of:
  setup   import equilib.cli, run one untimed warm-up op of each kind,
          print {"event": "ready", ...} and exit.  The ready line gives the
          CLOCK_MONOTONIC time when the import ended (run.py times the
          import from its spawn), the warm-up's wall time, and the mean of
          the reference-kernel times just before and after the warm-up.
  timed   after the warm-up, run whole passes of the op list as a closed
          loop (one caller, no threads: each op starts when the previous
          one returned) until S seconds and at least MIN_PASSES passes and
          MIN_OPS ops are done, or for P passes.
  traced  as timed, with the span tracer installed (see spans.py).

Only the library or CLI call is timed; checks run outside the timed region
and never abort the run.  The last stdout line is one JSON result object.

Every op time is also reported normalised to machine speed.  Between ops,
every RECALIBRATE_S seconds of op time, the worker times a fixed reference
kernel that does not touch equilib (Python bytecode, small numpy calls and
json, like the workloads).  An op's normalised time is its wall time times
REFERENCE_S over the mean of the reference times taken just before and just
after it.  On a shared machine the speed of every process swings by tens of
percent as co-tenant load comes and goes; the ratio cancels that swing, and
since the kernel never runs library code, a faster library still shows.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 2  # so the cross-pass determinism check always runs
MIN_OPS = 100  # so p90 has at least ten samples beyond it
MAX_FAILURE_NOTES = 5
REFERENCE_S = 0.003  # nominal reference-kernel time: fixes the normalised unit
RECALIBRATE_S = 0.25

_REF_ARRAY = np.linspace(0.5, 2.0, 12)


def reference_time() -> float:
    """Seconds one run of the fixed reference kernel takes now (best of two)."""
    best = math.inf
    for _ in range(2):
        start = perf_counter()
        acc = 0.0
        for i in range(400):
            acc += float(np.sum(_REF_ARRAY ** -2.0))
            acc += len(json.dumps({"k": i, "v": [i, i + 1]}))
        best = min(best, perf_counter() - start)
    return best


def _normalise(latencies: list[float], marks: list[tuple[int, float]]) -> list[float]:
    """Scale each op time by REFERENCE_S / (mean reference time around the op).

    `marks` holds (index of the next op, reference time) in order, the last
    one taken after the final op.
    """
    out = []
    k = 0
    for i, dt in enumerate(latencies):
        while k + 1 < len(marks) and marks[k + 1][0] <= i:
            k += 1
        around = 0.5 * (marks[k][1] + marks[k + 1][1])
        out.append(dt * REFERENCE_S / around)
    return out


def _import_library() -> None:
    sys.path.insert(0, str(SRC))
    import equilib.cli  # noqa: F401  (the import is part of set-up)
    import equilib

    if Path(equilib.__file__).resolve().parent != SRC / "equilib":
        raise SystemExit(f"equilib imported from {equilib.__file__}, not from {SRC}")


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _closed_loop(prepared, seconds: float, passes: int | None, tracer) -> dict:
    import ops
    from equilib.errors import NoConvergence

    latencies: list[float] = []
    marks: list[tuple[int, float]] = []
    since_mark = math.inf
    counters: Counter = Counter()
    maxima: dict[str, float] = {}
    failures: list[str] = []
    failed = 0
    done = 0
    verified_per_pass: list[int] = []
    began = perf_counter()
    while True:
        failed_before = failed
        for i, p in enumerate(prepared):
            kind = p.op["kind"]
            if kind in ops.BEFORE:
                ops.BEFORE[kind](p)
            if since_mark >= RECALIBRATE_S:
                marks.append((len(latencies), reference_time()))
                since_mark = 0.0
            op_id = done * len(prepared) + i
            error = None
            start = perf_counter()
            try:
                result = tracer.run_op(op_id, p.call) if tracer else p.call()
            except Exception as exc:  # an op failure is counted, never fatal
                error = exc
            latencies.append(perf_counter() - start)
            since_mark += latencies[-1]
            if error is None:
                try:
                    found = ops.CHECK[kind](p, result)
                except Exception as exc:  # a failed or crashing check
                    error = exc
            if error is not None:
                failed += 1
                if isinstance(error, NoConvergence):
                    counters["solvers.no_convergence"] += 1
                if len(failures) < MAX_FAILURE_NOTES:
                    failures.append(f"op {i} ({kind}): {type(error).__name__}: {error}")
                continue
            for key, value in found.items():
                if key in ops.MAX_COUNTERS:
                    maxima[key] = max(maxima.get(key, 0.0), float(value))
                else:
                    counters[key] += value
        done += 1
        verified_per_pass.append(len(prepared) - (failed - failed_before))
        if passes is not None:
            if done >= passes:
                break
        elif (done >= MIN_PASSES and len(latencies) >= MIN_OPS
              and perf_counter() - began >= seconds):
            break
    marks.append((len(latencies), reference_time()))
    return {
        "attempted": len(latencies),
        "failed": failed,
        "passes": done,
        "ops_per_pass": len(prepared),
        "latencies_s": _normalise(latencies, marks),
        "wall_latencies_s": latencies,
        "reference_s": [value for _, value in marks],
        "verified_per_pass": verified_per_pass,
        "counters": {**counters, **maxima},
        "failures": failures,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("inputs", type=Path)
    parser.add_argument("mode", choices=("setup", "timed", "traced"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--passes", type=int)
    parser.add_argument("--spans", type=Path, help="write the traced run's spans here")
    args = parser.parse_args(argv)

    spec = json.loads(args.inputs.read_text(encoding="utf-8"))
    _import_library()
    import ops

    imported = time.clock_gettime(time.CLOCK_MONOTONIC)
    before = reference_time()
    start = perf_counter()
    for op in spec["warmup"]:
        ops.PREPARE[op["kind"]](op).call()
    warmup_s = perf_counter() - start
    _emit({"event": "ready", "imported_clock": imported, "warmup_s": warmup_s,
           "warmup_reference_s": 0.5 * (before + reference_time())})
    if args.mode == "setup":
        return 0

    tracer = None
    if args.mode == "traced":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    prepared = [ops.PREPARE[op["kind"]](op) for op in spec["ops"]]
    out = _closed_loop(prepared, args.seconds, args.passes, tracer)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(out["attempted"])
        out["layers_seen"] = sorted(tracer.layers_seen())
        out["span_count"] = tracer.span_count()
        if args.spans is not None:
            tracer.write(args.spans, out["ops_per_pass"])
    _emit({"event": "result", **out})
    return 0


if __name__ == "__main__":
    sys.exit(main())
