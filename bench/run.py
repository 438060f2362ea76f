"""equilib benchmark: run one workload, check every result, print the metrics.

    python3 bench/run.py --workload circle|line|cli-certify|all \
        [--seed N] [--seconds S] [--trace 0|1] [--smoke]

--trace 0 measures the end-to-end metrics: set-up time as the median of
several fresh worker spawns, then one closed-loop worker for S seconds of
whole passes (at least 100 ops).  --trace 1 gives the per-layer metrics:
an untraced worker runs whole passes for S/2 seconds, then a traced worker
runs the same number of passes, and the two give the tracing overhead.
Op and warm-up times are normalised to machine speed by a reference kernel
(worker.py), import times by a reference interpreter spawn.  Metric names and units
come from BENCHMARK.json.  The last stdout line is one JSON object with the keys correct, attempted,
failed, metrics; the line before it is a JSON report with the environment,
sample counts, the plain wall-clock timings, the failed fraction and the
stats counters.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from time import perf_counter

import inputs
from worker import REFERENCE_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

DEFAULT_SEED = 1
HELD_OUT_SEED = 104729  # never used while writing a change; claims must hold here too
SETUP_SPAWNS = 11
# Interpreter start and import are mostly file reads and unmarshalling,
# whose speed swings with machine load differently from the CPU-bound op
# kernel.  A fresh interpreter importing what the worker imports before
# equilib does the same kind of work, so imports are normalised by it.
REFERENCE_SPAWN = "import argparse, json, pathlib, numpy"
REFERENCE_SPAWN_S = 0.12  # nominal reference-spawn time: fixes the normalised unit
DEADLINE_S = 170.0  # every run must end within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Counters taken from stats objects and CLI outputs, reported per op.
_PER_OP_COUNTERS = (
    "solvers.circle.sweeps",
    "solvers.circle.newton_iters",
    "solvers.zero_centered.outer_iters",
    "solvers.zero_centered.inner_sweeps",
    "solvers.segment.sweeps",
    "solvers.extend.sweeps",
    "solvers.extend.levels_used",
    "solvers.no_convergence",
    "certificates.evidence_rows",
    "cli.bytes_out",
)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, or 'unknown' if the checkout is not a git work tree."""
    # The ceiling keeps git from finding a repository above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "missing"


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(),
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "threads": {var: "1" for var in THREAD_VARS},
    }


def _worker_env() -> dict:
    env = dict(os.environ)
    # One BLAS/OpenMP thread (at most nproc): the loop has one caller and no
    # threads, and extra pool threads only add noise on a small machine.
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["EQUILIB_LOG"] = "error"
    return env


# ---------------------------------------------------------------------------
# Workers
# ---------------------------------------------------------------------------


class Runner:
    """Spawns worker processes for one benchmark invocation, under one deadline."""

    def __init__(self, inputs_path: Path) -> None:
        self.inputs_path = inputs_path
        self.env = _worker_env()
        self.deadline = perf_counter() + DEADLINE_S

    def _argv(self, mode: str, *extra: str) -> list[str]:
        return [sys.executable, str(BENCH / "worker.py"), str(self.inputs_path), mode, *extra]

    def _remaining(self) -> float:
        left = self.deadline - perf_counter()
        if left <= 0:
            raise BenchError("deadline passed")
        return left

    def _reference_spawn(self) -> float:
        """Seconds a fresh interpreter takes to run REFERENCE_SPAWN and exit."""
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", REFERENCE_SPAWN], cwd=ROOT, env=self.env,
                              timeout=self._remaining())
        if proc.returncode != 0:
            raise BenchError(f"reference spawn failed (exit {proc.returncode})")
        return perf_counter() - start

    def _setup_time(self) -> tuple[float, dict]:
        """(seconds from spawning a fresh worker to the end of its import,
        the worker's ready line)."""
        began = time.clock_gettime(time.CLOCK_MONOTONIC)  # the worker's ready clock
        proc = subprocess.Popen(
            self._argv("setup"), stdout=subprocess.PIPE, cwd=ROOT, env=self.env, text=True
        )
        try:
            line = ""
            if select.select([proc.stdout], [], [], self._remaining())[0]:
                line = proc.stdout.readline()
            proc.communicate(timeout=self._remaining())
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        event = json.loads(line) if line.strip() else {}
        if proc.returncode != 0 or event.get("event") != "ready":
            raise BenchError(f"set-up worker failed (exit {proc.returncode})")
        return event["imported_clock"] - began, event

    def setup_times(self, spawns: int) -> list[tuple[float, float]]:
        """(plain, normalised) set-up seconds per spawn.

        The import is scaled by the mean of the reference spawns just before
        and after it (they alternate with worker spawns), the warm-up by the
        reference kernel the worker timed around it.
        """
        refs = [self._reference_spawn()]
        out = []
        for _ in range(spawns):
            import_s, ready = self._setup_time()
            refs.append(self._reference_spawn())
            out.append((
                import_s + ready["warmup_s"],
                import_s * REFERENCE_SPAWN_S / (0.5 * (refs[-2] + refs[-1]))
                + ready["warmup_s"] * REFERENCE_S / ready["warmup_reference_s"],
            ))
        return out

    def loop(self, mode: str, *extra: str) -> dict:
        proc = subprocess.Popen(
            self._argv(mode, *extra), stdout=subprocess.PIPE, cwd=ROOT, env=self.env, text=True
        )
        try:
            out, _ = proc.communicate(timeout=self._remaining())
        except subprocess.TimeoutExpired as exc:
            proc.kill()
            proc.wait()
            raise BenchError(f"{mode} worker passed the deadline") from exc
        lines = out.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or result.get("event") != "result":
            raise BenchError(f"{mode} worker failed (exit {proc.returncode})")
        return result


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _timings(setups: list[float], lat: list[float], res: dict) -> dict:
    n = res["ops_per_pass"]
    # Median over whole passes: every pass runs the same ops.
    throughput = statistics.median(
        res["verified_per_pass"][p] / sum(lat[p * n : (p + 1) * n]) for p in range(res["passes"])
    )
    return {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": throughput,
        "latency_p50_ms": 1000.0 * statistics.median(lat),
        "latency_p90_ms": 1000.0 * statistics.quantiles(lat, n=10, method="inclusive")[8],
    }


def end_to_end(setups: list[tuple[float, float]], res: dict) -> tuple[dict, dict, dict]:
    """(metrics, sample counts, the same timings in plain wall time)."""
    scaled = [normalised for _, normalised in setups]
    values = _timings(scaled, res["latencies_s"], res)
    values["peak_rss_mb"] = res["peak_rss_mb"]
    wall = _timings([w for w, _ in setups], res["wall_latencies_s"], res)
    samples = {
        "setup_s": len(setups),
        "throughput_ops_s": res["passes"],
        "latency_p50_ms": len(res["latencies_s"]),
        "latency_p90_ms": len(res["latencies_s"]),
    }
    metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}
    return metrics, samples, wall


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(base: dict, traced: dict) -> dict:
    ops = traced["attempted"]
    counters = traced["counters"]
    values = dict(traced["layers"])
    for key in _PER_OP_COUNTERS:
        values[key] = counters.get(key, 0) / ops
    values["solvers.max_residual"] = counters.get("solvers.max_residual", 0.0)
    values["certificates.conclusive_frac"] = _ratio(
        counters.get("certificates.conclusive", 0), counters.get("certificates.verdicts", 0)
    )
    values["diagnostics.reconstruct.converged_frac"] = _ratio(
        counters.get("diagnostics.reconstruct.converged", 0),
        counters.get("diagnostics.reconstruct.starts", 0),
    )
    # Same passes of the same ops on both sides, so mean op times compare.
    values["trace.overhead_frac"] = (
        sum(traced["latencies_s"]) / traced["attempted"]
        / (sum(base["latencies_s"]) / base["attempted"])
        - 1.0
    )
    return {name: _metric(values[name], unit) for name, unit in PER_LAYER.items()}


def _per_op(counters: dict, attempted: int) -> dict:
    return {
        key: (value if key == "solvers.max_residual" else value / attempted)
        for key, value in sorted(counters.items())
    }


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    workdir = WORK / f"run-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        spec = inputs.generate(workload, seed, workdir, smoke=smoke)
        inputs_path = workdir / "inputs.json"
        inputs_path.write_text(json.dumps(spec), encoding="utf-8")
        runner = Runner(inputs_path)
        report = {"workload": workload, "trace": trace, "seconds": seconds,
                  "environment": environment(seed)}
        if trace == 0:
            setups = runner.setup_times(SETUP_SPAWNS)
            res = runner.loop("timed", "--seconds", str(seconds))
            metrics, samples, wall = end_to_end(setups, res)
            report["samples"] = samples
            report["wall_clock"] = wall
            report["setup_samples_s"] = [w for w, _ in setups]
            report["reference_s"] = res["reference_s"]
            runs = [res]
        else:
            spans_file = WORK / "spans" / f"{workload}.npz"  # the latest traced run
            spans_file.parent.mkdir(parents=True, exist_ok=True)
            base = runner.loop("timed", "--seconds", str(seconds / 2))
            traced = runner.loop(
                "traced", "--passes", str(base["passes"]), "--spans", str(spans_file)
            )
            metrics = per_layer(base, traced)
            report["layers_seen"] = traced["layers_seen"]
            report["span_count"] = traced["span_count"]
            report["spans_file"] = str(spans_file.relative_to(ROOT))
            runs = [base, traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    last = runs[-1]
    report.update({
        "passes": [r["passes"] for r in runs],
        "ops_per_pass": last["ops_per_pass"],
        "failed_frac": failed / attempted,
        "counters_per_op": _per_op(last["counters"], last["attempted"]),
        "failures": [note for r in runs for note in r["failures"]],
    })
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "report": report}


def _print_human(result: dict) -> None:
    rep = result["report"]
    samples = rep.get("samples", {})
    print(f"# {rep['workload']} seed={rep['environment']['seed']} trace={rep['trace']} "
          f"passes={rep['passes']} ops/pass={rep['ops_per_pass']} "
          f"failed_frac={rep['failed_frac']:.4g} fraction")
    for name, m in result["metrics"].items():
        n = f" (n={samples[name]})" if name in samples else ""
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}{n}")
    for note in rep["failures"]:
        print(f"  FAILED {note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*inputs.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; held-out {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (the fixed warm-up ops) for self-tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "equilib" / "__init__.py").is_file():
        print(f"error: no equilib sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(
                workload, args.seed, args.seconds, args.trace, args.smoke
            )
            _print_human(results[workload])
            print(json.dumps({"report": results[workload]["report"]}))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = {k: v for k, v in results[workloads[0]].items() if k != "report"}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
