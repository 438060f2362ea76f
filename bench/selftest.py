"""Self-tests for the benchmark, on tiny inputs (run.py --smoke).

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its
unit, that no op fails on this commit, that the traced runs produce spans
for all seven layers, that per-op counts repeat exactly across two traced
runs on the same seed, and that the benchmark refuses to run (non-zero
exit, no result line) in a directory holding only the benchmark files.
Takes about two minutes; exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
LAYERS = {"force_laws", "configurations", "residuals", "solvers", "certificates",
          "diagnostics", "cli"}
# Per-layer metrics that are times (and so vary run to run).
TIMED_UNITS = {"s/op"}


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def smoke(workload: str, trace: int) -> tuple[dict, dict]:
    code, lines = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                        "--trace", str(trace), "--smoke")
    assert code == 0, f"{workload} trace {trace}: exit {code}"
    result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and report["failed_frac"] == 0.0, (
        workload, report["failures"])
    assert result["attempted"] >= 1
    return result, report


def check_metrics(result: dict, declared: list[dict]) -> None:
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in declared], sorted(metrics)
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], (int, float)), m["name"]


def test_end_to_end_metrics() -> None:
    for workload in WORKLOADS:
        result, report = smoke(workload, 0)
        check_metrics(result, SPEC["end_to_end"])
        for name in ("latency_p50_ms", "latency_p90_ms"):
            assert report["samples"][name] == result["attempted"], name
        assert all(v > 0 for v in (m["value"] for m in result["metrics"].values()))


def test_traced_runs() -> None:
    seen: set[str] = set()
    for workload in WORKLOADS:
        first, report = smoke(workload, 1)
        second, _ = smoke(workload, 1)
        check_metrics(first, SPEC["per_layer"])
        seen |= set(report["layers_seen"])
        assert report["span_count"] > 0
        assert (ROOT / report["spans_file"]).is_file()
        for m in SPEC["per_layer"]:
            if m["unit"] in TIMED_UNITS or m["name"] == "trace.overhead_frac":
                continue
            a, b = first["metrics"][m["name"]]["value"], second["metrics"][m["name"]]["value"]
            assert a == b, f"{workload} {m['name']}: {a!r} != {b!r}"
    assert seen == LAYERS, f"layers without spans: {LAYERS - seen}"


def test_refuses_without_sources() -> None:
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                            "--trace", "0", cwd=bare)
        assert code != 0, "benchmark ran without the program's sources"
        assert not lines or "metrics" not in lines[-1], lines[-1]
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    for test in (test_refuses_without_sources, test_end_to_end_metrics, test_traced_runs):
        test()
        print(f"PASS {test.__name__}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
