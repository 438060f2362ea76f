"""Seeded problem lists for the benchmark workloads.

`generate(workload, seed, workdir)` returns a JSON-serialisable spec:

    {"workload": ..., "seed": ..., "warmup": [op, ...], "ops": [op, ...]}

`ops` is one pass of the closed loop; the worker repeats whole passes, so
every run sees the same mix and a faster program does more passes.  Each
workload has a fixed structure (which solvers, which sizes, how many of
each) and the seed only draws the continuous parameters and solver start
seeds, mostly stratified over the documented ranges so that different
seeds give passes of similar cost.  `warmup` ops are fixed (not seeded),
one per kind of op, so that set-up time does not depend on the seed.

This module imports numpy only: the program under test never runs here,
and the worker sees nothing but the generated inputs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("circle", "line", "cli-certify")

TWO_PI = 2.0 * math.pi

COULOMB = {"kind": "inverse_power", "k": 2.0}
LAWS = (COULOMB, {"kind": "inverse_power", "k": 3.0}, {"kind": "exp", "k": 1.0})

# circle: every law and every n of acceptance 1, several random starts each.
# The start seeds come from acceptance 1's range, the starts the library
# claims to solve: from some starts outside it the solver raises
# NoConvergence (n = 16, 1/d^3, rng_seed 77769504 leaves a residual of 3e5).
CIRCLE_NS = range(2, 17)
CIRCLE_STARTS = 4
CIRCLE_START_SEEDS = 50

# line: counts per pass, weighted toward cheap cases so that a run of a few
# seconds still holds well over 100 ops at the seed commit's speed.
ZC_N2 = 6
ZC_N3 = 1
SEGMENT_SMALL = 20  # 3 interior particles, cycling through the laws
SEGMENT_LARGE = (4, 5, 6, 8)
EXTEND_UNIT = 20
EXTEND_STRETCHED = 1


def _stratified(rng: np.random.Generator, lo: float, hi: float, count: int) -> list[float]:
    """One uniform draw from each of `count` equal slices of [lo, hi], shuffled."""
    edges = lo + (hi - lo) * (np.arange(count) + rng.uniform(size=count)) / count
    rng.shuffle(edges)
    return [float(v) for v in edges]


def _seed_int(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# circle
# ---------------------------------------------------------------------------


def _circle(rng: np.random.Generator) -> tuple[list, list]:
    warmup = [{"kind": "circle", "law": law, "n": 5, "rng_seed": 0} for law in LAWS]
    ops = [
        {"kind": "circle", "law": law, "n": n, "rng_seed": int(start)}
        for law in LAWS
        for n in CIRCLE_NS
        for start in rng.choice(CIRCLE_START_SEEDS, size=CIRCLE_STARTS, replace=False)
    ]
    return warmup, ops


# ---------------------------------------------------------------------------
# line
# ---------------------------------------------------------------------------


def _zero_centered(n: int, a: float, b: float) -> dict:
    return {"kind": "zero_centered", "law": COULOMB, "n": n, "a": a, "b": b}


def _segment(law: dict, n_interior: int, span: float) -> dict:
    return {
        "kind": "segment",
        "law": law,
        "left": [0.0],
        "right": [span],
        "n_interior": n_interior,
    }


def _extend(law: dict, length: int, delta: float) -> dict:
    """Acceptance-6 extension: unit lattice -length..-1 with a unit left tail,
    first new particle `delta` right of the last window particle."""
    op = {"kind": "extend", "law": law, "length": length, "delta": delta}
    if delta == 1.0:
        op["options"] = {"extension_points": 8}
    else:
        op["options"] = {"extension_points": 6, "guard_band": 2, "position_tol": 0.5}
    return op


def _line(rng: np.random.Generator) -> tuple[list, list]:
    warmup = [
        _zero_centered(2, -1.0, 1.0),
        _segment(COULOMB, 3, 4.0),
        _extend(COULOMB, 8, 1.0),
    ]
    ops: list[dict] = []
    # Acceptance-5 ranges: a in [-2, -0.5], b in [0.5, 2].
    for a, b in zip(
        _stratified(rng, -2.0, -0.5, ZC_N2 + ZC_N3), _stratified(rng, 0.5, 2.0, ZC_N2 + ZC_N3)
    ):
        ops.append(_zero_centered(3 if len(ops) < ZC_N3 else 2, a, b))
    spans = _stratified(rng, 3.0, 6.0, SEGMENT_SMALL)
    for i, span in enumerate(spans):
        ops.append(_segment(LAWS[i % len(LAWS)], 3, span))
    for i, n_interior in enumerate(SEGMENT_LARGE):
        span = float(rng.uniform(0.8, 1.4)) * (n_interior + 1)
        ops.append(_segment(LAWS[i % len(LAWS)], n_interior, span))
    # Unit-gap extensions use the inverse-power laws only: under exp(-d) the
    # cost jumps twenty-fold between window lengths, which would make the
    # pass cost depend on the seed.
    for i in range(EXTEND_UNIT):
        ops.append(_extend(LAWS[i % 2], int(rng.integers(4, 9)), 1.0))
    for delta in _stratified(rng, 1.2, 1.6, EXTEND_STRETCHED):
        ops.append(_extend(COULOMB, 8, delta))
    order = rng.permutation(len(ops))
    return warmup, [ops[i] for i in order]


# ---------------------------------------------------------------------------
# cli-certify
# ---------------------------------------------------------------------------


def _lattice_config(n: int, gap: float) -> dict:
    """Trivial equilibrium: n equally spaced particles with matching tails."""
    return {
        "window": [i * gap for i in range(n)],
        "left_tail": {"kind": "arithmetic", "first": -gap, "gap": gap},
        "right_tail": {"kind": "arithmetic", "first": n * gap, "gap": gap},
        "c": gap,
        "C": gap,
    }


def _finite_config(window: list[float]) -> dict:
    gaps = np.diff(window)
    return {
        "window": [float(x) for x in window],
        "left_tail": {"kind": "none"},
        "right_tail": {"kind": "none"},
        "c": float(np.min(gaps)),
        "C": float(np.max(gaps)),
    }


def _planted_line(rng: np.random.Generator, variant: str) -> tuple[dict, int]:
    """Strictly extremal gap between two periodic sides (acceptance 2)."""
    pattern = [float(g) for g in rng.uniform(0.5, 1.5, size=int(rng.integers(1, 4)))]
    side = pattern * int(rng.integers(2, 4))
    if variant == "max":
        planted = max(pattern) * float(rng.uniform(1.3, 2.5))
    else:
        planted = min(pattern) * float(rng.uniform(0.3, 0.7))
    window = [float(x) for x in np.concatenate([[0.0], np.cumsum(side + [planted] + side)])]
    values = pattern + [planted]
    config = {
        "window": window,
        "left_tail": {"kind": "periodic", "anchor": window[0] - pattern[0], "pattern": pattern},
        "right_tail": {"kind": "periodic", "anchor": window[-1] + pattern[0], "pattern": pattern},
        "c": min(values),
        "C": max(values),
    }
    return config, len(side)


def _planted_circle(rng: np.random.Generator, variant: str) -> tuple[dict, int]:
    n = int(rng.integers(3, 9))
    arcs = rng.uniform(0.5, 1.5, size=n)
    j = int(rng.integers(0, n))
    if variant == "max":
        arcs[j] = arcs.max() * float(rng.uniform(1.4, 2.0))
    else:
        arcs[j] = arcs.min() * float(rng.uniform(0.3, 0.7))
    arcs *= TWO_PI / arcs.sum()
    angles = [float(a) for a in np.concatenate([[0.0], np.cumsum(arcs[:-1])])]
    return {"angles": angles}, j


def _random_circle(rng: np.random.Generator, n: int) -> dict:
    arcs = rng.uniform(0.5, 1.5, size=n)
    arcs *= TWO_PI / arcs.sum()
    return {"angles": [float(a) for a in np.concatenate([[0.0], np.cumsum(arcs[:-1])])]}


def _cli_problems(rng: np.random.Generator) -> list[tuple[str, dict, dict]]:
    """(task, problem body, expectation) triples for one pass."""
    out: list[tuple[str, dict, dict]] = []

    def add(task: str, body: dict, expect: dict) -> None:
        out.append((task, {"schema_version": 1, "task": task, **body}, expect))

    # Dyadic gaps keep every lattice position exact in floating point, so the
    # exact net force is zero and |net| <= error_bound is a sharp check.
    sizes = _stratified(rng, 17, 33, 3)
    for i, gap in enumerate(_stratified(rng, 0.5, 2.0, 3)):
        gap = round(gap * 64) / 64
        n = int(sizes[i])
        add("residuals", {"law": LAWS[i], "config": _lattice_config(n, gap)},
            {"check": "lattice_residuals"})
    for i in range(3):
        add("residuals", {"law": LAWS[i], "config": _random_circle(rng, int(rng.integers(3, 17)))},
            {"check": "circle_residuals"})
    for i in range(4):
        variant = "max" if i % 2 == 0 else "min"
        config, gap_index = _planted_line(rng, variant)
        add("certify-gap", {"law": LAWS[i % 3], "config": config,
                            "params": {"gap_index": gap_index}}, {"check": "planted"})
        config, gap_index = _planted_circle(rng, variant)
        add("certify-gap", {"law": LAWS[(i + 1) % 3], "config": config,
                            "params": {"gap_index": gap_index}}, {"check": "planted"})
    for i in range(3):
        n = int(rng.integers(3, 12))
        gap = float(rng.uniform(0.5, 2.0))
        add("check-monotone", {"law": LAWS[i], "config": _finite_config([j * gap for j in range(n)])},
            {"check": "verdict", "verdict": "pass"})
    spread = float(rng.uniform(8.0, 12.0))
    add("check-monotone", {"law": COULOMB, "config": _finite_config([0.0, 1.0, spread])},
        {"check": "verdict", "verdict": "fail"})
    for _ in range(2):
        n = int(rng.integers(4, 12))
        window = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 2.0, size=n - 1))])
        add("gap-ratio", {"config": _finite_config(list(window))}, {"check": "gap_ratio"})
    for _ in range(2):
        add("gap-ratio", {"config": _random_circle(rng, int(rng.integers(3, 12)))},
            {"check": "gap_ratio"})
    for period in (1, 2, 3):
        pattern = list(rng.uniform(0.5, 1.5, size=period))
        gaps = pattern * (-(-14 // period))
        window = np.concatenate([[0.0], np.cumsum(gaps)])
        add("detect-period", {"config": _finite_config(list(window)),
                              "params": {"max_period": 4, "side": "right"}},
            {"check": "period", "period": period})
    window = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, size=14))])
    add("detect-period", {"config": _finite_config(list(window))}, {"check": "period", "period": None})
    for i in range(4):
        law = LAWS[i % 3]
        w = float(rng.uniform(0.0, 1.0))
        xs = sorted(float(v) for v in w - rng.uniform(0.5, 6.0, size=int(rng.integers(1, 6))))
        ys = sorted(float(v) for v in w - rng.uniform(0.5, 6.0, size=int(rng.integers(1, 6))))
        x_gap = float(rng.uniform(0.5, 2.0))
        params = {
            "x_positions": xs,
            "y_positions": ys,
            "w": w,
            "x_tail": {"kind": "arithmetic", "first": min(xs + ys) - x_gap, "gap": x_gap},
        }
        if i % 2 == 1:
            y_gap = float(rng.uniform(0.5, 2.0))
            params["y_tail"] = {"kind": "arithmetic", "first": min(xs + ys) - y_gap, "gap": y_gap}
        add("diff-field", {"law": law, "params": params}, {"check": "diff_field"})
    # Sizes vary little between seeds: the slowest tasks set latency_p90_ms.
    sizes = _stratified(rng, 800, 1200, 4)
    for n_terms in sizes[:2]:
        n_terms = int(n_terms)
        add("blaschke", {"params": {"w_positions": [float(i) for i in range(n_terms + 1)],
                                    "n_terms": n_terms, "growth_constant": 1.0}},
            {"check": "blaschke", "harmonic": True})
    for n_terms in sizes[2:]:
        n_terms = int(n_terms)
        lo, hi = float(rng.uniform(0.3, 0.8)), float(rng.uniform(1.2, 2.0))
        w = np.concatenate([[0.0], np.cumsum(rng.uniform(lo, hi, size=n_terms))])
        add("blaschke", {"params": {"w_positions": [float(v) for v in w],
                                    "n_terms": n_terms, "growth_constant": hi}},
            {"check": "blaschke", "harmonic": False})
    for m in (1, 2):
        length = int(rng.integers(7, 11))
        add("reconstruct", {
            "law": COULOMB,
            "params": {
                "w_window": [float(i) for i in range(length)],
                "m": m,
                "right_tail": {"kind": "arithmetic", "first": float(length), "gap": 1.0},
                "far_left_tail": {"kind": "arithmetic", "first": -(m + 1.0), "gap": 1.0},
                "multi_start": 4,
                "rng_seed": _seed_int(rng),
            },
        }, {"check": "reconstruct", "planted": [float(-(j + 1)) for j in reversed(range(m))]})

    # Malformed files: each must exit 2 with a JSON error object on stderr.
    base = {"law": COULOMB, "config": _lattice_config(int(rng.integers(5, 12)), 1.0)}
    add("residuals", {**base, "options": {"max_sweepz": 10}}, {"check": "error"})
    add("residuals", {**base, "schema_version": 2}, {"check": "error"})
    bad = _finite_config([0.0, 1.0, 2.0])
    bad["window"] = [0.0, 2.0, float(rng.uniform(0.5, 1.5))]
    add("gap-ratio", {"config": bad}, {"check": "error"})
    nan = _lattice_config(int(rng.integers(5, 12)), 1.0)
    nan["window"][int(rng.integers(1, 4))] = float("nan")
    add("residuals", {"law": COULOMB, "config": nan}, {"check": "error"})
    return out


# Tasks that accept --csv and --svg.
_CSV_TASKS = {"residuals", "blaschke"}
_SVG_TASKS = {"residuals"}


def _cli_op(workdir: Path, tag: str, task: str, body: dict, expect: dict) -> dict:
    problem = workdir / f"{tag}.json"
    # allow_nan: the malformed NaN case is written as a bare NaN token, which
    # Python's json reader (and so the CLI) accepts.
    problem.write_text(json.dumps(body, allow_nan=True), encoding="utf-8")
    outputs = {"out": str(workdir / f"{tag}.out.json")}
    if task in _CSV_TASKS:
        outputs["csv"] = str(workdir / f"{tag}.csv")
    if task in _SVG_TASKS:
        outputs["svg"] = str(workdir / f"{tag}.svg")
    argv = [task, "--problem", str(problem)]
    for flag, path in outputs.items():
        argv += [f"--{flag}", path]
    return {"kind": "cli", "task": task, "argv": argv, "outputs": outputs,
            "problem": body, **expect}


def _cli(rng: np.random.Generator, workdir: Path) -> tuple[list, list]:
    warm_rng = np.random.default_rng(0)
    warm_tasks: dict[str, tuple] = {}
    for task, body, expect in _cli_problems(warm_rng):
        if expect["check"] != "error":
            warm_tasks.setdefault(task, (task, body, expect))
    warmup = [_cli_op(workdir, f"warm-{i:02d}", *triple)
              for i, triple in enumerate(warm_tasks.values())]
    ops = [_cli_op(workdir, f"op-{i:02d}", *triple)
           for i, triple in enumerate(_cli_problems(rng))]
    order = rng.permutation(len(ops))
    return warmup, [ops[i] for i in order]


def generate(workload: str, seed: int, workdir: Path, smoke: bool = False) -> dict:
    """Build the spec for one workload; CLI problem files land in workdir.

    With `smoke`, one pass is only the fixed warm-up ops (plus, for
    cli-certify, the malformed files): tiny inputs for the self-tests.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "circle":
        warmup, ops = _circle(rng)
    elif workload == "line":
        warmup, ops = _line(rng)
    else:
        warmup, ops = _cli(rng, workdir)
    if smoke:
        ops = warmup + [op for op in ops if op.get("check") == "error"]
    return {"workload": workload, "seed": seed, "warmup": warmup, "ops": ops}
