"""Command line for the equilibrium workbench.

A task is one entry of `_TASK_TABLE`: a run function (one library call) and
what `_run_task` reads for it: a law, solver options, a configuration, and
params, each from its shorthand flag, else the problem file, else a default.
The JSON result goes to stdout or --out, with optional CSV and SVG artifacts.
Outputs are deterministic byte for byte for a fixed problem file and seed:
`_encode` writes the bytes of json.dumps(..., sort_keys=True, indent=2), the
SVG is built from fixed-format strings, and all randomness flows through the
single seed in the options.

Exit codes: 0 success (a certificate verdict of fail or inapplicable is
still a successful run), 2 usage or validation error (a machine-readable
error object goes to stderr), 3 failed convergence (the partial result is
still emitted, with converged false).
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
import textwrap
from json.encoder import encode_basestring_ascii as _escape
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple, NoReturn, Sequence

import numpy as np

from .certificates import (
    certify_extremal_gap,
    check_internal_force_monotonicity,
    detect_periodic_tail,
    gap_ratio_report,
)
from .configurations import (
    CircleConfig,
    LineConfig,
    TailModel,
    config_from_json,
    config_to_csv,
    config_to_json,
)
from .diagnostics import (
    ReconstructionProblem,
    blaschke_partial_sum,
    eval_difference_field,
    reconstruct_left_tail,
)
from .errors import (
    DomainError,
    EquilibError,
    Inapplicable,
    InfeasibleBracket,
    InsufficientEquations,
    InvalidInput,
    InvalidPins,
    NoConvergence,
    NotIntegrable,
    PostconditionViolation,
)
from .force_laws import _real, law_from_json, law_to_json
from .residuals import circle_residual_report, residual_report
from .solvers import (
    SolverOptions,
    ZeroCenteredProblem,
    extend_right,
    solve_circle_equilibrium,
    solve_pinned_segment,
    solve_zero_centered,
    sweep_relax,
)

__all__ = ["main", "run", "render_gap_plot"]

_LOG = logging.getLogger("equilib.cli")

SCHEMA_VERSION = 1

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


# ---------------------------------------------------------------------------
# Input plumbing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors raise InvalidInput instead of exiting."""

    def error(self, message: str) -> NoReturn:
        raise InvalidInput(message)


class _HelpFormatter(argparse.HelpFormatter):
    """Wraps help text without splitting hyphenated task names such as zero-centered."""

    def _split_lines(self, text: str, width: int) -> list[str]:
        return textwrap.wrap(" ".join(text.split()), width, break_on_hyphens=False)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args returns a fresh namespace on every
    # call, so one parser serves every run().
    parser = _Parser(
        prog="equilib",
        description="Equilibrium configurations of repelling particles: "
        "solvers, certificates, diagnostics.",
        formatter_class=_HelpFormatter,
    )
    parser.add_argument("task", choices=TASKS, metavar="TASK", help="one of: %(choices)s")
    parser.add_argument("--problem", help="JSON problem file")
    parser.add_argument("--out", help="write the JSON result here instead of stdout")
    parser.add_argument("--csv", help="write a CSV artifact here")
    parser.add_argument("--svg", help="write an SVG plot here")
    parser.add_argument("--seed", type=int, help="override options.rng_seed")
    parser.add_argument("--tol", type=float, help="options.residual_tol; residuals: tolerance")
    parser.add_argument("--n", type=int, help="params n, n_free or n_terms; wins over the file")
    parser.add_argument("--law", help="force law shorthand KIND:PARAM")
    parser.add_argument("--a", type=float, help="params a or left_pins [A]; wins over the file")
    parser.add_argument("--b", type=float, help="params b or right_pins [B]; wins over the file")
    return parser


def _load_problem(args) -> dict:
    if not args.problem:
        return {}
    try:
        with open(args.problem, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"problem file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"problem file: invalid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise InvalidInput("problem file: expected a JSON object")
    if "schema_version" not in obj:
        raise InvalidInput("schema_version: required")
    if obj["schema_version"] != SCHEMA_VERSION:
        raise InvalidInput(
            f"schema_version: expected {SCHEMA_VERSION}, got {obj['schema_version']!r}"
        )
    task = obj.get("task")
    if task is not None:
        if task not in TASKS:
            raise InvalidInput(f"task: unknown task {task!r}")
        if task != args.task:
            raise InvalidInput(
                f"task: problem file names {task!r} but the command line ran {args.task!r}"
            )
    return obj


def _integer(value, label: str) -> int:
    """A whole number from the problem file; anything else is InvalidInput."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"{label}: expected an integer, got {value!r}") from exc
    if isinstance(value, bool) or not number.is_integer():
        raise InvalidInput(f"{label}: expected an integer, got {value!r}")
    return int(number)


def _reals(value, label: str, convert=_real) -> list:
    """A list of floats (of ints with convert=_integer); a non-list is InvalidInput."""
    if not isinstance(value, (list, tuple)):
        raise InvalidInput(f"{label}: expected a list, got {value!r}")
    return [convert(v, label) for v in value]


_integers = functools.partial(_reals, convert=_integer)


def _window_range(value, label: str) -> tuple[int, int]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise InvalidInput(f"{label}: expected [start, stop]")
    return _integer(value[0], label), _integer(value[1], label)


def _tail(value, label: str) -> TailModel:
    return TailModel.none() if value is None else TailModel.from_json_dict(value)


def _as_is(value, label: str):
    return value


def _get_law(args, problem: dict):
    if not args.law:
        if "law" not in problem:
            raise InvalidInput("law: required")
        return law_from_json(problem["law"])
    kind, sep, param = args.law.partition(":")
    if not sep:
        raise InvalidInput(f"law: expected KIND:PARAM, got {args.law!r}")
    try:
        k = float(param)
    except ValueError as exc:
        raise InvalidInput(f"law: parameter {param!r} is not a number") from exc
    return law_from_json({"kind": kind, "k": k})


def _get_config(problem: dict, line_task: str | None = None):
    """The problem's configuration; naming `line_task` rejects a circle."""
    if "config" not in problem:
        raise InvalidInput("config: required")
    config = config_from_json(problem["config"])
    if line_task is not None and not isinstance(config, LineConfig):
        raise InvalidInput(f"config: {line_task} expects a line configuration")
    return config


def _seed(value, label: str) -> int:
    """A random seed: a nonnegative whole number."""
    seed = _integer(value, label)
    if seed < 0:
        raise InvalidInput(f"{label}: expected a nonnegative integer, got {value!r}")
    return seed


def _boolean(value, label: str) -> bool:
    if not isinstance(value, bool):
        raise InvalidInput(f"{label}: expected true or false, got {value!r}")
    return value


_OPTION_CASTS = {
    "residual_tol": _real,
    "position_tol": _real,
    "max_sweeps": _integer,
    "max_outer_iters": _integer,
    "rng_seed": _seed,
    "extension_points": _integer,
    "guard_band": _integer,
    "truncation_levels": lambda v, label: tuple(_integers(v, label)),
    "multi_start": _integer,
    "track_energy": _boolean,
}


def _validate_options_block(problem: dict) -> dict[str, Any]:
    # Rejecting stray keys even on tasks that ignore options keeps a typoed
    # problem file from silently running with defaults.
    raw = problem.get("options", {})
    if not isinstance(raw, dict):
        raise InvalidInput("options: expected an object")
    kwargs: dict[str, Any] = {}
    for key, value in raw.items():
        cast = _OPTION_CASTS.get(key)
        if cast is None:
            raise InvalidInput(f"options.{key}: unknown option")
        kwargs[key] = cast(value, f"options.{key}")
    return kwargs


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------


def _encode(obj, indent: str) -> str:
    """obj as json.dumps(obj, sort_keys=True, indent=2) writes it, built in one pass.

    `indent` is a newline plus obj's indentation; keys go through str() first.
    """
    if isinstance(obj, float):
        if math.isfinite(obj):
            return float.__repr__(obj)
        return "NaN" if obj != obj else "Infinity" if obj > 0.0 else "-Infinity"
    if isinstance(obj, str):
        return _escape(obj)
    if obj is None or obj is True or obj is False:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        items = sorted({str(k): v for k, v in obj.items()}.items())
        parts = [_escape(k) + ": " + _encode(v, inner) for k, v in items]
        return "{" + inner + ("," + inner).join(parts) + indent + "}" if parts else "{}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        parts = [_encode(v, inner) for v in (obj.tolist() if isinstance(obj, np.ndarray) else obj)]
        return "[" + inner + ("," + inner).join(parts) + indent + "]" if parts else "[]"
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return _encode(float(obj) if isinstance(obj, np.floating) else obj.item(), indent)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _dump_json(payload: dict) -> str:
    return _encode(payload, "\n") + "\n"


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_error(code: str, message: str) -> None:
    sys.stderr.write(_dump_json({"error": {"code": code, "message": message}}))


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _arrow(x: float, y: float, direction: float, length: float) -> list[str]:
    tip = x + direction * length
    back = tip - direction * 5.0
    return [
        f'<line x1="{_fmt(x)}" y1="{_fmt(y)}" x2="{_fmt(tip)}" y2="{_fmt(y)}" '
        'stroke="#c22" stroke-width="1.5"/>',
        f'<polygon points="{_fmt(tip)},{_fmt(y)} {_fmt(back)},{_fmt(y - 3)} '
        f'{_fmt(back)},{_fmt(y + 3)}" fill="#c22"/>',
    ]


def _render_line_plot(config: LineConfig, report) -> str:
    window = config.window
    lo, hi = window[0], window[-1]
    span = hi - lo if hi > lo else 1.0
    xmap = lambda p: 60.0 + 520.0 * (p - lo) / span
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 640 160" '
        'width="640" height="160">',
        '<line x1="30" y1="80" x2="610" y2="80" stroke="#999" stroke-width="1"/>',
    ]
    for p in window:
        parts.append(
            f'<circle cx="{_fmt(xmap(p))}" cy="80" r="4" fill="#000"/>'
        )
    for a, b in zip(window, window[1:]):
        mid = 0.5 * (xmap(a) + xmap(b))
        parts.append(
            f'<text x="{_fmt(mid)}" y="102" text-anchor="middle" '
            f'font-size="10" fill="#333">{b - a:.6g}</text>'
        )
    if report is not None:
        # Physical rightward net force; report rows store f_plus - f_minus.
        nets = [-row.net for row in report.rows]
        top = max((abs(v) for v in nets), default=0.0)
        if top > 1e-12:
            scale = 48.0 / top
            for p, net in zip(window, nets):
                length = abs(net) * scale
                if length < 0.5:
                    continue
                parts.extend(_arrow(xmap(p), 58.0, math.copysign(1.0, net), length))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _render_circle_plot(config: CircleConfig, report) -> str:
    cx = cy = 160.0
    radius = 120.0
    angles = config.angles
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 320 320" '
        'width="320" height="320">',
        f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(radius)}" '
        'fill="none" stroke="#999" stroke-width="1"/>',
    ]
    pts = [(cx + radius * math.cos(t), cy - radius * math.sin(t)) for t in angles]
    for x, y in pts:
        parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="#000"/>')
    arcs = config.arc_gaps()
    for i, arc in enumerate(arcs):
        mid = angles[i] + 0.5 * arc
        lx = cx + (radius + 18.0) * math.cos(mid)
        ly = cy - (radius + 18.0) * math.sin(mid)
        parts.append(
            f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" text-anchor="middle" '
            f'font-size="10" fill="#333">{arc:.4g}</text>'
        )
    if report is not None:
        nets = [row.net for row in report.rows]
        top = max((abs(v) for v in nets), default=0.0)
        if top > 1e-12:
            scale = 30.0 / top
            for t, (x, y), net in zip(angles, pts, nets):
                length = abs(net) * scale
                if length < 0.5:
                    continue
                # Counterclockwise tangent in screen coordinates.
                s = math.copysign(1.0, net)
                tx, ty = -math.sin(t) * s, -math.cos(t) * s
                tipx, tipy = x + tx * length, y + ty * length
                parts.append(
                    f'<line x1="{_fmt(x)}" y1="{_fmt(y)}" x2="{_fmt(tipx)}" '
                    f'y2="{_fmt(tipy)}" stroke="#c22" stroke-width="1.5"/>'
                )
                parts.append(
                    f'<circle cx="{_fmt(tipx)}" cy="{_fmt(tipy)}" r="2" fill="#c22"/>'
                )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_gap_plot(config, report=None) -> str:
    """Deterministic SVG: particle dots, gap labels, net-force arrows.

    Arrows point along the physical net force and scale with its
    magnitude relative to the largest one; particles in equilibrium get
    no arrow.
    """
    if isinstance(config, CircleConfig):
        return _render_circle_plot(config, report)
    if isinstance(config, LineConfig):
        return _render_line_plot(config, report)
    raise InvalidInput("render_gap_plot expects a line or circle configuration")


# ---------------------------------------------------------------------------
# Tasks: a run function per task, and the table of what each one reads
# ---------------------------------------------------------------------------


def _solved(result: dict, config, report: Callable, code: int = 0):
    """A solver task's return, with CSV and SVG builders; report() feeds the SVG."""
    return (result, config, code, lambda: config_to_csv(config),
            lambda: render_gap_plot(config, report()))


def _fields(stats, names: str) -> dict:
    return {name: getattr(stats, name) for name in names.split()}


def _solve_circle(t):
    config, stats = solve_circle_equilibrium(t.n, t.law, opts=t.opts)
    result = {"angles": config.angles, **_fields(stats, "sweeps newton_iters residual converged")}
    return _solved(result, config, lambda: circle_residual_report(config, t.law))


def _solve_segment(t):
    positions, stats = solve_pinned_segment(t.left_pins, t.right_pins, t.n_free, t.law, t.opts)
    result = {"positions": positions, **_fields(stats, "sweeps residual converged")}
    return _solved(result, stats.config, lambda: residual_report(stats.config, t.law))


def _relax(t):
    config, law, opts = t.config, t.law, t.opts
    fixed = [0, config.n - 1] if t.fixed is None else t.fixed
    sweeps, residual, max_displacement, report = 0, math.inf, 0.0, None
    while sweeps < opts.max_sweeps and not residual <= opts.residual_tol:
        config, stats = sweep_relax(config, fixed, law, t.direction, opts)
        sweeps, max_displacement = sweeps + 1, stats.max_displacement
        report = residual_report(config, law)
        residual = max(
            (abs(row.net) for i, row in enumerate(report.rows) if i not in fixed),
            default=0.0,
        )
    converged = residual <= opts.residual_tol
    result = {"sweeps": sweeps, "residual": residual, "max_displacement": max_displacement,
              "converged": converged}
    last = lambda: report if report is not None else residual_report(config, law)  # no pass ran
    return _solved(result, config, last, 0 if converged else 3)


def _zero_centered(t):
    config, stats = solve_zero_centered(ZeroCenteredProblem(t.a, t.b, t.n, t.law), t.opts)
    names = "outer_iters inner_sweeps target_errors residual converged"
    result = {"positions": config.window, **_fields(stats, names)}
    return _solved(result, config, lambda: residual_report(config, t.law))


def _extend(t):
    positions, stats = extend_right(t.config, t.x0, t.law, t.opts)
    names = "levels_used level_disagreement sweeps continuation_gap residual converged"
    result = {"positions": positions, **_fields(stats, names)}
    return _solved(result, stats.config, lambda: residual_report(stats.config, t.law))


def _certify_gap(t):
    try:
        result = certify_extremal_gap(t.config, t.law, t.gap_index).to_json_dict()
    except Inapplicable as exc:
        circle = isinstance(t.config, CircleConfig)
        result = {
            "kind": "extremal_gap_circle" if circle else "extremal_gap_line",
            "verdict": "inapplicable",
            "conclusion": str(exc),
            "details": {"gap_index": t.gap_index},
            "evidence": [],
        }
    return result, t.config, 0, None, None


def _check_monotone(t):
    window_range = (0, t.config.n) if t.window_range is None else t.window_range
    certificate = check_internal_force_monotonicity(t.config, t.law, window_range)
    return certificate.to_json_dict(), t.config, 0, None, None


def _gap_ratio(t):
    return gap_ratio_report(t.config).to_json_dict(), t.config, 0, None, None


def _detect_period(t):
    tail = detect_periodic_tail(t.config, side=t.side, max_period=t.max_period, tol=t.tol)
    if tail is None:
        result = {"kind": "periodic_tail", "found": False, "side": t.side,
                  "max_period": t.max_period}
    else:
        result = {"found": True, **tail.to_json_dict()}
    return result, t.config, 0, None, None


def _residuals(t):
    if isinstance(t.config, CircleConfig):
        report = circle_residual_report(t.config, t.law)
    else:
        report = residual_report(t.config, t.law, tolerance=t.tolerance)
    svg = lambda: render_gap_plot(t.config, report)
    return report.to_json_dict(), t.config, 0, report.to_csv, svg


def _diff_field(t):
    value, bound = eval_difference_field(
        t.x_positions, t.y_positions, t.w, t.law, x_tail=t.x_tail, y_tail=t.y_tail
    )
    return {"w": t.w, "value": value, "error_bound": bound}, None, 0, None, None


def _blaschke(t):
    if t.w_positions is not None:
        source = t.w_positions
    elif "config" in t.problem:
        source = _get_config(t.problem, "blaschke")
    else:
        raise InvalidInput("params.w_positions: required (or provide a config)")
    report = blaschke_partial_sum(source, t.n_terms, t.growth_constant)
    result = {
        "n_terms": t.n_terms,
        "growth_constant": report.growth_constant,
        "partial_sum": report.partial_sum,
        "lower_bound_sum": report.lower_bound_sum,
        "dominates": bool(report.partial_sum >= report.lower_bound_sum - 1e-9),
    }

    def csv() -> str:
        columns = [map(str, report.indices.tolist())]
        columns += [map(repr, col.tolist())
                    for col in (report.w, report.z, report.one_minus_z, report.cumulative)]
        return "\n".join(["n,w,z,one_minus_z,cumulative", *map(",".join, zip(*columns))]) + "\n"

    return result, None, 0, csv, None


def _reconstruct(t):
    rec = ReconstructionProblem(
        w_window=tuple(t.w_window),
        m=t.m,
        law=t.law,
        right_tail=t.right_tail,
        far_left_tail=t.far_left_tail,
        multi_start=t.multi_start,
        rng_seed=t.rng_seed,
    )
    return reconstruct_left_tail(rec, t.opts).to_json_dict(), None, 0, None, None


_REQUIRED = object()
_NO_TAIL = TailModel.none()


class _Task(NamedTuple):
    run: Callable  # returns (result, config, exit_code, csv builder, svg builder)
    law: bool = False
    options: bool = False
    config: str | None = None  # None, "any", or "line" (a circle is rejected)
    params: tuple = ()  # of (key, converter, shorthand flag or None, default or _REQUIRED)


# A None default leaves the choice to the run function or the library.
_TASK_TABLE = {
    "solve-circle": _Task(_solve_circle, law=True, options=True,
                          params=(("n", _integer, "n", _REQUIRED),)),
    "solve-segment": _Task(_solve_segment, law=True, options=True, params=(
        ("left_pins", _reals, "a", _REQUIRED), ("right_pins", _reals, "b", _REQUIRED),
        ("n_free", _integer, "n", _REQUIRED))),
    "relax": _Task(_relax, law=True, options=True, config="line", params=(
        ("fixed", _integers, None, None), ("direction", _as_is, None, "ltr"))),
    "zero-centered": _Task(_zero_centered, law=True, options=True, params=(
        ("n", _integer, "n", _REQUIRED), ("a", _real, "a", _REQUIRED),
        ("b", _real, "b", _REQUIRED))),
    "extend": _Task(_extend, law=True, options=True, config="line",
                    params=(("x0", _real, None, _REQUIRED),)),
    "certify-gap": _Task(_certify_gap, law=True, config="any",
                         params=(("gap_index", _integer, None, _REQUIRED),)),
    "check-monotone": _Task(_check_monotone, law=True, config="line",
                            params=(("window_range", _window_range, None, None),)),
    "gap-ratio": _Task(_gap_ratio, config="any"),
    "detect-period": _Task(_detect_period, config="line", params=(
        ("side", _as_is, None, "right"), ("max_period", _integer, None, 4),
        ("tol", _real, None, 1e-9))),
    "residuals": _Task(_residuals, law=True, config="any",
                       params=(("tolerance", _real, "tol", 1e-12),)),
    "diff-field": _Task(_diff_field, law=True, params=(
        ("x_positions", _reals, None, _REQUIRED), ("y_positions", _reals, None, _REQUIRED),
        ("w", _real, None, _REQUIRED), ("x_tail", _tail, None, _NO_TAIL),
        ("y_tail", _tail, None, _NO_TAIL))),
    "blaschke": _Task(_blaschke, params=(
        ("n_terms", _integer, "n", _REQUIRED), ("growth_constant", _real, None, None),
        ("w_positions", _reals, None, None))),
    "reconstruct": _Task(_reconstruct, law=True, options=True, params=(
        ("w_window", _reals, None, _REQUIRED), ("m", _integer, None, _REQUIRED),
        ("right_tail", _tail, None, _NO_TAIL), ("far_left_tail", _tail, None, _NO_TAIL),
        ("multi_start", _integer, None, None), ("rng_seed", _seed, None, None))),
}

TASKS = tuple(_TASK_TABLE)


def _read_param(args, params: dict, key: str, convert, flag, default):
    """One param: its flag, else the problem file, else its default, converted.

    A param is labelled by its bare key when its flag has the same name and
    as params.<key> otherwise.  A param whose default is None may be null.
    """
    label = key if key == flag else f"params.{key}"
    value = getattr(args, flag) if flag else None
    if value is not None:
        if convert is _reals:  # a pin flag gives a one-pin list
            value = [value]
    elif key in params:
        value = params[key]
    elif default is _REQUIRED:
        raise InvalidInput(f"{label}: required")
    else:
        return default
    if value is None and default is None:
        return None
    return convert(value, label)


def _run_task(args, problem: dict):
    """Run one task from its table entry; returns (payload, exit_code, csv builder, svg builder)."""
    options = _validate_options_block(problem)
    task = _TASK_TABLE[args.task]
    params = problem.get("params", {})
    if not isinstance(params, dict):
        raise InvalidInput("params: expected an object")
    t = SimpleNamespace(problem=problem, law=None)
    for key, *spec in task.params:
        setattr(t, key, _read_param(args, params, key, *spec))
    if task.config is not None:
        t.config = _get_config(problem, args.task if task.config == "line" else None)
    if task.law:
        t.law = _get_law(args, problem)
    if task.options:
        if args.seed is not None:
            options["rng_seed"] = _seed(args.seed, "--seed")
        if args.tol is not None:
            options["residual_tol"] = args.tol
        t.opts = SolverOptions(**options)
    result, config, code, csv, svg = task.run(t)
    payload = {"schema_version": SCHEMA_VERSION, "task": args.task, "result": result}
    if t.law is not None:
        payload["law"] = law_to_json(t.law)
    if config is not None:
        payload["config"] = config_to_json(config)
    return payload, code, csv, svg


_ERROR_CODES = (
    (InfeasibleBracket, "infeasible"),
    (DomainError, "domain_error"),
    (NotIntegrable, "not_integrable"),
    (InsufficientEquations, "insufficient_equations"),
    (InvalidPins, "invalid_pins"),
    (InvalidInput, "invalid_input"),
    (Inapplicable, "inapplicable"),
    (PostconditionViolation, "postcondition_violation"),
)


def _configure_logging() -> None:
    raw = os.environ.get("EQUILIB_LOG", "error")
    level = _LOG_LEVELS.get(raw)
    if level is None:
        raise InvalidInput(
            f"EQUILIB_LOG: expected one of {', '.join(sorted(_LOG_LEVELS))}, got {raw!r}"
        )
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    logging.getLogger("equilib").setLevel(level)


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv, run one task, write artifacts; returns the exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # -h/--help; usage errors raise InvalidInput
        code = exc.code
        return code if isinstance(code, int) else 2
    except InvalidInput as exc:
        _emit_error("invalid_input", str(exc))
        return 2
    try:
        _configure_logging()
        _LOG.info("task %s", args.task)
        payload, code, csv, svg = _run_task(args, _load_problem(args))
        if args.csv is not None and csv is None:
            raise InvalidInput(f"csv: not available for task {args.task!r}")
        if args.svg is not None and svg is None:
            raise InvalidInput(f"svg: not available for task {args.task!r}")
        # Only requested artifacts are built, all before anything is written.
        artifacts = [(build(), path) for build, path in ((csv, args.csv), (svg, args.svg))
                     if path is not None]
        _write_text(_dump_json(payload), args.out)
        for text, path in artifacts:
            _write_text(text, path)
        _LOG.info("task %s finished with exit code %d", args.task, code)
        return code
    except NoConvergence as exc:
        result: dict[str, Any] = {"converged": False, "message": str(exc)}
        if exc.residual is not None:
            result["residual"] = float(exc.residual)
        if exc.iterations is not None:
            result["iterations"] = int(exc.iterations)
        if exc.last is not None:
            result["last"] = list(exc.last)
        _write_text(
            _dump_json({"schema_version": SCHEMA_VERSION, "task": args.task, "result": result}),
            args.out,
        )
        return 3
    except EquilibError as exc:
        for cls, code_name in _ERROR_CODES:
            if isinstance(exc, cls):
                _emit_error(code_name, str(exc))
                break
        else:
            _emit_error("error", str(exc))
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
