"""Command line for the equilibrium workbench.

Every task reads an optional JSON problem file plus a few
shorthand flags, runs one library operation, and writes a JSON result
(stdout or --out), with optional CSV and SVG artifacts.  Outputs are
deterministic byte for byte for a fixed problem file and seed: `_encode`
writes, in one pass, the bytes of json.dumps(..., sort_keys=True, indent=2),
the SVG is assembled from fixed-format strings, and all randomness flows
through the single seed in the options.

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
from typing import Any, NoReturn, Sequence

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

TASKS = (
    "solve-circle",
    "solve-segment",
    "relax",
    "zero-centered",
    "extend",
    "certify-gap",
    "check-monotone",
    "gap-ratio",
    "detect-period",
    "residuals",
    "diff-field",
    "blaschke",
    "reconstruct",
)

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
    parser.add_argument("--tol", type=float, help="override options.residual_tol")
    parser.add_argument("--n", type=int, help="particle count shorthand")
    parser.add_argument("--law", help="force law shorthand KIND:PARAM")
    parser.add_argument("--a", type=float, help="left target/pin shorthand")
    parser.add_argument("--b", type=float, help="right target/pin shorthand")
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


def _params(problem: dict) -> dict:
    params = problem.get("params", {})
    if not isinstance(params, dict):
        raise InvalidInput("params: expected an object")
    return params


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


def _number_list(value, label: str, convert=_real) -> list:
    """A list of floats (of ints with convert=_integer); a non-list is InvalidInput."""
    if not isinstance(value, (list, tuple)):
        raise InvalidInput(f"{label}: expected a list, got {value!r}")
    return [convert(v, label) for v in value]


def _parse_law_flag(text: str) -> dict:
    kind, sep, param = text.partition(":")
    if not sep:
        raise InvalidInput(f"law: expected KIND:PARAM, got {text!r}")
    try:
        value = float(param)
    except ValueError as exc:
        raise InvalidInput(f"law: parameter {param!r} is not a number") from exc
    return {"kind": kind, "k": value}


def _get_law(args, problem: dict):
    if args.law:
        return law_from_json(_parse_law_flag(args.law))
    if "law" in problem:
        return law_from_json(problem["law"])
    raise InvalidInput("law: required")


def _get_config(problem: dict):
    if "config" not in problem:
        raise InvalidInput("config: required")
    return config_from_json(problem["config"])


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
    "truncation_levels": lambda v, label: tuple(_number_list(v, label, _integer)),
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


def _get_options(args) -> SolverOptions:
    kwargs = dict(args.options)  # the options block, cast once by `run`
    if args.seed is not None:
        kwargs["rng_seed"] = _seed(args.seed, "--seed")
    if args.tol is not None:
        kwargs["residual_tol"] = args.tol
    return SolverOptions(**kwargs)


def _require_param(params: dict, key: str):
    if key not in params:
        raise InvalidInput(f"params.{key}: required")
    return params[key]


def _optional(params: dict, key: str, convert):
    value = params.get(key)
    return None if value is None else convert(value, f"params.{key}")


def _tail_from(params: dict, key: str) -> TailModel:
    if key not in params or params[key] is None:
        return TailModel.none()
    return TailModel.from_json_dict(params[key])


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


def _payload(task: str, law=None, config=None, result: dict | None = None) -> dict:
    out: dict[str, Any] = {"schema_version": SCHEMA_VERSION, "task": task}
    if law is not None:
        out["law"] = law_to_json(law)
    if config is not None:
        out["config"] = config_to_json(config)
    out["result"] = result or {}
    return out


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
# Task handlers: each returns (payload, exit_code, csv_text, svg_text)
# ---------------------------------------------------------------------------


def _h_solve_circle(args, problem):
    params = _params(problem)
    n = args.n if args.n is not None else params.get("n")
    if n is None:
        raise InvalidInput("n: required")
    law = _get_law(args, problem)
    opts = _get_options(args)
    config, stats = solve_circle_equilibrium(_integer(n, "n"), law, opts=opts)
    report = circle_residual_report(config, law)
    result = {
        "angles": list(config.angles),
        "sweeps": stats.sweeps,
        "newton_iters": stats.newton_iters,
        "residual": stats.residual,
        "converged": stats.converged,
    }
    payload = _payload(args.task, law, config, result)
    code = 0 if stats.converged else 3
    return payload, code, config_to_csv(config), render_gap_plot(config, report)


def _h_solve_segment(args, problem):
    params = _params(problem)
    left = params.get("left_pins", [args.a] if args.a is not None else None)
    right = params.get("right_pins", [args.b] if args.b is not None else None)
    n_free = args.n if args.n is not None else params.get("n_free")
    if left is None:
        raise InvalidInput("params.left_pins: required")
    if right is None:
        raise InvalidInput("params.right_pins: required")
    if n_free is None:
        raise InvalidInput("params.n_free: required")
    law = _get_law(args, problem)
    opts = _get_options(args)
    n_free = _integer(n_free, "n_free")
    positions, stats = solve_pinned_segment(
        _number_list(left, "params.left_pins"),
        _number_list(right, "params.right_pins"),
        n_free,
        law,
        opts,
    )
    report = residual_report(stats.config, law)
    result = {
        "positions": list(positions),
        "sweeps": stats.sweeps,
        "residual": stats.residual,
        "converged": stats.converged,
    }
    payload = _payload(args.task, law, stats.config, result)
    code = 0 if stats.converged else 3
    return payload, code, config_to_csv(stats.config), render_gap_plot(stats.config, report)


def _h_relax(args, problem):
    params = _params(problem)
    config = _get_config(problem)
    if not isinstance(config, LineConfig):
        raise InvalidInput("config: relax expects a line configuration")
    law = _get_law(args, problem)
    opts = _get_options(args)
    fixed = _number_list(params.get("fixed", [0, config.n - 1]), "params.fixed", _integer)
    direction = params.get("direction", "ltr")
    fixed_set = set(fixed)
    residual = math.inf
    sweeps = 0
    max_displacement = 0.0
    report = None
    for _ in range(opts.max_sweeps):
        config, stats = sweep_relax(config, fixed, law, direction, opts)
        sweeps += 1
        max_displacement = stats.max_displacement
        report = residual_report(config, law)
        residual = max(
            (abs(row.net) for i, row in enumerate(report.rows) if i not in fixed_set),
            default=0.0,
        )
        if residual <= opts.residual_tol:
            break
    converged = residual <= opts.residual_tol
    if report is None:  # no pass ran
        report = residual_report(config, law)
    result = {
        "sweeps": sweeps,
        "residual": residual,
        "max_displacement": max_displacement,
        "converged": converged,
    }
    payload = _payload(args.task, law, config, result)
    return (
        payload,
        0 if converged else 3,
        config_to_csv(config),
        render_gap_plot(config, report),
    )


def _h_zero_centered(args, problem):
    params = _params(problem)
    n = args.n if args.n is not None else params.get("n")
    a = args.a if args.a is not None else params.get("a")
    b = args.b if args.b is not None else params.get("b")
    for name, value in (("n", n), ("a", a), ("b", b)):
        if value is None:
            raise InvalidInput(f"{name}: required")
    law = _get_law(args, problem)
    opts = _get_options(args)
    config, stats = solve_zero_centered(
        ZeroCenteredProblem(a=_real(a, "a"), b=_real(b, "b"), n=_integer(n, "n"), law=law), opts
    )
    report = residual_report(config, law)
    result = {
        "positions": list(config.window),
        "outer_iters": stats.outer_iters,
        "inner_sweeps": stats.inner_sweeps,
        "target_errors": list(stats.target_errors),
        "residual": stats.residual,
        "converged": stats.converged,
    }
    payload = _payload(args.task, law, config, result)
    code = 0 if stats.converged else 3
    return payload, code, config_to_csv(config), render_gap_plot(config, report)


def _h_extend(args, problem):
    params = _params(problem)
    config = _get_config(problem)
    if not isinstance(config, LineConfig):
        raise InvalidInput("config: extend expects a line configuration")
    x0 = _real(_require_param(params, "x0"), "params.x0")
    law = _get_law(args, problem)
    opts = _get_options(args)
    positions, stats = extend_right(config, x0, law, opts)
    out_config = stats.config
    report = residual_report(out_config, law) if out_config is not None else None
    result = {
        "positions": list(positions),
        "levels_used": stats.levels_used,
        "level_disagreement": stats.level_disagreement,
        "sweeps": stats.sweeps,
        "continuation_gap": stats.continuation_gap,
        "residual": stats.residual,
        "converged": stats.converged,
    }
    payload = _payload(args.task, law, out_config, result)
    code = 0 if stats.converged else 3
    csv = config_to_csv(out_config) if out_config is not None else None
    svg = render_gap_plot(out_config, report) if out_config is not None else None
    return payload, code, csv, svg


def _h_certify_gap(args, problem):
    params = _params(problem)
    config = _get_config(problem)
    law = _get_law(args, problem)
    gap_index = _integer(_require_param(params, "gap_index"), "params.gap_index")
    try:
        certificate = certify_extremal_gap(config, law, gap_index)
        result = certificate.to_json_dict()
    except Inapplicable as exc:
        kind = (
            "extremal_gap_circle"
            if isinstance(config, CircleConfig)
            else "extremal_gap_line"
        )
        result = {
            "kind": kind,
            "verdict": "inapplicable",
            "conclusion": str(exc),
            "details": {"gap_index": gap_index},
            "evidence": [],
        }
    payload = _payload(args.task, law, config, result)
    return payload, 0, None, None


def _h_check_monotone(args, problem):
    params = _params(problem)
    config = _get_config(problem)
    if not isinstance(config, LineConfig):
        raise InvalidInput("config: check-monotone expects a line configuration")
    law = _get_law(args, problem)
    raw = params.get("window_range", [0, config.n])
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise InvalidInput("params.window_range: expected [start, stop]")
    start, stop = (_integer(v, "params.window_range") for v in raw)
    certificate = check_internal_force_monotonicity(config, law, (start, stop))
    payload = _payload(args.task, law, config, certificate.to_json_dict())
    return payload, 0, None, None


def _h_gap_ratio(args, problem):
    config = _get_config(problem)
    certificate = gap_ratio_report(config)
    payload = _payload(args.task, None, config, certificate.to_json_dict())
    return payload, 0, None, None


def _h_detect_period(args, problem):
    params = _params(problem)
    config = _get_config(problem)
    if not isinstance(config, LineConfig):
        raise InvalidInput("config: detect-period expects a line configuration")
    side = params.get("side", "right")
    max_period = _integer(params.get("max_period", 4), "params.max_period")
    tol = _real(params.get("tol", 1e-9), "params.tol")
    tail = detect_periodic_tail(config, side=side, max_period=max_period, tol=tol)
    if tail is None:
        result = {"kind": "periodic_tail", "found": False, "side": side,
                  "max_period": max_period}
    else:
        result = {"found": True, **tail.to_json_dict()}
    payload = _payload(args.task, None, config, result)
    return payload, 0, None, None


def _h_residuals(args, problem):
    params = _params(problem)
    config = _get_config(problem)
    law = _get_law(args, problem)
    tolerance = (
        args.tol
        if args.tol is not None
        else _real(params.get("tolerance", 1e-12), "params.tolerance")
    )
    if isinstance(config, CircleConfig):
        report = circle_residual_report(config, law)
    else:
        report = residual_report(config, law, tolerance=tolerance)
    payload = _payload(args.task, law, config, report.to_json_dict())
    return payload, 0, report.to_csv(), render_gap_plot(config, report)


def _h_diff_field(args, problem):
    params = _params(problem)
    law = _get_law(args, problem)
    x_positions = _number_list(_require_param(params, "x_positions"), "params.x_positions")
    y_positions = _number_list(_require_param(params, "y_positions"), "params.y_positions")
    w = _real(_require_param(params, "w"), "params.w")
    x_tail = _tail_from(params, "x_tail")
    y_tail = _tail_from(params, "y_tail")
    value, bound = eval_difference_field(
        x_positions, y_positions, w, law, x_tail=x_tail, y_tail=y_tail
    )
    result = {"w": w, "value": value, "error_bound": bound}
    payload = _payload(args.task, law, None, result)
    return payload, 0, None, None


def _h_blaschke(args, problem):
    params = _params(problem)
    n_terms = args.n if args.n is not None else params.get("n_terms")
    if n_terms is None:
        raise InvalidInput("params.n_terms: required")
    growth_constant = params.get("growth_constant")
    if "w_positions" in params:
        source = _number_list(params["w_positions"], "params.w_positions")
    elif "config" in problem:
        source = _get_config(problem)
        if not isinstance(source, LineConfig):
            raise InvalidInput("config: blaschke expects a line configuration")
    else:
        raise InvalidInput("params.w_positions: required (or provide a config)")
    n_terms = _integer(n_terms, "params.n_terms")
    report = blaschke_partial_sum(source, n_terms, growth_constant)
    result = {
        "n_terms": n_terms,
        "growth_constant": report.growth_constant,
        "partial_sum": report.partial_sum,
        "lower_bound_sum": report.lower_bound_sum,
        "dominates": bool(report.partial_sum >= report.lower_bound_sum - 1e-9),
    }
    payload = _payload(args.task, None, None, result)
    columns = [map(str, report.indices.tolist())]
    columns += [map(repr, col.tolist())
                for col in (report.w, report.z, report.one_minus_z, report.cumulative)]
    csv = "\n".join(["n,w,z,one_minus_z,cumulative", *map(",".join, zip(*columns))])
    return payload, 0, csv + "\n", None


def _h_reconstruct(args, problem):
    params = _params(problem)
    law = _get_law(args, problem)
    opts = _get_options(args)
    rec = ReconstructionProblem(
        w_window=tuple(_number_list(_require_param(params, "w_window"), "params.w_window")),
        m=_integer(_require_param(params, "m"), "params.m"),
        law=law,
        right_tail=_tail_from(params, "right_tail"),
        far_left_tail=_tail_from(params, "far_left_tail"),
        multi_start=_optional(params, "multi_start", _integer),
        rng_seed=_optional(params, "rng_seed", _seed),
    )
    report = reconstruct_left_tail(rec, opts)
    payload = _payload(args.task, law, None, report.to_json_dict())
    return payload, 0, None, None


_HANDLERS = {
    "solve-circle": _h_solve_circle,
    "solve-segment": _h_solve_segment,
    "relax": _h_relax,
    "zero-centered": _h_zero_centered,
    "extend": _h_extend,
    "certify-gap": _h_certify_gap,
    "check-monotone": _h_check_monotone,
    "gap-ratio": _h_gap_ratio,
    "detect-period": _h_detect_period,
    "residuals": _h_residuals,
    "diff-field": _h_diff_field,
    "blaschke": _h_blaschke,
    "reconstruct": _h_reconstruct,
}

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
        problem = _load_problem(args)
        args.options = _validate_options_block(problem)
        payload, code, csv_text, svg_text = _HANDLERS[args.task](args, problem)
        if args.csv is not None and csv_text is None:
            raise InvalidInput(f"csv: not available for task {args.task!r}")
        if args.svg is not None and svg_text is None:
            raise InvalidInput(f"svg: not available for task {args.task!r}")
        _write_text(_dump_json(payload), args.out)
        if args.csv is not None:
            _write_text(csv_text, args.csv)
        if args.svg is not None:
            _write_text(svg_text, args.svg)
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
