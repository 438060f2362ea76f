"""Op runners and output checks for the benchmark workloads.

Each op kind has three steps.  `prepare` builds the library objects an op
needs (laws, configurations, options) once, outside the timed region.
`call` is the timed part: exactly one public library or CLI call.  `check`
verifies the output against an independent oracle or the documented
contract, outside the timed region, and returns counters taken from the
public stats objects and CLI outputs; it raises `CheckFailed` when the
output is wrong.

Counters are summed over the run, except `solvers.max_residual`, which is
a maximum.  They depend only on the inputs, so they repeat exactly across
runs of the same seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import equilib.cli
from equilib import configurations, force_laws, residuals, solvers

TWO_PI = 2.0 * math.pi
MAX_COUNTERS = {"solvers.max_residual"}


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _force(law: dict, d: float) -> float:
    """Independent force formula for the law kinds the workloads use."""
    if law["kind"] == "inverse_power":
        return d ** (-law["k"])
    return math.exp(-(d ** law["k"]))


class Prepared:
    """One op with its library inputs built; `first` holds pass-1 output bytes."""

    def __init__(self, op: dict, call, **ctx) -> None:
        self.op = op
        self.call = call
        self.ctx = ctx
        self.first: tuple | None = None


# ---------------------------------------------------------------------------
# circle
# ---------------------------------------------------------------------------


def _prepare_circle(op: dict) -> Prepared:
    law = force_laws.law_from_json(op["law"])
    opts = solvers.SolverOptions(rng_seed=op["rng_seed"])
    n = op["n"]
    return Prepared(op, lambda: solvers.solve_circle_equilibrium(n, law, opts=opts), law=law)


def _check_circle(p: Prepared, result) -> dict:
    config, stats = result
    n = p.op["n"]
    _require(stats.converged, "circle solve reported no convergence")
    canon = configurations.canonicalize_circle(config)
    err = max(abs(a - i * TWO_PI / n) for i, a in enumerate(canon.angles))
    _require(err <= 1e-8, f"canonical angles off equal spacing by {err:.3g}")
    net = residuals.circle_residual_report(config, p.ctx["law"]).max_abs_net
    _require(net <= 1e-10, f"circle residual {net:.3g} above 1e-10")
    return {
        "solvers.circle.sweeps": stats.sweeps,
        "solvers.circle.newton_iters": stats.newton_iters,
        "solvers.max_residual": stats.residual,
    }


# ---------------------------------------------------------------------------
# line
# ---------------------------------------------------------------------------


def _prepare_zero_centered(op: dict) -> Prepared:
    law = force_laws.law_from_json(op["law"])
    problem = solvers.ZeroCenteredProblem(a=op["a"], b=op["b"], n=op["n"], law=law)
    return Prepared(op, lambda: solvers.solve_zero_centered(problem), law=law)


def _check_zero_centered(p: Prepared, result) -> dict:
    config, stats = result
    n, a, b = p.op["n"], p.op["a"], p.op["b"]
    _require(stats.converged, "zero-centered solve reported no convergence")
    x = config.window
    _require(len(x) == 2 * n + 1, f"window has {len(x)} particles, expected {2 * n + 1}")
    _require(abs(x[n - 1] - a) <= 1e-8, f"left target missed by {abs(x[n - 1] - a):.3g}")
    _require(abs(x[n + 1] - b) <= 1e-8, f"right target missed by {abs(x[n + 1] - b):.3g}")
    report = residuals.residual_report(config, p.ctx["law"])
    worst = max(abs(r.net) for r in report.rows if r.index not in (0, n, 2 * n))
    _require(worst <= 1e-8, f"free-particle net {worst:.3g} above 1e-8")
    return {
        "solvers.zero_centered.outer_iters": stats.outer_iters,
        "solvers.zero_centered.inner_sweeps": stats.inner_sweeps,
        "solvers.max_residual": stats.residual,
    }


def _prepare_segment(op: dict) -> Prepared:
    law = force_laws.law_from_json(op["law"])
    left, right, n_interior = op["left"], op["right"], op["n_interior"]
    return Prepared(
        op, lambda: solvers.solve_pinned_segment(left, right, n_interior, law), law=law
    )


def _check_segment(p: Prepared, result) -> dict:
    _, stats = result
    left, right, k = p.op["left"], p.op["right"], p.op["n_interior"]
    _require(stats.converged, "segment solve reported no convergence")
    window = stats.config.window
    _require(len(window) == len(left) + k + len(right), "segment window has the wrong size")
    interior = window[len(left) : len(left) + k]
    _require(
        all(lo < hi for lo, hi in zip(window, window[1:]))
        and left[-1] < interior[0] and interior[-1] < right[0],
        "interior particles left the segment or lost their order",
    )
    report = residuals.residual_report(stats.config, p.ctx["law"])
    worst = max(abs(r.net) for r in report.rows[len(left) : len(left) + k])
    _require(worst <= 1e-8, f"interior net {worst:.3g} above 1e-8")
    return {"solvers.segment.sweeps": stats.sweeps, "solvers.max_residual": stats.residual}


def _prepare_extend(op: dict) -> Prepared:
    law = force_laws.law_from_json(op["law"])
    length = op["length"]
    s_minus = configurations.LineConfig(
        window=tuple(float(i) for i in range(-length, 0)),
        left_tail=configurations.TailModel.arithmetic(first=-length - 1.0, gap=1.0),
        right_tail=configurations.TailModel.none(),
        c=1.0,
        C=1.0,
    )
    opts = solvers.SolverOptions(**op["options"])
    x0 = -1.0 + op["delta"]
    return Prepared(
        op, lambda: solvers.extend_right(s_minus, x0, law, opts=opts), law=law, s_minus=s_minus
    )


def _check_extend(p: Prepared, result) -> dict:
    positions, stats = result
    delta = p.op["delta"]
    _require(stats.converged, "extension reported no convergence")
    gaps = [b - a for a, b in zip((-1.0,) + tuple(positions), positions)]
    lo, hi = min(1.0, delta), max(1.0, delta)
    _require(
        all(lo - 1e-8 <= g <= hi + 1e-8 for g in gaps),
        f"extension gaps [{min(gaps):.6g}, {max(gaps):.6g}] outside [{lo}, {hi}]",
    )
    if delta == 1.0:
        # The unit lattice continues exactly; with unit tails on both ends
        # every particle of the combined window is in equilibrium.
        combined = p.ctx["s_minus"].window + tuple(positions)
        config = configurations.LineConfig(
            window=combined,
            left_tail=p.ctx["s_minus"].left_tail,
            right_tail=configurations.TailModel.arithmetic(first=combined[-1] + 1.0, gap=1.0),
            c=1.0,
            C=1.0,
        )
        worst = residuals.residual_report(config, p.ctx["law"]).max_abs_net
        _require(worst <= 1e-8, f"extended lattice net {worst:.3g} above 1e-8")
    return {
        "solvers.extend.sweeps": stats.sweeps,
        "solvers.extend.levels_used": stats.levels_used,
        "solvers.max_residual": stats.residual,
    }


# ---------------------------------------------------------------------------
# cli-certify
# ---------------------------------------------------------------------------


def _prepare_cli(op: dict) -> Prepared:
    argv = list(op["argv"])

    def call():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = equilib.cli.run(argv)
        return code, err.getvalue()

    return Prepared(op, call)


def cli_before(p: Prepared) -> None:
    """Remove last pass's artifacts so a missing write cannot go unnoticed."""
    for path in p.op["outputs"].values():
        Path(path).unlink(missing_ok=True)


def _tail_sum_oracle(law: dict, start: float, gap: float) -> float:
    """sum_{j>=0} F(start + j*gap) in closed form, to 30 digits."""
    import mpmath

    mpmath.mp.dps = 30
    if law["kind"] == "inverse_power":
        k = mpmath.mpf(law["k"])
        return float(mpmath.zeta(k, mpmath.mpf(start) / gap) * mpmath.mpf(gap) ** (-k))
    _require(law["k"] == 1.0, "oracle covers exp laws with k = 1 only")
    return float(mpmath.exp(-mpmath.mpf(start)) / (1 - mpmath.exp(-mpmath.mpf(gap))))


def _check_result(p: Prepared, result: dict) -> dict:
    op, problem = p.op, p.op["problem"]
    check = op["check"]
    counters: dict[str, float] = {}
    if "verdict" in result:
        counters["certificates.verdicts"] = 1
        counters["certificates.conclusive"] = int(result["verdict"] in ("pass", "fail"))
        counters["certificates.evidence_rows"] = len(result.get("evidence", []))
    if check == "lattice_residuals":
        _require(len(result["rows"]) == len(problem["config"]["window"]), "row count")
        _require(
            result["max_abs_net"] <= result["max_error_bound"] <= 1e-11,
            f"lattice net {result['max_abs_net']:.3g} / bound {result['max_error_bound']:.3g}",
        )
    elif check == "circle_residuals":
        law, angles = problem["law"], problem["config"]["angles"]
        for row in result["rows"]:
            a = angles[row["index"]]
            terms = []
            for j, b in enumerate(angles):
                delta = (b - a) % TWO_PI
                u = min(delta, TWO_PI - delta)
                if j == row["index"] or abs(u - math.pi) <= 5e-9:
                    continue
                terms.append(-_force(law, u) if delta < math.pi else _force(law, u))
            scale = math.fsum(abs(t) for t in terms)
            _require(
                abs(row["net"] - math.fsum(terms)) <= 1e-13 * max(scale, 1.0),
                f"circle row {row['index']} net disagrees with the direct sum",
            )
    elif check == "planted":
        _require(result["verdict"] == "pass", f"planted gap verdict {result['verdict']}")
        _require(all(r["satisfied"] for r in result["evidence"]), "unsatisfied evidence row")
    elif check == "verdict":
        _require(result["verdict"] == op["verdict"], f"verdict {result['verdict']}")
    elif check == "gap_ratio":
        config = problem["config"]
        if "angles" in config:
            angles = config["angles"]
            gaps = [b - a for a, b in zip(angles, angles[1:])] + [TWO_PI - angles[-1] + angles[0]]
            pairs = [(i, (i + 1) % len(gaps)) for i in range(len(gaps))]
        else:
            window = config["window"]
            gaps = [b - a for a, b in zip(window, window[1:])]
            pairs = [(i, i + 1) for i in range(len(gaps) - 1)]
        expect = max(max(gaps[i] / gaps[j], gaps[j] / gaps[i]) for i, j in pairs)
        got = result["details"]["max_ratio"]
        _require(abs(got - expect) <= 1e-14 * expect, f"max gap ratio {got} vs {expect}")
    elif check == "period":
        if op["period"] is None:
            _require(result["found"] is False, "aperiodic window reported periodic")
        else:
            _require(result["found"] is True and result["period"] == op["period"],
                     f"period {result.get('period')} vs planted {op['period']}")
    elif check == "diff_field":
        law, params = problem["law"], problem["params"]
        w = params["w"]
        terms = [_force(law, abs(w - x)) for x in params["x_positions"]]
        terms += [-_force(law, abs(w - y)) for y in params["y_positions"]]
        for key, sign in (("x_tail", 1.0), ("y_tail", -1.0)):
            tail = params.get(key)
            if tail is not None:
                terms.append(sign * _tail_sum_oracle(law, w - tail["first"], tail["gap"]))
        expect = math.fsum(terms)
        slack = result["error_bound"] + 1e-14 * math.fsum(abs(t) for t in terms)
        _require(abs(result["value"] - expect) <= slack,
                 f"difference field {result['value']!r} vs oracle {expect!r}")
    elif check == "blaschke":
        _require(result["dominates"] is True, "partial sum does not dominate its bound")
        if op["harmonic"]:
            n_terms = problem["params"]["n_terms"]
            oracle = math.fsum(2.0 / (1.0 + n) for n in range(n_terms + 1))
            _require(abs(result["partial_sum"] - oracle) <= 1e-9 * oracle,
                     "harmonic partial sum disagrees with the oracle")
    elif check == "reconstruct":
        clusters = result["clusters"]
        _require(len(clusters) == 1, f"{len(clusters)} clusters, expected 1")
        off = max(abs(c - t) for c, t in zip(clusters[0]["center"], op["planted"]))
        _require(off <= 1e-6, f"reconstructed tail off the planted one by {off:.3g}")
        counters["diagnostics.reconstruct.converged"] = result["converged_count"]
        counters["diagnostics.reconstruct.starts"] = result["starts"]
    else:
        raise CheckFailed(f"unknown check {check!r}")
    return counters


def _check_cli(p: Prepared, result) -> dict:
    code, err = result
    outputs = p.op["outputs"]
    if p.op["check"] == "error":
        _require(code == 2, f"malformed problem exited {code}, expected 2")
        _require(not Path(outputs["out"]).exists(), "malformed problem still wrote --out")
        _require("Traceback" not in err, "malformed problem printed a traceback")
        try:
            error = json.loads(err)["error"]
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckFailed(f"stderr is not a JSON error object: {err[:80]!r}") from exc
        _require(isinstance(error.get("code"), str) and isinstance(error.get("message"), str),
                 "error object lacks code or message")
        blobs = (err.encode(),)
        counters: dict[str, float] = {}
    else:
        _require(code == 0, f"exit code {code}, expected 0; stderr {err[:120]!r}")
        _require(err == "", f"unexpected stderr {err[:120]!r}")
        blobs = tuple(Path(outputs[key]).read_bytes() for key in ("out", "csv", "svg")
                      if key in outputs)
        payload = json.loads(blobs[0])
        _require(payload["schema_version"] == 1 and payload["task"] == p.op["task"],
                 "payload header mismatch")
        counters = _check_result(p, payload["result"])
    # Determinism: every pass must reproduce the first pass byte for byte.
    if p.first is None:
        p.first = blobs
    _require(blobs == p.first, "output bytes differ from the first pass")
    counters["cli.bytes_out"] = sum(len(b) for b in blobs)
    return counters


PREPARE = {
    "circle": _prepare_circle,
    "zero_centered": _prepare_zero_centered,
    "segment": _prepare_segment,
    "extend": _prepare_extend,
    "cli": _prepare_cli,
}
CHECK = {
    "circle": _check_circle,
    "zero_centered": _check_zero_centered,
    "segment": _check_segment,
    "extend": _check_extend,
    "cli": _check_cli,
}
BEFORE = {"cli": cli_before}
