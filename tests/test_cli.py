import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import equilib as eq
from equilib.cli import TASKS, _build_parser, _dump_json

COULOMB_JSON = {"kind": "inverse_power", "k": 2}


def write_problem(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def run_cli(capsys, argv):
    code = eq.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(argv):
    """Run `python -m equilib ARGV` against the package under test."""
    src = str(Path(eq.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "equilib", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def parse_payload(out):
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    return payload


def trivial_config_json(n=7):
    return {
        "window": [float(i) for i in range(n)],
        "left_tail": {"kind": "arithmetic", "first": -1.0, "gap": 1.0},
        "right_tail": {"kind": "arithmetic", "first": float(n), "gap": 1.0},
        "c": 1.0,
        "C": 1.0,
    }


def test_solve_circle_shorthand_square(capsys):
    code, out, err = run_cli(
        capsys, ["solve-circle", "--n", "4", "--law", "inverse_power:2", "--seed", "7"]
    )
    assert code == 0
    payload = parse_payload(out)
    assert payload["task"] == "solve-circle"
    angles = payload["config"]["angles"]
    expect = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
    assert angles == pytest.approx(expect, abs=1e-8)
    assert payload["result"]["converged"] is True


def test_identical_problem_and_seed_reproduce_bytes(capsys):
    argv = ["solve-circle", "--n", "5", "--law", "exp:1", "--seed", "11"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_output_round_trips_through_parsers(capsys):
    code, out, _ = run_cli(capsys, ["solve-circle", "--n", "3", "--law", "inverse_power:2"])
    assert code == 0
    payload = parse_payload(out)
    cfg = eq.config_from_json(payload["config"])
    assert isinstance(cfg, eq.CircleConfig)
    law = eq.law_from_json(payload["law"])
    assert eq.eval_force(law, 2.0) == 0.25


def test_certify_gap_trivial_is_inapplicable_but_exits_zero(tmp_path, capsys):
    problem = write_problem(
        tmp_path,
        "p.json",
        {
            "schema_version": 1,
            "task": "certify-gap",
            "law": COULOMB_JSON,
            "config": trivial_config_json(),
            "params": {"gap_index": 3},
        },
    )
    code, out, _ = run_cli(capsys, ["certify-gap", "--problem", problem])
    assert code == 0
    payload = parse_payload(out)
    assert payload["result"]["verdict"] == "inapplicable"
    assert payload["result"]["evidence"] == []


def test_certify_gap_with_law_that_is_not_decreasing_is_inapplicable(tmp_path, capsys):
    # 1/d^2 samples with F(26) > F(24): the chain's gap rows presume F decreasing.
    ds = [0.5] + [float(d) for d in range(1, 23)] + [24.0, 26.0, 28.0, 30.0]
    samples = [[d, 0.0017 if d == 24.0 else 0.01 if d == 26.0 else d**-2] for d in ds]
    problem = write_problem(
        tmp_path,
        "p.json",
        {
            "schema_version": 1,
            "task": "certify-gap",
            "law": {"kind": "tabulated", "samples": samples,
                    "tail": {"kind": "inverse_power", "k": 2}},
            "config": {"window": [-2.0, -1.0, 0.0, 3.0, 5.0, 6.0],
                       "left_tail": {"kind": "periodic", "anchor": -3.0, "pattern": [1.0, 2.0]},
                       "right_tail": {"kind": "periodic", "anchor": 7.0, "pattern": [1.0, 2.0]},
                       "c": 1.0, "C": 3.0},
            "params": {"gap_index": 2},
        },
    )
    code, out, err = run_cli(capsys, ["certify-gap", "--problem", problem])
    assert (code, err) == (0, "")
    result = parse_payload(out)["result"]
    assert result["verdict"] == "inapplicable"
    assert "strictly decreasing" in result["conclusion"]


def test_certify_gap_pass_round_trips(tmp_path, capsys):
    problem = write_problem(
        tmp_path,
        "p.json",
        {
            "schema_version": 1,
            "task": "certify-gap",
            "law": COULOMB_JSON,
            "config": {"angles": [0.0, 1.0, 2.0, 4.0]},
            "params": {"gap_index": 3},
        },
    )
    code, out, _ = run_cli(capsys, ["certify-gap", "--problem", problem])
    assert code == 0
    payload = parse_payload(out)
    assert payload["result"]["verdict"] == "pass"
    assert payload["result"]["kind"] == "extremal_gap_circle"
    assert all(row["satisfied"] for row in payload["result"]["evidence"])


def test_residuals_missing_law_is_a_schema_error(tmp_path, capsys):
    problem = write_problem(
        tmp_path,
        "p.json",
        {
            "schema_version": 1,
            "task": "residuals",
            "config": trivial_config_json(),
        },
    )
    code, out, err = run_cli(capsys, ["residuals", "--problem", problem])
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "invalid_input"
    assert error["message"] == "law: required"


def test_schema_version_is_mandatory(tmp_path, capsys):
    problem = write_problem(
        tmp_path,
        "p.json",
        {"task": "residuals", "law": COULOMB_JSON, "config": trivial_config_json()},
    )
    code, _, err = run_cli(capsys, ["residuals", "--problem", problem])
    assert code == 2
    assert "schema_version" in json.loads(err)["error"]["message"]


def test_task_field_must_match_subcommand(tmp_path, capsys):
    problem = write_problem(
        tmp_path,
        "p.json",
        {
            "schema_version": 1,
            "task": "residuals",
            "law": COULOMB_JSON,
            "config": trivial_config_json(),
        },
    )
    code, _, err = run_cli(capsys, ["gap-ratio", "--problem", problem])
    assert code == 2
    assert "task" in json.loads(err)["error"]["message"]


def test_unknown_option_is_rejected(tmp_path, capsys):
    problem = write_problem(
        tmp_path,
        "p.json",
        {
            "schema_version": 1,
            "task": "residuals",
            "law": COULOMB_JSON,
            "config": trivial_config_json(),
            "options": {"banana": 3},
        },
    )
    code, _, err = run_cli(capsys, ["residuals", "--problem", problem])
    assert code == 2
    assert "options.banana" in json.loads(err)["error"]["message"]


def test_options_block_is_cast_once_per_task(tmp_path, capsys, monkeypatch):
    seen = []
    cast = eq.cli._OPTION_CASTS["max_sweeps"]
    monkeypatch.setitem(
        eq.cli._OPTION_CASTS, "max_sweeps", lambda v, label: seen.append(v) or cast(v, label)
    )
    problem = write_problem(
        tmp_path,
        "p.json",
        {
            "schema_version": 1,
            "task": "solve-segment",
            "law": COULOMB_JSON,
            "params": {"left_pins": [0.0], "right_pins": [3.0], "n_free": 2},
            "options": {"max_sweeps": 50},
        },
    )
    code, _, err = run_cli(capsys, ["solve-segment", "--problem", problem])
    assert code == 0, err
    assert seen == [50]


def test_relax_reports_nonconvergence_with_exit_three(tmp_path, capsys):
    problem = write_problem(
        tmp_path,
        "p.json",
        {
            "schema_version": 1,
            "task": "relax",
            "law": COULOMB_JSON,
            "config": {
                "window": [-2.0, -1.4, 1.5, 1.9],
                "left_tail": {"kind": "none"},
                "right_tail": {"kind": "none"},
                "c": 0.3,
                "C": 3.0,
            },
            "options": {"max_sweeps": 1},
        },
    )
    code, out, _ = run_cli(capsys, ["relax", "--problem", problem])
    assert code == 3
    payload = parse_payload(out)
    assert payload["result"]["converged"] is False


def test_relax_defaults_pin_the_extremes(tmp_path, capsys):
    problem = write_problem(
        tmp_path,
        "p.json",
        {
            "schema_version": 1,
            "task": "relax",
            "law": COULOMB_JSON,
            "config": {
                "window": [-2.0, -1.4, 1.5, 1.9],
                "left_tail": {"kind": "none"},
                "right_tail": {"kind": "none"},
                "c": 0.3,
                "C": 3.0,
            },
        },
    )
    code, out, _ = run_cli(capsys, ["relax", "--problem", problem])
    assert code == 0
    payload = parse_payload(out)
    assert payload["result"]["converged"] is True
    window = payload["config"]["window"]
    assert window[0] == -2.0
    assert window[-1] == 1.9


TAILED_RELAX_CONFIG = {
    "window": [0.0, 0.9, 2.3, 3.1, 4.0, 5.0],
    "left_tail": {"kind": "arithmetic", "first": -1.0, "gap": 1.0},
    "right_tail": {"kind": "arithmetic", "first": 6.0, "gap": 1.0},
    "c": 0.7,
    "C": 1.4,
}
FINITE_RELAX_CONFIG = {
    "window": [-2.0, -1.4, 1.5, 1.9],
    "left_tail": {"kind": "none"},
    "right_tail": {"kind": "none"},
    "c": 0.3,
    "C": 3.0,
}


@pytest.mark.parametrize(
    "config, max_sweeps, passes, digest",
    [
        (TAILED_RELAX_CONFIG, 0, 0, "19e8bb6fe2b4"),
        (TAILED_RELAX_CONFIG, 3, 3, "157c377c1051"),
        (FINITE_RELAX_CONFIG, None, 13, "3dcac7e492d9"),
    ],
    ids=["tailed-no-pass", "tailed-3", "finite-converged"],
)
def test_relax_reports_once_per_pass(
    tmp_path, capsys, monkeypatch, config, max_sweeps, passes, digest
):
    # Each pass is judged by one report on its free rows (a run with no pass
    # at all judges the input); only the SVG asks for the full report, once.
    # The digest pins stdout + CSV + SVG bytes.
    calls = []
    real = eq.cli.residual_report

    def counted(*args, **kwargs):
        calls.append(kwargs.get("indices"))
        return real(*args, **kwargs)

    monkeypatch.setattr(eq.cli, "residual_report", counted)
    body = {"schema_version": 1, "task": "relax", "law": COULOMB_JSON, "config": config}
    if max_sweeps is not None:
        body["options"] = {"max_sweeps": max_sweeps}
    problem = write_problem(tmp_path, "p.json", body)
    csv_path, svg_path = tmp_path / "o.csv", tmp_path / "o.svg"
    code, out, _ = run_cli(
        capsys, ["relax", "--problem", problem, "--csv", str(csv_path), "--svg", str(svg_path)]
    )
    assert parse_payload(out)["result"]["sweeps"] == passes
    assert code == (0 if max_sweeps is None else 3)
    free = list(range(1, len(config["window"]) - 1))
    assert calls == [free] * max(passes, 1) + [None]
    blob = out + csv_path.read_text() + svg_path.read_text()
    assert hashlib.sha256(blob.encode()).hexdigest()[:12] == digest


def test_nonconvergent_solver_exits_three_with_message(tmp_path, capsys):
    problem = write_problem(
        tmp_path,
        "p.json",
        {
            "schema_version": 1,
            "task": "solve-segment",
            "law": COULOMB_JSON,
            "params": {"left_pins": [0.0], "right_pins": [3.0], "n_free": 2},
            "options": {"max_sweeps": 2},
        },
    )
    code, out, _ = run_cli(capsys, ["solve-segment", "--problem", problem])
    assert code == 3
    payload = parse_payload(out)
    assert payload["result"]["converged"] is False
    assert "message" in payload["result"]


def assert_exit_three_with_float_last(code, out, err, length):
    assert code == 3, err
    payload = parse_payload(out)  # exactly one JSON document
    last = payload["result"]["last"]
    assert len(last) == length
    assert all(isinstance(v, float) and math.isfinite(v) for v in last)


def test_nonconvergent_circle_reports_last_angles(capsys, monkeypatch):
    # A residual report that never certifies makes every round fail, so
    # the solver raises NoConvergence with the last round's angles.
    def failing_report(config, law):
        report = eq.circle_residual_report(config, law)
        return dataclasses.replace(report, max_error_bound=math.inf)

    monkeypatch.setattr(eq.solvers, "circle_residual_report", failing_report)
    code, out, err = run_cli(capsys, ["solve-circle", "--n", "3", "--law", "inverse_power:3"])
    assert_exit_three_with_float_last(code, out, err, 3)
    assert parse_payload(out)["result"]["residual"] < 1e-10


def test_nonconvergent_zero_centered_reports_last_positions(tmp_path, capsys):
    problem = write_problem(
        tmp_path,
        "p.json",
        {
            "schema_version": 1,
            "task": "zero-centered",
            "law": COULOMB_JSON,
            "params": {"n": 3, "a": -1.0, "b": 1.3},
            "options": {"max_outer_iters": 1},
        },
    )
    code, out, err = run_cli(capsys, ["zero-centered", "--problem", problem])
    assert_exit_three_with_float_last(code, out, err, 7)


def test_log_level_env_is_validated(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EQUILIB_LOG", "verbose")
    code, _, err = run_cli(capsys, ["solve-circle", "--n", "3", "--law", "inverse_power:2"])
    assert code == 2
    assert "EQUILIB_LOG" in json.loads(err)["error"]["message"]
    monkeypatch.setenv("EQUILIB_LOG", "debug")
    code, out, _ = run_cli(capsys, ["solve-circle", "--n", "3", "--law", "inverse_power:2"])
    assert code == 0


def test_out_flag_writes_payload_and_silences_stdout(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run_cli(
        capsys,
        ["solve-circle", "--n", "4", "--law", "inverse_power:2", "--out", str(target)],
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["task"] == "solve-circle"


def test_residuals_svg_line_shows_dots_and_arrows(tmp_path, capsys):
    svg_path = tmp_path / "fig.svg"
    problem = write_problem(
        tmp_path,
        "p.json",
        {
            "schema_version": 1,
            "task": "residuals",
            "law": COULOMB_JSON,
            "config": {
                "window": [0.0, 1.0, 10.0],
                "left_tail": {"kind": "none"},
                "right_tail": {"kind": "none"},
                "c": 1.0,
                "C": 9.0,
            },
        },
    )
    code, _, _ = run_cli(capsys, ["residuals", "--problem", problem, "--svg", str(svg_path)])
    assert code == 0
    svg = svg_path.read_text()
    assert svg.count("<circle") == 3
    arrows = [ln for ln in svg.splitlines() if "#c22" in ln and "<line" in ln]
    assert len(arrows) == 3

    def endpoints(tag):
        x1 = float(tag.split('x1="')[1].split('"')[0])
        x2 = float(tag.split('x2="')[1].split('"')[0])
        return x1, x2

    spans = [endpoints(a) for a in arrows]
    # Outermost particle pushed left, the other two pushed right, the last
    # one barely.
    assert spans[0][1] < spans[0][0]
    assert spans[1][1] > spans[1][0]
    assert spans[2][1] > spans[2][0]
    assert abs(spans[2][1] - spans[2][0]) < abs(spans[1][1] - spans[1][0])


def test_residuals_svg_trivial_has_no_arrows(tmp_path, capsys):
    svg_path = tmp_path / "fig.svg"
    problem = write_problem(
        tmp_path,
        "p.json",
        {
            "schema_version": 1,
            "task": "residuals",
            "law": COULOMB_JSON,
            "config": trivial_config_json(5),
        },
    )
    code, _, _ = run_cli(capsys, ["residuals", "--problem", problem, "--svg", str(svg_path)])
    assert code == 0
    svg = svg_path.read_text()
    assert svg.count("<circle") == 5
    assert "#c22" not in svg


def test_residuals_svg_circle_ring(tmp_path, capsys):
    svg_path = tmp_path / "ring.svg"
    problem = write_problem(
        tmp_path,
        "p.json",
        {
            "schema_version": 1,
            "task": "residuals",
            "law": COULOMB_JSON,
            "config": {"angles": [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]},
        },
    )
    code, _, _ = run_cli(capsys, ["residuals", "--problem", problem, "--svg", str(svg_path)])
    assert code == 0
    svg = svg_path.read_text()
    # One ring plus four particle dots.
    assert svg.count("<circle") == 5


def test_blaschke_csv_export(tmp_path, capsys):
    csv_path = tmp_path / "terms.csv"
    problem = write_problem(
        tmp_path,
        "p.json",
        {
            "schema_version": 1,
            "task": "blaschke",
            "params": {
                "w_positions": [float(i) for i in range(21)],
                "n_terms": 20,
                "growth_constant": 1.0,
            },
        },
    )
    code, out, _ = run_cli(capsys, ["blaschke", "--problem", problem, "--csv", str(csv_path)])
    assert code == 0
    payload = parse_payload(out)
    assert payload["result"]["dominates"] is True
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "n,w,z,one_minus_z,cumulative"
    assert len(lines) == 22
    rows = eq.blaschke_partial_sum([float(i) for i in range(21)], 20, 1.0).rows()
    assert lines[1:] == [",".join(repr(v) for v in row) for row in rows]
    for row in rows:
        assert type(row[0]) is int
        assert all(type(v) is float for v in row[1:])


def test_svg_rejected_for_tasks_without_plots(tmp_path, capsys):
    svg_path = tmp_path / "never.svg"
    problem = write_problem(
        tmp_path,
        "p.json",
        {
            "schema_version": 1,
            "task": "diff-field",
            "law": COULOMB_JSON,
            "params": {"x_positions": [-1.0], "y_positions": [-2.0], "w": 0.0},
        },
    )
    code, _, err = run_cli(capsys, ["diff-field", "--problem", problem, "--svg", str(svg_path)])
    assert code == 2
    assert "svg" in json.loads(err)["error"]["message"]
    assert not svg_path.exists()


def test_diff_field_two_term_value(tmp_path, capsys):
    problem = write_problem(
        tmp_path,
        "p.json",
        {
            "schema_version": 1,
            "task": "diff-field",
            "law": COULOMB_JSON,
            "params": {"x_positions": [-1.0], "y_positions": [-2.0], "w": 0.0},
        },
    )
    code, out, _ = run_cli(capsys, ["diff-field", "--problem", problem])
    assert code == 0
    payload = parse_payload(out)
    assert payload["result"]["value"] == pytest.approx(0.75, rel=1e-14)


def test_zero_centered_shorthand(capsys):
    code, out, _ = run_cli(
        capsys,
        ["zero-centered", "--n", "2", "--a", "-1", "--b", "1", "--law", "inverse_power:2"],
    )
    assert code == 0
    payload = parse_payload(out)
    window = payload["config"]["window"]
    assert len(window) == 5
    assert window[1] == pytest.approx(-1.0, abs=1e-8)
    assert window[3] == pytest.approx(1.0, abs=1e-8)
    assert window[4] == pytest.approx(-window[0], abs=1e-8)


def test_check_monotone_reports_failure_with_exit_zero(tmp_path, capsys):
    problem = write_problem(
        tmp_path,
        "p.json",
        {
            "schema_version": 1,
            "task": "check-monotone",
            "law": COULOMB_JSON,
            "config": {
                "window": [0.0, 1.0, 10.0],
                "left_tail": {"kind": "none"},
                "right_tail": {"kind": "none"},
                "c": 1.0,
                "C": 9.0,
            },
        },
    )
    code, out, _ = run_cli(capsys, ["check-monotone", "--problem", problem])
    assert code == 0
    payload = parse_payload(out)
    assert payload["result"]["verdict"] == "fail"


def test_reconstruct_via_cli(tmp_path, capsys):
    problem = write_problem(
        tmp_path,
        "p.json",
        {
            "schema_version": 1,
            "task": "reconstruct",
            "law": COULOMB_JSON,
            "params": {
                "w_window": [float(i) for i in range(9)],
                "m": 2,
                "right_tail": {"kind": "arithmetic", "first": 9.0, "gap": 1.0},
                "far_left_tail": {"kind": "arithmetic", "first": -3.0, "gap": 1.0},
                "multi_start": 4,
                "rng_seed": 0,
            },
        },
    )
    code, out, _ = run_cli(capsys, ["reconstruct", "--problem", problem])
    assert code == 0
    payload = parse_payload(out)
    clusters = payload["result"]["clusters"]
    assert len(clusters) == 1
    assert clusters[0]["center"] == pytest.approx([-2.0, -1.0], abs=1e-6)


def test_detect_period_via_cli(tmp_path, capsys):
    problem = write_problem(
        tmp_path,
        "p.json",
        {
            "schema_version": 1,
            "task": "detect-period",
            "config": trivial_config_json(14),
        },
    )
    code, out, _ = run_cli(capsys, ["detect-period", "--problem", problem])
    assert code == 0
    payload = parse_payload(out)
    assert payload["result"]["found"] is True
    assert payload["result"]["period"] == 1


def test_missing_problem_file_is_invalid_input(capsys):
    code, _, err = run_cli(capsys, ["residuals", "--problem", "/nonexistent/x.json"])
    assert code == 2
    assert json.loads(err)["error"]["code"] == "invalid_input"


@pytest.mark.parametrize(
    "argv",
    [["residuals", "--bogus"], ["bogus-task"], [], ["residuals", "--n", "abc"]],
    ids=["unknown-flag", "unknown-task", "missing-task", "bad-value"],
)
def test_usage_errors_are_json_invalid_input(tmp_path, capsys, argv):
    out_path = tmp_path / "never.json"
    code, out, err = run_cli(capsys, [*argv, "--out", str(out_path)])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"]["code"] == "invalid_input"
    assert not out_path.exists()


def test_help_exits_zero(capsys):
    code, out, err = run_cli(capsys, ["--help"])
    assert code == 0
    assert out.startswith("usage: equilib")
    assert err == ""


def test_flags_may_precede_the_task(capsys):
    flags = ["--n", "4", "--law", "inverse_power:2", "--seed", "7"]
    _, after, _ = run_cli(capsys, ["solve-circle", *flags])
    code, before, _ = run_cli(capsys, [*flags, "solve-circle"])
    assert code == 0
    assert before == after


def test_parser_reuse_leaks_no_state(tmp_path, capsys):
    assert _build_parser() is _build_parser()
    out_path = tmp_path / "first.json"
    code, out, _ = run_cli(
        capsys,
        ["solve-circle", "--n", "4", "--law", "inverse_power:2", "--seed", "7",
         "--out", str(out_path)],
    )
    assert code == 0 and out == "" and out_path.exists()
    argv = ["solve-circle", "--n", "3", "--law", "inverse_power:2"]
    code, out, _ = run_cli(capsys, argv)
    fresh = run_module(argv)
    assert code == fresh.returncode == 0
    assert out == fresh.stdout


def test_python_dash_m_entry_point():
    shown = run_module(["--help"])
    assert shown.returncode == 0
    for task in TASKS:
        assert task in shown.stdout
    assert "RuntimeWarning" not in shown.stderr
    bogus = run_module(["bogus"])
    assert bogus.returncode == 2
    assert bogus.stdout == ""
    assert json.loads(bogus.stderr)["error"]["code"] == "invalid_input"


TABULATED_PAIRS = [[1.0, 1.0], [2.0, 0.25], [4.0, 0.0625]]


@pytest.mark.parametrize(
    "law, params, message",
    [
        ({"kind": "inverse_power", "k": "two"}, {"n": 3}, "law.k: expected a number, got 'two'"),
        ({"kind": "exp", "k": [1]}, {"n": 3}, "law.k: expected a number, got [1]"),
        (
            {"kind": "tabulated", "samples": TABULATED_PAIRS,
             "tail": {"kind": "inverse_power", "k": "x"}},
            {"n": 3},
            "law.tail.k: expected a number, got 'x'",
        ),
        (
            {"kind": "tabulated", "samples": [["a", 1.0], [2.0, 0.25]]},
            {"n": 3},
            "law.samples: expected a number, got 'a'",
        ),
        (
            {"kind": "tabulated", "samples": [[1.0], [2.0, 0.25]]},
            {"n": 3},
            "law.samples: expected [distance, force] pairs",
        ),
        (COULOMB_JSON, {"n": math.inf}, "n: expected an integer, got inf"),
        (COULOMB_JSON, {"n": 2.5}, "n: expected an integer, got 2.5"),
        (
            COULOMB_JSON,
            {"n": eq.MAX_PARTICLES + 1},
            f"n = {eq.MAX_PARTICLES + 1} exceeds the maximum of {eq.MAX_PARTICLES} particles",
        ),
    ],
    ids=["k-string", "k-list", "tail-k", "sample-value", "sample-shape", "n-inf", "n-fraction",
         "n-above-max"],
)
def test_malformed_numbers_are_json_invalid_input(tmp_path, capsys, law, params, message):
    # json.dumps writes math.inf as Infinity, which the reader turns back
    # into inf, as it does 1e400.
    problem = write_problem(
        tmp_path, "p.json",
        {"schema_version": 1, "task": "solve-circle", "law": law, "params": params},
    )
    out_path = tmp_path / "never.json"
    code, out, err = run_cli(capsys, ["solve-circle", "--problem", problem, "--out", str(out_path)])
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error == {"code": "invalid_input", "message": message}
    assert not out_path.exists()


@pytest.mark.parametrize(
    "task, params, message",
    [
        ("zero-centered", {"a": "left", "b": 1.0, "n": 2}, "a: expected a number, got 'left'"),
        ("zero-centered", {"a": -1.0, "b": [1.0], "n": 2}, "b: expected a number, got [1.0]"),
        ("extend", {"x0": "far"}, "params.x0: expected a number, got 'far'"),
        ("detect-period", {"tol": "tight"}, "params.tol: expected a number, got 'tight'"),
        ("residuals", {"tolerance": None}, "params.tolerance: expected a number, got None"),
        (
            "diff-field",
            {"x_positions": [0.0, "b"], "y_positions": [0.5], "w": 1.0},
            "params.x_positions: expected a number, got 'b'",
        ),
        (
            "diff-field",
            {"x_positions": [0.0], "y_positions": [{}], "w": 1.0},
            "params.y_positions: expected a number, got {}",
        ),
        (
            "diff-field",
            {"x_positions": [0.0], "y_positions": [0.5], "w": "w"},
            "params.w: expected a number, got 'w'",
        ),
        (
            "solve-segment",
            {"left_pins": ["zero"], "right_pins": [3.0], "n_free": 2},
            "params.left_pins: expected a number, got 'zero'",
        ),
        (
            "solve-segment",
            {"left_pins": [0.0], "right_pins": [None], "n_free": 2},
            "params.right_pins: expected a number, got None",
        ),
        (
            "blaschke",
            {"w_positions": [0.0, "one"], "n_terms": 1},
            "params.w_positions: expected a number, got 'one'",
        ),
        (
            "reconstruct",
            {"w_window": [0.0, "x"], "m": 1},
            "params.w_window: expected a number, got 'x'",
        ),
        ("diff-field", {"x_positions": 5, "y_positions": [0.5], "w": 1.0},
         "params.x_positions: expected a list, got 5"),
        ("diff-field", {"x_positions": [0.0], "y_positions": 0.5, "w": 1.0},
         "params.y_positions: expected a list, got 0.5"),
        ("solve-segment", {"left_pins": 0.0, "right_pins": [3.0], "n_free": 2},
         "params.left_pins: expected a list, got 0.0"),
        ("solve-segment", {"left_pins": [0.0], "right_pins": 3, "n_free": 2},
         "params.right_pins: expected a list, got 3"),
        ("blaschke", {"w_positions": 4, "n_terms": 1, "growth_constant": 1.0},
         "params.w_positions: expected a list, got 4"),
        ("reconstruct", {"w_window": 2.0, "m": 1}, "params.w_window: expected a list, got 2.0"),
        ("relax", {"fixed": ["x"]}, "params.fixed: expected an integer, got 'x'"),
        ("relax", {"fixed": 0}, "params.fixed: expected a list, got 0"),
        ("check-monotone", {"window_range": ["a", 3]},
         "params.window_range: expected an integer, got 'a'"),
        ("check-monotone", {"window_range": [0, 2.5]},
         "params.window_range: expected an integer, got 2.5"),
        ("blaschke", {"w_positions": [0.0, 1.0], "n_terms": 1, "growth_constant": "x"},
         "params.growth_constant: expected a number, got 'x'"),
        ("blaschke", {"w_positions": [0.0, 1.0], "n_terms": 1, "growth_constant": [1]},
         "params.growth_constant: expected a number, got [1]"),
        ("solve-segment", {"left_pins": [0.0], "right_pins": [3.0], "n_free": 2.5},
         "params.n_free: expected an integer, got 2.5"),
    ],
    ids=["a-string", "b-list", "x0", "tol", "tolerance", "x-position", "y-position", "w",
         "left-pin", "right-pin", "w-position", "w-window", "x-number", "y-number",
         "left-number", "right-number", "w-positions-number", "w-window-number",
         "fixed-string", "fixed-number", "window-range-string", "window-range-fraction",
         "growth-constant-string", "growth-constant-list", "n-free-fraction"],
)
def test_malformed_float_params_are_json_invalid_input(tmp_path, capsys, task, params, message):
    body = {"schema_version": 1, "task": task, "law": COULOMB_JSON, "params": params}
    if task in ("extend", "detect-period", "residuals", "relax", "check-monotone"):
        body["config"] = trivial_config_json()
    problem = write_problem(tmp_path, "p.json", body)
    code, out, err = run_cli(capsys, [task, "--problem", problem])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == {"code": "invalid_input", "message": message}


@pytest.mark.parametrize(
    "flags, params",
    [(["--tol", "nan"], {}), (["--tol", "inf"], {}), (["--tol", "-1"], {}),
     ([], {"tolerance": -1e-3})],
    ids=["tol-nan", "tol-inf", "tol-negative", "params-negative"],
)
def test_residuals_tolerance_out_of_range_is_invalid_input(tmp_path, capsys, flags, params):
    body = {"schema_version": 1, "task": "residuals", "law": COULOMB_JSON,
            "config": trivial_config_json(), "params": params}
    problem = write_problem(tmp_path, "p.json", body)
    code, out, err = run_cli(capsys, ["residuals", "--problem", problem, *flags])
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "invalid_input"
    assert error["message"].startswith("tolerance must be finite and nonnegative")


RECONSTRUCT_PARAMS = {
    "w_window": [float(i) for i in range(9)],
    "m": 2,
    "right_tail": {"kind": "arithmetic", "first": 9.0, "gap": 1.0},
    "far_left_tail": {"kind": "arithmetic", "first": -3.0, "gap": 1.0},
}

EXTEND_CONFIG = {
    "window": [-4.0, -3.0, -2.0, -1.0],
    "left_tail": {"kind": "arithmetic", "first": -5.0, "gap": 1.0},
    "right_tail": {"kind": "none"},
    "c": 1.0,
    "C": 1.0,
}

# A valid problem file for every task that has a required param.
VALID_PROBLEMS = {
    "solve-circle": {"law": COULOMB_JSON, "params": {"n": 3}},
    "solve-segment": {"law": COULOMB_JSON,
                      "params": {"left_pins": [0.0], "right_pins": [3.0], "n_free": 2}},
    "zero-centered": {"law": COULOMB_JSON, "params": {"n": 2, "a": -1.0, "b": 1.0}},
    "extend": {"law": COULOMB_JSON, "config": EXTEND_CONFIG, "params": {"x0": 0.0}},
    "certify-gap": {"law": COULOMB_JSON, "config": {"angles": [0.0, 1.0, 2.0, 4.0]},
                    "params": {"gap_index": 3}},
    "diff-field": {"law": COULOMB_JSON,
                   "params": {"x_positions": [-1.0], "y_positions": [-2.0], "w": 0.0}},
    "blaschke": {"params": {"w_positions": [float(i) for i in range(11)], "n_terms": 10,
                            "growth_constant": 1.0}},
    "reconstruct": {"law": COULOMB_JSON, "params": RECONSTRUCT_PARAMS},
}

REQUIRED_PARAMS = [
    (task, key, key if key == flag else f"params.{key}")
    for task, entry in eq.cli._TASK_TABLE.items()
    for key, _, flag, default in entry.params
    if default is eq.cli._REQUIRED
]


def test_required_params_are_the_documented_ones():
    assert sorted(label for _, _, label in REQUIRED_PARAMS) == [
        "a", "b", "n", "n", "params.gap_index", "params.left_pins", "params.m",
        "params.n_free", "params.n_terms", "params.right_pins", "params.w", "params.w_window",
        "params.x0", "params.x_positions", "params.y_positions",
    ]


@pytest.mark.parametrize("task", sorted(VALID_PROBLEMS))
def test_valid_problems_run(tmp_path, capsys, task):
    body = {"schema_version": 1, "task": task, **VALID_PROBLEMS[task]}
    code, out, err = run_cli(capsys, [task, "--problem", write_problem(tmp_path, "p.json", body)])
    assert (code, err) == (0, "")
    assert parse_payload(out)["task"] == task


@pytest.mark.parametrize(
    "task, key, label", REQUIRED_PARAMS, ids=[f"{t}-{k}" for t, k, _ in REQUIRED_PARAMS]
)
def test_missing_required_param_is_json_invalid_input(tmp_path, capsys, task, key, label):
    body = {"schema_version": 1, "task": task, **VALID_PROBLEMS[task]}
    body["params"] = {k: v for k, v in body["params"].items() if k != key}
    code, out, err = run_cli(capsys, [task, "--problem", write_problem(tmp_path, "p.json", body)])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == {"code": "invalid_input", "message": f"{label}: required"}


def test_pin_flags_win_over_the_problem_file(tmp_path, capsys):
    problem = write_problem(
        tmp_path, "p.json",
        {"schema_version": 1, "task": "solve-segment", "law": COULOMB_JSON,
         "params": {"left_pins": [-1.0], "right_pins": [5.0], "n_free": 2}},
    )
    argv = ["solve-segment", "--problem", problem, "--a", "0", "--b", "3"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    window = parse_payload(out)["config"]["window"]
    assert len(window) == 4
    assert (window[0], window[-1]) == (0.0, 3.0)


@pytest.mark.parametrize(
    "task, body, flags, message",
    [
        ("solve-circle", {"params": {"n": 3}, "options": {"max_sweeps": math.inf}}, [],
         "options.max_sweeps: expected an integer, got inf"),
        ("solve-circle", {"params": {"n": 3}, "options": {"max_sweeps": 2.7}}, [],
         "options.max_sweeps: expected an integer, got 2.7"),
        ("solve-circle", {"params": {"n": 3}, "options": {"rng_seed": -1}}, [],
         "options.rng_seed: expected a nonnegative integer, got -1"),
        ("solve-circle", {"params": {"n": 3}}, ["--seed", "-1"],
         "--seed: expected a nonnegative integer, got -1"),
        ("solve-circle", {"params": {"n": 3}, "options": {"track_energy": "false"}}, [],
         "options.track_energy: expected true or false, got 'false'"),
        ("reconstruct", {"params": {**RECONSTRUCT_PARAMS, "multi_start": "abc"}}, [],
         "params.multi_start: expected an integer, got 'abc'"),
        ("reconstruct", {"params": {**RECONSTRUCT_PARAMS, "multi_start": 2.5}}, [],
         "params.multi_start: expected an integer, got 2.5"),
        ("reconstruct", {"params": {**RECONSTRUCT_PARAMS, "rng_seed": -3}}, [],
         "params.rng_seed: expected a nonnegative integer, got -3"),
        ("reconstruct", {"params": {**RECONSTRUCT_PARAMS, "rng_seed": "x"}}, [],
         "params.rng_seed: expected an integer, got 'x'"),
        ("reconstruct", {"params": {**RECONSTRUCT_PARAMS, "multi_start": 0}}, [],
         "multi_start must be an integer in [1, 1024], got 0"),
    ],
    ids=["max-sweeps-inf", "max-sweeps-fraction", "seed-negative", "seed-flag-negative",
         "track-energy-string", "multi-start-string", "multi-start-fraction",
         "reconstruct-seed-negative", "reconstruct-seed-string", "multi-start-zero"],
)
def test_malformed_options_and_seeds_are_json_invalid_input(
    tmp_path, capsys, task, body, flags, message
):
    problem = write_problem(
        tmp_path, "p.json", {"schema_version": 1, "task": task, "law": COULOMB_JSON, **body}
    )
    code, out, err = run_cli(capsys, [task, "--problem", problem, *flags])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == {"code": "invalid_input", "message": message}


@pytest.mark.parametrize(
    "task, options, flags, message",
    [
        ("solve-circle", {"max_sweeps": -1}, [], "max_sweeps must be nonnegative, got -1"),
        ("solve-segment", {"max_sweeps": -1}, [], "max_sweeps must be nonnegative, got -1"),
        ("relax", {"max_sweeps": -1}, [], "max_sweeps must be nonnegative, got -1"),
        ("solve-circle", {"residual_tol": -1}, [], "residual_tol must be nonnegative, got -1.0"),
        ("solve-circle", {}, ["--tol", "nan"], "residual_tol must be nonnegative, got nan"),
    ],
    ids=["circle-max-sweeps", "segment-max-sweeps", "relax-max-sweeps", "residual-tol",
         "tol-flag-nan"],
)
def test_out_of_range_options_are_json_invalid_input(tmp_path, capsys, task, options, flags,
                                                     message):
    # Before the library checked its options, these ran: the circle ignored
    # max_sweeps, and the others ended in NoConvergence (exit 3).
    base = {**VALID_PROBLEMS, "relax": {"law": COULOMB_JSON, "config": FINITE_RELAX_CONFIG}}
    body = {"schema_version": 1, "task": task, **base[task], "options": options}
    code, out, err = run_cli(
        capsys, [task, "--problem", write_problem(tmp_path, "p.json", body), *flags]
    )
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {"code": "invalid_input", "message": message}


@pytest.mark.parametrize(
    "argv",
    [
        ["solve-circle", "--n", "8", "--law", "inverse_power:2"],
        ["zero-centered", "--n", "3", "--a", "-1", "--b", "1.3", "--law", "inverse_power:2"],
    ],
    ids=["solve-circle", "zero-centered"],
)
def test_artifacts_are_built_only_on_request(tmp_path, capsys, monkeypatch, argv):
    # The CSV text, the SVG and the residual report behind the SVG cost about
    # a tenth of a small solver run; without --csv/--svg none is built.
    calls = []

    def counted(name):
        real = getattr(eq.cli, name)
        return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

    for name in ("render_gap_plot", "config_to_csv", "residual_report", "circle_residual_report"):
        monkeypatch.setattr(eq.cli, name, counted(name))
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert calls == []
    csv_path, svg_path = tmp_path / "o.csv", tmp_path / "o.svg"
    code, again, _ = run_cli(capsys, [*argv, "--csv", str(csv_path), "--svg", str(svg_path)])
    assert (code, again) == (0, out)
    report = "circle_residual_report" if argv[0] == "solve-circle" else "residual_report"
    assert sorted(calls) == sorted(["config_to_csv", "render_gap_plot", report])


def test_n_1e400_literal_is_invalid_input(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(
        '{"schema_version": 1, "task": "solve-circle", '
        '"law": {"kind": "inverse_power", "k": 2}, "params": {"n": 1e400}}'
    )
    code, out, err = run_cli(capsys, ["solve-circle", "--problem", str(path)])
    assert code == 2
    assert json.loads(err)["error"]["code"] == "invalid_input"


def test_whole_float_n_is_accepted(tmp_path, capsys):
    problem = write_problem(
        tmp_path, "p.json",
        {"schema_version": 1, "task": "solve-circle", "law": COULOMB_JSON, "params": {"n": 4.0}},
    )
    code, out, _ = run_cli(capsys, ["solve-circle", "--problem", problem])
    assert code == 0
    assert len(parse_payload(out)["result"]["angles"]) == 4


def ref_jsonify(obj):
    """The payload conversion the CLI ran before json.dumps until it wrote JSON itself."""
    if isinstance(obj, dict):
        return {str(k): ref_jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [ref_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [ref_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-7, math.nan, -math.inf]),
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**200), max_value=2**200),
    _FLOATS,
    st.text(max_size=8),
    st.sampled_from(["", "\x00\x1f\x7f", "caf\u00e9 \u2603", "\U0001f600\"\\/", "\ud800"]),
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    arrays(
        st.sampled_from([np.float64, np.int64, np.bool_]),
        array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=3),
    ),
)
# "True" and "1" collide with the bool and int keys once keys pass through str().
_KEYS = st.one_of(
    st.text(max_size=6), st.integers(-5, 5), st.booleans(), st.sampled_from(["True", "1"])
)
_PAYLOADS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_PAYLOADS)
def test_dump_json_matches_json_dumps(obj):
    assert _dump_json(obj) == json.dumps(ref_jsonify(obj), sort_keys=True, indent=2) + "\n"


def test_dump_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        _dump_json({"a": [1, {2, 3}]})


README_RESIDUALS = {
    "schema_version": 1,
    "task": "residuals",
    "law": {"kind": "inverse_power", "k": 2},
    "config": {
        "window": [0.0, 1.0, 2.0],
        "left_tail": {"kind": "arithmetic", "first": -1.0, "gap": 1.0},
        "right_tail": {"kind": "arithmetic", "first": 3.0, "gap": 1.0},
        "c": 1.0,
        "C": 1.0,
    },
    "params": {"tolerance": 1e-13},
}

# SHA-256 of stdout and of each --csv/--svg file, recorded before the CLI
# wrote JSON itself; a change here is a change of the CLI wire format, not
# only of one build's determinism.
FROZEN_RUNS = {
    "residuals-readme": (
        ["residuals"], README_RESIDUALS, ["csv", "svg"],
        {
            "stdout": "fbff5f0771e3838faa1f8c623cfe55e43e6855077d18e90aab34ae9a7b623ca8",
            "csv": "8de6f6ac658bd35c659f8c4c563ef428c485da114d2803fbe211f0ebac17ec4a",
            "svg": "2227366ef4695bf729c32902171d2c9f726695272f3787d5ae38361cb665a26b",
        },
    ),
    "blaschke-1000": (
        ["blaschke"],
        {"schema_version": 1, "task": "blaschke",
         "params": {"w_positions": [float(i) for i in range(1001)], "n_terms": 1000,
                    "growth_constant": 1.0}},
        ["csv"],
        {
            "stdout": "84c4e58f5fc3dc000332b84d8bcfd09186d07eac13335ae7db41a758756dec8b",
            "csv": "d067855e81d483a1f21113241d0c625cc83f7f1e14db51973b66267e5aa34b7b",
        },
    ),
    "certify-gap-planted": (
        ["certify-gap"],
        {"schema_version": 1, "task": "certify-gap", "law": COULOMB_JSON,
         "config": {"angles": [0.0, 1.0, 2.0, 4.0]}, "params": {"gap_index": 3}},
        [],
        {"stdout": "540575f739ffbfb9f5bfb10c4ffd85684092998ad05fd7fbd9990084c2b48cfa"},
    ),
    # Maximal line gap whose strict row is backed by the gap on its left.
    "certify-gap-line-max-left": (
        ["certify-gap"],
        {"schema_version": 1, "task": "certify-gap", "law": COULOMB_JSON,
         "config": {"window": [-2.0, -1.0, 0.0, 3.0, 5.0, 6.0],
                    "left_tail": {"kind": "periodic", "anchor": -3.0, "pattern": [1.0, 2.0]},
                    "right_tail": {"kind": "periodic", "anchor": 7.0, "pattern": [1.0, 2.0]},
                    "c": 1.0, "C": 3.0},
         "params": {"gap_index": 2}},
        [],
        {"stdout": "95f0b6c85b86762bddd44cef187357e39f01542bbfb6ed2a4511bc10f332acee"},
    ),
    # Minimal line gap whose strict row is backed by the gap on its right.
    "certify-gap-line-min-right": (
        ["certify-gap"],
        {"schema_version": 1, "task": "certify-gap", "law": {"kind": "exp", "k": 1.5},
         "config": {"window": [-2.0, -1.0, 0.0, 0.4, 1.9, 2.9],
                    "left_tail": {"kind": "arithmetic", "first": -3.0, "gap": 1.0},
                    "right_tail": {"kind": "periodic", "anchor": 4.4, "pattern": [1.5, 1.0]},
                    "c": 0.4, "C": 1.5},
         "params": {"gap_index": 2}},
        [],
        {"stdout": "7d930d8d0f14fb1fd275a32921e5469dae0a9d1361a71484ebca1d8e79524c92"},
    ),
    "check-monotone": (
        ["check-monotone"],
        {"schema_version": 1, "task": "check-monotone", "law": COULOMB_JSON,
         "config": trivial_config_json(9), "params": {"window_range": [1, 8]}},
        [],
        {"stdout": "e710713bb80c693436a193af6179c624939772377a937e96764ff261187ae2fb"},
    ),
    "solve-circle": (
        ["solve-circle", "--n", "5", "--law", "inverse_power:2", "--seed", "7"], None, [],
        {"stdout": "603a9badc63ad6cb2ecbbf6d78b7f558bed7f6b88e94db4a33f489ba4ca6c6af"},
    ),
    # The entries below were recorded before the task table replaced the
    # per-task handlers, one for each task the entries above leave out.
    "solve-segment": (
        ["solve-segment"],
        {"schema_version": 1, "task": "solve-segment", "law": COULOMB_JSON,
         "params": {"left_pins": [-1.0, 0.0], "right_pins": [3.5], "n_free": 3}},
        ["csv", "svg"],
        {
            "stdout": "baf7e8db56967ea8ffae4640fbaa8e02a90e7b07a1f490c89c006db355492278",
            "csv": "880d2b7ee00b7549220fee5d98b47ce7d867d0eafe2378124d0a8485e5e0e430",
            "svg": "dee9575a2b287f1e343ea7011a263a0b18171c8fc21aa20535f3ba25987de86b",
        },
    ),
    "relax": (
        ["relax"],
        {"schema_version": 1, "task": "relax", "law": COULOMB_JSON, "config": FINITE_RELAX_CONFIG,
         "params": {"fixed": [0, 3], "direction": "rtl"}},
        ["csv", "svg"],
        {
            "stdout": "eeec4612c9a8631736261e1811824e57333b0a20e0b92d76fb222eed0de0b500",
            "csv": "4c9b8c34b666d10da0434dbc9df16b2f4b769aeac34f0567e2db286b0c065583",
            "svg": "263dde08c0f45015af647da7fa6b9026c50695d8144b60787f39e46f07614a80",
        },
    ),
    "zero-centered": (
        ["zero-centered", "--n", "2", "--a", "-1", "--b", "1.25", "--law", "inverse_power:2"],
        None,
        ["csv", "svg"],
        {
            "stdout": "abd8674c6245e40adab6776c9c4c9d182aa4cf2037e57397e73e97ba586390fa",
            "csv": "5604796e73909a49b0aeacc3e8fe18a95b2a1e0fa13659c3493a8f76f1420c48",
            "svg": "486f0c101584ca5aa199d634ec8341eab667187e153555c7be6a92fef6628e9a",
        },
    ),
    "extend": (
        ["extend"],
        {"schema_version": 1, "task": "extend", "law": COULOMB_JSON,
         "config": {"window": [-4.0, -3.0, -2.0, -1.0],
                    "left_tail": {"kind": "arithmetic", "first": -5.0, "gap": 1.0},
                    "right_tail": {"kind": "none"}, "c": 1.0, "C": 1.0},
         "params": {"x0": 0.25},
         "options": {"extension_points": 6, "guard_band": 2, "position_tol": 0.5}},
        ["csv", "svg"],
        {
            "stdout": "17adc7543bf9c28951ac2eebeb19831c6be16b78e316513df9525e2bbda9b9f6",
            "csv": "7894c82f02988ce7989e37492c020fd7c3a42789140fc546960536a89f33a9e7",
            "svg": "03bd89b3eed404537bd51a3c334319000f463921aa1dd1e961efc2bda974e8d7",
        },
    ),
    "gap-ratio": (
        ["gap-ratio"],
        {"schema_version": 1, "task": "gap-ratio", "config": FINITE_RELAX_CONFIG},
        [],
        {"stdout": "cc17d3e168d5b2d274dcd34f4299d4a2abe303dd2ef01b9604f2e2899f1c1dcd"},
    ),
    "detect-period": (
        ["detect-period"],
        {"schema_version": 1, "task": "detect-period", "config": trivial_config_json(14),
         "params": {"side": "left", "max_period": 3, "tol": 1e-12}},
        [],
        {"stdout": "d52cd290e02d1ac91071e0f44b94d237fb6a51eb30596ec9f4a46eecebc4e0c6"},
    ),
    "diff-field": (
        ["diff-field"],
        {"schema_version": 1, "task": "diff-field", "law": COULOMB_JSON,
         "params": {"x_positions": [-2.5, -1.0], "y_positions": [-2.0], "w": 0.25,
                    "x_tail": {"kind": "arithmetic", "first": -4.0, "gap": 1.0},
                    "y_tail": {"kind": "arithmetic", "first": -3.5, "gap": 1.5}}},
        [],
        {"stdout": "0d012287af880b6ca38d7b79e6e43d2b89ef1301d74e15c88d7eb27d524dcbb2"},
    ),
    "reconstruct": (
        ["reconstruct"],
        {"schema_version": 1, "task": "reconstruct", "law": COULOMB_JSON,
         "params": {**RECONSTRUCT_PARAMS, "multi_start": 4, "rng_seed": 0}},
        [],
        {"stdout": "3280cebc44ad2d7f8d6ccc3e11964f3ebb34123be4d8a6dc909f4e94337d7cee"},
    ),
    # A Blaschke source taken from the configuration: its window, then its right tail.
    "blaschke-config": (
        ["blaschke"],
        {"schema_version": 1, "task": "blaschke", "config": trivial_config_json(9),
         "params": {"n_terms": 20}},
        ["csv"],
        {
            "stdout": "8b66f52b6225e33aea91870be9ed6b7f12360203f7de27c47515d47bc7c694f0",
            "csv": "fe62b0bc0488ee3a104daafebaf7d7363e1aef7815c0abadcf8aa57699d0dc8f",
        },
    ),
    # The entries below pin the circle's report CSV, its SVG with force
    # arrows, its configuration CSV, a circle gap-ratio report and the
    # inapplicable certify-gap verdict of each geometry.
    "residuals-circle-arrows": (
        ["residuals"],
        {"schema_version": 1, "task": "residuals", "law": {"kind": "inverse_power", "k": 3},
         "config": {"angles": [0.0, 1.0, 2.0, 4.0, 5.5]}},
        ["csv", "svg"],
        {
            "stdout": "0cb3271cd683914a8109256a23346fe08d4416aa2221348a69d81f96bd5d2931",
            "csv": "b80b449a0d1c4944d1ff9f1c3964260345169a6e6226574dbb23cab562f524ef",
            "svg": "a99f5e5d04e803b31ddbfffae65eff6d09e9096b1bfbb0926613c2593ab408e3",
        },
    ),
    "certify-gap-line-inapplicable": (
        ["certify-gap"],
        {"schema_version": 1, "task": "certify-gap", "law": COULOMB_JSON,
         "config": trivial_config_json(5), "params": {"gap_index": 1}},
        [],
        {"stdout": "3b29a3350b596a124b78ef5e459f58c332263e2ab6c30173b051b354982e76d7"},
    ),
    "certify-gap-circle-inapplicable": (
        ["certify-gap"],
        {"schema_version": 1, "task": "certify-gap", "law": COULOMB_JSON,
         "config": {"angles": [0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi]},
         "params": {"gap_index": 2}},
        [],
        {"stdout": "49dd8626713559f2d42700f1c58386d5e9cc49a05922457193c7e145f2c6f798"},
    ),
    "gap-ratio-circle": (
        ["gap-ratio"],
        {"schema_version": 1, "task": "gap-ratio", "config": {"angles": [0.0, 1.0, 2.0, 4.0, 5.5]}},
        [],
        {"stdout": "d130ed39849a1f2b39f461730a8dba3b43b81d35df6bc28950b822dff03e87ea"},
    ),
    "solve-circle-csv": (
        ["solve-circle", "--n", "6", "--law", "exp:1", "--seed", "3"], None, ["csv", "svg"],
        {
            "stdout": "1f575cb734dccb47029417057c423b5da47e88febedcfff0ff4d4188c7ebbdbe",
            "csv": "13d114b31c4df2484f3f30adcd63ba4e586cdcd5501975dbbfc44b0bd2046560",
            "svg": "70426fbd9977022f6893ef2436375a92cb910a97cd97f8be820db57a33e2f7bd",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(FROZEN_RUNS))
def test_cli_output_is_frozen(tmp_path, capsys, name):
    argv, body, artifacts, expect = FROZEN_RUNS[name]
    if body is not None:
        argv = [*argv, "--problem", write_problem(tmp_path, "p.json", body)]
    for kind in artifacts:
        argv = [*argv, f"--{kind}", str(tmp_path / f"artifact.{kind}")]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    got = {"stdout": hashlib.sha256(out.encode()).hexdigest()}
    for kind in artifacts:
        got[kind] = hashlib.sha256((tmp_path / f"artifact.{kind}").read_bytes()).hexdigest()
    assert got == expect


# Force sums beyond the largest float: each run exited 1 with a traceback.
_OVERFLOWING_RUNS = {
    "residuals": {"law": COULOMB_JSON, "config": eq.LineConfig.finite(
        [i * 0.9e-154 for i in range(6)]).to_json_dict()},
    "diff-field": {"law": COULOMB_JSON,
                   "params": {"x_positions": [0.0, 2e-154], "y_positions": [], "w": 1e-154}},
}


@pytest.mark.parametrize("task", sorted(_OVERFLOWING_RUNS))
def test_overflowing_force_sums_exit_0_with_json(tmp_path, capsys, task):
    body = {"schema_version": 1, "task": task, **_OVERFLOWING_RUNS[task]}
    code, out, err = run_cli(capsys, [task, "--problem", write_problem(tmp_path, "p.json", body)])
    assert (code, err) == (0, "")
    result = parse_payload(out)["result"]
    assert math.inf in (result.get("max_abs_net"), result.get("value"))


@pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf], ids=["NaN", "Infinity", "-Infinity"])
def test_diff_field_non_finite_w_is_invalid_input(tmp_path, capsys, w):
    # Equal source sets cancel before any force is evaluated, so only the
    # check on w itself can reject it.  json.dumps writes w as a bare token.
    body = {"schema_version": 1, "task": "diff-field", "law": COULOMB_JSON,
            "params": {"x_positions": [-1.0], "y_positions": [-1.0], "w": w}}
    problem = write_problem(tmp_path, "p.json", body)
    code, out, err = run_cli(capsys, ["diff-field", "--problem", problem])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["code"] == "invalid_input"


def test_tabulated_exp_tail_that_overflows_is_invalid_input(tmp_path, capsys):
    # The tail amplitude 0.5 * exp(2**20) matches the tail at d_max = 2.
    law = {"kind": "tabulated", "samples": [[1, 1], [2, 0.5]], "tail": {"kind": "exp", "k": 20}}
    problem = write_problem(tmp_path, "p.json", {**README_RESIDUALS, "law": law})
    code, out, err = run_cli(capsys, ["residuals", "--problem", problem])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["code"] == "invalid_input"


@pytest.mark.parametrize("tol", [math.nan, -1.0], ids=["nan", "negative"])
def test_detect_period_tol_out_of_range_is_invalid_input(tmp_path, capsys, tol):
    body = {"schema_version": 1, "task": "detect-period", "config": trivial_config_json(14),
            "params": {"tol": tol}}
    problem = write_problem(tmp_path, "p.json", body)
    code, out, err = run_cli(capsys, ["detect-period", "--problem", problem])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["code"] == "invalid_input"


@pytest.mark.parametrize(
    "params, message",
    [({"direction": "up"}, "direction must be 'ltr' or 'rtl', got 'up'"),
     ({"fixed": [1, 3]}, "both extreme window particles must be fixed")],
    ids=["direction", "fixed"],
)
def test_relax_without_passes_still_checks_its_params(tmp_path, capsys, params, message):
    body = {"schema_version": 1, "task": "relax", "law": COULOMB_JSON,
            "config": FINITE_RELAX_CONFIG, "params": params, "options": {"max_sweeps": 0}}
    problem = write_problem(tmp_path, "p.json", body)
    code, out, err = run_cli(capsys, ["relax", "--problem", problem])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {"code": "invalid_input", "message": message}


def test_relax_without_passes_reports_the_input_residual(tmp_path, capsys):
    body = {"schema_version": 1, "task": "relax", "law": COULOMB_JSON,
            "config": FINITE_RELAX_CONFIG, "options": {"max_sweeps": 0}}
    problem = write_problem(tmp_path, "p.json", body)
    code, out, _ = run_cli(capsys, ["relax", "--problem", problem])
    report = eq.residual_report(eq.config_from_json(FINITE_RELAX_CONFIG), eq.InversePowerLaw(2))
    assert code == 3
    assert parse_payload(out)["result"]["residual"] == max(abs(r.net) for r in report.rows[1:3])


def test_relax_verdict_allows_the_report_error_bound(tmp_path, capsys):
    # The rounded lattice rests at free-row |net| 5.7e-14, inside the
    # report's error bound (1.9e-12) but above residual_tol 0: the certified
    # rule of ResidualReport.in_equilibrium accepts it.
    config = eq.LineConfig.trivial(0.1, 7)
    body = {"schema_version": 1, "task": "relax", "law": COULOMB_JSON,
            "config": config.to_json_dict(), "options": {"max_sweeps": 0, "residual_tol": 0}}
    code, out, _ = run_cli(capsys, ["relax", "--problem", write_problem(tmp_path, "p.json", body)])
    result = parse_payload(out)["result"]
    assert (code, result["converged"], result["sweeps"]) == (0, True, 0)
    assert 0.0 < result["residual"] < 1e-13


def test_relax_verdict_is_false_on_a_nan_free_row(tmp_path, capsys):
    # Free row 3 sits 1e-160 from both neighbours: its two side sums are
    # inf under 1/d^2 and its net is NaN.  The rows on either side are
    # finite, and a bare max over the free rows would skip the NaN.
    config = {"window": [-5.0, -2.0, -1e-160, 0.0, 1e-160, 2.0, 5.0],
              "left_tail": {"kind": "none"}, "right_tail": {"kind": "none"},
              "c": 1e-160, "C": 3.0}
    body = {"schema_version": 1, "task": "relax", "law": COULOMB_JSON, "config": config,
            "params": {"fixed": [0, 2, 4, 6]},
            "options": {"max_sweeps": 0, "residual_tol": 1000}}
    code, out, _ = run_cli(capsys, ["relax", "--problem", write_problem(tmp_path, "p.json", body)])

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    # The NaN residual is reported as null, so the output stays strict JSON.
    result = json.loads(out, parse_constant=reject)["result"]
    assert (code, result["converged"], result["residual"]) == (3, False, None)


@pytest.mark.parametrize("track", [False, True])
def test_solve_segment_emits_the_energy_trace_it_tracks(tmp_path, capsys, track):
    body = {"schema_version": 1, "task": "solve-segment", "law": COULOMB_JSON,
            "params": {"left_pins": [0.0], "right_pins": [5.0], "n_free": 4},
            "options": {"track_energy": track}}
    code, out, _ = run_cli(capsys, ["solve-segment", "--problem",
                                    write_problem(tmp_path, "p.json", body)])
    _, stats = eq.solve_pinned_segment([0.0], [5.0], 4, eq.InversePowerLaw(2),
                                       eq.SolverOptions(track_energy=True))
    result = parse_payload(out)["result"]
    assert code == 0
    assert result.get("energy_trace") == (list(stats.energy_trace) if track else None)


@pytest.mark.parametrize("starts", [1, 3])
def test_extend_emits_the_clusters_of_its_multi_start(tmp_path, capsys, starts):
    fields = dict(extension_points=4, guard_band=1, truncation_levels=[1])
    config = {**EXTEND_CONFIG, "window": [-3.0, -2.0, -1.0],
              "left_tail": {"kind": "arithmetic", "first": -4.0, "gap": 1.0}}
    body = {"schema_version": 1, "task": "extend", "law": COULOMB_JSON, "config": config,
            "params": {"x0": 0.25}, "options": {**fields, "multi_start": starts}}
    code, out, _ = run_cli(capsys, ["extend", "--problem", write_problem(tmp_path, "p.json", body)])
    _, stats = eq.extend_right(eq.config_from_json(config), 0.25, eq.InversePowerLaw(2),
                               eq.SolverOptions(**fields, multi_start=starts))
    result = parse_payload(out)["result"]
    assert (code, len(stats.clusters)) == (0, 1 if starts > 1 else 0)
    assert result.get("clusters") == ([list(c) for c in stats.clusters] if starts > 1 else None)


# ---------------------------------------------------------------------------
# Fuzz: a small valid problem per task with one field replaced by a bad value
# ---------------------------------------------------------------------------

_DROP = object()  # the field is left out
_FUZZ_VALUES = (math.nan, math.inf, -math.inf, -1.0, -3, 1e300, 2**62, "x", [1.0], _DROP)
_EXP_JSON = {"kind": "exp", "k": 1.0}
_STRETCHED_JSON = {"kind": "exp", "k": 1.5}
_CANCELLING_DIFF_FIELD = {"law": _STRETCHED_JSON,
                          "params": {"x_positions": [-1.0], "y_positions": [-1.0], "w": 0.5}}
_RELAX_NO_PASS = {"law": COULOMB_JSON, "config": FINITE_RELAX_CONFIG,
                  "params": {"fixed": [0, 3], "direction": "ltr"}, "options": {"max_sweeps": 0}}
_DETECT_PERIOD = {"config": trivial_config_json(7),
                  "params": {"side": "left", "max_period": 2, "tol": 1e-12}}
_FUZZ_BASES = {
    "solve-circle": [{"law": COULOMB_JSON, "params": {"n": 3}, "options": {"rng_seed": 1}}],
    "solve-segment": [{"law": _EXP_JSON,
                       "params": {"left_pins": [0.0], "right_pins": [3.0], "n_free": 2}}],
    "relax": [{**_RELAX_NO_PASS, "options": {"max_sweeps": 2}}, _RELAX_NO_PASS],
    "zero-centered": [{"law": COULOMB_JSON, "params": {"n": 2, "a": -1.0, "b": 1.25}}],
    "extend": [{"law": COULOMB_JSON,
                "config": {**EXTEND_CONFIG, "window": [-3.0, -2.0, -1.0],
                           "left_tail": {"kind": "arithmetic", "first": -4.0, "gap": 1.0}},
                "params": {"x0": 0.25},
                "options": {"extension_points": 4, "guard_band": 1, "truncation_levels": [1]}}],
    "certify-gap": [{"law": COULOMB_JSON, "config": {"angles": [0.0, 1.0, 2.0, 4.0]},
                     "params": {"gap_index": 3}},
                    {**FROZEN_RUNS["certify-gap-line-min-right"][1], "law": _STRETCHED_JSON}],
    "check-monotone": [{"law": _EXP_JSON, "config": trivial_config_json(5),
                        "params": {"window_range": [1, 4]}}],
    "gap-ratio": [{"config": FINITE_RELAX_CONFIG}],
    "detect-period": [_DETECT_PERIOD],
    "residuals": [README_RESIDUALS],
    "diff-field": [FROZEN_RUNS["diff-field"][1], _CANCELLING_DIFF_FIELD],
    "blaschke": [{"params": {"n_terms": 5, "growth_constant": 1.0,
                             "w_positions": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]}}],
    "reconstruct": [{"law": COULOMB_JSON,
                     "params": {"w_window": [float(i) for i in range(6)], "m": 1,
                                "right_tail": {"kind": "arithmetic", "first": 6.0, "gap": 1.0},
                                "far_left_tail": {"kind": "arithmetic", "first": -2.0,
                                                  "gap": 1.0},
                                "multi_start": 1, "rng_seed": 0}}],
}


def _fields(node, prefix=()):
    """Every field of a problem: each key of an object and each item of a list."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _fields(value, prefix + (key,))


_FUZZ_CASES = [(task, i, path) for task, bases in _FUZZ_BASES.items()
               for i, base in enumerate(bases) for path in _fields(base)]


def _run_with_one_bad_field(task, base, path, value):
    """Run `task` on `base` with the field at `path` replaced (or dropped)."""
    body = copy.deepcopy({"schema_version": 1, "task": task, **base})
    *parents, last = path
    node = body
    for key in parents:
        node = node[key]
    if value is _DROP:
        del node[last]
    else:
        node[last] = value
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        problem = Path(tmp) / "p.json"
        problem.write_text(json.dumps(body))
        # np.errstate as `main` sets it: numpy's warnings are not output.
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                np.errstate(all="ignore"):
            code = eq.run([task, "--problem", str(problem)])

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    # One strict JSON document: the result (exit 0 or 3) or the error (exit 2).
    assert code in (0, 2, 3)
    document, other = (err, out) if code == 2 else (out, err)
    json.loads(document.getvalue(), parse_constant=reject)
    assert other.getvalue() == ""
    if isinstance(value, float) and math.isnan(value):
        assert code == 2  # NaN is never a valid value
    return code


@example(case=("diff-field", 1, ("params", "w")), value=math.nan)
@example(case=("detect-period", 0, ("params", "tol")), value=math.nan)
@example(case=("relax", 1, ("params", "direction")), value="x")
@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=st.sampled_from(_FUZZ_CASES), value=st.sampled_from(_FUZZ_VALUES))
def test_cli_answers_one_bad_field_with_one_json_document(case, value):
    task, base, path = case
    _run_with_one_bad_field(task, _FUZZ_BASES[task][base], path, value)


@pytest.mark.parametrize(
    "task, base, path, value",
    [
        ("residuals", 0, ("config", "right_tail", "first"), [1.0]),
        ("gap-ratio", 0, ("config", "window", 0), "x"),
        ("gap-ratio", 0, ("config", "c"), [1.0]),
        ("certify-gap", 0, ("config", "angles"), math.nan),
        ("certify-gap", 1, ("config", "right_tail", "pattern"), "x"),
        ("check-monotone", 0, ("params", "window_range", 1), 1e300),
        ("check-monotone", 0, ("law", "k"), 1e300),
        ("certify-gap", 1, ("law", "k"), 1e300),
        ("residuals", 0, ("law", "k"), 1e300),
        ("zero-centered", 0, ("law", "k"), 2**62),
        ("extend", 0, ("options", "extension_points"), 1e300),
        ("reconstruct", 0, ("params", "multi_start"), 1e300),
        ("reconstruct", 0, ("params", "w_window", 3), math.nan),
        ("blaschke", 0, ("params", "w_positions", 1), math.nan),
        ("diff-field", 0, ("params", "x_tail", "gap"), 1e300),
        ("diff-field", 1, ("params", "w"), math.inf),
        ("extend", 0, ("options", "multi_start"), 1e300),
    ],
    ids=["tail-first-list", "window-string", "c-list", "angles-nan", "pattern-string",
         "window-range-huge", "exp-k-huge", "stretched-k-huge", "power-k-huge",
         "power-k-overflows-forces", "extension-points-huge", "multi-start-huge",
         "w-window-nan", "w-positions-nan", "tail-gap-huge", "w-inf",
         "extend-multi-start-huge"],
)
def test_cli_fields_that_once_crashed_hung_or_wrote_bare_tokens(task, base, path, value):
    # Each of these raised a traceback, did not finish, or wrote NaN,
    # Infinity or -Infinity into its output before the library checked it.
    code = _run_with_one_bad_field(task, _FUZZ_BASES[task][base], path, value)
    if path[-1] == "multi_start":  # more starts than MAX_PARTICLES
        assert code == 2
