"""The import contract: each layer loads on first use.

`import equilib` loads no layer, `import equilib.cli` only the layers that
problem parsing and the residual artifacts need, and a task loads the rest
of what it calls.  Each probe runs in a fresh interpreter, since this test
process has long since loaded every layer.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import equilib as eq

SRC = str(Path(eq.__file__).resolve().parent.parent)

# The public names as the eagerly importing package listed them: every name
# it imported from a layer, and the layers themselves, sorted.
PUBLIC_NAMES = [
    "ANTIPODAL_BAND", "BlaschkeReport", "Certificate", "CircleConfig", "DomainError",
    "EquilibError", "EvidenceRow", "ExtremalGaps", "ForceLaw", "Inapplicable",
    "InfeasibleBracket", "InsufficientEquations", "InvalidInput", "InvalidPins",
    "InversePowerLaw", "LawVerification", "LineConfig", "MAX_PARTICLES", "NoConvergence",
    "NotIntegrable", "ParticleResidual", "PeriodicTail", "PostconditionViolation",
    "ReconstructionCluster", "ReconstructionProblem", "ReconstructionReport",
    "ResidualReport", "SolverOptions", "StretchedExponentialLaw", "TabulatedLaw",
    "TabulatedTail", "TailModel", "ZeroCenteredProblem", "blaschke_partial_sum",
    "canonicalize_circle", "certificates", "certify_extremal_gap",
    "check_internal_force_monotonicity", "circle_residual_report", "cli", "config_from_json",
    "config_to_csv", "config_to_json", "configurations", "detect_periodic_tail",
    "diagnostics", "errors", "eval_difference_field", "eval_force", "eval_force_derivative",
    "eval_potential", "extend_right", "extremal_gaps", "force_laws", "force_sum_arithmetic",
    "gap_ratio_report", "gaps", "law_from_json", "law_to_json", "mobius_inverse",
    "mobius_map", "reconstruct_left_tail", "render_gap_plot", "residual_report",
    "residuals", "run", "side_forces", "solve_circle_equilibrium", "solve_pinned_segment",
    "solve_zero_centered", "solvers", "sweep_relax", "tail_force_bound", "verify_law",
]

LAYERS = ["certificates", "cli", "configurations", "diagnostics", "errors", "force_laws",
          "residuals", "solvers"]

# Prints the equilib layers loaded after `code` ran, as a JSON list.
LOADED = """
import json, sys
{code}
print(json.dumps(sorted(m[8:] for m in sys.modules if m.startswith("equilib."))))
"""


def fresh(code: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", LOADED.format(code=code)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_layer():
    assert fresh("import equilib") == []


def test_importing_the_cli_loads_only_parsing_and_residual_layers():
    assert fresh("import equilib.cli") == ["cli", "configurations", "errors", "force_laws",
                                           "residuals"]


def test_a_certificate_task_loads_neither_solvers_nor_diagnostics(tmp_path):
    problem = tmp_path / "gap-ratio.json"
    config = eq.config_to_json(eq.LineConfig.finite([0.0, 1.0, 2.5, 4.5]))
    problem.write_text(json.dumps({"schema_version": 1, "config": config}))
    out = tmp_path / "out.json"
    code = (f"import equilib.cli\n"
            f"assert equilib.cli.run(['gap-ratio', '--problem', {str(problem)!r}, "
            f"'--out', {str(out)!r}]) == 0")
    assert fresh(code) == ["certificates", "cli", "configurations", "errors", "force_laws",
                           "residuals"]
    assert json.loads(out.read_text())["result"]["kind"] == "gap_ratio"


def test_public_names_keep_their_list_and_order():
    assert eq.__all__ == PUBLIC_NAMES


def test_every_public_name_resolves_lazily():
    code = ("import equilib\n"
            "assert set(equilib.__all__) <= set(dir(equilib))\n"
            "for name in equilib.__all__:\n"
            "    getattr(equilib, name)\n"
            "assert equilib.solvers.extend_right is equilib.extend_right\n"
            "assert not hasattr(equilib, 'no_such_name')")
    assert fresh(code) == LAYERS


def test_star_import_binds_every_public_name():
    code = ("from equilib import *\n"
            f"missing = [n for n in {PUBLIC_NAMES!r} if n not in globals()]\n"
            "assert missing == [], missing")
    assert fresh(code) == LAYERS
