"""The runtime needs numpy only: scipy is a test-only dependency."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import equilib as eq

ROOT = Path(__file__).resolve().parent.parent

# One residuals call, one reconstruct call and one potential of a tabulated
# law with an exp(-d**1.5) tail, in a fresh interpreter.
PROBE = """
import sys
import equilib as eq
import equilib.cli

cfg = eq.LineConfig.finite([0.0, 1.0, 2.5])
eq.residual_report(cfg, eq.InversePowerLaw(2))
window = tuple(float(i) for i in range(8))
eq.reconstruct_left_tail(eq.ReconstructionProblem(
    w_window=window, m=2, law=eq.InversePowerLaw(2),
    right_tail=eq.TailModel.arithmetic(8.0, 1.0),
    far_left_tail=eq.TailModel.arithmetic(-3.0, 1.0), multi_start=2))
law = eq.TabulatedLaw(tuple((d, d ** -2.0) for d in (0.5, 1.0, 2.0, 4.0)),
                      eq.TabulatedTail("exp", 1.5))
law.potential(1.5)
law.potential(6.0)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_no_scipy_module_is_loaded_at_runtime():
    env = dict(os.environ)
    src = str(Path(eq.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_scipy_is_not_a_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [dep.split(">")[0].split("=")[0].strip() for dep in project["dependencies"]]
    assert names == ["numpy"]
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])
