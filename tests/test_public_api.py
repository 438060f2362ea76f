"""Every module's declared public surface exists."""

import importlib

import pytest

import equilib as eq

MODULES = ["equilib", "equilib.certificates", "equilib.cli", "equilib.configurations",
           "equilib.diagnostics", "equilib.force_laws", "equilib.residuals", "equilib.solvers"]


_LAW = eq.InversePowerLaw(2)

# Each call with an integer parameter, given a bad value for it.
_INTEGER_PARAMS = {
    "solve_circle_equilibrium-n": lambda v: eq.solve_circle_equilibrium(v, _LAW),
    "solve_pinned_segment-n_interior": lambda v: eq.solve_pinned_segment([0.0], [3.0], v, _LAW),
    "detect_periodic_tail-max_period":
        lambda v: eq.detect_periodic_tail(eq.LineConfig.trivial(1.0, 14), max_period=v),
    "ZeroCenteredProblem-n": lambda v: eq.ZeroCenteredProblem(-1.0, 1.0, v, _LAW),
    "blaschke_partial_sum-N": lambda v: eq.blaschke_partial_sum(range(11), v, 1.0),
    "certify_extremal_gap-gap_index":
        lambda v: eq.certify_extremal_gap(eq.CircleConfig((0.0, 1.0, 2.0, 4.0)), _LAW, v),
}


@pytest.mark.parametrize("value", [2.5, True, "a"], ids=["fraction", "bool", "string"])
@pytest.mark.parametrize("call", list(_INTEGER_PARAMS.values()), ids=list(_INTEGER_PARAMS))
def test_integer_parameters_reject_other_values(call, value):
    # These raised a raw TypeError or ValueError, were truncated, or ran
    # with True as 1.
    with pytest.raises(eq.InvalidInput, match="must be an integer"):
        call(value)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
