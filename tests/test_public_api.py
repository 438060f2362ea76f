"""Every module's declared public surface exists."""

import importlib
import math

import numpy as np
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
    "sweep_relax-fixed": lambda v: eq.sweep_relax(eq.LineConfig.trivial(1.0, 5), [0, v, 4], _LAW),
    "check_internal_force_monotonicity-window_range":
        lambda v: eq.check_internal_force_monotonicity(eq.LineConfig.trivial(1.0, 5), _LAW, (0, v)),
    "LineConfig.trivial-n_window": lambda v: eq.LineConfig.trivial(1.0, v),
    "force_sum_arithmetic-max_terms": lambda v: eq.force_sum_arithmetic(_LAW, 1.0, 1.0, max_terms=v),
}


# Each call with a real parameter, given a value that float() rejects.
_STRETCHED = eq.StretchedExponentialLaw(1.5)
_REAL_PARAMS = {
    "force_sum_arithmetic-gap": lambda v: eq.force_sum_arithmetic(_STRETCHED, 1.0, v),
    "force_sum_arithmetic-tol": lambda v: eq.force_sum_arithmetic(_STRETCHED, 1.0, 1.0, v),
    "tail_force_bound-start": lambda v: eq.tail_force_bound(_LAW, v, 1.0),
    "tail_force_bound-c": lambda v: eq.tail_force_bound(_LAW, 1.0, v),
    "eval_force-d": lambda v: eq.eval_force(_LAW, v),
    "eval_potential-d": lambda v: eq.eval_potential(_LAW, v),
    "eval_force_derivative-d": lambda v: eq.eval_force_derivative(_LAW, v),
}


@pytest.mark.parametrize("value", ["a", None, np.array([1.0, 2.0])],
                         ids=["string", "none", "array"])
@pytest.mark.parametrize("call", list(_REAL_PARAMS.values()), ids=list(_REAL_PARAMS))
def test_real_parameters_reject_other_values(call, value):
    # These raised a raw TypeError or ValueError.
    with pytest.raises(eq.InvalidInput, match="expected a number"):
        call(value)


@pytest.mark.parametrize("value", ["a", [1.0, "a"]], ids=["string", "list"])
def test_force_sum_starts_reject_other_values(value):
    # An array start is valid, so only what no float array holds is rejected.
    with pytest.raises(eq.InvalidInput, match="expected numbers"):
        eq.force_sum_arithmetic(_LAW, value, 1.0)


@pytest.mark.parametrize("value", [2.5, True, "a"], ids=["fraction", "bool", "string"])
@pytest.mark.parametrize("call", list(_INTEGER_PARAMS.values()), ids=list(_INTEGER_PARAMS))
def test_integer_parameters_reject_other_values(call, value):
    # These raised a raw TypeError or ValueError, were truncated, or ran
    # with True as 1.
    with pytest.raises(eq.InvalidInput, match="must be an integer"):
        call(value)


def test_integer_parameters_keep_their_range_rules():
    # A NaN or a fraction is no index, and a truncated one moved which particle
    # was fixed; the range checks keep their own messages, and 0 terms is valid.
    cfg = eq.LineConfig.trivial(1.0, 5)
    for fixed in ([0, math.nan, 4], [0, 4.9], [0.4, 4], ["2", 0, 4]):
        with pytest.raises(eq.InvalidInput, match="must be an integer"):
            eq.sweep_relax(cfg, fixed, _LAW)
    with pytest.raises(eq.InvalidInput, match="fixed index out of range"):
        eq.sweep_relax(cfg, [0, 4, 5], _LAW)
    with pytest.raises(eq.InvalidInput, match="both extreme window particles must be fixed"):
        eq.sweep_relax(cfg, [0, 3], _LAW)
    assert eq.sweep_relax(cfg, [np.int64(0), np.int64(4)], _LAW)[1].moved == 0
    with pytest.raises(eq.InvalidInput, match="must be an integer"):
        eq.check_internal_force_monotonicity(cfg, _LAW, [0, 1, 2.0])
    pair = eq.check_internal_force_monotonicity(cfg, _LAW, (0, 5))
    assert pair == eq.check_internal_force_monotonicity(cfg, _LAW, range(5))
    assert [row.term for row in pair.evidence] == [0, 1, 2, 3]
    numpy_pair = eq.check_internal_force_monotonicity(cfg, _LAW, (np.int64(0), np.int64(5)))
    assert [type(row.term) for row in numpy_pair.evidence] == [int] * 4
    with pytest.raises(eq.InvalidInput, match="gap > 0 and n >= 1"):
        eq.LineConfig.trivial(1.0, 0)
    stretched = eq.StretchedExponentialLaw(1.5)
    with pytest.raises(eq.InvalidInput, match="must be an integer"):
        eq.force_sum_arithmetic(stretched, 1.0, 1.0, max_terms=-3)
    assert eq.force_sum_arithmetic(stretched, 1.0, 1.0, max_terms=0)[1] == math.inf


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
