"""Equilibrium configurations of repelling particles on the line and circle.

The package splits into small layers: force laws (`force_laws`), particle
configurations (`configurations`), certified equilibrium residuals
(`residuals`), constructive solvers (`solvers`), non-equilibrium
certificates (`certificates`), analytic diagnostics (`diagnostics`) and a
JSON-speaking command line (`cli`).

`import equilib` loads none of them: each public name below is imported
from its layer on first access (PEP 562), so a process pays only for the
layers it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each public name and the layer that defines it; a layer's own name maps to
# itself.
_LAYER_OF = {
    name: layer
    for layer, names in {
        "certificates": "Certificate EvidenceRow PeriodicTail certify_extremal_gap "
        "check_internal_force_monotonicity detect_periodic_tail gap_ratio_report",
        "cli": "render_gap_plot run",
        "configurations": "CircleConfig ExtremalGaps LineConfig TailModel canonicalize_circle "
        "config_from_json config_to_csv config_to_json extremal_gaps gaps",
        "diagnostics": "BlaschkeReport ReconstructionCluster ReconstructionProblem "
        "ReconstructionReport blaschke_partial_sum eval_difference_field mobius_inverse "
        "mobius_map reconstruct_left_tail",
        "errors": "DomainError EquilibError Inapplicable InfeasibleBracket "
        "InsufficientEquations InvalidInput InvalidPins NoConvergence NotIntegrable "
        "PostconditionViolation",
        "force_laws": "ForceLaw InversePowerLaw LawVerification StretchedExponentialLaw "
        "TabulatedLaw TabulatedTail eval_force eval_force_derivative eval_potential "
        "force_sum_arithmetic law_from_json law_to_json tail_force_bound verify_law",
        "residuals": "ANTIPODAL_BAND ParticleResidual ResidualReport circle_residual_report "
        "residual_report side_forces",
        "solvers": "MAX_PARTICLES SolverOptions ZeroCenteredProblem extend_right "
        "solve_circle_equilibrium solve_pinned_segment solve_zero_centered sweep_relax",
    }.items()
    for name in (layer, *names.split())
}

__all__ = sorted(_LAYER_OF)


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{layer}")
    value = module if name == layer else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
