"""Equilibrium configurations of repelling particles on the line and circle.

The package splits into small layers: force laws (`force_laws`), particle
configurations (`configurations`), certified equilibrium residuals
(`residuals`), constructive solvers (`solvers`), non-equilibrium
certificates (`certificates`), analytic diagnostics (`diagnostics`) and a
JSON-speaking command line (`cli`).
"""

from .cli import render_gap_plot, run
from .certificates import (
    Certificate,
    EvidenceRow,
    PeriodicTail,
    certify_extremal_gap,
    check_internal_force_monotonicity,
    detect_periodic_tail,
    gap_ratio_report,
)
from .configurations import (
    CircleConfig,
    ExtremalGaps,
    LineConfig,
    TailModel,
    canonicalize_circle,
    config_from_json,
    config_to_csv,
    config_to_json,
    extremal_gaps,
    gaps,
)
from .diagnostics import (
    BlaschkeReport,
    ReconstructionCluster,
    ReconstructionProblem,
    ReconstructionReport,
    blaschke_partial_sum,
    eval_difference_field,
    mobius_inverse,
    mobius_map,
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
from .force_laws import (
    ForceLaw,
    InversePowerLaw,
    LawVerification,
    StretchedExponentialLaw,
    TabulatedLaw,
    TabulatedTail,
    eval_force,
    eval_force_derivative,
    eval_potential,
    force_sum_arithmetic,
    law_from_json,
    law_to_json,
    tail_force_bound,
    verify_law,
)
from .residuals import (
    ANTIPODAL_BAND,
    ParticleResidual,
    ResidualReport,
    circle_residual_report,
    residual_report,
    side_forces,
)
from .solvers import (
    MAX_PARTICLES,
    SolverOptions,
    ZeroCenteredProblem,
    extend_right,
    solve_circle_equilibrium,
    solve_pinned_segment,
    solve_zero_centered,
    sweep_relax,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
