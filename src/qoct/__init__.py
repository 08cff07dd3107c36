"""Quantum optimal control toolkit for finite-dimensional systems.

Solves the coupled state/costate equations of expectation-value control
with exact-exponential stepping, supports both the discontinuous
(canonical) and continuous costate boundary regimes, provides an
analytically exact discrete field gradient with a finite-difference
oracle, and optimizes pulses by L-BFGS on that gradient, started on
two-level systems by one immediate-feedback sweep.
"""

from .analysis import (
    ContinuityReport,
    Solution,
    check_canonical_jump,
    check_conjugate_independence,
    check_continuous_family,
    check_field_continuity,
    solve,
)
from .core import (
    ControlField,
    ControlHamiltonian,
    ControlProblem,
    CostateTrajectory,
    HermitianOperator,
    StateTrajectory,
    StateVector,
    TimeGrid,
    commutes,
    expectation,
    inner_product,
    make_grid,
)
from .functional import (
    FunctionalBreakdown,
    eval_j_cost,
    eval_j_opt,
    eval_j_tdse,
    eval_total,
)
from .gradient import (
    GradientReport,
    analytic_gradient,
    fd_gradient,
    gradient_report,
    reduced_objective,
    stationarity_residual,
)
from .optimizer import OptimizationConfig, OptimizationResult, optimize
from .propagator import (
    CostateBoundary,
    Direction,
    propagate_costate,
    propagate_forward,
    step,
    step_control_derivative,
    step_matrix,
    tdse_residual,
)

__version__ = "0.1.0"

__all__ = [
    "ContinuityReport",
    "ControlField",
    "ControlHamiltonian",
    "ControlProblem",
    "CostateBoundary",
    "CostateTrajectory",
    "Direction",
    "FunctionalBreakdown",
    "GradientReport",
    "HermitianOperator",
    "OptimizationConfig",
    "OptimizationResult",
    "Solution",
    "StateTrajectory",
    "StateVector",
    "TimeGrid",
    "analytic_gradient",
    "check_canonical_jump",
    "check_conjugate_independence",
    "check_continuous_family",
    "check_field_continuity",
    "commutes",
    "eval_j_cost",
    "eval_j_opt",
    "eval_j_tdse",
    "eval_total",
    "expectation",
    "fd_gradient",
    "gradient_report",
    "inner_product",
    "make_grid",
    "optimize",
    "propagate_costate",
    "propagate_forward",
    "reduced_objective",
    "solve",
    "stationarity_residual",
    "step",
    "step_control_derivative",
    "step_matrix",
    "tdse_residual",
]
