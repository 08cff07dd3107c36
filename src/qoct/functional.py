"""The one definition of the three-term control objective on discrete trajectories.

The objective splits into the observable expectation at the measurement
node, a negative quadratic field-deviation cost over every sample of the
grid, and a multiplier term that vanishes whenever the state trajectory
actually solves the equation of motion. The cost runs over the whole
grid, as in the reduced objective the gradient differentiates, so its
field law sets the samples after the measurement node to the reference.
Quadrature is left-Riemann on intervals, exact for piecewise-constant
integrands, and the discrete time-derivative inside the multiplier term
is defined through the exact stepper so that propagated trajectories
annihilate the integrand identically instead of to O(dt^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ControlField,
    ControlHamiltonian,
    CostateTrajectory,
    HermitianOperator,
    StateTrajectory,
    StateVector,
    TimeGrid,
    _check_grid,
    expectation,
)
from .propagator import _step_defects, _u_stack

__all__ = [
    "FunctionalBreakdown",
    "eval_j_opt",
    "eval_j_cost",
    "eval_j_tdse",
    "eval_total",
]


@dataclass(frozen=True)
class FunctionalBreakdown:
    """The three objective terms; j_cost is never positive and j_total is their sum."""

    j_opt: float
    j_cost: float
    j_tdse: float

    def __post_init__(self):
        if self.j_cost > 0:
            raise ValueError(f"j_cost must be non-positive, got {self.j_cost!r}")

    @property
    def j_total(self) -> float:
        return self.j_opt + self.j_cost + self.j_tdse

    def as_dict(self) -> dict:
        return {
            "j_opt": self.j_opt,
            "j_cost": self.j_cost,
            "j_tdse": self.j_tdse,
            "j_total": self.j_total,
        }


def eval_j_opt(traj: StateTrajectory, O: HermitianOperator, grid: TimeGrid) -> float:
    """Observable expectation at the measurement node."""
    _check_grid(grid, trajectories=[traj])
    return expectation(O, StateVector(traj.node(grid.index_T)))


def eval_j_cost(
    field: ControlField, eps_ref: ControlField, alpha: float, grid: TimeGrid
) -> float:
    """Quadratic deviation cost -alpha * sum_k (eps_k - ref_k)^2 dt over all samples.

    The sum runs over [0, T_hat], past the measurement node, so the
    objective's field law there is eps = ref.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    _check_grid(grid, [field, eps_ref])
    dev = field.samples - eps_ref.samples
    return float(-alpha * np.sum(dev * dev) * grid.dt)


def eval_j_tdse(
    psi_traj: StateTrajectory,
    chi_traj: CostateTrajectory,
    field: ControlField,
    H: ControlHamiltonian,
    grid: TimeGrid,
) -> float:
    """Multiplier term -2 Im sum_k <chi_k | r_k> dt over the whole grid.

    r_k is the one-step defect (psi_{k+1} - U_k psi_k) / dt, i.e. the
    discrete realization of (i d/dt - H) psi consistent with the exact
    stepper; it reuses the forward march's product, so propagated
    trajectories give exactly zero for any costate.
    """
    _check_grid(grid, [field], [psi_traj, chi_traj])
    return _j_tdse(_u_stack(H, field.samples, grid.dt), psi_traj.states, chi_traj.states)


def _j_tdse(us, psi_nodes, chi_nodes) -> float:
    """The multiplier term on the forward step stack ``us`` of the field."""
    overlaps = np.einsum("ki,ki->k", chi_nodes[:-1].conj(), _step_defects(us, psi_nodes))
    return float(-2.0 * np.imag(np.sum(overlaps)))


def eval_total(
    psi_traj: StateTrajectory,
    chi_traj: CostateTrajectory,
    field: ControlField,
    eps_ref: ControlField,
    alpha: float,
    O: HermitianOperator,
    H: ControlHamiltonian,
    grid: TimeGrid,
) -> FunctionalBreakdown:
    """Evaluate all three terms on one configuration."""
    _check_grid(grid, [field], [psi_traj, chi_traj])
    us = _u_stack(H, field.samples, grid.dt)
    return _total(psi_traj, chi_traj, field, eps_ref, alpha, O, grid, us)


def _total(
    psi: StateTrajectory, chi: CostateTrajectory, field: ControlField, eps_ref: ControlField,
    alpha: float, O: HermitianOperator, grid: TimeGrid, us,
) -> FunctionalBreakdown:
    """``eval_total`` on a forward step stack ``us`` already built for the field."""
    return FunctionalBreakdown(
        j_opt=eval_j_opt(psi, O, grid),
        j_cost=eval_j_cost(field, eps_ref, alpha, grid),
        j_tdse=_j_tdse(us, psi.states, chi.states),
    )
