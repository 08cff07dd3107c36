"""Evaluation of the three-term control objective on discrete trajectories.

The objective splits into the observable expectation at the measurement
node, a negative quadratic field-deviation cost integrated up to the
measurement time, and a multiplier term that vanishes whenever the state
trajectory actually solves the equation of motion. Quadrature is
left-Riemann on intervals, exact for piecewise-constant integrands, and
the discrete time-derivative inside the multiplier term is defined
through the exact stepper so that propagated trajectories annihilate the
integrand identically instead of to O(dt^2).
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
    """The three objective terms and their sum; j_cost is never positive."""

    j_opt: float
    j_cost: float
    j_tdse: float
    j_total: float

    def __post_init__(self):
        if abs(self.j_total - (self.j_opt + self.j_cost + self.j_tdse)) >= 1e-14:
            raise ValueError("j_total is not the sum of its three terms")
        if self.j_cost > 0:
            raise ValueError(f"j_cost must be non-positive, got {self.j_cost!r}")

    def as_dict(self) -> dict:
        return {
            "j_opt": self.j_opt,
            "j_cost": self.j_cost,
            "j_tdse": self.j_tdse,
            "j_total": self.j_total,
        }


def eval_j_opt(traj: StateTrajectory, O: HermitianOperator, grid: TimeGrid) -> float:
    """Observable expectation at the measurement node."""
    if traj.n_nodes != grid.n_steps + 1:
        raise ValueError(f"trajectory has {traj.n_nodes} nodes, grid wants {grid.n_steps + 1}")
    return expectation(O, StateVector(traj.node(grid.index_T)))


def eval_j_cost(
    field: ControlField, eps_ref: ControlField, alpha: float, grid: TimeGrid
) -> float:
    """Quadratic deviation cost -alpha * sum_{k < index_T} (eps_k - ref_k)^2 dt.

    The sum stops at the measurement node: the cost integral runs over
    [0, T] while the multiplier term runs over the full grid.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha!r}")
    if field.n_samples != eps_ref.n_samples or field.n_samples != grid.n_steps:
        raise ValueError(
            f"sample-count mismatch: field {field.n_samples}, eps_ref {eps_ref.n_samples}, "
            f"grid {grid.n_steps}"
        )
    dev = field.samples[: grid.index_T] - eps_ref.samples[: grid.index_T]
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
    if psi_traj.n_nodes != grid.n_steps + 1 or chi_traj.states.shape[0] != grid.n_steps + 1:
        raise ValueError("trajectory lengths do not match the grid")
    if field.n_samples != grid.n_steps:
        raise ValueError(
            f"field has {field.n_samples} samples but grid has {grid.n_steps} steps"
        )
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
    """Evaluate all three terms and their sum on one configuration."""
    j_opt = eval_j_opt(psi_traj, O, grid)
    j_cost = eval_j_cost(field, eps_ref, alpha, grid)
    j_tdse = eval_j_tdse(psi_traj, chi_traj, field, H, grid)
    return FunctionalBreakdown(
        j_opt=j_opt, j_cost=j_cost, j_tdse=j_tdse, j_total=j_opt + j_cost + j_tdse
    )
