"""Analytic field gradient, finite-difference oracle, and stationarity residual.

The gradient is the exact derivative of the discrete reduced objective
(discretize-then-differentiate): the equation of motion is eliminated by
forward solution, the costate recursion is the exact adjoint of the
stepper, and the per-step propagator is differentiated through the
eigenbasis formula, so central differences check it to a sharp 1e-6,
not to O(dt). The oracle uses neither the costate nor dU/deps; its
probes start from the solved trajectory and march together on its steps.

The reduced objective is ``functional``'s j_opt + j_cost on the forward
solution: its penalty spans the whole grid, so samples after the
measurement node stay penalized and both gradient routes agree there;
the field-equation residual itself is only defined up to that node.

The optimizer's field law is the zero of this gradient before the
measurement node, and its certificate is max_k |g_k| / (2 alpha dt)
there. ``stationarity_residual`` is a different quantity: the paper's
collocated continuum law eps_k = ref_k + Im<chi_k| mu psi_k> / alpha,
kept as a diagnostic. At the discrete optimum it is O(dt), not zero
(0.122 dt on the two-level benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import Solution, _solve
from .core import (
    ControlField,
    ControlHamiltonian,
    ControlProblem,
    CostateTrajectory,
    NDArrayComplex,
    NDArrayFloat,
    StateTrajectory,
    TimeGrid,
    _check_grid,
)
from .functional import eval_j_cost, eval_j_opt
from .propagator import (
    CostateBoundary,
    _adjoint,
    _derivative_eigenbasis,
    _forward,
    _march_probes,
    propagate_forward,
)

__all__ = [
    "GradientReport",
    "reduced_objective",
    "analytic_gradient",
    "fd_gradient",
    "stationarity_residual",
    "gradient_report",
]

DEFAULT_PROBE_STEP = 1e-5


@dataclass(frozen=True)
class GradientReport:
    """Analytic and finite-difference gradients with their worst mismatch."""

    analytic: NDArrayFloat
    finite_diff: NDArrayFloat
    max_rel_error: float
    probe_step: float

    def as_dict(self) -> dict:
        return {
            "analytic": self.analytic.tolist(),
            "finite_diff": self.finite_diff.tolist(),
            "max_rel_error": self.max_rel_error,
            "probe_step": self.probe_step,
        }


def reduced_objective(problem: ControlProblem, field: ControlField) -> float:
    """Objective with the equation of motion eliminated by forward solution.

    Returns j_opt(psi(field)) + j_cost(field); j_tdse vanishes on the
    forward solution.
    """
    grid = problem.grid
    traj = propagate_forward(problem.psi0, field, problem.hamiltonian, grid)
    j_opt = eval_j_opt(traj, problem.observable, grid)
    return j_opt + eval_j_cost(field, problem.eps_ref, problem.alpha, grid)


def analytic_gradient(
    psi_traj: StateTrajectory,
    chi_traj: CostateTrajectory,
    field: ControlField,
    eps_ref: ControlField,
    alpha: float,
    H: ControlHamiltonian,
    grid: TimeGrid,
) -> NDArrayFloat:
    """Exact gradient of the reduced objective with respect to field samples.

    For samples before the measurement node,

        g_k = -2 alpha dt (eps_k - ref_k) + 2 Re <chi_{k+1} | dU_k/deps psi_k>,

    pairing the adjoint node after the step with the state node before
    it; the left limit of the costate supplies the value at the
    measurement node. Afterwards only the cost term survives (the
    costate vanishes there), reducing to the continuum field law
    2 dt [Im <chi_k| mu psi_k> - alpha (eps_k - ref_k)] as dt -> 0.

    The m samples before the node take one batched eigendecomposition and
    the overlap is contracted in each eigenbasis, 2 Re b^dagger W a with
    a = V^dagger psi_k, b = V^dagger chi_{k+1}: no dU_k/deps is formed.
    """
    m = grid.index_T
    if not chi_traj.is_canonical():
        raise ValueError("gradient requires a costate built with the canonical boundary")
    if chi_traj.index_T != m:
        raise ValueError("costate and grid disagree on the measurement node")
    _check_grid(grid, [field, eps_ref], [psi_traj, chi_traj])

    g = -2.0 * alpha * grid.dt * (field.samples - eps_ref.samples)
    v, w = _derivative_eigenbasis(H, field.samples[:m], grid.dt)
    chi_next = np.concatenate([chi_traj.states[1:m], chi_traj.chi_T_minus[None, :]])
    vh = _adjoint(v)
    a = vh @ psi_traj.states[:m, :, None]
    b = vh @ chi_next[:, :, None]
    g[:m] += 2.0 * (_adjoint(b) @ w @ a)[:, 0, 0].real
    return g


def fd_gradient(problem: ControlProblem, field: ControlField, k: int, h: float) -> float:
    """Central-difference probe of the reduced objective at sample k."""
    if not (0 <= k < field.n_samples):
        raise ValueError(f"sample index {k} out of range 0..{field.n_samples - 1}")
    psi, us = _forward(problem.psi0, field, problem.hamiltonian, problem.grid)
    return float(_central_differences(problem, field, psi, us, np.array([k]), h)[0])


def _central_differences(
    problem: ControlProblem, field: ControlField, psi: StateTrajectory, us: NDArrayComplex,
    ks: np.ndarray, h: float,
) -> NDArrayFloat:
    """``fd_gradient`` at ascending ks off the field's solved psi and steps us.

    Only probes before T move psi(T).
    """
    if h <= 0:
        raise ValueError(f"probe step must be positive, got {h!r}")
    grid = problem.grid
    dev = field.samples[ks, None] + [h, -h] - problem.eps_ref.samples[ks, None]
    j = -problem.alpha * dev * dev * grid.dt
    early = ks[ks < grid.index_T]
    if early.size:
        psi_T = _march_probes(psi.states, us, problem.hamiltonian, field, grid, early, h)
        j_opt = np.einsum("ip,ij,jp->p", psi_T.conj(), problem.observable.matrix, psi_T)
        j[: early.size] += j_opt.real.reshape(-1, 2)
    return (j[:, 0] - j[:, 1]) / (2.0 * h)


def stationarity_residual(
    psi_traj: StateTrajectory,
    chi_traj: CostateTrajectory,
    field: ControlField,
    eps_ref: ControlField,
    alpha: float,
    H: ControlHamiltonian,
    grid: TimeGrid,
) -> float:
    """Sup-norm violation of the collocated field equation over samples before T.

    Zero exactly when eps_k = ref_k + Im<chi_k| mu psi_k> / alpha holds
    at every sample up to the measurement node: the continuum law, which
    the discrete optimum meets only to O(dt). ``optimize`` certifies the
    exact discrete condition instead (see ``analytic_gradient``).
    """
    m = grid.index_T
    if not chi_traj.is_canonical():
        raise ValueError("stationarity residual requires a canonical costate")
    _check_grid(grid, [field, eps_ref], [psi_traj, chi_traj])
    mu = H.control_derivative
    overlaps = np.einsum(
        "ki,ij,kj->k", chi_traj.states[:m].conj(), mu, psi_traj.states[:m]
    )
    target = eps_ref.samples[:m] + np.imag(overlaps) / alpha
    return float(np.max(np.abs(field.samples[:m] - target)))


def gradient_report(
    problem: ControlProblem,
    field: ControlField,
    probe_step: float = DEFAULT_PROBE_STEP,
) -> GradientReport:
    """Compare the analytic gradient against central differences sample-wise."""
    return _gradient_report(*_solve(problem, field, CostateBoundary.canonical()), probe_step)


def _gradient_report(sol: Solution, us: NDArrayComplex, probe_step: float) -> GradientReport:
    """``gradient_report`` on a canonical solution and the forward stack it marched."""
    problem, field = sol.problem, sol.field
    analytic = analytic_gradient(
        sol.psi, sol.chi, field, problem.eps_ref, problem.alpha, problem.hamiltonian, problem.grid
    )
    fd = _central_differences(problem, field, sol.psi, us, np.arange(field.n_samples), probe_step)
    rel = np.abs(analytic - fd) / np.maximum(1e-12, np.abs(fd))
    return GradientReport(
        analytic=analytic,
        finite_diff=fd,
        max_rel_error=float(np.max(rel)),
        probe_step=float(probe_step),
    )
