"""Analytic field gradient, finite-difference oracle, and stationarity residual.

The gradient is the exact derivative of the discrete reduced objective
(discretize-then-differentiate): the equation of motion is eliminated by
forward solution, the costate recursion is the exact adjoint of the
stepper, and the per-step propagator is differentiated exactly, so
central differences check it to a sharp 1e-6, not to O(dt). The one
pairing of the costate with dU/deps is ``_pairing_rows``, which the
optimizer's field law reads too. The oracle, ``gradient_report``, uses
neither the costate nor dU/deps; its probes start from the solved
trajectory and march together on its steps. At every dimension both
differentiate the one field series of ``propagator``, the gradient
analytically and the oracle numerically, so the oracle checks the
adjoint and the pairing, not the exponential; the tests pin the series
and its derivative to the eigenpair reference routes for that, and
check the gradient against central differences marched on those routes'
steps.

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

from .analysis import solve
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
    _du_stack,
    _field_stack,
    _march_probes,
    propagate_forward,
)

__all__ = [
    "GradientReport",
    "reduced_objective",
    "analytic_gradient",
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

    The pairing term is 2 dt Re(rho_k psi_k) with the rows of
    ``_pairing_rows``, batched over the m samples before the node.
    """
    m = grid.index_T
    if not chi_traj.is_canonical():
        raise ValueError("gradient requires a costate built with the canonical boundary")
    if chi_traj.index_T != m:
        raise ValueError("costate and grid disagree on the measurement node")
    _check_grid(grid, [field, eps_ref], [psi_traj, chi_traj])

    g = -2.0 * alpha * grid.dt * (field.samples - eps_ref.samples)
    rows = _pairing_rows(_du_stack(H, field.samples[:m], grid.dt), chi_traj, grid.dt)
    g[:m] += 2.0 * grid.dt * np.einsum("ki,ki->k", rows, psi_traj.states[:m]).real
    return g


def _pairing_rows(du: NDArrayComplex, chi: CostateTrajectory, dt: float) -> NDArrayComplex:
    """rho_k = chi_{k+1}^dagger dU_k/deps / dt at the m pre-T samples, batched over k.

    chi_{k+1} is the canonical costate after step k, its left limit
    O psi(T) at the last one. ``du`` holds the m derivatives dU_k/deps,
    the field series' (``propagator._stacks``) at every dimension, with
    no eigendecomposition: ``analytic_gradient`` builds them alone, an
    optimizer evaluation with the steps it solves on. Each row is one
    (1 x d) by (d x d) product of a batched ``np.matmul``, which reaches
    BLAS where ``np.einsum`` would not.
    """
    m = du.shape[0]
    chi_next = np.concatenate([chi.states[1:m], chi.chi_T_minus[None, :]]).conj()
    return np.matmul(chi_next[:, None, :], du)[:, 0] / dt


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
    """Compare the analytic gradient against central differences sample-wise.

    The oracle is (J(eps_k + h) - J(eps_k - h)) / 2h of the reduced
    objective at every sample k, h the probe step. The cost term is formed
    in closed form; only probes before T move psi(T), and they step on the
    field's stack. The canonical solve is ``solve``'s, so after ``solve``
    on the same field it reads that solve's stack and trajectory.
    """
    h = probe_step
    if h <= 0:
        raise ValueError(f"probe step must be positive, got {h!r}")
    sol = solve(problem, field, CostateBoundary.canonical())
    H, grid = problem.hamiltonian, problem.grid
    analytic = analytic_gradient(sol.psi, sol.chi, field, problem.eps_ref, problem.alpha, H, grid)
    dev = field.samples[:, None] + [h, -h] - problem.eps_ref.samples[:, None]
    j = -problem.alpha * dev * dev * grid.dt
    psi_T = _march_probes(sol.psi.states, _field_stack(H, field, grid.dt), H, field, grid, h)
    j_opt = np.einsum("ip,ij,jp->p", psi_T.conj(), problem.observable.matrix, psi_T)
    j[: grid.index_T] += j_opt.real.reshape(-1, 2)
    fd = (j[:, 0] - j[:, 1]) / (2.0 * h)
    rel = np.abs(analytic - fd) / np.maximum(1e-12, np.abs(fd))
    return GradientReport(
        analytic=analytic,
        finite_diff=fd,
        max_rel_error=float(np.max(rel)),
        probe_step=float(h),
    )
