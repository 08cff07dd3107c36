"""Field law, analytic gradient, finite-difference oracle, and stationarity residual.

The gradient is the exact derivative of the discrete reduced objective,
``functional``'s j_opt + j_cost on the forward solution
(discretize-then-differentiate): the costate recursion is the exact
adjoint of the stepper and the per-step propagator is differentiated
exactly, so central differences check it to a sharp 1e-6, not to O(dt).

The field law is formed once, in ``_law_gap``: before the measurement
node, law_k = ref_k + Re(rho_k psi_k) / alpha with the rows
rho_k = chi_{k+1}^dagger dU_k/deps / dt of the canonical costate and the
field series' derivative, and g_k = -2 alpha dt (eps_k - law_k). After
the node the costate vanishes and only the penalty, which spans the
whole grid, survives (``_gradient``). ``_evaluate`` is the one
evaluation of a field: one ``propagator._forward`` call for its solve
and its derivatives, from one series, and its law gap eps - law.
``optimize`` evaluates its window grid and is certified by max |gap|;
``gradient_report`` evaluates the whole grid, so the oracle checks the
gap ``optimize`` certifies. ``analytic_gradient`` forms the law on a solve it is handed.

The oracle itself reads neither the costate nor dU/deps: each probe
pair steps off the solved trajectory on its moved step and reaches T
through the suffix product of the solved steps after it
(``propagator._march_probes``), so the pair's rounding cancels in its
difference. Both differentiate the one field series of ``propagator``,
so the oracle checks the adjoint and the pairing, not the exponential;
the tests pin the series and its derivative to the eigenpair reference
routes.

``stationarity_residual`` is the paper's collocated continuum law
eps_k = ref_k + Im<chi_k| mu psi_k> / alpha, the continuum diagnostic,
not the certificate: at the discrete optimum it is O(dt), not zero
(0.122 dt on the two-level benchmark).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import _solution
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
    _forward,
    _kept_solve,
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
    Formed from ``_law_gap`` by ``_gradient``. dU/deps comes from the
    series of ``propagator``'s kept solve when it solved this field
    (``_kept_solve``; after ``solve``, the gradient builds no series of
    its own), else from a series of its own over the m samples.
    """
    m = grid.index_T
    if not chi_traj.is_canonical():
        raise ValueError("gradient requires a costate built with the canonical boundary")
    if chi_traj.index_T != m:
        raise ValueError("costate and grid disagree on the measurement node")
    _check_grid(grid, [field, eps_ref], [psi_traj, chi_traj])
    kept = _kept_solve(H, field, grid.dt)
    du = _du_stack(H, field.samples[:m], grid.dt, None if kept is None else kept.series)
    gap = _law_gap(du, psi_traj, chi_traj, field, eps_ref, alpha, grid.dt)[1]
    return _gradient(gap, field, eps_ref, alpha, grid.dt)


def _law_gap(
    du: NDArrayComplex, psi: StateTrajectory, chi: CostateTrajectory, field: ControlField,
    eps_ref: ControlField, alpha: float, dt: float,
) -> tuple[NDArrayComplex, NDArrayFloat]:
    """(rows, gap) of the field law at the m = len(du) samples before T.

    rho_k = chi_{k+1}^dagger dU_k/deps / dt, with chi_{k+1} the canonical
    costate after step k (its left limit O psi(T) at the last one), and
    gap_k = eps_k - (ref_k + Re(rho_k psi_k) / alpha). The rows are one
    batched ``np.matmul``, which reaches BLAS where ``np.einsum`` would not.
    """
    m = du.shape[0]
    chi_next = np.concatenate([chi.states[1:m], chi.chi_T_minus[None, :]]).conj()
    rows = np.matmul(chi_next[:, None, :], du)[:, 0] / dt
    law = eps_ref.samples[:m] + np.einsum("ki,ki->k", rows, psi.states[:m]).real / alpha
    return rows, field.samples[:m] - law


def _gradient(gap, field, eps_ref, alpha, dt):
    """g = -2 alpha dt gap before T and -2 alpha dt (eps - ref) after it."""
    dev = field.samples - eps_ref.samples
    dev[: gap.size] = gap
    # alpha multiplies last, so g overflows only where its value does
    return -2.0 * dt * dev * alpha


def _evaluate(problem: ControlProblem, field: ControlField):
    """(Solution, rows, gap, solve record) of the field: its ``_law_gap`` on its canonical solve.

    One ``propagator._forward`` call solves the field, keeps the solve,
    and builds the derivatives before T from the series its steps came
    from: with the steps, in one ``_stacks`` call, or from the series of
    a solve of the field kept already, which stays.
    """
    grid = problem.grid
    solved, du = _forward(problem.psi0, field, problem.hamiltonian, grid, grid.index_T)
    sol = _solution(problem, field, CostateBoundary.canonical(), solved)
    rows, gap = _law_gap(du, sol.psi, sol.chi, field, problem.eps_ref, problem.alpha, grid.dt)
    return sol, rows, gap, solved


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
    at every sample up to the measurement node. The discrete optimum meets
    this continuum law only to O(dt): it is the collocated continuum
    diagnostic, not the certificate (``_law_gap``).
    """
    m = grid.index_T
    if not chi_traj.is_canonical():
        raise ValueError("stationarity residual requires a canonical costate")
    _check_grid(grid, [field, eps_ref], [psi_traj, chi_traj])
    mu = H.control_derivative
    overlaps = np.einsum("ki,ki->k", chi_traj.states[:m].conj(), psi_traj.states[:m] @ mu.T)
    target = eps_ref.samples[:m] + np.imag(overlaps) / alpha
    return float(np.max(np.abs(field.samples[:m] - target)))


def gradient_report(
    problem: ControlProblem,
    field: ControlField,
    probe_step: float = DEFAULT_PROBE_STEP,
) -> GradientReport:
    """Compare the analytic gradient against central differences sample-wise.

    The oracle is (J(eps_k + h) - J(eps_k - h)) / 2h of the reduced
    objective at every sample k, h the probe step. The cost term's
    difference is formed in closed form; only probes before T move psi(T).
    Each probe pair steps off the solved node k and reaches T through the
    suffix product S_k of the field's solved steps after k, walked on that
    solve's step views (``propagator._march_probes``): O(m d^3) work for
    the m = index_T pairs, where marching each probe on is O(m^2 d^2),
    and no more memory than the 2m moved steps take. Both probes of a pair
    share one rounded S_k, so its rounding cancels in their difference. A
    relative mismatch past the largest double reads as that double. The
    analytic gradient is ``_gradient`` of the field's ``_evaluate``, the
    law gap ``optimize`` certifies, which hands back its solve record:
    the probes walk that record's step views and evaluate its series. The
    solve stays kept, so a ``solve`` of the same field afterwards reads it,
    and a solve of the field kept beforehand stays, so only its
    derivatives are built. The probes' 2m moved steps evaluate the series
    wherever its reach covers every eps_k +- h, so one report builds one
    series.
    """
    h = probe_step
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"probe step must be positive and finite, got {h!r}")
    sol, _, gap, solved = _evaluate(problem, field)
    H, grid = problem.hamiltonian, problem.grid
    analytic = _gradient(gap, field, problem.eps_ref, problem.alpha, grid.dt)
    plus, minus = (field.samples + s - problem.eps_ref.samples for s in (h, -h))
    # the penalty's difference -alpha dt (plus^2 - minus^2) as a product, with
    # alpha last: no square overflows where the difference does not
    fd = -((plus - minus) * (plus + minus)) * grid.dt / (2.0 * h) * problem.alpha
    psi_T = _march_probes(sol.psi.states, solved.steps, H, field, grid, h, solved.series)
    # two operands: einsum runs a three-operand contraction as a naive loop
    j_opt = np.einsum("ip,ip->p", psi_T.conj(), problem.observable.matrix @ psi_T)
    j_opt = j_opt.real.reshape(-1, 2)
    fd[: grid.index_T] += (j_opt[:, 0] - j_opt[:, 1]) / (2.0 * h)
    with np.errstate(over="ignore"):
        # a mismatch past the largest double (a tiny h at a huge alpha) reads as it
        rel = np.abs(analytic - fd) / np.maximum(1e-12, np.abs(fd))
    rel = np.minimum(rel, np.finfo(np.float64).max)
    return GradientReport(
        analytic=analytic,
        finite_diff=fd,
        max_rel_error=float(np.max(rel)),
        probe_step=float(h),
    )
