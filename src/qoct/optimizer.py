"""Immediate-feedback sweep optimizer for the coupled control equations.

Each iteration runs a backward costate sweep under the current field
(canonical boundary), then a forward state sweep that rewrites every
field sample on the fly from the field equation, using the just-stepped
state and the stored costate. Iteration stops when the total objective
stagnates; convergence is only declared once the stationarity residual
of the final triple also passes, so the cheap stopping rule is backed by
a rigorous certificate. After the measurement node the costate vanishes
and the updated field equals the reference sample-for-sample.

The feedback sweep is sequential: each sample needs the state just
stepped under the previous one. For two levels its pre-T steps run in
Python scalars (``propagator._step_two_level``), where NumPy's per-call
overhead on 2 x 2 arrays would dominate; larger systems exponentiate one
matrix per step. The sweep returns the steps it formed; the multiplier
term and the next costate read them, and that costate comes out of the
same equation-of-motion gate as every other one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .analysis import _solve
from .core import (
    ControlField,
    ControlHamiltonian,
    ControlProblem,
    HermitianOperator,
    StateTrajectory,
    StateVector,
    TimeGrid,
)
from .functional import FunctionalBreakdown, _total
from .gradient import stationarity_residual
from .propagator import (
    CostateBoundary, _costate, _expm_hermitian, _march_forward, _step_two_level, _u_stack,
)

__all__ = ["OptimizationConfig", "OptimizationResult", "optimize"]


@dataclass(frozen=True)
class OptimizationConfig:
    """Penalty weight, stopping rules, and the two input fields."""

    alpha: float
    max_iters: int
    j_tol: float
    stationarity_tol: float
    initial_field: ControlField
    eps_ref: ControlField

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be positive, got {self.alpha!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (self.j_tol > 0 and self.stationarity_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.initial_field.n_samples != self.eps_ref.n_samples:
            raise ValueError(
                f"initial_field has {self.initial_field.n_samples} samples, "
                f"eps_ref has {self.eps_ref.n_samples}"
            )


@dataclass(frozen=True)
class OptimizationResult:
    """Converged (or last) field with the per-iteration objective history.

    ``largest_j_decrease`` records the worst single-iteration drop of the
    total objective (0.0 when the run was perfectly monotone); a drop
    beyond round-off slack means the sweep scheme misbehaved on this
    problem and the run should not be trusted blindly.
    """

    final_field: ControlField
    j_history: Tuple[FunctionalBreakdown, ...]
    final_fidelity: float
    iterations_run: int
    converged: bool
    final_stationarity_residual: float
    largest_j_decrease: float

    def __post_init__(self):
        if not self.j_history:
            raise ValueError("j_history must not be empty")
        if self.final_fidelity != self.j_history[-1].j_opt:
            raise ValueError("final_fidelity must equal the last recorded j_opt")


def optimize(
    psi0: StateVector,
    H: ControlHamiltonian,
    O: HermitianOperator,
    grid: TimeGrid,
    config: OptimizationConfig,
) -> OptimizationResult:
    """Drive the field to a stationary point of the total objective.

    Non-convergence within ``max_iters`` is reported through the
    ``converged`` flag, not an exception; the history and residual let
    the caller judge how far the run got.
    """
    problem = ControlProblem(
        psi0=psi0, hamiltonian=H, observable=O, grid=grid, eps_ref=config.eps_ref,
        alpha=config.alpha,
    )
    eps_ref = config.eps_ref.samples
    canonical = CostateBoundary.canonical()

    sol, us = _solve(problem, config.initial_field, canonical)
    field, psi, chi = sol.field, sol.psi, sol.chi
    post_us = _u_stack(H, eps_ref[grid.index_T :], grid.dt)

    history = [_total(psi, chi, field, problem.eps_ref, problem.alpha, O, grid, us)]
    largest_decrease = 0.0
    stagnated = False
    iterations = 0

    for _ in range(config.max_iters):
        iterations += 1
        samples, nodes, us = _feedback_sweep(
            psi0.amplitudes, chi.states, eps_ref, post_us, problem.alpha, H, grid
        )
        field, psi = ControlField(samples), StateTrajectory(nodes)
        chi = _costate(psi, O, field, grid, canonical, us)
        bd = _total(psi, chi, field, problem.eps_ref, problem.alpha, O, grid, us)
        delta = bd.j_total - history[-1].j_total
        largest_decrease = min(largest_decrease, delta)
        history.append(bd)
        if abs(delta) < config.j_tol:
            stagnated = True
            break

    residual = stationarity_residual(psi, chi, field, problem.eps_ref, problem.alpha, H, grid)
    return OptimizationResult(
        final_field=field,
        j_history=tuple(history),
        final_fidelity=history[-1].j_opt,
        iterations_run=iterations,
        converged=stagnated and residual < config.stationarity_tol,
        final_stationarity_residual=residual,
        largest_j_decrease=largest_decrease,
    )


def _feedback_sweep(psi0, chi_nodes, eps_ref, post_us, alpha, H: ControlHamiltonian, grid: TimeGrid):
    """Forward sweep rewriting each sample from the field equation.

    Samples after the measurement node revert to the reference (the
    canonical costate is zero there) and take its steps ``post_us``.
    Returns the new field, its nodes and its forward step stack.
    """
    m = grid.index_T
    n = grid.n_steps
    dt = grid.dt
    new_field = np.empty_like(eps_ref)
    nodes = np.empty((n + 1, psi0.size), dtype=np.complex128)
    us = np.empty((n, psi0.size, psi0.size), dtype=np.complex128)
    nodes[0] = psi0
    if H.dim == 2:
        new_field[:m], nodes[1 : m + 1] = _two_level_steps(
            psi0, chi_nodes[:m], eps_ref[:m], alpha, H, dt
        )
        us[:m] = _u_stack(H, new_field[:m], dt)
    else:
        mu = H.control_derivative
        psi = psi0
        for k in range(m):
            new_field[k] = eps_ref[k] + np.vdot(chi_nodes[k], mu @ psi).imag / alpha
            us[k] = _expm_hermitian(H.evaluate(new_field[k]), dt)
            psi = us[k] @ psi
            nodes[k + 1] = psi
    new_field[m:] = eps_ref[m:]
    us[m:] = post_us
    nodes[m:] = _march_forward(post_us, nodes[m])
    return new_field, nodes, us


def _two_level_steps(psi0, chi_nodes, eps_ref, alpha, H: ControlHamiltonian, dt):
    """The pre-T feedback steps of a two-level sweep, in Python scalars.

    Same field law and step as the general loop; the operators, costate
    and reference are read out once and the results written back once,
    so no step touches a NumPy array.
    """
    (d00, d01), (_, d11) = H.drift.matrix.tolist()
    (m00, m01), (m10, m11) = H.control_derivative.tolist()
    p0, p1 = psi0.tolist()
    field = []
    states = []
    for (c0, c1), ref in zip(chi_nodes.tolist(), eps_ref.tolist()):
        mu_psi0 = m00 * p0 + m01 * p1
        mu_psi1 = m10 * p0 + m11 * p1
        eps = ref + (c0.conjugate() * mu_psi0 + c1.conjugate() * mu_psi1).imag / alpha
        p0, p1 = _step_two_level(
            d00.real + eps * m00.real, d01 + eps * m01, d11.real + eps * m11.real, dt, p0, p1
        )
        field.append(eps)
        states.append((p0, p1))
    return field, states
