"""Immediate-feedback sweep optimizer on the exact discrete first-order condition.

Each iteration runs a forward state sweep that rewrites every field
sample on the fly from the discrete field law

    eps_k = ref_k + Re <chi_{k+1} | D_k psi_k> / (alpha dt),

with psi_k the state just stepped in this sweep, chi_{k+1} the previous
sweep's canonical costate (its left limit O psi(T) at k = m - 1) and
D_k = dU_k/deps taken at the previous sweep's eps_k; then it builds the
canonical costate of the new field. The law's fixed points are exactly
the zeros of ``gradient.analytic_gradient`` before the measurement node,
so the sweep stops where the discrete objective is stationary (the
immediate feedback of Zhu, Botina & Rabitz with the exact first-order
condition of Reich, Ndong & Koch). Both the law and the certificate read
one pairing: the rows rho_k = chi_{k+1}^dagger D_k / dt, formed batched
once per sweep. Iteration stops when the total objective stagnates;
convergence is only declared once the exact-gradient residual
max_k |g_k| / (2 alpha dt) = max_k |eps_k - ref_k - Re(rho_k psi_k) / alpha|
of the final field also passes. After the measurement node the costate
vanishes and the field equals the reference sample-for-sample.

The feedback sweep is sequential: each sample needs the state just
stepped under the previous one. For two levels its pre-T steps run in
Python scalars (``propagator._step_two_level``), where NumPy's per-call
overhead on 2 x 2 arrays would dominate, and the rows come from the
closed-form eps-derivative of the SU(2) step, with no eigendecomposition.
Larger systems decompose one matrix per step; the sweep keeps each
(lambda_k, V_k), forms U_k from it, and the next rows need only
W_k = Phi * (V_k^dagger mu V_k), no new decomposition. The sweep returns
the steps it formed; the multiplier term and the next costate read them,
and that costate comes out of the same equation-of-motion gate as every
other one.
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
from .propagator import (
    CostateBoundary, _costate, _divided_difference, _eigh, _expm_eigenbasis,
    _h_stack, _march_forward, _step_two_level, _su2_control_derivative, _u_stack,
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

    ``final_stationarity_residual`` is the exact-gradient residual of the
    final field, max_{k < index_T} |g_k| / (2 alpha dt) with g the
    ``analytic_gradient`` of a fresh solve: how far each sample before T
    sits from the discrete field law. (``stationarity_residual``, the
    collocated continuum law, is O(dt) at the discrete optimum.)
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

    m = grid.index_T
    sol, us = _solve(problem, config.initial_field, canonical)
    field, psi, chi = sol.field, sol.psi, sol.chi
    post_us = _u_stack(H, eps_ref[m:], grid.dt)
    rows = _pairing_rows(H, field.samples[:m], chi, grid.dt)

    history = [_total(psi, chi, field, problem.eps_ref, problem.alpha, O, grid, us)]
    largest_decrease = 0.0
    stagnated = False
    iterations = 0

    for _ in range(config.max_iters):
        iterations += 1
        samples, nodes, us, eig = _feedback_sweep(
            psi0.amplitudes, rows, eps_ref, post_us, problem.alpha, H, grid
        )
        field, psi = ControlField(samples), StateTrajectory(nodes)
        chi = _costate(psi, O, field, grid, canonical, us)
        bd = _total(psi, chi, field, problem.eps_ref, problem.alpha, O, grid, us)
        rows = _pairing_rows(H, samples[:m], chi, grid.dt, eig)
        delta = bd.j_total - history[-1].j_total
        largest_decrease = min(largest_decrease, delta)
        history.append(bd)
        if abs(delta) < config.j_tol:
            stagnated = True
            break

    law = eps_ref[:m] + np.einsum("ki,ki->k", rows, psi.states[:m]).real / problem.alpha
    residual = float(np.max(np.abs(field.samples[:m] - law)))
    return OptimizationResult(
        final_field=field,
        j_history=tuple(history),
        final_fidelity=history[-1].j_opt,
        iterations_run=iterations,
        converged=stagnated and residual < config.stationarity_tol,
        final_stationarity_residual=residual,
        largest_j_decrease=largest_decrease,
    )


def _pairing_rows(H: ControlHamiltonian, samples, chi, dt, eig=None):
    """rho_k = chi_{k+1}^dagger dU_k/deps / dt at the pre-T samples, batched over k.

    chi_{k+1} is the canonical costate after step k, its left limit
    O psi(T) at the last one. Two levels take the closed-form SU(2)
    derivative; larger systems contract in the eigenbasis ``eig`` =
    (lambda_k, V_k) the sweep kept, or decompose the samples once when
    none is given (the initial field).
    """
    m = samples.size
    chi_next = np.concatenate([chi.states[1:m], chi.chi_T_minus[None, :]]).conj()
    mu = H.control_derivative
    if H.dim == 2:
        du = _su2_control_derivative(_h_stack(H, samples), mu, dt)
        return np.einsum("ki,kij->kj", chi_next, du) / dt
    lam, v = _eigh(_h_stack(H, samples)) if eig is None else eig
    e, sc = _divided_difference(lam, v, mu, dt)
    # chi^dagger V W V^dagger / dt with W = -i dt (e e^T) * sc: the phases
    # go on the (m, d) rows, and x V^dagger = conj(V conj(x)) conjugates
    # rows rather than the (m, d, d) stack
    b = (chi_next[:, None, :] @ v)[:, 0, :] * e
    x = (b[:, None, :] @ sc)[:, 0, :] * e
    return -1j * (v @ x.conj()[:, :, None])[:, :, 0].conj()


def _feedback_sweep(psi0, rows, eps_ref, post_us, alpha, H: ControlHamiltonian, grid: TimeGrid):
    """Forward sweep rewriting each pre-T sample as ref_k + Re(rho_k psi_k) / alpha.

    Samples after the measurement node revert to the reference (the
    canonical costate is zero there) and take its steps ``post_us``.
    Returns the new field, its nodes, its forward step stack and, above
    two levels, the eigenpairs (lambda_k, V_k) of its pre-T steps (None
    for two levels, whose rows need none).
    """
    m = grid.index_T
    n = grid.n_steps
    dt = grid.dt
    dim = psi0.size
    new_field = np.empty_like(eps_ref)
    nodes = np.empty((n + 1, dim), dtype=np.complex128)
    us = np.empty((n, dim, dim), dtype=np.complex128)
    nodes[0] = psi0
    eig = None
    if dim == 2:
        new_field[:m], nodes[1 : m + 1] = _two_level_steps(psi0, rows, eps_ref[:m], alpha, H, dt)
        us[:m] = _u_stack(H, new_field[:m], dt)
    else:
        lam = np.empty((m, dim))
        v = np.empty((m, dim, dim), dtype=np.complex128)
        psi = psi0
        for k in range(m):
            new_field[k] = eps_ref[k] + (rows[k] @ psi).real / alpha
            lam[k], v[k] = _eigh(H.evaluate(new_field[k]))
            us[k] = _expm_eigenbasis(lam[k], v[k], dt)
            psi = us[k] @ psi
            nodes[k + 1] = psi
        eig = (lam, v)
    new_field[m:] = eps_ref[m:]
    us[m:] = post_us
    nodes[m:] = _march_forward(post_us, nodes[m])
    return new_field, nodes, us, eig


def _two_level_steps(psi0, rows, eps_ref, alpha, H: ControlHamiltonian, dt):
    """The pre-T feedback steps of a two-level sweep, in Python scalars.

    Same field law and step as the general loop; the operators, rows and
    reference are read out once and the results written back once, so no
    step touches a NumPy array.
    """
    (d00, d01), (_, d11) = H.drift.matrix.tolist()
    (m00, m01), (_, m11) = H.control_derivative.tolist()
    p0, p1 = psi0.tolist()
    field = []
    states = []
    for (r0, r1), ref in zip(rows.tolist(), eps_ref.tolist()):
        eps = ref + (r0 * p0 + r1 * p1).real / alpha
        p0, p1 = _step_two_level(
            d00.real + eps * m00.real, d01 + eps * m01, d11.real + eps * m11.real, dt, p0, p1
        )
        field.append(eps)
        states.append((p0, p1))
    return field, states
