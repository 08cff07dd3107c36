"""Exact-exponential time stepping for the state and costate equations.

The one-step propagator is the matrix exponential of H(eps_k) over one
interval, computed through a Hermitian eigendecomposition (closed SU(2)
form for two levels), so each step is unitary to round-off. This module
is the only place that exponentiates or steps: a field gets one stack of
forward steps, a backward step is the conjugate transpose of a forward
one, the step defects reuse the forward march's product, the step's
control derivative comes from the same eigendecomposition route, the
finite-difference probes, each with one step swapped, march together on
the solved field's steps, and the sequential two-level sweep gets the
SU(2) form in Python scalars and its control derivative in closed form. The delta source feeding the costate at
the measurement time is never discretized as a narrow pulse; it is
imposed as an exact boundary condition in one of two regimes:

* canonical: chi jumps at the measurement node (left limit O*psi(T),
  right limit zero, zero thereafter);
* continuous: chi passes through (i / 2 pi n) * O * psi(T) at the
  measurement node and obeys the homogeneous equation on the whole grid.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .core import (
    ControlField,
    ControlHamiltonian,
    CostateTrajectory,
    HermitianOperator,
    NDArrayComplex,
    StateTrajectory,
    StateVector,
    TimeGrid,
    _check_grid,
)

__all__ = [
    "Direction",
    "CostateBoundary",
    "step",
    "step_matrix",
    "step_control_derivative",
    "propagate_forward",
    "propagate_costate",
    "tdse_residual",
]

CONSISTENCY_TOL = 1e-10


class Direction(Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


@dataclass(frozen=True)
class CostateBoundary:
    """Boundary regime for the costate at the measurement node.

    ``continuous`` carries the nonzero integer n of the phase condition;
    n = 0 would make the boundary value undefined and is rejected.
    """

    mode: str
    n: Optional[int] = None

    def __post_init__(self):
        if self.mode == "canonical":
            if self.n is not None:
                raise ValueError("canonical boundary takes no integer parameter")
        elif self.mode == "continuous":
            if not isinstance(self.n, int) or self.n == 0:
                raise ValueError(f"continuous boundary requires a nonzero integer n, got {self.n!r}")
        else:
            raise ValueError(f"unknown boundary mode {self.mode!r}")

    @classmethod
    def canonical(cls) -> "CostateBoundary":
        return cls(mode="canonical")

    @classmethod
    def continuous(cls, n: int) -> "CostateBoundary":
        return cls(mode="continuous", n=n)


def _adjoint(u: NDArrayComplex) -> NDArrayComplex:
    """Conjugate transpose over the last two axes: the backward step of u."""
    return u.conj().swapaxes(-1, -2)


def _eigh(h: NDArrayComplex) -> tuple[np.ndarray, NDArrayComplex]:
    """The one eigendecomposition route, for propagators and their derivatives."""
    return np.linalg.eigh(h)


def _expm_hermitian(h: NDArrayComplex, tau: float) -> NDArrayComplex:
    """exp(-1j * h * tau) for one Hermitian matrix or a stack (..., d, d).

    Two-level matrices take the closed SU(2) form (same result, much
    cheaper in per-step sweeps); larger ones go through a batched
    eigendecomposition.
    """
    if h.shape[-2:] == (2, 2):
        a = h[..., 0, 0].real
        c = h[..., 1, 1].real
        b = h[..., 0, 1]
        s = 0.5 * (a + c)
        d = 0.5 * (a - c)
        omega = np.sqrt(d * d + (b * b.conj()).real)
        phase = np.exp(-1j * s * tau)
        cs = np.cos(omega * tau)
        sn = -1j * tau * np.sinc(omega * tau / np.pi)
        u = np.empty(h.shape, dtype=np.complex128)
        u[..., 0, 0] = phase * (cs + sn * d)
        u[..., 0, 1] = phase * sn * b
        u[..., 1, 0] = phase * sn * b.conj()
        u[..., 1, 1] = phase * (cs - sn * d)
        return u
    return _expm_eigenbasis(*_eigh(h), tau)


def _expm_eigenbasis(lam: np.ndarray, v: NDArrayComplex, tau: float) -> NDArrayComplex:
    """exp(-1j * h * tau) from the eigendecomposition h = v diag(lam) v^dagger."""
    return (v * np.exp(-1j * lam * tau)[..., None, :]) @ _adjoint(v)


def _su2_control_derivative(h: NDArrayComplex, mu: NDArrayComplex, tau: float) -> NDArrayComplex:
    """d/deps exp(-1j * (h + eps * mu) * tau) at eps = 0, for a stack of 2 x 2 h.

    The eps-derivative of the SU(2) closed form, with no eigendecomposition.
    Write h = s I + n.sigma and mu = mu_s I + m.sigma, x = |n| tau and
    sinc(x) = sin(x) / x. Then exp(-1j h tau) = e^{-i s tau} (cos x - i tau
    sinc(x) n.sigma), and its derivative is e^{-i s tau} (A I + B_n n.sigma +
    B_m m.sigma) with

        A   = -i tau mu_s cos x - tau^2 sinc(x) (n.m)
        B_n = -tau^2 mu_s sinc(x) - i tau^3 f(x) (n.m)
        B_m = -i tau sinc(x),

    f(x) = (x cos x - sin x) / x^3, which takes its series below x = 0.01
    (the direct form cancels there; h proportional to I has x = 0).
    """
    s = 0.5 * (h[..., 0, 0].real + h[..., 1, 1].real)
    d = 0.5 * (h[..., 0, 0].real - h[..., 1, 1].real)
    b = h[..., 0, 1]
    mu_s = 0.5 * (mu[0, 0].real + mu[1, 1].real)
    delta = 0.5 * (mu[0, 0].real - mu[1, 1].real)
    beta = mu[0, 1]
    nm = d * delta + b.real * beta.real + b.imag * beta.imag
    x = np.sqrt(d * d + (b * b.conj()).real) * tau
    cs = np.cos(x)
    sinc = np.sinc(x / np.pi)
    x2 = x * x
    small = x < 1e-2
    xs = np.where(small, 1.0, x)
    f = np.where(
        small,
        -1.0 / 3.0 + x2 / 30.0 - x2 * x2 / 840.0,
        (xs * cs - np.sin(xs)) / (xs * xs * xs),
    )
    a = -1j * tau * mu_s * cs - tau * tau * sinc * nm
    b_n = -tau * tau * mu_s * sinc - 1j * tau ** 3 * f * nm
    b_m = -1j * tau * sinc
    phase = np.exp(-1j * s * tau)
    du = np.empty(h.shape, dtype=np.complex128)
    du[..., 0, 0] = phase * (a + b_n * d + b_m * delta)
    du[..., 1, 1] = phase * (a - b_n * d - b_m * delta)
    du[..., 0, 1] = phase * (b_n * b + b_m * beta)
    du[..., 1, 0] = phase * (b_n * b.conj() + b_m * np.conj(beta))
    return du


def _step_two_level(
    a: float, b: complex, c: float, tau: float, p0: complex, p1: complex
) -> tuple[complex, complex]:
    """exp(-1j * h * tau) applied to (p0, p1), for h = [[a, b], [conj(b), c]].

    The SU(2) closed form of ``_expm_hermitian`` in plain Python scalars,
    applied without building the matrix: a sequential two-level sweep
    steps hundreds of times per pass, and NumPy's per-call overhead on
    2 x 2 arrays would dominate it.
    """
    s = 0.5 * (a + c)
    d = 0.5 * (a - c)
    x = math.sqrt(d * d + b.real * b.real + b.imag * b.imag) * tau
    cs = math.cos(x)
    # -i sin(omega tau) / omega, whose omega -> 0 limit is -i tau
    sn = -1j * tau * (math.sin(x) / x if x else 1.0)
    phase = cmath.exp(-1j * s * tau)
    q0 = phase * ((cs + sn * d) * p0 + sn * b * p1)
    q1 = phase * (sn * b.conjugate() * p0 + (cs - sn * d) * p1)
    return q0, q1


def _h_stack(H: ControlHamiltonian, samples: np.ndarray) -> NDArrayComplex:
    """H(eps_k) = H0 + eps_k * mu for every sample, stacked over k."""
    return H.drift.matrix[None, :, :] + samples[:, None, None] * H.coupling.matrix[None, :, :]


def _u_stack(H: ControlHamiltonian, samples: np.ndarray, dt: float) -> NDArrayComplex:
    """Forward per-interval propagators exp(-1j * H(eps_k) * dt), batched over k."""
    return _expm_hermitian(_h_stack(H, samples), dt)


def _derivative_eigenbasis(H: ControlHamiltonian, samples: np.ndarray, dt: float):
    """V_k and W_k with dU_k/deps = V_k W_k V_k^dagger exactly, batched over k."""
    lam, v = _eigh(_h_stack(H, samples))
    e, w = _divided_difference(lam, v, H.control_derivative, dt)
    w *= -1j * dt
    w *= e[..., :, None]
    w *= e[..., None, :]
    return v, w


def _divided_difference(lam: np.ndarray, v: NDArrayComplex, mu: NDArrayComplex, dt: float):
    """The eigenbasis derivative of exp(-i H dt), for eigenpairs (lam, v) in hand.

    W = Phi * (V^dagger mu V) with the cancellation-free divided-difference
    kernel Phi_ij = -i dt e_i e_j sinc((l_i - l_j) dt/2), e = exp(-i l dt/2),
    in the eigenvalues l of H(eps_k); the first-order -i*dt*mu would be off
    at first order in dt whenever drift and coupling do not commute. The
    phases are separable, so this returns e and the real-kernel part
    sinc * (V^dagger mu V), and a contraction can take the phases on its
    vectors instead of forming W.
    """
    # the real kernel first: its scratch is freed before the coupling stack
    sinc = _sinc((lam[..., :, None] - lam[..., None, :]) * (0.5 * dt))
    sc = _adjoint(v) @ mu @ v
    sc *= sinc
    return np.exp(-0.5j * dt * lam), sc


def _sinc(y: np.ndarray) -> np.ndarray:
    """sin(y) / y, exactly 1 where y == 0 and bitwise sin(y) / y elsewhere; overwrites y."""
    zero = y == 0
    s = np.sin(y)
    s += zero
    y += zero
    s /= y
    return s


def _march_forward(us: NDArrayComplex, x0: NDArrayComplex) -> NDArrayComplex:
    """Nodes x_0 = x0 and x_{k+1} = U_k x_k over a forward stack."""
    nodes = np.empty((us.shape[0] + 1, x0.size), dtype=np.complex128)
    nodes[0] = x0
    for k, u in enumerate(us):
        nodes[k + 1] = u @ nodes[k]
    return nodes


def _march_backward(us: NDArrayComplex, x_end: NDArrayComplex) -> NDArrayComplex:
    """Nodes x_K = x_end and x_k = U_k^dagger x_{k+1}: the forward march undone."""
    return _march_forward(_adjoint(us[::-1]), x_end)[::-1]


def _march_probes(
    nodes: NDArrayComplex, us: NDArrayComplex, H: ControlHamiltonian, field: ControlField,
    grid: TimeGrid, ks: np.ndarray, h: float,
) -> NDArrayComplex:
    """psi(T) with sample ks[j] moved by +h and by -h, as columns 2j and 2j + 1.

    ks ascends and stays before the measurement node. Only the moved steps
    are formed: probe j's pair steps off the solved node ks[j], and every
    column already past its probe advances together on the solved steps
    ``us``, one (d x d) @ (d x entered) matmul per step.
    """
    m = grid.index_T
    moved = _u_stack(H, (field.samples[ks, None] + [h, -h]).ravel(), grid.dt)
    cols = (moved @ np.repeat(nodes[ks], 2, axis=0)[:, :, None])[:, :, 0].T.copy()
    entered = 2 * np.searchsorted(ks, np.arange(m))
    for k in range(ks[0] + 1, m):
        cols[:, : entered[k]] = us[k] @ cols[:, : entered[k]]
    return cols


def _step_defects(us: NDArrayComplex, nodes: NDArrayComplex) -> NDArrayComplex:
    """Per-interval defects x_{k+1} - U_k x_k.

    The batched matmul forms each U_k x_k with the same product as
    ``_march_forward``, so a forward-marched trajectory has bitwise zero
    defects.
    """
    return nodes[1:] - (us @ nodes[:-1, :, None])[:, :, 0]


def _worst_defect(us: NDArrayComplex, nodes: NDArrayComplex) -> float:
    return float(np.max(np.linalg.norm(_step_defects(us, nodes), axis=1)))


def step_matrix(H: ControlHamiltonian, eps_k: float, dt: float, direction: Direction) -> NDArrayComplex:
    """One-interval propagator matrix at field value eps_k.

    Backward is exponentiated directly, exp(+i H(eps_k) dt), not taken as
    the adjoint of Forward, so per-step ``step`` marches stay an
    independent check on the stack marches.
    """
    tau = dt if direction is Direction.FORWARD else -dt
    return _expm_hermitian(H.evaluate(eps_k), tau)


def step_control_derivative(H: ControlHamiltonian, eps_k: float, dt: float) -> NDArrayComplex:
    """Derivative of the forward one-step propagator with respect to eps_k.

    Exact: the eigenbasis divided-difference formula of
    ``_derivative_eigenbasis`` for a single sample.
    """
    v, w = _derivative_eigenbasis(H, np.array([eps_k], dtype=np.float64), dt)
    return (v @ w @ _adjoint(v))[0]


def step(
    psi: StateVector,
    H: ControlHamiltonian,
    eps_k: float,
    dt: float,
    direction: Direction = Direction.FORWARD,
) -> StateVector:
    """Advance a state by one interval under a constant field sample.

    Forward applies exp(-i H(eps_k) dt), Backward applies the exact
    inverse exp(+i H(eps_k) dt); norms are preserved to round-off.
    """
    if psi.dim != H.dim:
        raise ValueError(f"dimension mismatch: state {psi.dim} vs Hamiltonian {H.dim}")
    if not (np.isfinite(eps_k) and np.isfinite(dt) and dt > 0):
        raise ValueError(f"eps_k and dt must be finite with dt > 0, got {eps_k!r}, {dt!r}")
    u = step_matrix(H, eps_k, dt, direction)
    return StateVector(u @ psi.amplitudes)


def propagate_forward(
    psi0: StateVector,
    field: ControlField,
    H: ControlHamiltonian,
    grid: TimeGrid,
) -> StateTrajectory:
    """Solve the driven Schroedinger equation on the whole grid.

    Node 0 is psi0 and each subsequent node applies the exact
    one-interval propagator of its field sample.
    """
    return _forward(psi0, field, H, grid)[0]


def _forward(
    psi0: StateVector, field: ControlField, H: ControlHamiltonian, grid: TimeGrid
) -> tuple[StateTrajectory, NDArrayComplex]:
    """``propagate_forward`` plus the forward stack it marched, for reuse."""
    psi0.require_normalized("psi0")
    if psi0.dim != H.dim:
        raise ValueError(f"dimension mismatch: state {psi0.dim} vs Hamiltonian {H.dim}")
    _check_grid(grid, [field])
    us = _u_stack(H, field.samples, grid.dt)
    return StateTrajectory(_march_forward(us, psi0.amplitudes)), us


def propagate_costate(
    psi_traj: StateTrajectory,
    O: HermitianOperator,
    field: ControlField,
    H: ControlHamiltonian,
    grid: TimeGrid,
    boundary: CostateBoundary,
) -> CostateTrajectory:
    """Solve the costate equation with the delta source handled exactly.

    Parameters
    ----------
    psi_traj : StateTrajectory
        Forward solution the source term reads psi(T) from; it must
        satisfy the discrete equation of motion for (field, grid) to
        within ``CONSISTENCY_TOL``.
    boundary : CostateBoundary
        canonical: left limit O*psi(T) at the measurement node, zero
        right limit and zero nodes afterwards, backward steps before.
        continuous(n): value (i / 2 pi n) * O * psi(T) at the node,
        identical one-sided limits, homogeneous evolution both ways.
    """
    return _costate(psi_traj, O, field, grid, boundary, _u_stack(H, field.samples, grid.dt))


def _costate(
    psi_traj: StateTrajectory, O: HermitianOperator, field: ControlField, grid: TimeGrid,
    boundary: CostateBoundary, us: NDArrayComplex,
) -> CostateTrajectory:
    """``propagate_costate`` on a forward stack ``us`` already built for the field."""
    _check_grid(grid, [field], [psi_traj])
    if O.dim != psi_traj.dim:
        raise ValueError(f"dimension mismatch: operator {O.dim} vs trajectory {psi_traj.dim}")
    resid = _worst_defect(us, psi_traj.states)
    if resid > CONSISTENCY_TOL:
        raise ValueError(
            f"state trajectory violates the equation of motion (residual {resid:.3e} "
            f"> {CONSISTENCY_TOL:.1e}); refusing to source the costate from it"
        )

    m = grid.index_T
    source = O.matrix @ psi_traj.node(m)
    nodes = np.zeros((grid.n_steps + 1, psi_traj.dim), dtype=np.complex128)

    if boundary.mode == "canonical":
        chi_minus = source
        chi_plus = np.zeros(psi_traj.dim, dtype=np.complex128)
    else:
        chi_minus = chi_plus = (1j / (2.0 * np.pi * boundary.n)) * source
        nodes[m:] = _march_forward(us[m:], chi_plus)
    nodes[:m] = _march_backward(us[:m], chi_minus)[:-1]

    return CostateTrajectory(
        states=nodes, chi_T_minus=chi_minus, chi_T_plus=chi_plus, index_T=m
    )


def tdse_residual(
    traj: StateTrajectory,
    field: ControlField,
    H: ControlHamiltonian,
    grid: TimeGrid,
) -> float:
    """Worst one-step defect of a trajectory against the exact stepper.

    Exactly zero (bitwise) when the trajectory came out of
    ``propagate_forward`` with the same field and grid: the defects are
    formed with the forward march's own per-step product.
    """
    _check_grid(grid, [field], [traj])
    return _worst_defect(_u_stack(H, field.samples, grid.dt), traj.states)
