"""The eigenpair reference routes: one step of the driven equation from ``np.linalg.eigh``.

They decompose H(eps_k) in complex arithmetic at every dimension, so
they stay independent of ``qoct``'s field series, its real-arithmetic
route and its closed SU(2) form, which the tests check against them. A
backward step is exponentiated directly, not taken as the adjoint of a
forward one.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

import qoct
from qoct.propagator import _adjoint


class Direction(Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


def step_matrix(H: qoct.ControlHamiltonian, eps_k: float, dt: float, direction: Direction) -> np.ndarray:
    """One-interval propagator matrix at field value eps_k.

    Backward is exponentiated directly, exp(+i H(eps_k) dt), not taken as
    the adjoint of Forward, so per-step ``step`` marches stay an
    independent check on the stack marches.
    """
    tau = dt if direction is Direction.FORWARD else -dt
    lam, v = np.linalg.eigh(H.evaluate(eps_k))
    return (v * np.exp(-1j * lam * tau)) @ _adjoint(v)


def step_control_derivative(H: qoct.ControlHamiltonian, eps_k: float, dt: float) -> np.ndarray:
    """Derivative of the forward one-step propagator with respect to eps_k.

    Exact: the eigenbasis divided difference at every dimension (no SU(2)
    shortcut, no series), an independent reference for ``_du_stack`` and
    the batched pairing rows.
    """
    lam, v = np.linalg.eigh(H.evaluate(eps_k))
    # W = Phi * (V^dagger mu V) with the cancellation-free divided-difference
    # kernel Phi_ij = -i dt e_i e_j sinc((l_i - l_j) dt / 2), e = exp(-i l dt / 2);
    # the first-order -i dt mu would be off at first order in dt whenever
    # drift and coupling do not commute
    y = (lam[:, None] - lam[None, :]) * (0.5 * dt)
    sinc = np.divide(np.sin(y), y, out=np.ones_like(y), where=y != 0)
    e = np.exp(-0.5j * dt * lam)
    w = (_adjoint(v) @ H.control_derivative @ v) * sinc * (-1j * dt) * e[:, None] * e[None, :]
    return v @ w @ _adjoint(v)


def step(
    psi: qoct.StateVector,
    H: qoct.ControlHamiltonian,
    eps_k: float,
    dt: float,
    direction: Direction = Direction.FORWARD,
) -> qoct.StateVector:
    """Advance a state by one interval under a constant field sample.

    Forward applies exp(-i H(eps_k) dt), Backward applies the exact
    inverse exp(+i H(eps_k) dt); norms are preserved to round-off.
    """
    if psi.dim != H.dim:
        raise ValueError(f"dimension mismatch: state {psi.dim} vs Hamiltonian {H.dim}")
    if not (np.isfinite(eps_k) and np.isfinite(dt) and dt > 0):
        raise ValueError(f"eps_k and dt must be finite with dt > 0, got {eps_k!r}, {dt!r}")
    u = step_matrix(H, eps_k, dt, direction)
    return qoct.StateVector(u @ psi.amplitudes)
