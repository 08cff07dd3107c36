"""Exact-exponential time stepping for the state and costate equations.

The one-step propagator is the matrix exponential of H(eps_k) over one
interval, so each step is unitary to round-off. Each job has one kernel.
At every dimension every step of a stack comes from ``_field_series``:
exp(-i (H0 + eps mu) dt) as a scaling-and-squaring Taylor series in the
scalar eps, built once over a range of field values, evaluated at all the
samples of a stack in one product and squared, and dU/deps is the
derivative of that series carried through its squarings. The sequential
two-level sweep (``optimizer._feedback_sweep``) steps one sample at a
time in the closed SU(2) form, in Python scalars (``_step_two_level``).
``_stacks`` is the one kernel for U and dU: an optimizer evaluation
takes the steps up to the first node past T and the derivatives of the
samples before it from one series, one set of powers and one chain of
squarings; ``_u_stack`` and ``_du_stack`` take one of the two. A
backward step is the conjugate transpose of a forward one;
``_march_forward`` marches states and ``_march_rows`` the conjugate
rows of the backward march, one ``ndarray.dot`` per step, written through
a workspace of ``_CHUNK`` row views made once per dimension and per
thread (``_march``). Every forward solve is kept as the last solve
(``_last_solve``: the stack and the trajectory), and the public calls on
the same field read it (``_forward``, ``_field_stack``) instead of
building the stack again; a miss only builds it. An optimizer evaluation
keeps its steps, built with its derivatives, as the next solve's stack
(``_keep_stacks``). The last solve also keeps, once formed, its
trajectory's step defects, which the costate's equation-of-motion gate,
``eval_j_tdse`` and ``tdse_residual`` read, and for one observable the
unit adjoint solution through O psi(T), from which every costate on that
trajectory is built (``_unit_adjoint``), with the continuous(1)
costate's worst step defect, every continuous(n)'s times |n|
(``_unit_residual``). Real-symmetric H0 and mu (``_operators``) are
expanded in real arithmetic. Only the reference routes (``step_matrix``,
``step_control_derivative``) call ``np.linalg.eigh``, on ``H.evaluate``
in complex arithmetic at every dimension, independent of the series and
the SU(2) form.
The delta source feeding the costate at the measurement time is never
discretized as a narrow pulse; it is imposed as an exact boundary
condition in one of two regimes:

* canonical: chi jumps at the measurement node (left limit O*psi(T),
  right limit zero, zero thereafter);
* continuous: chi passes through (i / 2 pi n) * O * psi(T) at the
  measurement node and obeys the homogeneous equation on the whole grid.

Both are read off one homogeneous solution through O psi(T): the
canonical costate is that solution before T, and continuous(n) is
(i / 2 pi n) times it on the whole grid.
"""

from __future__ import annotations

import cmath
import math
import numbers
import threading
from collections import deque
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
    _freeze,
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

    ``continuous`` carries the nonzero integer n of the phase condition,
    any integral type but bool, stored as int; n = 0 would make the
    boundary value undefined and is rejected.
    """

    mode: str
    n: Optional[int] = None

    def __post_init__(self):
        if self.mode == "canonical":
            if self.n is not None:
                raise ValueError("canonical boundary takes no integer parameter")
        elif self.mode == "continuous":
            n = self.n
            if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n == 0:
                raise ValueError(f"continuous boundary requires a nonzero integer n, got {n!r}")
            object.__setattr__(self, "n", int(n))
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


def _taylor_plan(norm: float) -> tuple[int, int]:
    """(s, p) for exp(-1j x) with ||x||_1 = norm: s squarings and Taylor degree p.

    s is the least count that brings theta = norm / 2^s to 1/2 or below;
    p >= 3 is the least degree whose remainder, sum_{j > p} theta^j / j!
    <= 2 theta^(p+1) / (p+1)! for theta <= 1/2, is at most 2^-53.
    """
    if not math.isfinite(norm):
        raise ValueError(f"Hamiltonian has a non-finite 1-norm bound ({norm})")
    s = math.ceil(math.log2(norm / 0.5)) if norm > 0.5 else 0
    theta = norm / 2.0 ** s
    p, term = 3, theta ** 4 / 24.0
    while term > 2.0 ** -54:
        p += 1
        term *= theta / (p + 1)
    return s, p


def _field_series(H: ControlHamiltonian, dt: float, bound: float) -> tuple[int, np.ndarray]:
    """(s, C) with exp(-1j (H0 + eps mu) dt) = (sum_j (eps / bound)^j C_j)^(2^s) for |eps| <= bound.

    A Taylor series in two variables, built once for every field value in
    the range. With u = eps / bound, tau = dt / 2^s, a = tau H0 and
    b = tau bound mu, the n-th term of exp(-1j (a + u b)) is (-1j)^n R_n
    with R_n = (a + u b)^n / n!, a polynomial in u whose coefficients
    follow R_n[j] = (a R_{n-1}[j] + b R_{n-1}[j - 1]) / n, from R_0 = I.
    C sums the terms to degree p, its even ones real and its odd ones
    imaginary relative to R, so real-symmetric (H0, mu) recur in real
    arithmetic. (s, p) is ``_taylor_plan`` of max ||H(+-bound) dt||_1, which
    bounds ||H(eps) dt||_1 over the whole range (the norm is convex in
    eps), so the truncation stays at most 2^-53 for every |eps| <= bound.
    C is (p + 1, d, d) complex.
    """
    h0, mu = _operators(H)
    # ||H0 + eps mu||_1 is convex in eps, so the range's ends bound it
    s, p = _taylor_plan(max(np.linalg.norm(h0 + e * mu, 1) for e in (bound, -bound)) * dt)
    d = h0.shape[0]
    ab = np.concatenate([h0, bound * mu]) * (dt / 2.0 ** s)
    r = np.zeros((p + 1, d, d), dtype=h0.dtype)
    r[0] = np.eye(d)
    # C = even - 1j odd: (-1j)^n is (-1)^(n // 2) for even n, -1j (-1)^(n // 2) for odd n
    even, odd = r.copy(), np.zeros_like(r)
    prods = np.empty((p, 2 * d, d), dtype=h0.dtype)
    for n in range(1, p + 1):
        # R_{n-1} has coefficients up to degree n - 1
        np.matmul(ab, r[:n], out=prods[:n])
        r[:n] = prods[:n, :d]
        r[1 : n + 1] += prods[:n, d:]
        r[: n + 1] /= n
        part = (odd if n % 2 else even)[: n + 1]
        if (n // 2) % 2:
            part -= r[: n + 1]
        else:
            part += r[: n + 1]
    return s, even - 1j * odd


def _floats(a: NDArrayComplex) -> np.ndarray:
    """A C-contiguous complex stack (k, d, d) as its (k, 2 d^2) float64 view."""
    return a.view(np.float64).reshape(a.shape[0], 2 * a.shape[1] * a.shape[2])


def _step_two_level(
    a: float, b: complex, c: float, tau: float, p0: complex, p1: complex
) -> tuple[complex, complex]:
    """exp(-1j * h * tau) applied to (p0, p1), for h = [[a, b], [conj(b), c]].

    The SU(2) closed form in plain Python scalars, applied without
    building the matrix: a sequential two-level sweep steps hundreds of
    times per pass, and NumPy's per-call overhead on 2 x 2 arrays would
    dominate it.
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


def _operators(H: ControlHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """(H0, mu) as the kernels read them: float64 when both are real, else complex128.

    The one place that picks real or complex arithmetic; it follows from
    the operators alone.
    """
    if H.is_real():
        return H.drift.matrix.real.copy(), H.coupling.matrix.real.copy()
    return H.drift.matrix, H.coupling.matrix


def _stacks(
    H: ControlHamiltonian, samples: np.ndarray, dt: float, n_du: int = 0, u: bool = True
) -> tuple[Optional[NDArrayComplex], Optional[NDArrayComplex]]:
    """(U, dU): the forward propagators of the samples and the derivatives of the first n_du.

    U_k = exp(-1j * H(eps_k) * dt), batched over k (None unless u), and
    dU_k/deps for k < n_du (None when n_du is 0), from one
    ``_field_series`` whose range is the largest |eps_k| of the samples
    they cover, or 1 where that is below 2^-64 (every one 0 included).

    With u = eps / bound, X_0 = P(u) = sum_j u^j C_j is one product of
    the powers P_kj = (eps_k / bound)^j with C, the real P multiplying
    C's real and imaginary parts straight into the complex result, and
    U = X_s = X_0^(2^s) by s batched squarings. D_0 = P'(u) =
    sum_j j u^(j-1) C_j is the same product on the scaled coefficients,
    and each squaring X_{i+1} = X_i^2 carries D_{i+1} = D_i X_i + X_i D_i,
    so dU/deps = D_s / bound reads the squarings U takes, and with no
    squarings and no U only P' is formed. No caller reads eigenpairs, so
    none are formed.
    """
    if not u:
        samples = samples[:n_du]
    bound = float(np.max(np.abs(samples), initial=0.0))
    if bound < 2.0 ** -64:
        # P' scales C_j by j / bound, which overflows as bound nears the
        # subnormals (dU was NaN at max |eps| = 1e-308); the zero field's
        # range covers such samples as well
        bound = 1.0
    s, c = _field_series(H, dt, bound)
    p = len(c) - 1
    powers = np.vander(samples / bound, p + 1, increasing=True)
    shape = (H.dim, H.dim)
    du = None
    if n_du:
        # the chain is linear in D_0, so 1 / bound goes on P's coefficients
        du = np.empty((n_du, *shape), dtype=np.complex128)
        scaled = _floats(c)[1:] * (np.arange(1, p + 1) / bound)[:, None]
        np.matmul(powers[:n_du, :p], scaled, out=_floats(du))
    if not (u or s):
        return None, du
    x = np.empty((samples.size, *shape), dtype=np.complex128)
    np.matmul(powers, _floats(c), out=_floats(x))
    # buffers only where a squaring reads them
    tmp = np.empty_like(x) if s else None
    xd = np.empty_like(du) if s and n_du else None
    for i in range(s):
        if n_du:
            # tmp is free until the squaring; matmul, not dot: each matrix
            # of the stack by its own
            np.matmul(du, x[:n_du], out=tmp[:n_du])
            np.matmul(x[:n_du], du, out=xd)
            np.add(tmp[:n_du], xd, out=du)
        if u or i + 1 < s:
            # without U, X_s is never read
            np.matmul(x, x, out=tmp)
            x, tmp = tmp, x
    return (x if u else None), du


def _u_stack(H: ControlHamiltonian, samples: np.ndarray, dt: float) -> NDArrayComplex:
    """Forward per-interval propagators exp(-1j * H(eps_k) * dt), batched over k (``_stacks``)."""
    return _stacks(H, samples, dt)[0]


def _du_stack(H: ControlHamiltonian, samples: np.ndarray, dt: float) -> NDArrayComplex:
    """Control derivatives dU_k/deps of the forward propagators, batched over k (``_stacks``).

    The derivative of the ``_field_series`` that ``_u_stack`` evaluates.
    """
    return _stacks(H, samples, dt, samples.size, u=False)[1]


# Steps one chunk of a march writes through the workspace before its rows are
# copied out. The workspace is made once per dimension and thread and kept,
# so K bounds its memory at any grid size ((K + 1) d complex entries and
# K + 1 row views, about 64 KiB at dim 8), while the per-chunk cost (one
# stack slice, a seed copy and one slice copy out) spreads over K steps; a
# dim-8 march times the same from K = 64 to 1024 and slower at 32.
_CHUNK = 256

# Each thread's workspaces, by dimension: two threads marching at once must
# not write the same rows.
_workspaces = threading.local()


def _workspace(d: int) -> tuple[np.ndarray, list, list]:
    """This thread's march buffer at dimension d, (K + 1) x d for K = ``_CHUNK``.

    Returned with the views of its rows 0..K-1 and of its rows 1..K.
    """
    spaces = getattr(_workspaces, "by_dim", None)
    if spaces is None:
        spaces = _workspaces.by_dim = {}
    space = spaces.get(d)
    if space is None:
        buf = np.empty((_CHUNK + 1, d), dtype=np.complex128)
        views = list(buf)
        space = spaces[d] = (buf, views[:-1], views[1:])
    return space


def _march(us: NDArrayComplex, x0: NDArrayComplex, rows: bool) -> NDArrayComplex:
    """Nodes x_0 = x0 and x_{k+1} = U_k x_k, or r_{k+1} = r_k U_k when ``rows``, over a stack.

    Each step is one ``ndarray.dot`` written in place into a row view of
    the thread's ``_workspace``, driven by ``map`` without a Python loop
    body (a zero-length ``deque`` drains it), in chunks of at most
    ``_CHUNK`` steps: row 0 is seeded from the last node written, and the
    chunk's rows are copied into the result in one slice assignment. The
    march cannot be batched, so the per-call overhead is its cost:
    ``dot`` dispatches in under half of ``np.matmul``'s time, and with the
    row views made once a step creates only its step's view of the stack,
    not three views. The nodes are bitwise those of a per-step march, and
    the result never aliases the workspace. Each thread marches through
    its own workspaces, so threads marching at once never write the same
    rows.
    """
    n = us.shape[0]
    nodes = np.empty((n + 1, x0.size), dtype=np.complex128)
    nodes[0] = x0
    buf, heads, tails = _workspace(x0.size)
    for start in range(0, n, _CHUNK):
        chunk = us[start : start + _CHUNK]
        buf[0] = nodes[start]
        if rows:
            deque(map(np.ndarray.dot, heads, chunk, tails), maxlen=0)
        else:
            deque(map(np.ndarray.dot, chunk, heads, tails), maxlen=0)
        k = chunk.shape[0]
        nodes[start + 1 : start + 1 + k] = buf[1 : 1 + k]
    return nodes


def _march_forward(us: NDArrayComplex, x0: NDArrayComplex) -> NDArrayComplex:
    """Nodes x_0 = x0 and x_{k+1} = U_k x_k over a forward stack.

    One ``ndarray.dot`` per step, through this thread's workspace of
    ``_CHUNK`` steps (``_march``).
    """
    return _march(us, x0, rows=False)


def _march_rows(us: NDArrayComplex, r0: NDArrayComplex) -> NDArrayComplex:
    """Rows r_0 = r0 and r_{k+1} = r_k U_k over a forward stack.

    They are the conjugates of the nodes x_{k+1} = U_k^dagger x_k from
    x_0 = conj(r0), the forward march of the backward steps, read off the
    stack as it is: one ``ndarray.dot`` per step, through this thread's
    workspace of ``_CHUNK`` steps (``_march``), and no conjugated copy of
    the stack.
    """
    return _march(us, r0, rows=True)


def _march_probes(
    nodes: NDArrayComplex, us: NDArrayComplex, H: ControlHamiltonian, field: ControlField,
    grid: TimeGrid, h: float,
) -> NDArrayComplex:
    """psi(T) with each sample k before T moved by +h and by -h, as columns 2k and 2k + 1.

    Only the moved steps are formed: probe k's pair steps off the solved
    node k, and every column already past its probe advances together on
    the solved steps ``us``, one (d x d) by (d x 2k) ``ndarray.dot`` per
    step, for its cheaper dispatch as in ``_march_forward``.
    """
    m = grid.index_T
    moved = _u_stack(H, (field.samples[:m, None] + [h, -h]).ravel(), grid.dt)
    cols = (moved @ np.repeat(nodes[:m], 2, axis=0)[:, :, None])[:, :, 0].T.copy()
    for k in range(1, m):
        cols[:, : 2 * k] = us[k].dot(cols[:, : 2 * k])
    return cols


def _step_defects(us: NDArrayComplex, nodes: NDArrayComplex) -> NDArrayComplex:
    """Per-interval defects x_{k+1} - U_k x_k.

    The batched matmul forms each U_k x_k bitwise as ``_march_forward``'s
    ``ndarray.dot`` does (the optimizer and propagator tests pin it), so a
    forward-marched trajectory has bitwise zero defects.
    """
    return nodes[1:] - (us @ nodes[:-1, :, None])[:, :, 0]


def _worst_defect(defects: NDArrayComplex) -> float:
    """The largest norm among ``_step_defects``' rows."""
    return float(np.max(np.linalg.norm(defects, axis=1)))


def step_matrix(H: ControlHamiltonian, eps_k: float, dt: float, direction: Direction) -> NDArrayComplex:
    """One-interval propagator matrix at field value eps_k.

    Backward is exponentiated directly, exp(+i H(eps_k) dt), not taken as
    the adjoint of Forward, so per-step ``step`` marches stay an
    independent check on the stack marches.
    """
    tau = dt if direction is Direction.FORWARD else -dt
    lam, v = np.linalg.eigh(H.evaluate(eps_k))
    return (v * np.exp(-1j * lam * tau)) @ _adjoint(v)


def step_control_derivative(H: ControlHamiltonian, eps_k: float, dt: float) -> NDArrayComplex:
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


class _Solve:
    """One forward solve: its inputs, the stack it marched, the trajectory and what derives from them.

    The trajectory's step defects (``_trajectory_defects``) and, for one
    observable O and measurement node m, the unit adjoint solution
    (``_unit_adjoint``), whose tail after T is marched once a continuous
    costate asks for it, and the continuous(1) costate's worst step defect
    (``_unit_residual``) are each formed once, when first asked for. A
    stack kept before its solve (``_keep_stacks``) has no psi0 and no
    trajectory yet.
    """

    __slots__ = (
        "psi0", "samples", "H", "dt", "us", "traj", "defects", "O", "m", "adjoint", "tail",
        "residual",
    )

    def __init__(self, samples, H, dt, us, psi0=None, traj=None):
        self.samples, self.H, self.dt, self.us, self.psi0, self.traj = samples, H, dt, us, psi0, traj
        self.defects = self.O = self.m = self.adjoint = self.residual = None
        self.tail = False


# The last forward solve, or None. Its inputs are frozen and held here, so
# their ids stay theirs while the entry lives; a miss only costs the stack
# again.
_last_solve: Optional[_Solve] = None


def _clear_last_solve() -> None:
    """Drop the last forward solve, and the stack it holds."""
    global _last_solve
    _last_solve = None


def _keep_stacks(H: ControlHamiltonian, field: ControlField, dt: float, n_du: int) -> NDArrayComplex:
    """dU of the field's first n_du samples, its U kept as the next solve's stack (``_stacks``).

    The last solve is dropped first, so its stack is freed before the new
    ones are built; U and dU come from one series, one set of powers and
    one chain of squarings, and a solve of the field then marches on U.
    """
    global _last_solve
    _clear_last_solve()
    us, du = _stacks(H, field.samples, dt, n_du)
    _last_solve = _Solve(field.samples, H, dt, _freeze(us))
    return du


def _solve_of(us: NDArrayComplex, traj: StateTrajectory) -> _Solve:
    """The last forward solve when it marched ``traj`` on ``us``, else a new record.

    A new one is not kept: what is formed in it lives only for the call.
    """
    last = _last_solve
    if last is not None and last.us is us and last.traj is traj:
        return last
    return _Solve(None, None, None, us, traj=traj)


def _trajectory_defects(us: NDArrayComplex, traj: StateTrajectory) -> NDArrayComplex:
    """``_step_defects`` of a trajectory on its stack, formed once for the last forward solve."""
    solved = _solve_of(us, traj)
    if solved.defects is None:
        solved.defects = _freeze(_step_defects(us, traj.states))
    return solved.defects


def _unit_adjoint(
    psi_traj: StateTrajectory, O: HermitianOperator, us: NDArrayComplex, m: int, tail: bool
) -> _Solve:
    """The solve record whose ``adjoint`` is the homogeneous solution through O psi(T) at node m.

    Before T its nodes are the backward march from O psi(T), as the
    conjugates of ``_march_rows`` over the steps before T reversed; node m
    is O psi(T); after T, once ``tail`` asks for them, the forward march
    from it, and zero until then. Both costate regimes read this one
    solution (``_costate``). For the last forward solve's trajectory and
    stack it is formed once per observable and node, keyed on the identity
    of O as psi0 and H are, and its tail is marched once; for any other it
    is formed afresh in a record that is not kept. Callers only read it:
    ``_costate`` hands out scaled or copied nodes.
    """
    solved = _solve_of(us, psi_traj)
    if solved.O is not O or solved.m != m:
        source = O.matrix @ psi_traj.node(m)
        nodes = np.zeros((us.shape[0] + 1, source.size), dtype=np.complex128)
        rows = _march_rows(us[m - 1 :: -1], source.conj())  # the backward march's conjugates
        np.conjugate(rows[:0:-1], out=nodes[:m])
        nodes[m] = source
        solved.O, solved.m, solved.adjoint, solved.tail = O, m, nodes, False
        solved.residual = None
    if tail and not solved.tail:
        solved.adjoint[m:] = _march_forward(us[m:], solved.adjoint[m])
        solved.tail = True
    return solved


def _unit_residual(solved: _Solve) -> float:
    """Worst step defect of the continuous(1) costate: (i / 2 pi) times the record's ``adjoint``.

    The adjoint solution spans the whole grid, its tail included.
    continuous(n) is that costate over n, and so are its step defects: its
    homogeneous residual is this over |n|, bitwise for n = +-2^k, within
    round-off otherwise. Formed once per unit adjoint solution.
    """
    if solved.residual is None:
        costate = (1j / (2.0 * np.pi)) * solved.adjoint
        solved.residual = _worst_defect(_step_defects(solved.us, costate))
    return solved.residual


def _field_stack(H: ControlHamiltonian, field: ControlField, dt: float) -> NDArrayComplex:
    """``_u_stack`` of the field's samples, the last forward solve's when it marched them."""
    last = _last_solve
    if last is not None and last.samples is field.samples and last.H is H and last.dt == dt:
        return last.us
    return _freeze(_u_stack(H, field.samples, dt))


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
    """``propagate_forward`` plus the forward stack it marched, for reuse.

    The last solve serves its trajectory when psi0, the field's samples
    and H are the same objects at the same dt, and its stack when only
    psi0 differs or no trajectory was marched on it yet (``_keep_stacks``);
    this solve then becomes the last one.
    """
    psi0.require_normalized("psi0")
    if psi0.dim != H.dim:
        raise ValueError(f"dimension mismatch: state {psi0.dim} vs Hamiltonian {H.dim}")
    _check_grid(grid, [field])
    global _last_solve
    last = _last_solve
    us = _field_stack(H, field, grid.dt)
    if last is not None and last.us is us and last.psi0 is psi0:
        return last.traj, us
    traj = StateTrajectory(_march_forward(us, psi0.amplitudes))
    _last_solve = _Solve(field.samples, H, grid.dt, us, psi0, traj)
    return traj, us


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
    return _costate(psi_traj, O, field, grid, boundary, _field_stack(H, field, grid.dt))[0]


def _costate(
    psi_traj: StateTrajectory, O: HermitianOperator, field: ControlField, grid: TimeGrid,
    boundary: CostateBoundary, us: NDArrayComplex,
) -> tuple[CostateTrajectory, _Solve]:
    """``propagate_costate`` on a forward stack ``us`` built for the field, and its solve record.

    Both regimes come from one homogeneous solution, ``_unit_adjoint``:
    the canonical costate is its nodes before T and zero from T on, and
    continuous(n) is (i / 2 pi n) times it on the whole grid, so after the
    last forward solve's canonical costate a continuous one marches only
    the tail after T, once, and every further n marches nothing. The
    equation-of-motion gate reads ``_trajectory_defects``, the last
    forward solve's when it is that solve's trajectory. The record is the
    last solve when it is, else one formed for this call only
    (``_unit_residual`` reads it).
    """
    _check_grid(grid, [field], [psi_traj])
    if O.dim != psi_traj.dim:
        raise ValueError(f"dimension mismatch: operator {O.dim} vs trajectory {psi_traj.dim}")
    resid = _worst_defect(_trajectory_defects(us, psi_traj))
    if resid > CONSISTENCY_TOL:
        raise ValueError(
            f"state trajectory violates the equation of motion (residual {resid:.3e} "
            f"> {CONSISTENCY_TOL:.1e}); refusing to source the costate from it"
        )

    m = grid.index_T
    continuous = boundary.mode == "continuous"
    solved = _unit_adjoint(psi_traj, O, us, m, continuous)
    unit = solved.adjoint
    if continuous:
        nodes = (1j / (2.0 * np.pi * boundary.n)) * unit
        chi_minus = chi_plus = nodes[m]
    else:
        nodes = np.zeros_like(unit)
        nodes[:m] = unit[:m]
        chi_minus, chi_plus = unit[m], nodes[m]

    chi = CostateTrajectory(states=nodes, chi_T_minus=chi_minus, chi_T_plus=chi_plus, index_T=m)
    return chi, solved


def tdse_residual(
    traj: StateTrajectory,
    field: ControlField,
    H: ControlHamiltonian,
    grid: TimeGrid,
) -> float:
    """Worst one-step defect of a trajectory against the exact stepper.

    Exactly zero (bitwise) when the trajectory came out of
    ``propagate_forward`` with the same field and grid: the defects are
    formed bitwise as the forward march forms each step (``_step_defects``).
    """
    _check_grid(grid, [field], [traj])
    return _worst_defect(_trajectory_defects(_field_stack(H, field, grid.dt), traj))
