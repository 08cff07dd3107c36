"""Exact-exponential time stepping for the state and costate equations.

The one-step propagator is the matrix exponential of H(eps_k) over one
interval, so each step is unitary to round-off. Each job has one kernel.
At every dimension every step of a stack comes from ``_field_series``:
exp(-i (H0 + eps mu) dt) as a scaling-and-squaring Taylor series in the
scalar eps, built once over a range of field values, evaluated at all the
samples of a stack in one product and squared, and dU/deps is the
derivative of that series carried through its squarings. dt is halved
only until theta = ||H dt||_1 / 2^s is at most 1 (``_taylor_plan``),
where the degree's remainder bound 2 theta^(p+1) / (p+1)! still holds
(the omitted terms sum to at most (p + 2) / (p + 1) times the first), so
a range of ||H dt||_1 up to 1 takes no squaring. The sequential
two-level sweep (``optimizer._feedback_sweep``) steps one sample at a
time in the closed SU(2) form, in Python scalars (``_step_two_level``).
``_stacks`` is the one kernel for U and dU; ``_du_stack`` takes dU
alone. A backward step is the conjugate transpose of a forward one;
``_march_forward`` marches states and ``_march_rows`` the conjugate rows
of the backward march, one ``ndarray.dot`` per step, through a
per-thread workspace of ``_CHUNK`` row views (``_march``). Real-symmetric
H0 and mu (``_operators``) are expanded in real arithmetic. Nothing here
forms eigenpairs: the eigenpair reference routes the tests hold the
series and the SU(2) form to live with the tests (``tests/reference.py``).

Every forward solve is one record (``_Solve``): the trajectory of psi0
on the stack of the field's samples under H at dt, with the series the
stack came from and its step views, made once with the stack. The last
solve is kept (``_last_solve``) and found by one key, the identity of
the samples and of H, and dt (``_kept_solve``). The kept solve is served
to the same psi0 and to the trajectory it marched, and everything else
builds: ``_forward`` returns it to a solve of the same psi0 that asks for
no derivatives, ``_solve_on`` to a call handed that trajectory, and
every other solve, or record for one call, builds its own stack. An
evaluation of a field (``gradient._evaluate``, the one route of
``optimize`` and the gradient oracle) asks ``_forward`` for the
derivatives before T as well, which the field law (``gradient._law_gap``)
pairs with the costate; they come from the stack's own ``_stacks`` call.
So each solved field has one series, which the FD probes' moved steps
(``_march_probes``) and the exact gradient's derivatives evaluate
wherever its reach, the widest |eps| its plan still covers, takes their
samples; and every walk of a kept stack (the canonical adjoint, the
continuous tail, the conjugate check's companion, the probes' suffix
products) reads its views, so a step of those marches creates no view.
What derives from a trajectory is formed once per record, when first
asked for: its step defects (``_defects``), which the costate's
equation-of-motion gate, ``eval_j_tdse`` and ``tdse_residual`` read; for
one observable the unit adjoint solution through O psi(T), from which
every costate on that trajectory is built (``_unit_adjoint``), with the
continuous(1) costate's worst step defect (``_unit_residual``); and the
unit companion's worst deviation from the trajectory
(``_unit_companion``), from which the conjugate check reads every beta.

The delta source feeding the costate at the measurement time is never
discretized as a narrow pulse; it is imposed as an exact boundary
condition in one of two regimes:

* canonical: chi jumps at the measurement node (left limit O*psi(T),
  right limit zero, zero thereafter);
* continuous: chi passes through (i / 2 pi n) * O * psi(T) at the
  measurement node and obeys the homogeneous equation on the whole grid.

Both are read off one homogeneous solution through O psi(T): the
canonical costate is that solution before T, and continuous(n) is
(i / 2 pi n) times it on the whole grid. Step k's multiplier in the
discrete Lagrangian (``functional.eval_j_tdse``) is -i chi_{k+1}, and
-i chi(T-) for the last step before T, the pairing the costate march and
the gradient use.
"""

from __future__ import annotations

import cmath
import math
import numbers
import threading
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Optional

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
    "CostateBoundary",
    "propagate_forward",
    "propagate_costate",
    "tdse_residual",
]

CONSISTENCY_TOL = 1e-10
# the largest step phase bound ||H(eps) dt||_1 a field value may give: past 2^53
# no double fixes the phase of exp(-i H dt) to a radian, and further on it overflows
MAX_STEP_PHASE = 2.0 ** 53
# the widest scaled step phase theta = ||H dt||_1 / 2^s a Taylor plan takes
# without a squaring (``_taylor_plan``), and a series' reach covers
# (``_field_series``)
_THETA_MAX = 1.0


class _StepPhaseError(ValueError):
    """A field the stack kernel refuses: no stack, or no unitary march, for its steps.

    A step phase bound past ``MAX_STEP_PHASE``, or NaN, for which
    ``_taylor_plan`` builds no stack; or one inside the bound whose
    trajectory still fails its norm gate (``_forward``).
    """


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

    s is the least count that brings theta = norm / 2^s to ``_THETA_MAX``
    = 1 or below; p >= 3 is the least degree whose remainder bound
    2 theta^(p+1) / (p+1)! is at most 2^-53 (p <= 18). The bound holds for
    every theta <= (p + 2) / 2: the remainder sum_{j > p} theta^j / j! is
    theta^(p+1) / (p+1)! times a series dominated by the geometric one of
    ratio theta / (p + 2), at most (p + 2) / (p + 2 - theta), which is
    (p + 2) / (p + 1) at theta = 1 and never past 2. A squaring costs one
    product per step of every stack and three per derivative, a degree
    more only one column of the powers and one round of the series'
    recursion, so the plan halves as little as that bound allows. A norm
    past ``MAX_STEP_PHASE``, or NaN, is refused before any stack is built,
    with ``_StepPhaseError``.
    """
    if not norm <= MAX_STEP_PHASE:
        raise _StepPhaseError(
            f"step phase ||H dt||_1 = {norm:.3e} is non-finite or > {MAX_STEP_PHASE:.3e}"
        )
    s = math.ceil(math.log2(norm / _THETA_MAX)) if norm > _THETA_MAX else 0
    theta = norm / 2.0 ** s
    p, term = 3, theta ** 4 / 24.0
    while term > 2.0 ** -54:
        p += 1
        term *= theta / (p + 1)
    return s, p


class _Series(NamedTuple):
    """A ``_field_series``: exp(-1j (H0 + eps mu) dt) = (sum_j (eps / bound)^j c_j)^(2^s), |eps| <= reach."""

    bound: float
    reach: float
    s: int
    c: np.ndarray


def _field_series(H: ControlHamiltonian, dt: float, bound: float) -> _Series:
    """exp(-1j (H0 + eps mu) dt) = (sum_j (eps / bound)^j C_j)^(2^s) for |eps| <= bound and a bit past.

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

    The series holds for every |eps| <= reach. Past the range the norm
    grows at most in proportion to |eps| (||H(eps) dt||_1 <= |eps| / bound
    times the range's largest, by the triangle inequality), and the plan's
    bound holds up to theta = ``_THETA_MAX`` = 1, the plan's own cap (its
    remainder bound holds for every theta <= (p + 2) / 2, which 1 never
    passes), or the least theta whose remainder bound
    2 theta^(p+1) / (p+1)! exceeds 2^-53, whichever is less. The reach
    stays within ``MAX_STEP_PHASE`` and twice the range, so the powers of u
    stay below 2^(p+1) and never overflow.
    """
    h0, mu = _operators(H)
    # ||H0 + eps mu||_1 is convex in eps, so the range's ends bound it
    norm = max(np.linalg.norm(h0 + e * mu, 1) for e in (bound, -bound)) * dt
    s, p = _taylor_plan(norm)
    theta = min(_THETA_MAX, (math.factorial(p + 1) * 2.0 ** -54) ** (1.0 / (p + 1)))
    covered = min(2.0 ** s * theta, MAX_STEP_PHASE)
    reach = bound * min(2.0, max(1.0, covered / norm)) if norm else 2.0 * bound
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
    return _Series(bound, float(reach), s, even - 1j * odd)


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
    H: ControlHamiltonian, samples: np.ndarray, dt: float, n_du: int = 0, u: bool = True,
    series: Optional[_Series] = None,
) -> tuple[Optional[NDArrayComplex], Optional[NDArrayComplex], _Series]:
    """(U, dU, series): the forward propagators of the samples, the derivatives of the first n_du.

    U_k = exp(-1j * H(eps_k) * dt), batched over k (None unless u), and
    dU_k/deps for k < n_du (None when n_du is 0), from one
    ``_field_series``, returned with them: ``series``, one of H at dt
    already built, when its reach covers every sample they cover, else a
    new one whose range is the largest |eps_k| of those samples, or 1
    where that is below 2^-64 (every one 0 included).

    With u = eps / bound, X_0 = P(u) = sum_j u^j C_j is one product of
    the powers P_kj = (eps_k / bound)^j with C, the real P multiplying
    C's real and imaginary parts straight into the complex result, and
    U = X_s = X_0^(2^s) by s batched squarings. D_0 = P'(u) =
    sum_j j u^(j-1) C_j is the same product on the scaled coefficients,
    and each squaring X_{i+1} = X_i^2 carries D_{i+1} = D_i X_i + X_i D_i,
    so dU/deps = D_s / bound reads the squarings U takes, and with no
    squarings and no U only P' is formed. No caller reads eigenpairs, so
    none are formed. One series gives the derivatives bitwise alike with
    U or without (``analytic_gradient`` after a solve of the field builds
    them without U); series of other ranges agree at round-off.
    """
    if not u:
        samples = samples[:n_du]
    widest = float(np.max(np.abs(samples), initial=0.0))
    if series is None or not widest <= series.reach:
        # P' scales C_j by j / bound, which overflows as bound nears the
        # subnormals (dU was NaN at max |eps| = 1e-308); the zero field's
        # range covers such samples as well
        series = _field_series(H, dt, 1.0 if widest < 2.0 ** -64 else widest)
    bound, _, s, c = series
    p = len(c) - 1
    # row j holds u^j as u^(j-1) times u, np.vander's column j bitwise, one
    # multiply of contiguous rows per degree; the products read them copied
    # into C order, as np.vander lays them out: a transposed operand makes
    # BLAS sum in another order at some shapes (odd dim, p >= 15)
    rows = np.empty((p + 1, samples.size))
    rows[0] = 1.0
    np.divide(samples, bound, out=rows[1])
    for j in range(2, p + 1):
        np.multiply(rows[j - 1], rows[1], out=rows[j])
    powers = np.ascontiguousarray(rows.T)
    shape = (H.dim, H.dim)
    du = None
    if n_du:
        # the chain is linear in D_0, so 1 / bound goes on P's coefficients
        du = np.empty((n_du, *shape), dtype=np.complex128)
        scaled = _floats(c)[1:] * (np.arange(1, p + 1) / bound)[:, None]
        np.matmul(powers[:n_du, :p], scaled, out=_floats(du))
    if not (u or s):
        return None, du, series
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
    return (x if u else None), du, series


def _du_stack(
    H: ControlHamiltonian, samples: np.ndarray, dt: float, series: Optional[_Series] = None
) -> NDArrayComplex:
    """Control derivatives dU_k/deps of the forward propagators, batched over k (``_stacks``).

    The derivative of the ``_field_series`` that a stack of the samples
    evaluates, or of ``series`` where it reaches every sample.
    """
    return _stacks(H, samples, dt, samples.size, u=False, series=series)[1]


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


def _step_views(us: NDArrayComplex) -> list:
    """The stack's steps as a list of views, one per step: a kept solve's ``steps``."""
    return list(us)


def _march(us, x0: NDArrayComplex, rows: bool) -> NDArrayComplex:
    """Nodes x_0 = x0 and x_{k+1} = U_k x_k, or r_{k+1} = r_k U_k when ``rows``, over steps ``us``.

    ``us`` is any sequence of (d, d) steps that slices: a stack, or a kept
    solve's ``steps`` (``_step_views``) or a slice of them. Each step is
    one ``ndarray.dot`` written in place into a row view of the thread's
    ``_workspace``, driven by ``map`` without a Python loop body (a
    zero-length ``deque`` drains it), in chunks of at most ``_CHUNK``
    steps: row 0 is seeded from the last node written, and the chunk's
    rows are copied into the result in one slice assignment. The march
    cannot be batched, so the per-call overhead is its cost: ``dot``
    dispatches in under half of ``np.matmul``'s time, and with the row
    views made once a step over a kept solve's views creates no view at
    all, one over a stack only its step's. The nodes are bitwise those of
    a per-step march over either, and the result never aliases the
    workspace. Each thread marches through its own workspaces, so threads
    marching at once never write the same rows.
    """
    n = len(us)
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
        k = len(chunk)
        nodes[start + 1 : start + 1 + k] = buf[1 : 1 + k]
    return nodes


def _march_forward(us, x0: NDArrayComplex) -> NDArrayComplex:
    """Nodes x_0 = x0 and x_{k+1} = U_k x_k over forward steps (``_march``)."""
    return _march(us, x0, rows=False)


def _march_rows(us, r0: NDArrayComplex) -> NDArrayComplex:
    """Rows r_0 = r0 and r_{k+1} = r_k U_k over forward steps (``_march``).

    They are the conjugates of the nodes x_{k+1} = U_k^dagger x_k from
    x_0 = conj(r0), the backward march, with no conjugated copy of the stack.
    """
    return _march(us, r0, rows=True)


def _march_probes(
    nodes: NDArrayComplex, us, H: ControlHamiltonian, field: ControlField,
    grid: TimeGrid, h: float, series: _Series,
) -> NDArrayComplex:
    """psi(T) with each sample k before T moved by +h and by -h, as columns 2k and 2k + 1.

    Only the moved steps are formed. They evaluate ``series``, the series
    the solved steps ``us`` came from, when its reach covers every
    eps_k +- h, and a series of their own otherwise (``_stacks``); a small
    h moves no sample past the room the plan leaves beyond the range, so
    one field's evaluation and probes build one series. Probe k's pair
    x_k^+- = U_k(eps_k +- h) psi_k steps off the solved node k, and reaches
    T through the suffix product S_k = U_{m-1} ... U_{k+1} of the solved
    steps ``us`` (S_{m-1} = I), so psi(T) = S_k x_k^+-; ``us`` is any
    sequence of them that slices, as ``_march`` takes: ``gradient_report``
    hands in its solve's step views. The m - 1 products
    S_k = S_{k+1} U_{k+1} march backward in place, one d x d
    ``ndarray.dot`` each, driven by ``map`` as in ``_march``, and every
    probe's psi(T) is one batched matmul: O(m d^3) work, where advancing
    each probe on the steps after it is O(m^2 d^2). The pairs are formed and the 2m moved steps dropped
    before S, (m, d, d), is built, so the moved stack stays the peak. A
    probe pair shares one rounded S_k, so S_k's rounding, linear in the
    probe, cancels to first order in the pair's difference.
    """
    m, d = grid.index_T, nodes.shape[1]
    moved = _stacks(H, (field.samples[:m, None] + [h, -h]).ravel(), grid.dt, series=series)[0]
    pairs = (moved @ np.repeat(nodes[:m], 2, axis=0)[:, :, None]).reshape(m, 2, d)
    del moved
    suffix = np.empty((m, d, d), dtype=np.complex128)
    suffix[m - 1] = np.eye(d)
    rows = list(suffix)
    deque(map(np.ndarray.dot, rows[:0:-1], us[m - 1 : 0 : -1], rows[-2::-1]), maxlen=0)
    return (suffix @ pairs.transpose(0, 2, 1)).transpose(1, 0, 2).reshape(d, 2 * m)


def _step_defects(us: NDArrayComplex, nodes: NDArrayComplex) -> NDArrayComplex:
    """Per-interval defects x_{k+1} - U_k x_k.

    The batched matmul forms each U_k x_k bitwise as ``_march_forward``'s
    ``ndarray.dot`` does (the optimizer and propagator tests pin it), so a
    forward-marched trajectory has bitwise zero defects.
    """
    return nodes[1:] - (us @ nodes[:-1, :, None])[:, :, 0]


def _worst_defect(defects: NDArrayComplex) -> float:
    """The largest norm among the rows: ``_step_defects``', or a march's deviations."""
    return float(np.max(np.linalg.norm(defects, axis=1)))


class _Solve:
    """One forward solve: the trajectory of psi0 on the stack of the field's samples under H at dt.

    ``series`` is the ``_field_series`` the stack came from, which the
    probes' moved steps and the exact gradient's derivatives evaluate too.
    ``steps`` are the steps its marches walk: in a kept solve the stack's
    step views (``_step_views``), made once with the stack, so each later
    walk of the stack (the canonical adjoint, the continuous tail, the
    conjugate check's companion, the probes' suffix products) makes no view
    of its own. A record made for one call (``_solve_on``) is never kept,
    has no psi0 and walks its own stack itself. The trajectory's
    step defects (``_defects``); for one observable O and measurement
    node m, the unit adjoint solution (``_unit_adjoint``), whose tail after
    T is marched once a continuous costate asks for it, and the
    continuous(1) costate's worst step defect (``_unit_residual``); and the
    unit companion's worst deviation (``_unit_companion``) are each formed
    once per record, when first asked for, and go with it.
    """

    __slots__ = (
        "psi0", "samples", "H", "dt", "us", "series", "traj", "steps", "defects", "O", "m",
        "adjoint", "tail", "residual", "companion",
    )

    def __init__(self, psi0, samples, H, dt, us, series, traj, steps):
        self.psi0, self.samples, self.H, self.dt = psi0, samples, H, dt
        self.us, self.series, self.traj, self.steps = us, series, traj, steps
        self.defects = self.O = self.m = self.adjoint = self.residual = self.companion = None
        self.tail = False


# The last forward solve, or None. Its inputs are frozen and held here, so
# their ids stay theirs while the entry lives; a miss only costs the stack
# again.
_last_solve: Optional[_Solve] = None


def _clear_last_solve() -> None:
    """Drop the last forward solve, and the stack and step views it holds."""
    global _last_solve
    _last_solve = None


def _kept_solve(H: ControlHamiltonian, field: ControlField, dt: float) -> Optional[_Solve]:
    """The last forward solve when it solved the field's samples under H at dt, else None."""
    last = _last_solve
    if last is not None and last.samples is field.samples and last.H is H and last.dt == dt:
        return last
    return None


def _forward(
    psi0: StateVector, field: ControlField, H: ControlHamiltonian, grid: TimeGrid, n_du: int = 0
) -> tuple[_Solve, Optional[NDArrayComplex]]:
    """The solve of psi0 on the field, kept as the last solve, and dU of its first n_du samples.

    The last solve serves itself when psi0, the field's samples and H are
    the same objects at the same dt and no dU is asked for. Otherwise U
    and dU (None when n_du is 0) come from one ``_stacks`` call, one
    series, one set of powers and one chain of squarings, and the stack's
    views are made then (``_step_views``); with n_du the last solve is
    dropped first, so an evaluation's old stack is freed before the new
    ones are built. Dropping it before every solve made each new stack
    fault its pages in afresh (16 times the minor page faults and about
    30% more time on a dim-8, 2000-step verification battery, one BLAS
    thread) for 0.8 MB less peak memory. This solve becomes the last one.
    The nodes are frozen as they are handed over, so the trajectory keeps
    them uncopied. A trajectory that fails
    its norm gate (a step inside ``MAX_STEP_PHASE`` still loses unitarity
    by about its phase times 2^-53) raises ``_StepPhaseError``, as a step
    phase past the bound does: ``optimize`` does not take a trial field
    of its own making that either refuses.
    """
    psi0.require_normalized("psi0")
    if psi0.dim != H.dim:
        raise ValueError(f"dimension mismatch: state {psi0.dim} vs Hamiltonian {H.dim}")
    _check_grid(grid, [field])
    global _last_solve
    if n_du:
        _clear_last_solve()
    kept = _kept_solve(H, field, grid.dt)
    if kept is not None and kept.psi0 is psi0:
        return kept, None
    us, du, series = _stacks(H, field.samples, grid.dt, n_du)
    us = _freeze(us)
    steps = _step_views(us)
    try:
        traj = StateTrajectory(_freeze(_march_forward(steps, psi0.amplitudes)))
    except ValueError as exc:
        raise _StepPhaseError(str(exc)) from exc
    _last_solve = _Solve(psi0, field.samples, H, grid.dt, us, series, traj, steps)
    return _last_solve, du


def _solve_on(
    traj: StateTrajectory, field: ControlField, H: ControlHamiltonian, dt: float
) -> _Solve:
    """The solve record of ``traj`` on the field: the last solve when it marched ``traj``.

    Otherwise a record for this call alone, on a stack of its own, so what
    is formed in it lives only for the call.
    """
    kept = _kept_solve(H, field, dt)
    if kept is not None and kept.traj is traj:
        return kept
    us, _, series = _stacks(H, field.samples, dt)
    return _Solve(None, field.samples, H, dt, _freeze(us), series, traj, us)


def _defects(solved: _Solve) -> NDArrayComplex:
    """``_step_defects`` of the record's trajectory on its stack, formed once per record."""
    if solved.defects is None:
        solved.defects = _freeze(_step_defects(solved.us, solved.traj.states))
    return solved.defects


def _unit_adjoint(solved: _Solve, O: HermitianOperator, m: int, tail: bool) -> NDArrayComplex:
    """The record's ``adjoint``: the homogeneous solution through O psi(T) at node m.

    Before T its nodes are the backward march from O psi(T), as the
    conjugates of ``_march_rows`` over the steps before T reversed; node m
    is O psi(T); after T, once ``tail`` asks for them, the forward march
    from it, and zero until then. Both costate regimes read this one
    solution (``_costate``). It is formed once per record, observable and
    node, keyed on the identity of O as psi0 and H are, and its tail is
    marched once, both on the record's steps. Callers only read it:
    ``_costate`` hands out scaled or copied nodes.
    """
    steps = solved.steps
    if solved.O is not O or solved.m != m:
        source = O.matrix @ solved.traj.node(m)
        nodes = np.zeros((solved.us.shape[0] + 1, source.size), dtype=np.complex128)
        rows = _march_rows(steps[m - 1 :: -1], source.conj())  # the backward march's conjugates
        np.conjugate(rows[:0:-1], out=nodes[:m])
        nodes[m] = source
        solved.O, solved.m, solved.adjoint, solved.tail = O, m, nodes, False
        solved.residual = None
    if tail and not solved.tail:
        solved.adjoint[m:] = _march_forward(steps[m:], solved.adjoint[m])
        solved.tail = True
    return solved.adjoint


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


def _unit_companion(solved: _Solve) -> float:
    """Worst deviation max_k ||r_k - psi_k|| of the unit companion from the record's trajectory.

    The companion advances conj(psi0) with the backward stepper, the
    sign-flipped equation; it is marched as its conjugate rows,
    r_0 = psi0 and r_{k+1} = r_k U_k on the record's steps, so neither the
    stack nor the trajectory is conjugated, and the deviation is formed in
    place. The march is linear in its start, so the companion from
    beta conj(psi0) deviates by |beta| times this (``analysis``'s conjugate
    check). Formed once per record, on a solve of psi0 (``_forward``).
    """
    if solved.companion is None:
        rows = _march_rows(solved.steps, solved.psi0.amplitudes)
        rows -= solved.traj.states
        solved.companion = _worst_defect(rows)
    return solved.companion


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
    return _forward(psi0, field, H, grid)[0].traj


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
    _check_grid(grid, [field], [psi_traj])
    return _costate(_solve_on(psi_traj, field, H, grid.dt), O, grid, boundary)


def _costate(
    solved: _Solve, O: HermitianOperator, grid: TimeGrid, boundary: CostateBoundary
) -> CostateTrajectory:
    """``propagate_costate`` on a solve record whose trajectory and field fit the grid.

    Both regimes come from one homogeneous solution, ``_unit_adjoint``:
    the canonical costate is its nodes before T and zero from T on, and
    continuous(n) is (i / 2 pi n) times it on the whole grid, so after the
    last forward solve's canonical costate a continuous one marches only
    the tail after T, once, and every further n marches nothing. The
    equation-of-motion gate reads the record's step defects (``_defects``).
    """
    if O.dim != solved.traj.dim:
        raise ValueError(f"dimension mismatch: operator {O.dim} vs trajectory {solved.traj.dim}")
    resid = _worst_defect(_defects(solved))
    if resid > CONSISTENCY_TOL:
        raise ValueError(
            f"state trajectory violates the equation of motion (residual {resid:.3e} "
            f"> {CONSISTENCY_TOL:.1e}); refusing to source the costate from it"
        )

    m = grid.index_T
    continuous = boundary.mode == "continuous"
    unit = _unit_adjoint(solved, O, m, continuous)
    if continuous:
        nodes = (1j / (2.0 * np.pi * boundary.n)) * unit
        chi_minus = chi_plus = nodes[m]
    else:
        nodes = np.zeros_like(unit)
        nodes[:m] = unit[:m]
        chi_minus, chi_plus = unit[m], nodes[m]
    # frozen fresh, so the costate keeps them uncopied
    _freeze(nodes)
    return CostateTrajectory(states=nodes, chi_T_minus=chi_minus, chi_T_plus=chi_plus, index_T=m)


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
    return _worst_defect(_defects(_solve_on(traj, field, H, grid.dt)))
