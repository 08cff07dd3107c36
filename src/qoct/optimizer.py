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
condition of Reich, Ndong & Koch). The law, the certificate and
``analytic_gradient`` read one pairing: the rows
rho_k = chi_{k+1}^dagger D_k / dt of ``gradient._pairing_rows``, formed
batched once per sweep. After the measurement node the costate vanishes
and the field equals the reference sample-for-sample.

The sweep is a fixed-point map on its input rows: rows x -> sweep ->
G(x), the rows of the field it wrote. ``optimize`` accelerates it with
type-II Anderson mixing of depth 5 on those rows, so a mixed input costs
no solve beyond the sweep itself. A mixed sweep whose total objective
falls below the last accepted one is thrown away: the same iteration
reruns the plain sweep from the accepted field's own rows, records that
sweep's breakdown and clears the mixing history. Every iteration reads
the exact-gradient residual
max_k |g_k| / (2 alpha dt) = max_k |eps_k - ref_k - Re(rho_k psi_k) / alpha|
off the new field's own rows, never the mixed ones; the run stops, and
is converged, once |Delta J| < ``j_tol`` and that residual is below
``stationarity_tol`` in the same iteration.

The feedback sweep is sequential: each sample needs the state just
stepped under the previous one. For two levels its pre-T steps run in
Python scalars (``propagator._step_two_level``), where NumPy's per-call
overhead on 2 x 2 arrays would dominate. Larger systems build a
``propagator._field_series`` per sweep, in real arithmetic when H0 and mu
are real (``propagator._operators``), over the range the field takes:
the largest sample before T of the field the rows were paired from,
widened by ``SERIES_WIDENING``. One sweep moves the field little, and
the squarings and degree a series needs grow with its range, so this is
cheaper than the range the law can reach. Each written sample is checked
against the range before its step is formed; the first one outside it
rebuilds the series over the law's Cauchy-Schwarz reach, so every step
comes from a series whose range holds its sample. Each
step writes U_k in place as that series at eps_k plus its squarings, and
applies it, psi <- U_k psi, with no eigendecomposition. Every product of
a step (the law's pairing, the series at eps_k, each squaring and the
step itself) is one ``ndarray.dot`` into a preallocated buffer: the loop
cannot be batched, so the per-call dispatch is its cost, and ``dot``
dispatches in under half of ``np.matmul``'s time. The returned
stack is then the one the nodes were marched with: the multiplier term
and the next costate read it, that costate comes out of the same
equation-of-motion gate as every other one, and the sweep's step defects
are exactly zero. The next rows differentiate a series over the new
samples in one batched product (``propagator._du_stack``), as
``analytic_gradient`` does; no route of the optimizer decomposes
anything.
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
from .gradient import _pairing_rows
from .propagator import (
    CostateBoundary, _costate, _field_series, _floats, _march_forward, _step_two_level,
    _u_stack,
)

__all__ = ["OptimizationConfig", "OptimizationResult", "optimize"]

# relative widening of the range the dim > 2 sweep builds its series over, from
# the largest sample of the field its rows were paired from: a sweep moves the
# field by a small fraction, and a sample outside the range rebuilds the series
SERIES_WIDENING = 1.1


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
    total objective (0.0 when the run was perfectly monotone). Mixed
    sweeps that would lower J are rerun plain, so a drop comes from a
    plain sweep; one beyond round-off slack means the sweep scheme
    misbehaved on this problem and the run should not be trusted blindly.
    ``iterations_run`` counts iterations, not sweeps: an iteration whose
    mixed sweep was rerun holds two, and records one breakdown in
    ``j_history``, which has ``iterations_run + 1`` entries.
    ``sweeps_run`` counts every feedback sweep, the reruns included.
    ``converged`` means the run stopped before ``max_iters`` because J
    stagnated and the residual passed in the same iteration.
    """

    final_field: ControlField
    j_history: Tuple[FunctionalBreakdown, ...]
    final_fidelity: float
    iterations_run: int
    sweeps_run: int
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

    Each iteration sweeps from Anderson-mixed rows when the mixing history
    holds a difference, and reruns the plain sweep from the last accepted
    field's own rows, clearing the history, when the mixed field lowers J.
    The loop stops once |Delta J| < ``j_tol`` and the exact-gradient
    residual of the new field is below ``stationarity_tol``, both in the
    same iteration. Non-convergence within ``max_iters`` is reported
    through the ``converged`` flag, not an exception; the history and
    residual let the caller judge how far the run got.
    """
    problem = ControlProblem(
        psi0=psi0, hamiltonian=H, observable=O, grid=grid, eps_ref=config.eps_ref,
        alpha=config.alpha,
    )
    eps_ref = config.eps_ref.samples
    alpha = problem.alpha
    canonical = CostateBoundary.canonical()

    m = grid.index_T
    sol, us = _solve(problem, config.initial_field, canonical)
    post_us = _u_stack(H, eps_ref[m:], grid.dt)
    rows = _pairing_rows(H, sol.field.samples[:m], sol.chi, grid.dt)

    def sweep(x, paired):
        samples, nodes, us = _feedback_sweep(
            psi0.amplitudes, x, paired, eps_ref, post_us, alpha, H, grid
        )
        field, psi = ControlField(samples), StateTrajectory(nodes)
        chi = _costate(psi, O, field, grid, canonical, us)
        return field, psi, chi, _total(psi, chi, field, problem.eps_ref, alpha, O, grid, us)

    field, psi = sol.field, sol.psi
    history = [_total(psi, sol.chi, field, problem.eps_ref, alpha, O, grid, us)]
    mixer = _AndersonMixer(rows)
    largest_decrease = 0.0
    converged = False
    iterations = sweeps = 0

    for _ in range(config.max_iters):
        iterations += 1
        sweeps += 1
        # rows were paired from the accepted field's samples, so the sweep's
        # series starts over their range
        accepted = field.samples
        x = mixer.next_input()
        field, psi, chi, bd = sweep(x, accepted)
        # x is the accepted field's own rows unless the mixer held a difference
        if x is not rows and bd.j_total < history[-1].j_total:
            mixer.clear()
            x = rows
            sweeps += 1
            field, psi, chi, bd = sweep(x, accepted)
        rows = _pairing_rows(H, field.samples[:m], chi, grid.dt)
        mixer.record(x, rows)
        law = eps_ref[:m] + np.einsum("ki,ki->k", rows, psi.states[:m]).real / alpha
        residual = float(np.max(np.abs(field.samples[:m] - law)))
        delta = bd.j_total - history[-1].j_total
        largest_decrease = min(largest_decrease, delta)
        history.append(bd)
        if abs(delta) < config.j_tol and residual < config.stationarity_tol:
            converged = True
            break

    return OptimizationResult(
        final_field=field,
        j_history=tuple(history),
        final_fidelity=history[-1].j_opt,
        iterations_run=iterations,
        sweeps_run=sweeps,
        converged=converged,
        final_stationarity_residual=residual,
        largest_j_decrease=largest_decrease,
    )


class _AndersonMixer:
    """Type-II Anderson mixing of depth ``DEPTH`` on the sweep's input rows.

    The fixed-point map is rows x -> sweep -> G(x), the rows of the field
    the sweep wrote; its residual is F = G(x) - x. With the last <= DEPTH
    differences dF, dG of consecutive (F, G) pairs, the next input is
    G_last - dG gamma, gamma the least-squares solution of dF gamma = F_last
    (Walker & Ni, SIAM J. Numer. Anal. 49, 1715 (2011)). Rows are complex
    (m, d) arrays, mixed as real vectors of N = 2 m d float64 entries. The
    differences live in preallocated (DEPTH, N) ring buffers.
    """

    DEPTH = 5

    def __init__(self, rows):
        n = 2 * rows.size
        self._df = np.empty((self.DEPTH, n))
        self._dg = np.empty((self.DEPTH, n))
        self._f = None
        self._g = rows
        self._count = self._slot = 0

    def clear(self):
        """Forget every recorded pair; the next input is G_last itself."""
        self._f = None
        self._count = self._slot = 0

    def record(self, x, g):
        """Add the pair (input x, output G(x)) of one accepted sweep."""
        f = _flat(g) - _flat(x)
        if self._f is not None:
            np.subtract(f, self._f, out=self._df[self._slot])
            np.subtract(_flat(g), _flat(self._g), out=self._dg[self._slot])
            self._slot = (self._slot + 1) % self.DEPTH
            self._count = min(self._count + 1, self.DEPTH)
        self._f, self._g = f, g

    def next_input(self):
        """G_last while no difference is held, else the mixed rows."""
        k = self._count
        if not k:
            return self._g
        gamma = np.linalg.lstsq(self._df[:k].T, self._f, rcond=None)[0]
        mixed = _flat(self._g) - gamma @ self._dg[:k]
        return mixed.view(np.complex128).reshape(self._g.shape)


def _flat(rows):
    return rows.reshape(-1).view(np.float64)


def _feedback_sweep(
    psi0, rows, paired, eps_ref, post_us, alpha, H: ControlHamiltonian, grid: TimeGrid
):
    """Forward sweep rewriting each pre-T sample as ref_k + Re(rho_k psi_k) / alpha.

    Samples after the measurement node revert to the reference (the
    canonical costate is zero there) and take its steps ``post_us``.
    Returns the new field, its nodes and its forward step stack, whose
    forward march the nodes are, bitwise. Above two levels each pre-T step
    U_k is formed in place from a ``_field_series`` and then applied. The
    series' range starts as the largest |eps_k| before T of ``paired``,
    the samples the rows were paired from, widened by ``SERIES_WIDENING``
    (1 where they all vanish): a sweep moves the field little, and a
    series over the samples' own range needs the fewest squarings. Each
    written sample is checked against the range before its U_k is formed.
    The first one outside rebuilds the series over max(reach, |eps_k|),
    reach = max_k |ref_k| + ||rho_k|| / alpha the Cauchy-Schwarz bound of
    the law with ||psi_k|| = 1, and the rest of the sweep reads that one
    (rebuilding again only for a sample past it by round-off). So every
    U_k comes from a series whose range holds its sample, with truncation
    at most 2^-53.
    """
    m = grid.index_T
    n = grid.n_steps
    dt = grid.dt
    dim = psi0.size
    new_field = np.empty_like(eps_ref)
    nodes = np.empty((n + 1, dim), dtype=np.complex128)
    us = np.empty((n, dim, dim), dtype=np.complex128)
    nodes[0] = psi0
    if dim == 2:
        new_field[:m], nodes[1 : m + 1] = _two_level_steps(psi0, rows, eps_ref[:m], alpha, H, dt)
        us[:m] = _u_stack(H, new_field[:m], dt)
    else:
        tmp = np.empty((dim, dim), dtype=np.complex128)
        tmp_flat = tmp.view(np.float64).reshape(-1)

        def build(bound):
            # the series goes where s squarings, alternating with tmp, end in U_k
            s, c = _field_series(H, dt, bound)
            return bound, s, _floats(c), np.arange(len(c), dtype=np.float64), np.empty(len(c))

        bound, s, series, degrees, powers = build(
            float(np.max(np.abs(paired[:m]), initial=0.0)) * SERIES_WIDENING or 1.0
        )
        field = []
        steps = zip(rows, eps_ref[:m].tolist(), us, _floats(us), nodes[:m], nodes[1 : m + 1])
        for row, ref, u, flat, x, y in steps:
            eps = ref + row.dot(x).real / alpha
            field.append(eps)
            if abs(eps) > bound:
                reach = np.abs(eps_ref[:m]) + np.linalg.norm(rows, axis=1) / alpha
                bound, s, series, degrees, powers = build(max(float(np.max(reach)), abs(eps)))
            start, start_flat, other = (tmp, tmp_flat, u) if s % 2 else (u, flat, tmp)
            np.power(eps / bound, degrees, out=powers)
            powers.dot(series, out=start_flat)
            for _ in range(s):
                start.dot(start, out=other)
                start, other = other, start
            u.dot(x, out=y)
        new_field[:m] = field
    new_field[m:] = eps_ref[m:]
    us[m:] = post_us
    nodes[m:] = _march_forward(post_us, nodes[m])
    return new_field, nodes, us


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
