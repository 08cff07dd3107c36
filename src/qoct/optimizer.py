"""Quasi-Newton ascent on the exact discrete gradient, started at two levels by one feedback sweep.

The objective is the discrete reduced J of ``functional``. An
evaluation of a field is ``gradient._evaluate`` (where the field law is
defined) on the window grid up to the first node past T: the field's
samples before T, then the reference's sample at T, which moves only the
node past T, so a field's solve depends only on its samples before T.
After T the costate vanishes, no sample reaches j_opt, j_tdse or the
law, and the field is the reference sample-for-sample. The breakdown
takes j_opt and j_tdse from the window's solve and j_cost from the whole
field, so samples after T, the initial field's noise there included,
stay penalized. The law gap eps_k - law_k before T is the gradient of
-J / (2 alpha dt), and its sup-norm certifies the run.

The first iteration of a two-level run is the paper's scheme: one
immediate-feedback sweep (Zhu, Botina & Rabitz, with the exact
first-order condition of Reich, Ndong & Koch) that steps the state
forward and rewrites every sample before T on the fly from the law,
eps_k = ref_k + Re(rho_k psi_k) / alpha, with psi_k the state just
stepped and the rows of the initial field. Its field is evaluated like
any other. Should the sweep lower J, it is not taken, nor is it where
the stack kernel refuses it: a sample whose step phase ||H(eps) dt||_1
is past ``propagator.MAX_STEP_PHASE`` (or NaN), or a trajectory that
drifts past its norm gate. Above two levels
no sweep runs: there it mostly lowered J and was thrown away, and
L-BFGS from the initial field took fewer evaluations in all. A first
iteration without a sweep steps from the initial samples before T with
the reference after them: their solve is the initial one, and only
j_cost is formed anew. Every later iteration is L-BFGS on the samples
before T (Nocedal & Wright, *Numerical Optimization*, 2nd ed.), after
the Krotov/BFGS hybrid of Eitan, Mundt & Tannor (Phys. Rev. A 83,
053426 (2011)) and GRAPE with BFGS (de Fouquieres et al., J. Magn.
Reson. 212, 412 (2011)): the two-loop recursion over the last ``MEMORY``
(Delta eps, Delta gap) pairs of accepted steps (Alg. 7.4; with no pair,
the law gap scaled to unit length) gives a direction, and a strong-Wolfe
line search (Alg. 3.5 and 3.6) takes a step along it. The sweep's own
pair is not kept: taken where the field is still small and J nearly
flat, its curvature misjudges the scale of the first steps, which cost
more evaluations with it than without. Every trial point is an
evaluation; one the stack kernel refuses reads as f = +inf, which
brackets the step, so the search falls back toward the best point it
has (``_wolfe_step``). The accepted trial's breakdown and law gap become the
iteration's record and certificate with no further solve. An accepted
step never lowers J. A search that finds no step clears the memory and
retries along the law gap. If that fails too, the run ends unconverged,
unless the field already meets the law within ``stationarity_tol``: then
J cannot move beyond round-off, and the iteration keeps the field
(Delta J = 0). The run stops, and is converged, once |Delta J| <
``j_tol`` and the residual is below ``stationarity_tol`` in the same
iteration.

The feedback sweep is sequential: each sample needs the state just
stepped under the previous one. It steps in Python scalars
(``propagator._step_two_level``), where NumPy's per-call overhead on
2 x 2 arrays would dominate.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from .core import (
    ControlField,
    ControlHamiltonian,
    ControlProblem,
    HermitianOperator,
    StateVector,
    TimeGrid,
)
from .functional import FunctionalBreakdown, eval_j_cost, eval_j_opt, eval_j_tdse
from .gradient import _evaluate
from .propagator import _clear_last_solve, _step_two_level, _StepPhaseError

__all__ = ["OptimizationConfig", "OptimizationResult", "optimize"]

# (Delta eps, Delta gap) pairs the two-loop recursion holds
MEMORY = 10
# sufficient-decrease and curvature constants of the strong Wolfe conditions
WOLFE_C1, WOLFE_C2 = 1e-4, 0.9
# evaluations one line search may spend before it counts as failed
MAX_TRIALS = 20
# factor each trial step grows by until the line search brackets a step
EXPANSION = 4.0


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
    final field, max_{k < index_T} |eps_k - law_k| = |g_k| / (2 alpha dt)
    with the law of ``gradient._law_gap``: how far each sample before T
    sits from the discrete field law. (``stationarity_residual``, the
    collocated continuum law, is O(dt) at the discrete optimum.)
    ``largest_j_decrease`` records the worst single-iteration drop of the
    total objective: 0.0, since no accepted iteration lowers J.
    ``iterations_run`` counts accepted iterations, one breakdown each in
    ``j_history``, which has ``iterations_run + 1`` entries.
    ``evaluations_run`` counts every field evaluated, the initial one and
    every line-search trial included, a trial the stack kernel refused
    too. ``converged`` means the run stopped
    before ``max_iters`` because J stagnated and the residual passed in
    the same iteration. A line search that finds no step ends the run
    unconverged while the residual fails; once it passes, the field is
    kept for one more iteration with Delta J = 0, which converges.
    """

    final_field: ControlField
    j_history: Tuple[FunctionalBreakdown, ...]
    final_fidelity: float
    iterations_run: int
    evaluations_run: int
    converged: bool
    final_stationarity_residual: float
    largest_j_decrease: float

    def __post_init__(self):
        if not self.j_history:
            raise ValueError("j_history must not be empty")
        if self.final_fidelity != self.j_history[-1].j_opt:
            raise ValueError("final_fidelity must equal the last recorded j_opt")


class _Point:
    """One evaluated field: its record, its rows and its law gap before T."""

    __slots__ = ("field", "breakdown", "rows", "gap")

    def __init__(self, field: ControlField, breakdown: FunctionalBreakdown, rows, gap):
        self.field, self.breakdown, self.rows, self.gap = field, breakdown, rows, gap

    @property
    def x(self) -> np.ndarray:
        return self.field.samples[: self.gap.size]

    @property
    def residual(self) -> float:
        return float(np.max(np.abs(self.gap)))


def optimize(
    psi0: StateVector,
    H: ControlHamiltonian,
    O: HermitianOperator,
    grid: TimeGrid,
    config: OptimizationConfig,
) -> OptimizationResult:
    """Drive the field to a stationary point of the total objective.

    One feedback sweep at two levels, then L-BFGS iterations with a
    strong-Wolfe line search on the samples before T, each iteration
    accepting a field that does not lower J. The loop stops once
    |Delta J| < ``j_tol`` and the exact-gradient residual of the new
    field is below ``stationarity_tol``, both in the same iteration.
    Non-convergence within ``max_iters``, or a line search that finds no
    step away from the law, is reported through the ``converged`` flag,
    not an exception; the history and residual let the caller judge how
    far the run got. A field the run makes itself, the sweep's or a
    line-search trial's, that the stack kernel refuses (a step phase past
    its bound, or a trajectory past its norm gate) is not taken; an
    initial field it refuses raises its ``ValueError``. Each
    evaluation's solve is ``propagator``'s last solve
    while the run lasts; none is kept after it returns, since the last
    window is no whole-grid solve a caller could read.
    """
    problem = ControlProblem(
        psi0=psi0, hamiltonian=H, observable=O, grid=grid, eps_ref=config.eps_ref,
        alpha=config.alpha,
    )
    eps_ref = config.eps_ref.samples
    alpha, dt, m = problem.alpha, grid.dt, grid.index_T
    # the grid up to the first node past T: the costate vanishes after T, so
    # no later step reaches j_opt, j_tdse or the law
    window = ControlProblem(
        psi0=psi0, hamiltonian=H, observable=O, grid=TimeGrid(dt, m + 1, m),
        eps_ref=ControlField(eps_ref[: m + 1]), alpha=alpha,
    )
    evaluations = 0

    def evaluate(samples):
        nonlocal evaluations
        evaluations += 1
        field = ControlField(samples)
        head = ControlField(np.append(samples[:m], eps_ref[m]))
        sol, rows, gap, _ = _evaluate(window, head)
        bd = FunctionalBreakdown(
            j_opt=eval_j_opt(sol.psi, O, window.grid),
            # the penalty spans the whole grid: samples after T stay penalized
            j_cost=eval_j_cost(field, config.eps_ref, alpha, grid),
            j_tdse=eval_j_tdse(sol.psi, sol.chi, head, H, window.grid),
        )
        return _Point(field, bd, rows, gap)

    def trial(samples):
        # a field of the run's own making that the stack kernel refuses is
        # not taken; only the initial field's refusal ends the run
        try:
            return evaluate(samples)
        except _StepPhaseError:
            return None

    def slope(point, p):
        # the slope of -J along p, 2 alpha dt (gap . p), in Python floats: their
        # overflow in the cubic step raises no warning; where gap . p is 0 the product
        # is skipped, as 2 alpha is inf for alpha near the largest double, inf * 0 NaN
        gp = float(point.gap @ p)
        return 2.0 * alpha * dt * gp if gp else 0.0

    def search(base, p):
        def phi(a):
            point = trial(np.concatenate([base.x + a * p, eps_ref[m:]]))
            if point is None:
                return math.inf, 0.0, None
            return -point.breakdown.j_total, slope(point, p), point

        return _wolfe_step(phi, -base.breakdown.j_total, slope(base, p))

    def remember(old, new):
        s, y = new.x - old.x, new.gap - old.gap
        sy = s @ y
        # the curvature a strong-Wolfe step guarantees, unless round-off ate it
        if sy > np.finfo(float).eps * (y @ y):
            pairs.append((s, y, 1.0 / sy))

    accepted = evaluate(config.initial_field.samples)
    history = [accepted.breakdown]
    pairs = deque(maxlen=MEMORY)
    largest_decrease = 0.0
    converged = False
    iterations = 0

    for _ in range(config.max_iters):
        base, new = accepted, None
        if not iterations:
            if H.dim == 2:
                new = trial(_feedback_sweep(psi0.amplitudes, base.rows, eps_ref, alpha, H, grid))
                if new is not None and new.breakdown.j_total < base.breakdown.j_total:
                    new = None
            if new is None and not np.array_equal(base.field.samples[m:], eps_ref[m:]):
                # the reference after T moves only the penalty: same solve, rows and gap
                field = ControlField(np.concatenate([base.x, eps_ref[m:]]))
                j_cost = eval_j_cost(field, config.eps_ref, alpha, grid)
                base = _Point(field, replace(base.breakdown, j_cost=j_cost), base.rows, base.gap)
        if new is None:
            new = search(base, _two_loop(pairs, base.gap))
            if new is None and pairs:
                pairs.clear()
                new = search(base, _two_loop(pairs, base.gap))
            if new is None:
                if base.residual >= config.stationarity_tol:
                    break
                # no step raises J beyond round-off and the field meets the law
                # already: the iteration keeps it, with Delta J = 0
                new = base
            remember(base, new)
        iterations += 1
        accepted = new
        delta = new.breakdown.j_total - history[-1].j_total
        largest_decrease = min(largest_decrease, delta)
        history.append(new.breakdown)
        if abs(delta) < config.j_tol and new.residual < config.stationarity_tol:
            converged = True
            break

    _clear_last_solve()
    return OptimizationResult(
        final_field=accepted.field,
        j_history=tuple(history),
        final_fidelity=history[-1].j_opt,
        iterations_run=iterations,
        evaluations_run=evaluations,
        converged=converged,
        final_stationarity_residual=accepted.residual,
        largest_j_decrease=largest_decrease,
    )


def _two_loop(pairs, g):
    """-H g for the L-BFGS inverse Hessian H of the (s, y, 1 / s.y) pairs (N&W Alg. 7.4).

    The initial H is (s.y / y.y) I from the newest pair. With no pair the
    step is -g scaled to unit length, as L-BFGS-B's first step is (-g
    itself where g vanishes).
    """
    if not pairs:
        return g / -(float(np.linalg.norm(g)) or 1.0)
    q = g.copy()
    coeffs = []
    for s, y, rho in reversed(pairs):
        a = rho * (s @ q)
        q -= a * y
        coeffs.append(a)
    s, y, rho = pairs[-1]
    q *= 1.0 / (rho * (y @ y))
    for (s, y, rho), a in zip(pairs, reversed(coeffs)):
        q += (a - rho * (y @ q)) * s
    return -q


def _wolfe_step(phi, f0, d0):
    """Payload of a step a > 0 meeting the strong Wolfe conditions, or None (N&W Alg. 3.5/3.6).

    phi(a) returns (f(a), f'(a), payload) along a descent direction, with
    f(0) = f0 and f'(0) = d0 < 0. The trial starts at a = 1 and grows by
    ``EXPANSION`` until a step is bracketed, then the bracket [lo, hi]
    shrinks by safeguarded cubic interpolation. A trial phi cannot
    evaluate (``optimize``'s refused fields) returns f = +inf, which
    brackets: hi moves to it and the next trial is the bracket's midpoint,
    as the cubic through an infinite end has no finite minimizer, so the
    search backs off toward lo. lo always holds the lowest
    f that met sufficient decrease, and a trial is accepted only below it,
    so an accepted f is never above f0. None once ``MAX_TRIALS``
    evaluations found no step, or when d0 is not negative.

    None also as soon as the bracket is below the round-off floor of f0:
    every later trial lies inside [lo, hi], where f moves from f(lo) by
    about |hi - lo| max(|f'(lo)|, |f'(hi)|) to first order, and once that
    is at most ulp(f0), the spacing of doubles at f0, no trial can tell a
    change of f from round-off. On a field that already meets the law the
    trials' f then differ from f0 only by round-off, and the search would
    otherwise spend all ``MAX_TRIALS`` evaluations shrinking the bracket.
    """
    if not d0 < 0:
        return None
    lo, hi = (0.0, f0, d0), None
    a = 1.0
    floor = math.ulp(f0)
    for _ in range(MAX_TRIALS):
        f, d, payload = phi(a)
        if f > f0 + WOLFE_C1 * a * d0 or f >= lo[1]:
            hi = (a, f, d)
        elif abs(d) <= -WOLFE_C2 * d0:
            return payload
        else:
            # the minimizer lies beyond lo in the direction f decreases
            if d * ((hi[0] if hi else math.inf) - lo[0]) >= 0:
                hi = lo
            lo = (a, f, d)
        if hi is None:
            a = EXPANSION * lo[0]
        elif abs(hi[0] - lo[0]) * max(abs(lo[2]), abs(hi[2])) <= floor:
            return None
        else:
            a = _cubic_step(lo, hi)
    return None


def _cubic_step(lo, hi):
    """Minimizer of the cubic through the bracket's ends (N&W (3.59)), kept off them.

    The step stays in the middle 98% of the bracket; the midpoint where
    the cubic has no minimizer.
    """
    (a, fa, da), (b, fb, db) = lo, hi
    low, high = min(a, b), max(a, b)
    if high > low:
        d1 = da + db - 3.0 * (fa - fb) / (a - b)
        rad = d1 * d1 - da * db
        if rad >= 0:
            d2 = math.copysign(math.sqrt(rad), b - a)
            c = b - (b - a) * (db + d2 - d1) / (db - da + 2.0 * d2)
            if math.isfinite(c):
                margin = 0.01 * (high - low)
                return min(max(c, low + margin), high - margin)
    return 0.5 * (a + b)


def _feedback_sweep(psi0, rows, eps_ref, alpha, H: ControlHamiltonian, grid: TimeGrid):
    """One two-level forward sweep: each pre-T sample rewritten as ref_k + Re(rho_k psi_k) / alpha.

    Samples after the measurement node revert to the reference (the
    canonical costate is zero there). The operators, rows and reference
    are read out once and the samples written back once, so no step
    touches a NumPy array.
    """
    m = grid.index_T
    (d00, d01), (_, d11) = H.drift.matrix.tolist()
    (m00, m01), (_, m11) = H.control_derivative.tolist()
    p0, p1 = psi0.tolist()
    field = []
    for (r0, r1), ref in zip(rows.tolist(), eps_ref[:m].tolist()):
        eps = ref + (r0 * p0 + r1 * p1).real / alpha
        p0, p1 = _step_two_level(
            d00.real + eps * m00.real, d01 + eps * m01, d11.real + eps * m11.real, grid.dt, p0, p1
        )
        field.append(eps)
    new_field = eps_ref.copy()
    new_field[:m] = field
    return new_field
