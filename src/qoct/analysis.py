"""Numerical verification of the costate continuity claims.

Three families of checks live here:

* the canonical costate jumps at the measurement node, by exactly the
  norm of O*psi(T), while the extremal field is continuous there exactly
  when <psi(T)| [O, mu] |psi(T)> = 0 (a commuting observable and coupling
  is sufficient, not necessary);
* the continuous costate family (value (i / 2 pi n) * O * psi(T) at the
  node, nonzero integer n) has no jump and solves the homogeneous
  equation on the whole grid, and the continuity breaks for phase
  factors that are not whole turns - probed through the scalar factor
  exp(i phi) with phi an odd multiple of pi;
* a pair propagated under the sign-flipped equations stays the complex
  conjugate of the forward solution, which is what justifies varying a
  function and its conjugate independently. This identity holds for
  real-valued Hamiltonian matrices (the matrix counterpart of a kinetic
  term plus a real potential).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .core import (
    ControlField,
    ControlHamiltonian,
    ControlProblem,
    CostateTrajectory,
    HermitianOperator,
    StateTrajectory,
    StateVector,
    TimeGrid,
    _check_grid,
    commutes,
)
from .propagator import CostateBoundary
from .propagator import _Solve, _costate, _forward, _solve_on, _unit_companion, _unit_residual

__all__ = [
    "ContinuityReport",
    "Solution",
    "solve",
    "check_canonical_jump",
    "check_field_continuity",
    "check_continuous_family",
    "check_conjugate_independence",
]

COMMUTATOR_TOL = 1e-12


@dataclass(frozen=True)
class ContinuityReport:
    """Measured discontinuity data at the measurement node.

    ``costate_matches_boundary`` is the deviation of the costate from its
    regime's boundary law: ||chi(T-) - O psi(T)|| for the canonical
    family, ||chi(T) - (i / 2 pi n) O psi(T)|| for the continuous one.
    ``commutator_expectation_at_T`` is <psi(T)| [O, mu] |psi(T)> / (2i),
    real since the commutator of two Hermitian matrices is anti-Hermitian;
    alpha times the canonical field gap equals its magnitude.
    Fields that a given check does not produce stay None.
    """

    jump_norm_at_T: float
    costate_matches_boundary: float
    commutator_condition_holds: bool
    field_left_limit_gap: Optional[float] = None
    eps_left_limit: Optional[float] = None
    eps_right_limit: Optional[float] = None
    homogeneous_residual: Optional[float] = None
    phase_defect_magnitude: Optional[float] = None
    commutator_expectation_at_T: Optional[float] = None

    def __post_init__(self):
        for name in ("jump_norm_at_T", "costate_matches_boundary"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {v!r}")

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class Solution:
    """A problem, a field, and the state/costate pair solved under them."""

    problem: ControlProblem
    field: ControlField
    boundary: CostateBoundary
    psi: StateTrajectory
    chi: CostateTrajectory


def solve(problem: ControlProblem, field: ControlField, boundary: CostateBoundary) -> Solution:
    """Propagate the state forward and the costate in the given regime, on one stack.

    The forward solve becomes ``propagator``'s last one, so the checks
    that follow on its trajectory, or from the same psi0, read its stack,
    step views, step defects and adjoint solution instead of forming them
    again; a solve of the same psi0 on the field kept beforehand (an
    evaluation's) serves it as it is.
    """
    solved = _forward(problem.psi0, field, problem.hamiltonian, problem.grid)[0]
    return _solution(problem, field, boundary, solved)


def _solution(
    problem: ControlProblem, field: ControlField, boundary: CostateBoundary, solved: _Solve
) -> Solution:
    """The ``Solution`` of a forward solve record of the field: its trajectory and its costate."""
    chi = _costate(solved, problem.observable, problem.grid, boundary)
    return Solution(problem=problem, field=field, boundary=boundary, psi=solved.traj, chi=chi)


def check_canonical_jump(solution: Solution) -> ContinuityReport:
    """Measure the canonical discontinuity and the field's one-sided limits at T.

    The jump norm equals ||O psi(T)|| by construction, so the
    discontinuity is real whenever psi(T) lies outside the kernel of the
    observable. The field's left limit is reconstructed analytically from
    the field equation with chi(T-), ref(T) + x with
    x = Im <chi(T-) | mu | psi(T)> / alpha, never read off a stored
    sample array; the right limit is the reference value there (zero
    costate beyond the node). Since chi(T-) = O psi(T), alpha x equals
    <psi(T)| [O, mu] |psi(T)> / (2i), which the report also carries,
    formed from the commutator itself: the limits agree exactly when that
    expectation vanishes, as it does whenever O commutes with the
    coupling; otherwise the gap |x| is reported as is.
    """
    _require_canonical(solution)
    prob = solution.problem
    m = prob.grid.index_T
    psi_T = solution.psi.node(m)
    source = prob.observable.matrix @ psi_T
    chi = solution.chi
    mu = prob.hamiltonian.control_derivative
    x = float(np.vdot(chi.chi_T_minus, mu @ psi_T).imag) / prob.alpha
    comm = prob.observable.matrix @ mu - mu @ prob.observable.matrix
    eps_ref_T = float(prob.eps_ref.samples[m])
    return ContinuityReport(
        jump_norm_at_T=chi.jump_norm,
        costate_matches_boundary=float(np.linalg.norm(chi.chi_T_minus - source)),
        commutator_condition_holds=commutes(
            prob.observable, prob.hamiltonian.coupling, COMMUTATOR_TOL
        ),
        field_left_limit_gap=abs(x),
        eps_left_limit=eps_ref_T + x,
        eps_right_limit=eps_ref_T,
        commutator_expectation_at_T=float((np.vdot(psi_T, comm @ psi_T) / 2j).real),
    )


# One measurement at T under two names. A plain alias, not a wrapper def:
# a tracer that wraps both names would otherwise count the report twice.
check_field_continuity = check_canonical_jump


def check_continuous_family(
    psi_traj: StateTrajectory,
    O: HermitianOperator,
    field: ControlField,
    H: ControlHamiltonian,
    grid: TimeGrid,
    n: int,
) -> ContinuityReport:
    """Verify that the whole-turn phase condition removes the jump.

    Builds the costate with the continuous(n) boundary and measures its
    jump (zero bitwise by construction) plus the residual of the
    homogeneous equation across the whole grid. The converse direction
    is probed on the scalar phase factor itself: phi = pi * (2n - 1) is
    not a whole turn and |exp(i phi) - 1| = 2 quantifies the induced
    discontinuity.

    The costate is (i / 2 pi n) times the one adjoint solution through
    O psi(T) that the canonical costate runs before T, and so are its step
    defects: the residual is continuous(1)'s over |n| (bitwise its own for
    n = +-2^k, within round-off otherwise). Handed the trajectory of the
    last ``solve``, it reads that solve's stack, defects and adjoint
    solution, and continuous(1)'s residual is formed once: the first n
    marches only the tail after T and forms it, and any other n forms
    nothing.
    """
    _check_grid(grid, [field], [psi_traj])
    solved = _solve_on(psi_traj, field, H, grid.dt)
    chi = _costate(solved, O, grid, CostateBoundary.continuous(n))
    residual = _unit_residual(solved) / abs(n)
    value = (1j / (2.0 * np.pi * n)) * (O.matrix @ psi_traj.node(grid.index_T))
    phi_defect = np.pi * (2 * n - 1)
    return ContinuityReport(
        jump_norm_at_T=chi.jump_norm,
        costate_matches_boundary=float(np.linalg.norm(chi.node(grid.index_T) - value)),
        commutator_condition_holds=commutes(O, H.coupling, COMMUTATOR_TOL),
        homogeneous_residual=residual,
        phase_defect_magnitude=float(abs(np.exp(1j * phi_defect) - 1.0)),
    )


def check_conjugate_independence(
    psi0: StateVector,
    field: ControlField,
    H: ControlHamiltonian,
    grid: TimeGrid,
    beta: complex = 1.0,
) -> float:
    """Worst deviation of the sign-flipped solution from beta * conj(forward).

    The companion function starts at beta * conj(psi0) and advances
    forward in time with the adjoint of each forward step, i.e. the
    backward stepper; for real-valued H0 and mu it must track the
    conjugate forward solution to round-off at every node, for any
    complex beta. The march is linear in its start, so the companion's
    conjugate rows are conj(beta) times the unit companion's, marched from
    psi0 on the forward steps (``propagator._unit_companion``), and the
    deviation is |beta| times the unit one: one march per forward solve
    serves every beta. After ``solve`` from the same psi0 on the same
    field, the forward solve is its last one, so the first beta marches
    only the unit companion and every other beta marches nothing. As with
    continuous(n)'s residual, read as continuous(1)'s over |n|, the value
    is bitwise a march from conj(beta) psi0 where conj(beta) is +-2^k or
    +-2^k i, and within round-off of it otherwise (up to about 30% of a
    5e-15 deviation). A non-finite beta is refused with ``ValueError``.
    """
    b = complex(beta)
    if not (math.isfinite(b.real) and math.isfinite(b.imag)):
        raise ValueError(f"beta must be finite, got {beta!r}")
    dev = _unit_companion(_forward(psi0, field, H, grid)[0])
    # |beta| dev without forming |beta|, which overflows before the product does
    return math.hypot(b.real * dev, b.imag * dev)


def _require_canonical(solution: Solution) -> None:
    if solution.boundary.mode != "canonical" or not solution.chi.is_canonical():
        raise ValueError("this check applies to canonical-boundary solutions only")

