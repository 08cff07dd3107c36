"""Domain types for finite-dimensional quantum control problems.

States are complex amplitude vectors on an N-dimensional Hilbert space
(hbar = 1 throughout). Control enters the Hamiltonian bilinearly,
H(eps) = H0 + eps * mu, and fields are piecewise constant per time
interval while states live on grid nodes. All types are immutable after
construction; the wrapped numpy arrays are marked read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

NDArrayFloat = npt.NDArray[np.float64]
NDArrayComplex = npt.NDArray[np.complex128]

NORM_TOL = 1e-10
HERMITICITY_TOL = 1e-12

__all__ = [
    "StateVector",
    "HermitianOperator",
    "ControlHamiltonian",
    "TimeGrid",
    "ControlField",
    "StateTrajectory",
    "CostateTrajectory",
    "ControlProblem",
    "inner_product",
    "expectation",
    "commutes",
    "make_grid",
]


def _hermiticity_bound(m: np.ndarray) -> float:
    """1e-12 * max(1, ||m||_max): round-off in a Hermitian matrix grows with its entries."""
    return HERMITICITY_TOL * max(1.0, float(np.max(np.abs(m))))


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _as_complex_vector(x, name: str) -> NDArrayComplex:
    a = np.array(x, dtype=np.complex128)
    if a.ndim != 1 or a.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d complex vector, got shape {a.shape}")
    if not np.isfinite(a.view(np.float64)).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


@dataclass(frozen=True)
class StateVector:
    """Complex amplitude vector; physical states carry unit Euclidean norm."""

    amplitudes: NDArrayComplex

    def __post_init__(self):
        a = _as_complex_vector(self.amplitudes, "amplitudes")
        object.__setattr__(self, "amplitudes", _freeze(a))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def is_normalized(self) -> bool:
        return abs(self.norm - 1.0) < NORM_TOL

    def require_normalized(self, name: str = "state") -> None:
        if not self.is_normalized():
            raise ValueError(f"{name} is not normalized: ||psi|| = {self.norm!r}")


@dataclass(frozen=True)
class HermitianOperator:
    """N x N complex matrix with ||A - A^dagger||_max < 1e-12 * max(1, ||A||_max).

    The bound is relative for entries above 1: an exactly Hermitian
    V diag(l) V^dagger carries round-off in proportion to its own size.
    Consumers may read one triangle and rely on the other being its
    conjugate to within this bound.
    """

    matrix: NDArrayComplex

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise ValueError(f"operator must be a square matrix, got shape {m.shape}")
        if not np.isfinite(m.view(np.float64)).all():
            raise ValueError("operator contains non-finite entries")
        dev = float(np.max(np.abs(m - m.conj().T)))
        if dev >= _hermiticity_bound(m):
            raise ValueError(f"operator is not Hermitian: max |A - A^dagger| = {dev:.3e}")
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_real(self) -> bool:
        return not self.matrix.imag.any()


@dataclass(frozen=True)
class ControlHamiltonian:
    """Drift plus bilinear control coupling: H(eps) = H0 + eps * mu.

    The derivative of H with respect to the field is the constant
    coupling operator mu, exposed as ``control_derivative``.
    """

    drift: HermitianOperator
    coupling: HermitianOperator

    def __post_init__(self):
        if self.drift.dim != self.coupling.dim:
            raise ValueError(
                f"drift and coupling dimensions differ: {self.drift.dim} vs {self.coupling.dim}"
            )

    @property
    def dim(self) -> int:
        return self.drift.dim

    @property
    def control_derivative(self) -> NDArrayComplex:
        return self.coupling.matrix

    def evaluate(self, eps: float) -> NDArrayComplex:
        """Return the Hamiltonian matrix at field value eps."""
        return self.drift.matrix + float(eps) * self.coupling.matrix

    def is_real(self) -> bool:
        return self.drift.is_real() and self.coupling.is_real()


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T_hat] with a distinguished measurement node.

    Nodes sit at t_k = k*dt for k = 0..n_steps; the observable is
    evaluated at node ``index_T``, strictly inside the interval so the
    grid extends past the measurement time.
    """

    dt: float
    n_steps: int
    index_T: int

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if not (0 < self.index_T < self.n_steps):
            raise ValueError(
                f"measurement node must be strictly interior: index_T={self.index_T}, "
                f"n_steps={self.n_steps}"
            )

    @property
    def T(self) -> float:
        return self.index_T * self.dt

    @property
    def T_hat(self) -> float:
        return self.n_steps * self.dt

    @property
    def times(self) -> NDArrayFloat:
        return np.arange(self.n_steps + 1) * self.dt


@dataclass(frozen=True)
class ControlField:
    """Piecewise-constant field; sample k drives the interval [t_k, t_{k+1})."""

    samples: NDArrayFloat

    def __post_init__(self):
        s = np.array(self.samples, dtype=np.float64)
        if s.ndim != 1:
            raise ValueError(f"field samples must be 1-d, got shape {s.shape}")
        if not np.isfinite(s).all():
            raise ValueError("field contains non-finite samples")
        object.__setattr__(self, "samples", _freeze(s))

    @property
    def n_samples(self) -> int:
        return self.samples.size

    @classmethod
    def constant(cls, value: float, n_samples: int) -> "ControlField":
        return cls(np.full(n_samples, float(value)))


@dataclass(frozen=True)
class StateTrajectory:
    """Node-resolved states, one row per grid node (n_steps + 1 rows).

    Unitary evolution is enforced: every node norm must match the
    initial norm to 1e-10.
    """

    states: NDArrayComplex

    def __post_init__(self):
        s = np.array(self.states, dtype=np.complex128)
        if s.ndim != 2 or s.shape[0] < 2:
            raise ValueError(f"trajectory must be (n_nodes, dim) with n_nodes >= 2, got {s.shape}")
        if not np.isfinite(s.view(np.float64)).all():
            raise ValueError("trajectory contains non-finite entries")
        norms = np.linalg.norm(s, axis=1)
        drift = float(np.max(np.abs(norms - norms[0])))
        if drift >= NORM_TOL:
            raise ValueError(f"norm drift along trajectory is {drift:.3e}, evolution not unitary")
        object.__setattr__(self, "states", _freeze(s))

    @property
    def n_nodes(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def node(self, k: int) -> NDArrayComplex:
        return self.states[k]


@dataclass(frozen=True)
class CostateTrajectory:
    """Costate nodes with explicit one-sided limits at the measurement node.

    The stored node value at ``index_T`` equals ``chi_T_plus`` by
    convention; both limits are kept because the two boundary regimes
    differ exactly there (the jump is the object of interest, not an
    artifact to hide).
    """

    states: NDArrayComplex
    chi_T_minus: NDArrayComplex
    chi_T_plus: NDArrayComplex
    index_T: int

    def __post_init__(self):
        s = np.array(self.states, dtype=np.complex128)
        minus = _as_complex_vector(self.chi_T_minus, "chi_T_minus")
        plus = _as_complex_vector(self.chi_T_plus, "chi_T_plus")
        if s.ndim != 2:
            raise ValueError(f"costate nodes must be (n_nodes, dim), got {s.shape}")
        if not np.isfinite(s.view(np.float64)).all():
            raise ValueError("costate trajectory contains non-finite entries")
        if minus.shape != (s.shape[1],) or plus.shape != (s.shape[1],):
            raise ValueError("one-sided limits must match the node dimension")
        if not (0 < self.index_T < s.shape[0] - 1):
            raise ValueError(f"index_T={self.index_T} outside the interior of {s.shape[0]} nodes")
        if not np.array_equal(s[self.index_T], plus):
            raise ValueError("node value at index_T must equal chi_T_plus")
        object.__setattr__(self, "states", _freeze(s))
        object.__setattr__(self, "chi_T_minus", _freeze(minus))
        object.__setattr__(self, "chi_T_plus", _freeze(plus))

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def jump_norm(self) -> float:
        """Norm of the discontinuity at the measurement node."""
        return float(np.linalg.norm(self.chi_T_plus - self.chi_T_minus))

    def node(self, k: int) -> NDArrayComplex:
        return self.states[k]

    def is_canonical(self) -> bool:
        """True when the costate vanishes identically after the measurement node."""
        return not self.chi_T_plus.any() and not self.states[self.index_T:].any()


@dataclass(frozen=True)
class ControlProblem:
    """Everything that defines one control problem except the field itself."""

    psi0: StateVector
    hamiltonian: ControlHamiltonian
    observable: HermitianOperator
    grid: TimeGrid
    eps_ref: ControlField
    alpha: float

    def __post_init__(self):
        dims = {self.psi0.dim, self.hamiltonian.dim, self.observable.dim}
        if len(dims) != 1:
            raise ValueError(f"inconsistent dimensions across problem pieces: {sorted(dims)}")
        if self.eps_ref.n_samples != self.grid.n_steps:
            raise ValueError(
                f"eps_ref has {self.eps_ref.n_samples} samples, grid has {self.grid.n_steps} steps"
            )
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be positive, got {self.alpha!r}")
        self.psi0.require_normalized("psi0")

    @property
    def dim(self) -> int:
        return self.psi0.dim


def inner_product(a: StateVector, b: StateVector) -> complex:
    """Hermitian inner product <a|b>, conjugate-linear in the first slot."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def expectation(O: HermitianOperator, psi: StateVector) -> float:
    """Expectation value <psi|O|psi> of a Hermitian observable.

    The imaginary part must vanish to the operator's Hermiticity bound
    (round-off grows with its entries); a larger residue indicates
    corrupted inputs.
    """
    if O.dim != psi.dim:
        raise ValueError(f"dimension mismatch: operator {O.dim} vs state {psi.dim}")
    val = complex(np.vdot(psi.amplitudes, O.matrix @ psi.amplitudes))
    if abs(val.imag) >= _hermiticity_bound(O.matrix):
        raise ValueError(f"expectation value has imaginary residue {val.imag:.3e}")
    return val.real


def commutes(O: HermitianOperator, mu: HermitianOperator, tol: float) -> bool:
    """True when ||[O, mu]||_max < tol."""
    if O.dim != mu.dim:
        raise ValueError(f"dimension mismatch: {O.dim} vs {mu.dim}")
    comm = O.matrix @ mu.matrix - mu.matrix @ O.matrix
    return float(np.max(np.abs(comm))) < tol


def make_grid(T: float, T_hat: float, dt: float) -> TimeGrid:
    """Build a uniform grid with measurement time T and final time T_hat.

    Both T and T_hat must be integer multiples of dt to relative 1e-12;
    non-commensurate inputs are rejected rather than snapped, so the
    measurement time always sits exactly on a node.
    """
    if not (0 < T < T_hat):
        raise ValueError(f"need 0 < T < T_hat, got T={T!r}, T_hat={T_hat!r}")
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive, got {dt!r}")
    index_T = _commensurate(T, dt, "T")
    n_steps = _commensurate(T_hat, dt, "T_hat")
    return TimeGrid(dt=float(dt), n_steps=n_steps, index_T=index_T)


def _commensurate(t: float, dt: float, name: str) -> int:
    ratio = t / dt
    k = int(round(ratio))
    if k < 1 or abs(ratio - k) > 1e-12 * max(1.0, abs(ratio)):
        raise ValueError(f"{name}={t!r} is not an integer multiple of dt={dt!r}")
    return k


def _check_grid(grid: TimeGrid, fields=(), trajectories=()) -> None:
    """One sample per grid step for each field, one row per grid node for each trajectory."""
    for field in fields:
        if field.n_samples != grid.n_steps:
            raise ValueError(
                f"field has {field.n_samples} samples but grid has {grid.n_steps} steps"
            )
    for traj in trajectories:
        n_nodes = traj.states.shape[0]
        if n_nodes != grid.n_steps + 1:
            raise ValueError(f"trajectory has {n_nodes} nodes but grid has {grid.n_steps + 1}")
