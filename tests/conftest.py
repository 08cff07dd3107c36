"""Shared builders for seeded random control problems.

Seeded problems draw Hamiltonian and observable matrices real
symmetric: every claim under test holds for complex Hermitian operators
except the conjugate-pair identity, which (as in the continuum, where
the Hamiltonian is a kinetic term plus a real potential) needs a
real-valued matrix. ``random_hermitian`` draws the complex case.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

import qoct
from qoct import propagator

# (seed, dim, n_steps, alpha) covering every value of each knob; seeds
# picked so no probe lands next to a gradient zero crossing, where the
# finite-difference oracle's round-off floor (~1e-10 absolute at h=1e-5)
# would swamp the relative comparison
SEEDED_INSTANCES = [
    (201, 2, 50, 0.1),
    (102, 2, 100, 1.0),
    (103, 2, 200, 10.0),
    (104, 3, 50, 1.0),
    (105, 3, 100, 10.0),
    (306, 3, 200, 0.1),
    (107, 4, 50, 10.0),
    (508, 4, 100, 0.1),
    (209, 4, 200, 1.0),
    (110, 3, 100, 1.0),
]


@pytest.fixture(autouse=True)
def no_last_solve():
    """Each test starts and ends without ``propagator``'s last forward solve.

    A test that patches a kernel (``_stacks``, ``_field_series``) would
    otherwise be served a stack an earlier test built before the patch.
    """
    propagator._clear_last_solve()
    yield
    propagator._clear_last_solve()


def patch_everywhere(monkeypatch, name, wrapper):
    """Replace ``propagator.<name>`` in every qoct module that imported it."""
    original = getattr(propagator, name)
    for module in list(sys.modules.values()):
        ours = getattr(module, "__name__", "").startswith("qoct")
        if ours and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, wrapper)
    return original


def u_stack(H: qoct.ControlHamiltonian, samples: np.ndarray, dt: float) -> np.ndarray:
    """The forward propagators exp(-1j H(eps_k) dt) of the samples, batched: ``_stacks``' U."""
    return propagator._stacks(H, samples, dt)[0]


def random_symmetric(rng: np.random.Generator, dim: int, scale: float = 1.0) -> qoct.HermitianOperator:
    a = scale * rng.standard_normal((dim, dim))
    return qoct.HermitianOperator((a + a.T) / 2.0)


def random_hermitian(rng: np.random.Generator, dim: int) -> qoct.HermitianOperator:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return qoct.HermitianOperator((a + a.conj().T) / 2.0)


def random_state(rng: np.random.Generator, dim: int) -> qoct.StateVector:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return qoct.StateVector(v / np.linalg.norm(v))


def seeded_problem(
    seed: int,
    dim: int,
    n_steps: int,
    alpha: float,
    dt: float = 0.05,
    index_frac: float = 0.8,
    complex_hermitian: bool = False,
) -> tuple[qoct.ControlProblem, qoct.ControlField]:
    """One reproducible problem instance plus a random probe field.

    Operators are real symmetric unless ``complex_hermitian`` is set.
    """
    rng = np.random.default_rng(seed)
    draw = random_hermitian if complex_hermitian else random_symmetric
    grid = qoct.TimeGrid(dt=dt, n_steps=n_steps, index_T=round(index_frac * n_steps))
    problem = qoct.ControlProblem(
        psi0=random_state(rng, dim),
        hamiltonian=qoct.ControlHamiltonian(drift=draw(rng, dim), coupling=draw(rng, dim)),
        observable=draw(rng, dim),
        grid=grid,
        eps_ref=qoct.ControlField.constant(0.0, n_steps),
        alpha=alpha,
    )
    field = qoct.ControlField(rng.uniform(-1.0, 1.0, n_steps))
    return problem, field


def pauli_x() -> qoct.HermitianOperator:
    return qoct.HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))


def level_projector() -> qoct.HermitianOperator:
    """Projector onto the upper level of a two-level system."""
    return qoct.HermitianOperator(np.diag([0.0, 1.0]))


def two_level_benchmark() -> tuple[qoct.StateVector, qoct.ControlHamiltonian, qoct.HermitianOperator, qoct.TimeGrid]:
    """Population-transfer benchmark: drift diag(0,1), sigma_x coupling."""
    H = qoct.ControlHamiltonian(
        drift=qoct.HermitianOperator(np.diag([0.0, 1.0])), coupling=pauli_x()
    )
    grid = qoct.make_grid(10.0, 10.5, 0.025)
    return qoct.StateVector([1.0, 0.0]), H, level_projector(), grid
