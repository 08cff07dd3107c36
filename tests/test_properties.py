"""Property-based checks over random real-symmetric and complex-Hermitian problems.

Real-symmetric operators take the real-arithmetic route (float64 stacks and
eigenvectors), complex-Hermitian ones the complex route; both are drawn.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import qoct
from conftest import seeded_problem
from qoct.propagator import _adjoint, _forward, _h_stack, _march_backward


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 16),
    n_steps=st.integers(10, 120),
    alpha=st.floats(0.1, 10.0),
    index_frac=st.floats(0.1, 0.9),
    complex_hermitian=st.booleans(),
)
def test_analytic_gradient_matches_central_differences(
    seed, dim, n_steps, alpha, index_frac, complex_hermitian
):
    problem, field = seeded_problem(
        seed, dim, n_steps, alpha, index_frac=index_frac, complex_hermitian=complex_hermitian
    )
    report = qoct.gradient_report(problem, field)
    fd = report.finite_diff
    # absolute where |g| is small, relative where it is large: no picked seeds
    assert np.max(np.abs(report.analytic - fd)) <= 1e-8 * max(1.0, np.max(np.abs(fd)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 16),
    n_steps=st.integers(10, 120),
    complex_hermitian=st.booleans(),
)
def test_steps_are_unitary_and_backward_undoes_forward(seed, dim, n_steps, complex_hermitian):
    problem, field = seeded_problem(seed, dim, n_steps, 1.0, complex_hermitian=complex_hermitian)
    H = problem.hamiltonian
    assert _h_stack(H, field.samples).dtype == (np.complex128 if complex_hermitian else np.float64)
    psi, us = _forward(problem.psi0, field, H, problem.grid)
    assert np.max(np.abs(us @ _adjoint(us) - np.eye(dim))) <= 1e-13
    # the backward march from psi(T_hat) retraces every forward node
    back = _march_backward(us, psi.states[-1])
    assert np.max(np.abs(back - psi.states)) <= 1e-12
