"""Property-based checks over random complex-Hermitian problems."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import qoct
from conftest import seeded_problem


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 16),
    n_steps=st.integers(10, 120),
    alpha=st.floats(0.1, 10.0),
    index_frac=st.floats(0.1, 0.9),
)
def test_analytic_gradient_matches_central_differences(seed, dim, n_steps, alpha, index_frac):
    problem, field = seeded_problem(
        seed, dim, n_steps, alpha, index_frac=index_frac, complex_hermitian=True
    )
    report = qoct.gradient_report(problem, field)
    fd = report.finite_diff
    # absolute where |g| is small, relative where it is large: no picked seeds
    assert np.max(np.abs(report.analytic - fd)) <= 1e-8 * max(1.0, np.max(np.abs(fd)))
