"""Property-based checks over random real-symmetric and complex-Hermitian problems.

Real-symmetric operators take the real-arithmetic route (float64 stacks and
eigenvectors), complex-Hermitian ones the complex route; both are drawn.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import qoct
from conftest import random_hermitian, random_state, random_symmetric, seeded_problem
from qoct import cli
from qoct.propagator import _adjoint, _forward, _operators
from reference import Direction, step_matrix
from test_cli import as_pairs_matrix, as_pairs_vector, finite_outputs


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
    dt=st.floats(0.01, 1.0),
    complex_hermitian=st.booleans(),
)
def test_steps_are_unitary_and_backward_undoes_forward(seed, dim, n_steps, dt, complex_hermitian):
    # dt up to 1 takes ||H dt||_1 past 1: the stack kernel's squaring
    # branch
    problem, field = seeded_problem(
        seed, dim, n_steps, 1.0, dt=dt, complex_hermitian=complex_hermitian
    )
    H = problem.hamiltonian
    assert _operators(H)[0].dtype == (np.complex128 if complex_hermitian else np.float64)
    solved = _forward(problem.psi0, field, H, problem.grid)[0]
    psi, us = solved.traj, solved.us
    assert np.max(np.abs(us @ _adjoint(us) - np.eye(dim))) <= 1e-13
    # the reference backward steps (complex eigh) march psi(T_hat) back
    # through every forward node
    back = [psi.states[-1]]
    for eps in field.samples[::-1]:
        u = step_matrix(H, float(eps), problem.grid.dt, Direction.BACKWARD)
        back.append(u @ back[-1])
    assert np.max(np.abs(np.array(back[::-1]) - psi.states)) <= 1e-12


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 16),
    n_steps=st.integers(10, 120),
    index_frac=st.floats(0.1, 0.9),
    complex_hermitian=st.booleans(),
)
def test_canonical_jump_and_continuous_family(seed, dim, n_steps, index_frac, complex_hermitian):
    problem, field = seeded_problem(
        seed, dim, n_steps, 1.0, index_frac=index_frac, complex_hermitian=complex_hermitian
    )
    H, O, grid = problem.hamiltonian, problem.observable, problem.grid
    sol = qoct.solve(problem, field, qoct.CostateBoundary.canonical())
    source = float(np.linalg.norm(O.matrix @ sol.psi.node(grid.index_T)))
    # the canonical costate jumps by exactly ||O psi(T)||
    assert qoct.check_canonical_jump(sol).jump_norm_at_T == source
    # every continuous(n) costate has no jump and solves the homogeneous
    # equation to verify's gate, which scales with the source
    for n in (1, -2):
        rep = qoct.check_continuous_family(sol.psi, O, field, H, grid, n)
        assert rep.jump_norm_at_T == 0.0
        assert rep.homogeneous_residual < cli.HOMOGENEOUS_TOL * max(1.0, source)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 16),
    complex_hermitian=st.booleans(),
    dt=st.sampled_from([0.5, 0.25, 0.1, 0.05, 0.025]),
    index_T=st.integers(1, 40),
    extra=st.integers(1, 40),
    alpha=st.floats(1e-3, 1e3),
    eps_ref=st.one_of(st.floats(-5.0, 5.0), st.just("samples")),
    max_iters=st.integers(1, 10_000),
    j_tol=st.floats(1e-15, 1.0),
    stationarity_tol=st.floats(1e-15, 1.0),
    config_seed=st.integers(0, 2**63 - 1),
)
def test_config_round_trip(
    seed, dim, complex_hermitian, dt, index_T, extra, alpha, eps_ref, max_iters, j_tol,
    stationarity_tol, config_seed,
):
    # a valid config written as JSON loads back as the same problem and options
    rng = np.random.default_rng(seed)
    draw = random_hermitian if complex_hermitian else random_symmetric
    h0, mu, observable = (draw(rng, dim).matrix for _ in range(3))
    psi0 = random_state(rng, dim).amplitudes
    n_steps = index_T + extra
    samples = (
        rng.uniform(-5.0, 5.0, n_steps) if eps_ref == "samples" else np.full(n_steps, eps_ref)
    )
    raw = {
        "dimension": dim,
        "h0": as_pairs_matrix(h0),
        "mu": as_pairs_matrix(mu),
        "observable": as_pairs_matrix(observable),
        "psi0": as_pairs_vector(psi0),
        "T": index_T * dt,
        "T_hat": n_steps * dt,
        "dt": dt,
        "alpha": alpha,
        "eps_ref": {"samples": samples.tolist()} if eps_ref == "samples" else {"constant": eps_ref},
        "max_iters": max_iters,
        "j_tol": j_tol,
        "stationarity_tol": stationarity_tol,
        "seed": config_seed,
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        config = cli.ProblemConfig.from_file(path)
    problem = config.problem
    H = problem.hamiltonian
    for got, want in [
        (H.drift.matrix, h0), (H.coupling.matrix, mu), (problem.observable.matrix, observable),
        (problem.psi0.amplitudes, psi0), (problem.eps_ref.samples, samples),
    ]:
        assert np.array_equal(got, want)
    assert problem.grid == qoct.TimeGrid(dt=dt, n_steps=n_steps, index_T=index_T)
    assert (problem.alpha, config.max_iters, config.j_tol, config.stationarity_tol, config.seed) == (
        alpha, max_iters, j_tol, stationarity_tol, config_seed
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 6),
    complex_hermitian=st.booleans(),
    scale=st.integers(-12, 12).map(lambda e: 10.0**e),
    dt=st.integers(-6, 2).map(lambda e: 10.0**e),
    index_T=st.integers(1, 30),
    extra=st.integers(1, 10),
    alpha=st.integers(-12, 308).map(lambda e: 10.0**e),
    eps_ref=st.one_of(
        st.just(0.0), st.tuples(st.sampled_from([-1.0, 1.0]), st.integers(-12, 12)).map(
            lambda se: se[0] * 10.0 ** se[1]
        ),
    ),
    max_iters=st.integers(1, 3),
    h=st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
    field_exp=st.floats(-12.0, 20.0),
)
def test_no_config_ends_in_a_traceback_or_a_non_finite_output(
    seed, dim, complex_hermitian, scale, dt, index_T, extra, alpha, eps_ref, max_iters, h,
    field_exp,
):
    # every subcommand ends in exit 0, 1 or 2 on any config of the schema,
    # extreme but finite values included, gradcheck on any probe step h,
    # log-uniform over 1e-300 ... 1e300, and propagate on any field whose
    # samples have both signs and magnitudes log-uniform over the three
    # decades below 10^field_exp; exit 1 names the offending field
    # (gradcheck's h and propagate's field among them), and nothing it
    # writes holds NaN or an infinity
    rng = np.random.default_rng(seed)
    draw = random_hermitian if complex_hermitian else random_symmetric
    h0, mu, observable = (scale * draw(rng, dim).matrix for _ in range(3))
    raw = {
        "dimension": dim,
        "h0": as_pairs_matrix(h0),
        "mu": as_pairs_matrix(mu),
        "observable": as_pairs_matrix(observable),
        "psi0": as_pairs_vector(random_state(rng, dim).amplitudes),
        "T": index_T * dt,
        "T_hat": (index_T + extra) * dt,
        "dt": dt,
        "alpha": alpha,
        "eps_ref": {"constant": eps_ref},
        "max_iters": max_iters,
        "seed": seed,
    }
    n_steps = index_T + extra
    magnitudes = 10.0 ** (field_exp - 3.0 * rng.random(n_steps))
    samples = rng.choice([-1.0, 1.0], n_steps) * magnitudes
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        field = Path(tmp) / "field.csv"
        field.write_text(
            "t,eps\n" + "".join(f"{k * dt!r},{x!r}\n" for k, x in enumerate(samples.tolist())),
            encoding="utf-8",
        )
        for command, options, fields in (
            ("verify", [], cli._CONFIG_FIELDS),
            ("optimize", [], cli._CONFIG_FIELDS),
            ("gradcheck", ["--h", repr(h)], cli._CONFIG_FIELDS | {"h"}),
            ("propagate", ["--field", str(field)], cli._CONFIG_FIELDS | {"field"}),
        ):
            out = Path(tmp) / command
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main([command, "--config", str(config), "--out", str(out), *options])
            assert code in (0, 1, 2), command
            if code == 1:
                named = re.match(r"config error: (\w+): ", err.getvalue())
                assert named and named[1] in fields, (command, err.getvalue())
            if out.exists():
                assert finite_outputs(out), command
