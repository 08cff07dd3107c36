import dataclasses
import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest
import scipy.linalg

import qoct
from qoct import gradient, propagator
from qoct.gradient import _law_gap
from qoct.propagator import (
    _adjoint, _du_stack, _field_series, _march_forward, _march_rows, _operators,
    _step_two_level, _taylor_plan,
)
from conftest import (
    level_projector,
    pauli_x,
    random_hermitian,
    random_state,
    random_symmetric,
    seeded_problem,
    u_stack,
)
from reference import Direction, step, step_control_derivative, step_matrix


def free_hamiltonian(dim: int = 2) -> qoct.ControlHamiltonian:
    """Zero drift with sigma_x-like coupling (two-level unless stated)."""
    coupling = pauli_x() if dim == 2 else qoct.HermitianOperator(np.eye(dim))
    return qoct.ControlHamiltonian(
        drift=qoct.HermitianOperator(np.zeros((dim, dim))), coupling=coupling
    )


class TestStep:
    def test_quarter_turn_closed_form(self):
        # exp(-i theta sigma_x) = cos(theta) I - i sin(theta) sigma_x at theta = pi/2
        psi = step(qoct.StateVector([1, 0]), free_hamiltonian(), np.pi / 2, 1.0)
        assert np.allclose(psi.amplitudes, [0.0, -1.0j], atol=1e-15)

    def test_backward_inverts_forward(self):
        rng = np.random.default_rng(10)
        for dim in (2, 3, 4):
            H = qoct.ControlHamiltonian(
                drift=random_symmetric(rng, dim), coupling=random_symmetric(rng, dim)
            )
            psi = random_state(rng, dim)
            eps, dt = float(rng.uniform(-2, 2)), float(rng.uniform(0.01, 0.5))
            roundtrip = step(
                step(psi, H, eps, dt, Direction.FORWARD), H, eps, dt, Direction.BACKWARD
            )
            assert np.linalg.norm(roundtrip.amplitudes - psi.amplitudes) < 1e-13

    def test_stationary_eigenstate(self):
        H = qoct.ControlHamiltonian(
            drift=level_projector(), coupling=qoct.HermitianOperator(np.zeros((2, 2)))
        )
        psi = step(qoct.StateVector([1, 0]), H, 0.0, 0.7)
        assert np.allclose(psi.amplitudes, [1.0, 0.0], atol=1e-15)

    def test_norm_preserved_per_step(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            H = qoct.ControlHamiltonian(
                drift=random_symmetric(rng, dim), coupling=random_symmetric(rng, dim)
            )
            psi = step(random_state(rng, dim), H, float(rng.uniform(-3, 3)), 0.3)
            assert abs(psi.norm - 1.0) < 1e-13

    def test_matches_dense_matrix_exponential(self):
        # independent oracle: scipy's expm on the same Hermitian matrix
        rng = np.random.default_rng(12)
        for dim in (2, 3, 4):
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            drift = qoct.HermitianOperator((a + a.conj().T) / 2)
            H = qoct.ControlHamiltonian(drift=drift, coupling=random_symmetric(rng, dim))
            eps, dt = 0.37, 0.11
            u = step_matrix(H, eps, dt, Direction.FORWARD)
            u_ref = scipy.linalg.expm(-1j * H.evaluate(eps) * dt)
            assert np.max(np.abs(u - u_ref)) < 1e-13
            ub = step_matrix(H, eps, dt, Direction.BACKWARD)
            assert np.max(np.abs(ub - u_ref.conj().T)) < 1e-13

    def test_rejects_nonfinite_field(self):
        with pytest.raises(ValueError, match="finite"):
            step(qoct.StateVector([1, 0]), free_hamiltonian(), np.nan, 0.1)


class TestPropagateForward:
    def test_rabi_oscillation(self):
        # constant unit drive on sigma_x: P1(t) = sin^2(t), exact for the
        # piecewise-constant propagator since all steps commute
        t_half_pi = np.pi / 2
        dt = t_half_pi / 50
        grid = qoct.TimeGrid(dt=dt, n_steps=50, index_T=40)
        traj = qoct.propagate_forward(
            qoct.StateVector([1, 0]),
            qoct.ControlField.constant(1.0, 50),
            free_hamiltonian(),
            grid,
        )
        populations = np.abs(traj.states[:, 1]) ** 2
        assert np.max(np.abs(populations - np.sin(grid.times) ** 2)) < 1e-12
        assert np.linalg.norm(traj.states[-1] - np.array([0.0, -1.0j])) < 1e-12

    def test_eigenstate_phase_evolution(self):
        H = qoct.ControlHamiltonian(drift=level_projector(), coupling=pauli_x())
        grid = qoct.TimeGrid(dt=0.05, n_steps=60, index_T=40)
        traj = qoct.propagate_forward(
            qoct.StateVector([0, 1]), qoct.ControlField.constant(0.0, 60), H, grid
        )
        expected = np.exp(-1j * grid.times)
        assert np.max(np.abs(traj.states[:, 1] - expected)) < 1e-12
        assert np.max(np.abs(traj.states[:, 0])) == 0.0

    def test_unit_norm_at_every_node(self):
        for seed, dim, n_steps, alpha in [(1, 2, 100, 1.0), (2, 3, 100, 1.0), (3, 4, 100, 1.0)]:
            problem, field = seeded_problem(seed, dim, n_steps, alpha)
            traj = qoct.propagate_forward(problem.psi0, field, problem.hamiltonian, problem.grid)
            norms = np.linalg.norm(traj.states, axis=1)
            assert np.max(np.abs(norms - 1.0)) < 1e-11

    def test_requires_normalized_start(self):
        grid = qoct.TimeGrid(dt=0.1, n_steps=5, index_T=3)
        with pytest.raises(ValueError, match="not normalized"):
            qoct.propagate_forward(
                qoct.StateVector([1.0, 1.0]),
                qoct.ControlField.constant(0.0, 5),
                free_hamiltonian(),
                grid,
            )


class TestPropagateCostate:
    def test_canonical_jump_values(self):
        # psi stays at (1,1)/sqrt(2) under zero drift and zero field
        grid = qoct.TimeGrid(dt=0.1, n_steps=10, index_T=6)
        psi0 = qoct.StateVector([1 / np.sqrt(2), 1 / np.sqrt(2)])
        field = qoct.ControlField.constant(0.0, 10)
        traj = qoct.propagate_forward(psi0, field, free_hamiltonian(), grid)
        chi = qoct.propagate_costate(
            traj, level_projector(), field, free_hamiltonian(), grid,
            qoct.CostateBoundary.canonical(),
        )
        assert np.allclose(chi.chi_T_minus, [0.0, 1 / np.sqrt(2)], atol=1e-15)
        assert np.array_equal(chi.chi_T_plus, [0.0, 0.0])
        assert not chi.states[grid.index_T:].any()
        assert chi.jump_norm == pytest.approx(1 / np.sqrt(2), abs=1e-15)

    def test_zero_observable_gives_zero_costate(self):
        problem, field = seeded_problem(20, 2, 30, 1.0)
        traj = qoct.propagate_forward(problem.psi0, field, problem.hamiltonian, problem.grid)
        chi = qoct.propagate_costate(
            traj, qoct.HermitianOperator(np.zeros((2, 2))), field, problem.hamiltonian,
            problem.grid, qoct.CostateBoundary.canonical(),
        )
        assert not chi.states.any()
        assert chi.jump_norm == 0.0

    def test_canonical_backward_norm_constant(self):
        problem, field = seeded_problem(21, 3, 80, 1.0)
        traj = qoct.propagate_forward(problem.psi0, field, problem.hamiltonian, problem.grid)
        chi = qoct.propagate_costate(
            traj, problem.observable, field, problem.hamiltonian, problem.grid,
            qoct.CostateBoundary.canonical(),
        )
        assert abs(
            np.linalg.norm(chi.states[0]) - np.linalg.norm(chi.chi_T_minus)
        ) < 1e-11
        source = problem.observable.matrix @ traj.node(problem.grid.index_T)
        assert chi.jump_norm == np.linalg.norm(source)

    def test_continuous_identity_observable(self):
        problem, field = seeded_problem(22, 2, 40, 1.0)
        traj = qoct.propagate_forward(problem.psi0, field, problem.hamiltonian, problem.grid)
        chi = qoct.propagate_costate(
            traj, qoct.HermitianOperator(np.eye(2)), field, problem.hamiltonian, problem.grid,
            qoct.CostateBoundary.continuous(1),
        )
        m = problem.grid.index_T
        expected = (1j / (2 * np.pi)) * traj.node(m)
        assert np.allclose(chi.node(m), expected, atol=1e-15)
        assert np.array_equal(chi.chi_T_minus, chi.chi_T_plus)
        assert chi.jump_norm == 0.0

    def test_continuous_scaling_with_n(self):
        problem, field = seeded_problem(23, 3, 40, 1.0)
        traj = qoct.propagate_forward(problem.psi0, field, problem.hamiltonian, problem.grid)
        chi1 = qoct.propagate_costate(
            traj, problem.observable, field, problem.hamiltonian, problem.grid,
            qoct.CostateBoundary.continuous(1),
        )
        chi2 = qoct.propagate_costate(
            traj, problem.observable, field, problem.hamiltonian, problem.grid,
            qoct.CostateBoundary.continuous(2),
        )
        m = problem.grid.index_T
        assert np.allclose(chi2.node(m), chi1.node(m) / 2.0, atol=1e-16)

    def test_continuous_rejects_n_zero(self):
        with pytest.raises(ValueError, match="nonzero integer"):
            qoct.CostateBoundary.continuous(0)

    @pytest.mark.parametrize("n", [True, False, 2.0, np.int64(0)])
    def test_continuous_rejects_bool_float_and_zero(self, n):
        with pytest.raises(ValueError, match="nonzero integer"):
            qoct.CostateBoundary.continuous(n)

    def test_rejects_inconsistent_trajectory(self):
        problem, field = seeded_problem(24, 2, 30, 1.0)
        traj = qoct.propagate_forward(problem.psi0, field, problem.hamiltonian, problem.grid)
        corrupted = np.array(traj.states)
        corrupted[15] = [0.0, 1.0]
        with pytest.raises(ValueError, match="residual"):
            qoct.propagate_costate(
                qoct.StateTrajectory(corrupted), problem.observable, field,
                problem.hamiltonian, problem.grid, qoct.CostateBoundary.canonical(),
            )


class TestConjugationSymmetry:
    def test_backward_stepper_tracks_conjugate(self):
        # real drift and coupling: conj(forward trajectory) solves the
        # sign-flipped equation, stepped by Backward run forward in time
        problem, field = seeded_problem(25, 3, 60, 1.0)
        H, grid = problem.hamiltonian, problem.grid
        traj = qoct.propagate_forward(problem.psi0, field, H, grid)
        phi = qoct.StateVector(problem.psi0.amplitudes.conj())
        worst = 0.0
        for k in range(grid.n_steps):
            phi = step(phi, H, float(field.samples[k]), grid.dt, Direction.BACKWARD)
            worst = max(worst, np.linalg.norm(phi.amplitudes - traj.node(k + 1).conj()))
        assert worst < 1e-12


def step_matrices(H, samples, dt):
    """The forward reference steps ``step_matrix`` (complex eigh) at every sample, stacked."""
    return np.array([step_matrix(H, float(eps), dt, Direction.FORWARD) for eps in samples])


def march_by_step(x0, H, samples, dt, direction):
    """Nodes of a per-step march with qoct.step, in the order the steps are applied."""
    nodes = [np.asarray(x0, dtype=complex)]
    for eps in samples:
        nodes.append(step(qoct.StateVector(nodes[-1]), H, float(eps), dt, direction).amplitudes)
    return np.array(nodes)


class TestComplexHermitian:
    @pytest.mark.parametrize("dim", [2, 4])
    def test_row_march_is_the_conjugate_backward_step_march(self, dim):
        # r_{k+1} = r_k U_k on the stack as it is conjugates the march of the
        # backward steps U_k^dagger from conj(r_0), bitwise, and matches the
        # per-step backward stepper; complex-Hermitian U is not symmetric
        rng = np.random.default_rng(31 + dim)
        H = qoct.ControlHamiltonian(
            drift=random_hermitian(rng, dim), coupling=random_hermitian(rng, dim)
        )
        samples = rng.uniform(-1.5, 1.5, 40)
        us = u_stack(H, samples, 0.07)
        r0 = random_state(rng, dim).amplitudes
        rows = _march_rows(us, r0)
        assert np.array_equal(rows.conj(), _march_forward(_adjoint(us), r0.conj()))
        ref = march_by_step(r0.conj(), H, samples, 0.07, Direction.BACKWARD)
        assert np.max(np.abs(rows.conj() - ref)) < 1e-12

    def test_propagators_match_per_step_march(self):
        # complex-Hermitian H has a non-symmetric U, so U^dagger differs
        # from conj(U); both dims step the field series, against eigh steps
        rng = np.random.default_rng(30)
        for dim in (2, 4):
            H = qoct.ControlHamiltonian(
                drift=random_hermitian(rng, dim), coupling=random_hermitian(rng, dim)
            )
            O = random_hermitian(rng, dim)
            psi0 = random_state(rng, dim)
            grid = qoct.TimeGrid(dt=0.07, n_steps=40, index_T=29)
            field = qoct.ControlField(rng.uniform(-1.5, 1.5, 40))
            m, eps = grid.index_T, field.samples

            traj = qoct.propagate_forward(psi0, field, H, grid)
            ref = march_by_step(psi0.amplitudes, H, eps, grid.dt, Direction.FORWARD)
            assert np.max(np.abs(traj.states - ref)) < 1e-12

            source = O.matrix @ traj.node(m)
            chi = qoct.propagate_costate(traj, O, field, H, grid, qoct.CostateBoundary.canonical())
            back = march_by_step(source, H, eps[:m][::-1], grid.dt, Direction.BACKWARD)[::-1]
            assert np.max(np.abs(chi.states[:m] - back[:m])) < 1e-12
            assert not chi.states[m:].any()

            value = (1j / (2.0 * np.pi)) * source
            chi = qoct.propagate_costate(traj, O, field, H, grid, qoct.CostateBoundary.continuous(1))
            back = march_by_step(value, H, eps[:m][::-1], grid.dt, Direction.BACKWARD)[::-1]
            ahead = march_by_step(value, H, eps[m:], grid.dt, Direction.FORWARD)
            assert np.max(np.abs(chi.states[:m] - back[:m])) < 1e-12
            assert np.max(np.abs(chi.states[m:] - ahead)) < 1e-12

    def test_step_control_derivative_matches_frechet(self):
        # independent oracle: scipy's Frechet derivative of expm(-i H dt)
        # in the direction -i mu dt
        rng = np.random.default_rng(31)
        dt = 0.07
        for dim in (2, 4, 8):
            H = qoct.ControlHamiltonian(
                drift=random_hermitian(rng, dim), coupling=random_hermitian(rng, dim)
            )
            for eps in rng.uniform(-1.5, 1.5, 3):
                du = step_control_derivative(H, float(eps), dt)
                ref = scipy.linalg.expm_frechet(
                    -1j * H.evaluate(eps) * dt, -1j * H.control_derivative * dt,
                    compute_expm=False,
                )
                assert np.max(np.abs(du - ref)) < 1e-12


class TestRealSymmetric:
    """The real-arithmetic stacks pinned to the complex per-sample reference routes."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_u_stack_matches_step_matrix_and_is_unitary(self, dim):
        rng = np.random.default_rng(36 + dim)
        H = qoct.ControlHamiltonian(
            drift=random_symmetric(rng, dim), coupling=random_symmetric(rng, dim)
        )
        samples, dt = rng.uniform(-1.5, 1.5, 30), 0.07
        assert _operators(H)[0].dtype == np.float64
        us = u_stack(H, samples, dt)
        assert np.max(np.abs(us - step_matrices(H, samples, dt))) <= 1e-14
        assert np.max(np.abs(us @ _adjoint(us) - np.eye(dim))) <= 1e-14

    @pytest.mark.parametrize("complex_hermitian", [False, True])
    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_pairing_rows_match_step_control_derivative(self, dim, complex_hermitian):
        problem, field = seeded_problem(40 + dim, dim, 30, 1.0, complex_hermitian=complex_hermitian)
        H, grid = problem.hamiltonian, problem.grid
        m, dt = grid.index_T, grid.dt
        sol = qoct.solve(problem, field, qoct.CostateBoundary.canonical())
        chi = sol.chi
        du = _du_stack(H, field.samples[:m], dt)
        rows = _law_gap(du, sol.psi, chi, field, problem.eps_ref, problem.alpha, dt)[0]
        chi_next = np.concatenate([chi.states[1:m], chi.chi_T_minus[None, :]])
        ref = np.array([
            chi_next[k].conj() @ step_control_derivative(H, eps, dt) / dt
            for k, eps in enumerate(field.samples[:m])
        ])
        assert np.max(np.abs(rows - ref)) <= 1e-13


class TestTaylorExponential:
    """The stack kernel at every dimension pinned to ``step_matrix`` in both dtypes.

    A stack (``_stacks``' U) reads one ``_field_series`` over the stack's samples, up to
    its squaring branch.
    """

    NORMS = [0.0, 1e-3, 0.1, 0.5, 2.0, 10.0, 50.0]

    @staticmethod
    def problem(draw, dim, norm, tau, seed):
        """(H, samples): 20 samples whose largest ||H(eps_k) tau||_1 is ``norm``."""
        rng = np.random.default_rng(seed)
        drift, coupling = draw(rng, dim).matrix, draw(rng, dim).matrix
        samples = rng.uniform(-2.0, 2.0, 20)
        h = drift + samples[:, None, None] * coupling
        scale = norm / (tau * np.abs(h).sum(axis=-2).max())
        H = qoct.ControlHamiltonian(
            drift=qoct.HermitianOperator(scale * drift),
            coupling=qoct.HermitianOperator(scale * coupling),
        )
        return H, samples

    @pytest.mark.parametrize("draw", [random_symmetric, random_hermitian])
    @pytest.mark.parametrize("dim", [2, 3, 8, 16])
    def test_matches_eigenbasis_route_and_is_unitary(self, draw, dim):
        tau = 0.3
        for j, norm in enumerate(self.NORMS):
            H, samples = self.problem(draw, dim, norm, tau, 100 * dim + j)
            ref = step_matrices(H, samples, tau)
            u = u_stack(H, samples, tau)
            assert u.dtype == np.complex128 and u.shape == (samples.size, dim, dim)
            assert np.max(np.abs(u - ref)) <= 1e-14 * max(1.0, norm)
            assert np.max(np.abs(u @ _adjoint(u) - np.eye(dim))) <= 1e-13

    @pytest.mark.parametrize("dt", [0.05, 0.5])
    @pytest.mark.parametrize("complex_hermitian", [False, True])
    @pytest.mark.parametrize("dim", [2, 3, 8, 16])
    def test_stack_takes_each_squaring_count(self, monkeypatch, dim, complex_hermitian, dt):
        # a probe field at five doublings of its range takes the stack's
        # squarings an odd and an even number of times in every case (0 to 9
        # over all cases): an odd count ends in the scratch buffer, an even
        # one in the stack's own. The count is the plan of the range's ends
        problem, field = seeded_problem(
            48 + dim, dim, 60, 1.0, dt=dt, complex_hermitian=complex_hermitian
        )
        H = problem.hamiltonian
        build, taken = propagator._field_series, []

        def spying(H, dt, bound):
            series = build(H, dt, bound)
            taken.append(series.s)
            return series

        monkeypatch.setattr(propagator, "_field_series", spying)
        for scale in (2.0, 4.0, 8.0, 16.0, 32.0):
            samples = scale * field.samples
            bound = np.max(np.abs(samples))
            norm = max(np.linalg.norm(H.evaluate(e) * dt, 1) for e in (bound, -bound))
            u = u_stack(H, samples, dt)
            assert taken[-1] == _taylor_plan(norm)[0]
            ref = step_matrices(H, samples, dt)
            assert u.dtype == np.complex128 and u.shape == (samples.size, dim, dim)
            assert np.max(np.abs(u - ref)) <= 1e-14 * max(1.0, norm)
            assert np.max(np.abs(u @ _adjoint(u) - np.eye(dim))) <= 1e-14 * max(1.0, norm)
        assert len(taken) == 5 and {s % 2 for s in taken} == {0, 1}

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_identity_multiple_zero_and_empty(self, dtype):
        # H(eps) = eps J with J = I - 2 v v^dagger an involution, so
        # exp(-i eps tau J) = cos(eps tau) I - i sin(eps tau) J; the float64
        # case takes v = 0 (J = I), the complex128 case a complex unit v
        tau, dim = 0.7, 5
        rng = np.random.default_rng(38)
        v = np.zeros(dim) if dtype is np.float64 else random_state(rng, dim).amplitudes
        j = np.eye(dim) - 2.0 * np.outer(v, v.conj())
        H = qoct.ControlHamiltonian(
            drift=qoct.HermitianOperator(np.zeros((dim, dim))), coupling=qoct.HermitianOperator(j)
        )
        assert _operators(H)[0].dtype == dtype
        c = np.array([0.0, 1e-3, -0.4, 3.0, -60.0])
        u = u_stack(H, c, tau)
        x = (c * tau)[:, None, None]
        ref = np.cos(x) * np.eye(dim) - 1j * np.sin(x) * j
        assert np.max(np.abs(u - ref)) <= 1e-14 * max(1.0, 60.0 * tau)
        # zero samples with zero drift give the identity exactly: the series'
        # constant term is I and every other term is weighted by 0^j = 0
        zero = u_stack(H, np.zeros(3), tau)
        assert np.array_equal(zero, np.broadcast_to(np.eye(dim), zero.shape))
        empty = u_stack(H, np.zeros(0), tau)
        assert empty.shape == (0, dim, dim) and empty.dtype == np.complex128

    def test_plan_bounds_the_remainder(self):
        # s halves the norm to 1 or below; p is the least degree >= 3 whose
        # remainder bound 2 theta^(p+1) / (p+1)! is at most 2^-53, and the
        # remainder itself, summed term by term, is within that bound
        for norm in [0.0, 1e-3, 0.1, 0.5, 0.75, 1.0, 1.0000001, 2.0, 10.0, 50.0, 1e4]:
            s, p = _taylor_plan(norm)
            theta = norm / 2.0 ** s
            assert theta <= 1.0 and (s == 0 or theta > 0.5) and p <= 18
            bound = lambda q: 2 * theta ** (q + 1) / math.factorial(q + 1)
            assert bound(p) <= 2.0 ** -53 and (p == 3 or bound(p - 1) > 2.0 ** -53)
            remainder = math.fsum(theta ** j / math.factorial(j) for j in range(p + 1, p + 40))
            assert remainder <= 2.0 ** -53
        assert _taylor_plan(1.0)[0] == 0 and _taylor_plan(1.0000001)[0] == 1

    def test_rejects_non_finite_stack(self):
        rng = np.random.default_rng(37)
        H = qoct.ControlHamiltonian(
            drift=random_symmetric(rng, 3), coupling=random_symmetric(rng, 3)
        )
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="non-finite"):
                u_stack(H, np.array([0.1, bad]), 0.1)

    def test_refuses_a_step_phase_past_the_bound(self):
        # past 2^53 no double fixes a step's phase: no stack is built there
        rng = np.random.default_rng(38)
        H = qoct.ControlHamiltonian(
            drift=random_symmetric(rng, 3), coupling=random_symmetric(rng, 3)
        )
        dt = 0.1
        eps = 2.0 * propagator.MAX_STEP_PHASE / (dt * np.linalg.norm(H.coupling.matrix, 1))
        with pytest.raises(ValueError, match="> 9.007e"):
            u_stack(H, np.array([0.1, eps]), dt)


class TestSeriesDerivative:
    """``_du_stack`` at every dimension pinned to two independent references.

    The eigenbasis divided difference of ``step_control_derivative`` and
    scipy's Frechet derivative of expm(-i H dt) in the direction -i mu dt,
    at every sample of a stack that holds 0 and both ends of its range,
    with and without squarings.
    """

    @staticmethod
    def assert_matches(H, samples, dt, tol):
        """Every dU_k/deps of the stack within tol of both references."""
        du = _du_stack(H, samples, dt)
        assert du.dtype == np.complex128 and du.shape == (samples.size, H.dim, H.dim)
        for eps, d in zip(samples, du):
            ref = step_control_derivative(H, float(eps), dt)
            frechet = scipy.linalg.expm_frechet(
                -1j * H.evaluate(eps) * dt, -1j * H.control_derivative * dt,
                compute_expm=False,
            )
            assert np.max(np.abs(d - ref)) <= tol
            assert np.max(np.abs(d - frechet)) <= tol

    @pytest.mark.parametrize("draw", [random_symmetric, random_hermitian])
    @pytest.mark.parametrize("dim", [3, 8, 16])
    def test_matches_step_control_derivative_and_frechet(self, draw, dim):
        rng = np.random.default_rng(220 + dim)
        H = qoct.ControlHamiltonian(drift=draw(rng, dim), coupling=draw(rng, dim))
        bound = 3.0
        samples = np.concatenate([[0.0, bound, -bound], rng.uniform(-bound, bound, 5)])
        squarings = set()
        for dt in (0.005, 0.1, 0.5, 2.0):
            norm = max(np.linalg.norm(H.evaluate(eps) * dt, 1) for eps in (bound, -bound))
            squarings.add(_taylor_plan(norm)[0])
            self.assert_matches(H, samples, dt, 1e-13 * max(1.0, norm))
        assert min(squarings) == 0 and max(squarings) >= 5

    @pytest.mark.parametrize("largest", [1e-310, 1e-300, 2.0 ** -70])
    @pytest.mark.parametrize("draw", [random_symmetric, random_hermitian])
    @pytest.mark.parametrize("dim", [2, 4])
    def test_tiny_fields_take_the_zero_fields_range(self, dim, draw, largest):
        # a largest |eps| below 2^-64 gets the series range 1, as the zero
        # field does: a range of its own size scaled P' past the largest
        # double near the subnormals, where dU was NaN
        rng = np.random.default_rng(230 + dim)
        H = qoct.ControlHamiltonian(drift=draw(rng, dim), coupling=draw(rng, dim))
        samples = largest * np.array([0.0, 1.0, -1.0, 0.37])
        self.assert_matches(H, samples, 0.1, 1e-14)

    def test_two_level_random_complex_hermitian(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            H = qoct.ControlHamiltonian(
                drift=random_hermitian(rng, 2), coupling=random_hermitian(rng, 2)
            )
            self.assert_matches(H, rng.uniform(-1.5, 1.5, 5), float(rng.uniform(0.01, 0.5)), 1e-14)

    def test_two_level_identity_multiples(self):
        # at eps = 0 a drift 0.7 I gives h proportional to I, and small
        # splittings put |n| dt either side of 0.01; couplings generic and
        # proportional to I
        rng = np.random.default_rng(35)
        dt = 0.05
        for split in (0.0, 0.0099 / dt, 0.0101 / dt):
            drift = qoct.HermitianOperator(np.diag([0.7 + split, 0.7 - split]))
            for coupling in (random_hermitian(rng, 2), qoct.HermitianOperator(0.4 * np.eye(2))):
                H = qoct.ControlHamiltonian(drift=drift, coupling=coupling)
                self.assert_matches(H, np.array([0.0, 0.5, -1.5]), dt, 1e-14)


class TestUnsquaredBand:
    """Stacks whose ||H dt||_1 lies in (1/2, 1] take no squaring, U and dU alike.

    The plan halves dt until theta <= 1, so this band evaluates its series
    with no squaring; each stack here must still match the eigenpair
    reference routes and scipy within the bounds the squaring branch keeps.
    """

    NORMS = [0.55, 0.75, 1.0]

    @staticmethod
    def problem(draw, dim, norm, dt, seed):
        """(H, samples) whose range's largest ||H(eps) dt||_1, as ``_field_series`` forms it, is ``norm``.

        The samples hold both ends of their range, so the stack's range is
        theirs; the scale steps down by ulps until round-off keeps the plan's
        norm at most ``norm``, never past it.
        """
        rng = np.random.default_rng(seed)
        drift, coupling = draw(rng, dim).matrix, draw(rng, dim).matrix
        samples = np.concatenate([[-2.0, 2.0, 0.0], rng.uniform(-2.0, 2.0, 17)])
        scale = norm / max(np.linalg.norm((drift + e * coupling) * dt, 1) for e in (2.0, -2.0))
        while True:
            H = qoct.ControlHamiltonian(
                drift=qoct.HermitianOperator(scale * drift),
                coupling=qoct.HermitianOperator(scale * coupling),
            )
            h0, mu = _operators(H)
            got = max(np.linalg.norm(h0 + e * mu, 1) for e in (2.0, -2.0)) * dt
            if got <= norm:
                assert got >= norm * (1.0 - 1e-14)
                return H, samples
            scale = np.nextafter(scale, 0.0)

    @pytest.mark.parametrize("draw", [random_symmetric, random_hermitian])
    @pytest.mark.parametrize("dim", [2, 3, 8, 16])
    def test_takes_no_squaring_and_matches_the_references(self, monkeypatch, draw, dim):
        build, taken = propagator._field_series, []

        def spying(H, dt, bound):
            series = build(H, dt, bound)
            taken.append(series.s)
            return series

        monkeypatch.setattr(propagator, "_field_series", spying)
        dt = 0.3
        for j, norm in enumerate(self.NORMS):
            H, samples = self.problem(draw, dim, norm, dt, 300 + 10 * dim + j)
            assert _operators(H)[0].dtype == (np.float64 if draw is random_symmetric else np.complex128)
            taken.clear()
            u = u_stack(H, samples, dt)
            assert taken == [0]
            assert u.dtype == np.complex128 and u.shape == (samples.size, dim, dim)
            assert np.max(np.abs(u - step_matrices(H, samples, dt))) <= 1e-14 * max(1.0, norm)
            ref = np.array([scipy.linalg.expm(-1j * H.evaluate(eps) * dt) for eps in samples])
            assert np.max(np.abs(u - ref)) <= 1e-14 * max(1.0, norm)
            assert np.max(np.abs(u @ _adjoint(u) - np.eye(dim))) <= 1e-13
            # dU from its own series over the same range: no squaring either
            TestSeriesDerivative.assert_matches(H, samples, dt, 1e-14 * max(1.0, norm))
            assert taken == [0, 0]


def vander_stacks(H, samples, dt, n_du, u, series):
    """``_stacks`` of one series with its powers from ``np.vander``: the reference they pin."""
    bound, _, s, c = series
    p = len(c) - 1
    if not u:
        samples = samples[:n_du]
    powers = np.vander(samples / bound, p + 1, increasing=True)
    floats = propagator._floats
    du = None
    if n_du:
        du = np.empty((n_du, H.dim, H.dim), dtype=complex)
        scaled = floats(c)[1:] * (np.arange(1, p + 1) / bound)[:, None]
        np.matmul(powers[:n_du, :p], scaled, out=floats(du))
    x = np.empty((samples.size, H.dim, H.dim), dtype=complex)
    np.matmul(powers, floats(c), out=floats(x))
    for _ in range(s):
        if n_du:
            du = du @ x[:n_du] + x[:n_du] @ du
        x = x @ x
    return (x if u else None), du


class TestPowers:
    """``_stacks`` builds the powers u^j row by row, bitwise as ``np.vander`` lays them out."""

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_bitwise_the_vander_reference(self, dim, complex_):
        # ||H dt||_1 of the range at 0.3 (s = 0, a low degree), 0.9 (s = 0,
        # p >= 15, where a transposed operand of the product sums in another
        # order at odd dims) and 3 (s = 2); U with its derivatives, without,
        # and the derivatives alone, of n_du = n and n_du < n samples
        rng = np.random.default_rng(230 + dim)
        draw = random_hermitian if complex_ else random_symmetric
        H = qoct.ControlHamiltonian(drift=draw(rng, dim), coupling=draw(rng, dim))
        n = 300
        samples = rng.uniform(-1.5, 1.5, n)
        h0, mu = _operators(H)
        bound = np.max(np.abs(samples))
        norm = max(np.linalg.norm(h0 + e * mu, 1) for e in (bound, -bound))
        plans = set()
        for phase in (0.3, 0.9, 3.0):
            dt = phase / norm
            series = None
            for n_du, u in ((0, True), (n, True), (n // 3, True), (n // 3, False), (n, False)):
                us, du, series = propagator._stacks(H, samples, dt, n_du, u, series)
                ref_us, ref_du = vander_stacks(H, samples, dt, n_du, u, series)
                assert (us is None) == (ref_us is None) and (du is None) == (ref_du is None)
                if u:
                    assert us.tobytes() == ref_us.tobytes(), (phase, n_du)
                if n_du:
                    assert du.tobytes() == ref_du.tobytes(), (phase, n_du, u)
            plans.add((series.s, len(series.c) - 1))
        assert {s for s, _ in plans} == {0, 2}
        assert max(p for s, p in plans if s == 0) >= 15


class TestFieldSeries:
    """One series per field range, pinned to the per-matrix routes at every eps in the range."""

    @staticmethod
    def step(s, c, u):
        """(sum_j u^j C_j)^(2^s), by plain products."""
        x = np.tensordot(u ** np.arange(len(c)), c, 1)
        for _ in range(s):
            x = x @ x
        return x

    @pytest.mark.parametrize("draw", [random_symmetric, random_hermitian])
    @pytest.mark.parametrize("dim", [2, 3, 8, 16])
    @pytest.mark.parametrize("dt", [0.01, 0.5])
    def test_matches_eigh_route_and_scipy_across_the_range(self, draw, dim, dt):
        rng = np.random.default_rng(200 + dim)
        H = qoct.ControlHamiltonian(drift=draw(rng, dim), coupling=draw(rng, dim))
        bound = 1.7
        s, c = _field_series(H, dt, bound)[2:]
        assert c.shape[1:] == (dim, dim) and c.dtype == np.complex128
        for eps in (-bound, 0.0, bound, 0.61 * bound):
            u = self.step(s, c, eps / bound)
            h = H.evaluate(eps)
            tol = 1e-14 * max(1.0, np.linalg.norm(h * dt, 1))
            assert np.max(np.abs(u - step_matrix(H, eps, dt, Direction.FORWARD))) <= tol
            assert np.max(np.abs(u - scipy.linalg.expm(-1j * h * dt))) <= tol

    @pytest.mark.parametrize("draw", [random_symmetric, random_hermitian])
    @pytest.mark.parametrize("dim", [2, 3, 8, 16])
    @pytest.mark.parametrize("dt", [0.01, 0.5, 2.0])
    def test_holds_at_the_reach_edge(self, draw, dim, dt):
        # past the range, up to its reach, the plan (s, p) still bounds the
        # truncation, and the series is the exponential there
        rng = np.random.default_rng(200 + dim)
        H = qoct.ControlHamiltonian(drift=draw(rng, dim), coupling=draw(rng, dim))
        bound = 1.7
        series = _field_series(H, dt, bound)
        s, p = series.s, len(series.c) - 1
        assert bound < series.reach <= 2.0 * bound
        for eps in (-series.reach, series.reach):
            h = H.evaluate(eps)
            norm = np.linalg.norm(h * dt, 1)
            theta = norm / 2.0 ** s
            assert theta <= 1.0
            assert 2.0 * theta ** (p + 1) / math.factorial(p + 1) <= 2.0 ** -53 * (1.0 + 1e-12)
            u = self.step(s, series.c, eps / bound)
            tol = 1e-14 * max(1.0, norm)
            assert np.max(np.abs(u - scipy.linalg.expm(-1j * h * dt))) <= tol

    def test_reach_ends_where_the_plan_does(self):
        # a range whose plan has no room left past its ends reaches no further
        # than the range; one with room reaches past it
        rng = np.random.default_rng(213)
        H = qoct.ControlHamiltonian(
            drift=random_symmetric(rng, 3), coupling=random_symmetric(rng, 3)
        )
        dt = 0.1
        h0, mu = H.drift.matrix.real, H.coupling.matrix.real
        norm = lambda b: max(np.linalg.norm(h0 + e * mu, 1) for e in (b, -b)) * dt
        # the range whose norm is exactly 1: theta = 1 with no squaring
        lo, hi = 0.0, 100.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if norm(mid) <= 1.0 else (lo, mid)
        series = _field_series(H, dt, lo)
        assert series.s == 0 and series.reach - lo <= 1e-12 * lo
        assert _field_series(H, dt, 0.5 * lo).reach > 0.5 * lo

    def test_squaring_branch(self):
        # a range wide enough that ||H dt||_1 > 1 takes s > 0 squarings
        rng = np.random.default_rng(210)
        H = qoct.ControlHamiltonian(
            drift=random_hermitian(rng, 8), coupling=random_hermitian(rng, 8)
        )
        dt, bound = 0.5, 20.0
        s, c = _field_series(H, dt, bound)[2:]
        assert s >= 5
        for eps in (-bound, -3.0, 0.0, 0.25, bound):
            h = H.evaluate(eps)
            ref = scipy.linalg.expm(-1j * h * dt)
            tol = 1e-14 * max(1.0, np.linalg.norm(h * dt, 1))
            assert np.max(np.abs(self.step(s, c, eps / bound) - ref)) <= tol

    def test_zero_range_is_the_drift_step(self):
        # bound 0 leaves the field out: C_0 = exp(-i H0 dt) and no higher term
        rng = np.random.default_rng(211)
        H = qoct.ControlHamiltonian(
            drift=random_symmetric(rng, 4), coupling=random_symmetric(rng, 4)
        )
        s, c = _field_series(H, 0.3, 0.0)[2:]
        assert not c[1:].any()
        ref = scipy.linalg.expm(-0.3j * H.drift.matrix)
        assert np.max(np.abs(self.step(s, c, 0.0) - ref)) <= 1e-14

    def test_rejects_non_finite_range(self):
        rng = np.random.default_rng(212)
        H = qoct.ControlHamiltonian(
            drift=random_symmetric(rng, 3), coupling=random_symmetric(rng, 3)
        )
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="non-finite"):
                _field_series(H, 0.1, bad)


class TestTwoLevelScalarStep:
    """The scalar SU(2) step pinned to ``step_matrix`` (eigh) and to scipy."""

    @staticmethod
    def assert_matches(h, tau, psi):
        (a, b), (_, c) = h.tolist()
        p0, p1 = psi.tolist()
        q = np.array(_step_two_level(a.real, b, c.real, tau, p0, p1))
        # h as the drift at eps = 0; a negative tau is the backward step over |tau|
        H = qoct.ControlHamiltonian(
            drift=qoct.HermitianOperator(h), coupling=qoct.HermitianOperator(np.zeros((2, 2)))
        )
        direction = Direction.FORWARD if tau >= 0 else Direction.BACKWARD
        assert np.max(np.abs(q - step_matrix(H, 0.0, abs(tau), direction) @ psi)) < 1e-14
        assert np.max(np.abs(q - scipy.linalg.expm(-1j * h * tau) @ psi)) < 1e-14

    def test_random_complex_hermitian(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            tau = float(rng.uniform(-0.5, 0.5))
            self.assert_matches(
                random_hermitian(rng, 2).matrix, tau, random_state(rng, 2).amplitudes
            )

    def test_identity_multiple_and_diagonal(self):
        # h = 0.7 I has omega = 0, where sin(omega tau) / omega takes its
        # limit tau; a diagonal h has b = 0 with a nonzero splitting
        psi = random_state(np.random.default_rng(33), 2).amplitudes
        for h in (0.7 * np.eye(2), np.diag([1.3, -0.4])):
            self.assert_matches(h.astype(complex), 0.3, psi)


def dot_march(us, x0, rows=False):
    """The plain per-step ``ndarray.dot`` march: x_{k+1} = U_k x_k, or r_{k+1} = r_k U_k."""
    nodes = [np.asarray(x0, dtype=complex)]
    for u in us:
        nodes.append(nodes[-1].dot(u) if rows else u.dot(nodes[-1]))
    return np.array(nodes)


class TestChunkedMarch:
    """The marches write through a per-thread workspace of ``_CHUNK`` steps."""

    K = propagator._CHUNK
    LENGTHS = [1, K - 1, K, K + 1, 2 * K, 2000]

    @staticmethod
    def stack(dim, complex_, n, seed):
        rng = np.random.default_rng(seed)
        draw = random_hermitian if complex_ else random_symmetric
        H = qoct.ControlHamiltonian(drift=draw(rng, dim), coupling=draw(rng, dim))
        return u_stack(H, rng.uniform(-1.5, 1.5, n), 0.07), random_state(rng, dim).amplitudes

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_bitwise_the_per_step_dot_march(self, dim, complex_):
        us, x0 = self.stack(dim, complex_, max(self.LENGTHS), 140 + dim)
        for n in self.LENGTHS:
            # the head of the stack, its reversal (the costate's march) and its
            # tail (the continuous costate's march from T)
            for part in (us[:n], us[n - 1 :: -1], us[-n:]):
                assert _march_forward(part, x0).tobytes() == dot_march(part, x0).tobytes(), n
                assert _march_rows(part, x0).tobytes() == dot_march(part, x0, True).tobytes(), n

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_a_list_of_views_marches_as_the_stack(self, dim, complex_):
        # a kept solve's step views, whole or sliced as the marches slice
        # them, give bitwise the march over the stack they view, with rows
        # and without, on each side of a chunk boundary
        K = self.K
        us, x0 = self.stack(dim, complex_, K + 1, 145 + dim)
        steps = propagator._step_views(us)
        assert type(steps) is list and len(steps) == K + 1
        assert all(v.base is us and np.shares_memory(v, us[k]) for k, v in enumerate(steps))
        for n in (K - 1, K, K + 1):
            cases = [(steps[:n], us[:n]), (steps[n - 1 :: -1], us[n - 1 :: -1]), (steps[-n:], us[-n:])]
            if n == K + 1:
                cases.append((steps, us))
            for views, part in cases:
                for rows in (False, True):
                    marched = propagator._march(views, x0, rows)
                    assert marched.tobytes() == propagator._march(part, x0, rows).tobytes(), n
                    assert marched.tobytes() == dot_march(part, x0, rows).tobytes(), n

    @pytest.mark.parametrize("dim", [2, 8])
    def test_result_never_aliases_the_workspace(self, dim):
        # a later march at the same dimension leaves an earlier result as it
        # was, and the workspace stays K + 1 rows at any length
        us, x0 = self.stack(dim, True, 2000, 150 + dim)
        first = _march_forward(us, x0)
        rows = _march_rows(us[:300], x0)
        kept = first.copy(), rows.copy()
        for n in self.LENGTHS:
            _march_forward(us[-n:], x0[::-1].copy())
            _march_rows(us[-n:], x0[::-1].copy())
        assert first.tobytes() == kept[0].tobytes() and rows.tobytes() == kept[1].tobytes()
        assert propagator._workspace(dim)[0].shape == (self.K + 1, dim)

    def test_threads_march_on_their_own_workspaces(self):
        # threads marching different stacks at one dimension at once each get
        # their serial result; a shared workspace would mix their chunks
        # (4 threads on a 2-core host, with a short switch interval)
        stacks = [self.stack(8, k % 2 == 1, 2000, 160 + k) for k in range(4)]
        serial = [
            (dot_march(us, x0).tobytes(), dot_march(us, x0, True).tobytes()) for us, x0 in stacks
        ]
        results = [[] for _ in stacks]
        start = threading.Barrier(len(stacks))

        def worker(k):
            us, x0 = stacks[k]
            start.wait(timeout=10)
            for _ in range(20):
                results[k].append((_march_forward(us, x0).tobytes(), _march_rows(us, x0).tobytes()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(stacks))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for k, runs in enumerate(results):
            assert len(runs) == 20 and all(run == serial[k] for run in runs), k


class TestProbeMarch:
    """The probes' psi(T) read suffix products of the solved steps (``_march_probes``)."""

    @staticmethod
    def check_against_lone_marches(monkeypatch, dim, complex_, last, past):
        # T at node 1 (one probe pair, an empty suffix product) or at node
        # n - 1; each probe column steps off its solved node on its moved
        # step and then on every solved step up to T, one ndarray.dot each.
        # The moved steps come from the solved steps' series when h keeps
        # every eps_k +- h within its reach, else from a series of their own
        n, dt = 30, 0.07
        rng = np.random.default_rng(170 + dim)
        draw = random_hermitian if complex_ else random_symmetric
        H = qoct.ControlHamiltonian(drift=draw(rng, dim), coupling=draw(rng, dim))
        field = qoct.ControlField(rng.uniform(-1.5, 1.5, n))
        grid = qoct.TimeGrid(dt=dt, n_steps=n, index_T=n - 1 if last else 1)
        m = grid.index_T
        us, _, series = propagator._stacks(H, field.samples, dt)
        widest = np.max(np.abs(field.samples[:m]))
        h = series.reach - widest + 1e-3 if past else 1e-3
        assert (widest + h > series.reach) == past
        nodes = _march_forward(us, random_state(rng, dim).amplitudes)
        built = []

        def counting(*args):
            built.append(args[2])
            return build(*args)

        build = propagator._field_series
        monkeypatch.setattr(propagator, "_field_series", counting)
        probes = propagator._march_probes(nodes, us, H, field, grid, h, series)
        assert len(built) == past
        moved = u_stack(H, (field.samples[:m, None] + [h, -h]).ravel(), dt)
        alone = np.empty((dim, 2 * m), dtype=complex)
        for p in range(2 * m):
            k = p // 2
            alone[:, p] = dot_march(us[k + 1 : m], moved[p].dot(nodes[k]))[-1]
        assert probes.shape == (dim, 2 * m)
        assert np.max(np.abs(probes - alone)) <= 1e-13

    @pytest.mark.parametrize("last", [False, True])
    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_each_probe_as_if_marched_alone(self, monkeypatch, dim, complex_, last):
        self.check_against_lone_marches(monkeypatch, dim, complex_, last, past=False)

    @pytest.mark.parametrize("last", [False, True])
    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_probes_past_the_reach_take_their_own_series(self, monkeypatch, dim, complex_, last):
        self.check_against_lone_marches(monkeypatch, dim, complex_, last, past=True)


class TestTdseResidual:
    def test_zero_for_propagated_trajectory(self):
        problem, field = seeded_problem(26, 3, 50, 1.0)
        traj = qoct.propagate_forward(problem.psi0, field, problem.hamiltonian, problem.grid)
        assert qoct.tdse_residual(traj, field, problem.hamiltonian, problem.grid) == 0.0

    def test_detects_corrupted_node(self):
        problem, field = seeded_problem(5, 2, 50, 1.0)
        traj = qoct.propagate_forward(problem.psi0, field, problem.hamiltonian, problem.grid)
        rng = np.random.default_rng(5)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        corrupted = np.array(traj.states)
        corrupted[25] = v / np.linalg.norm(v)
        resid = qoct.tdse_residual(
            qoct.StateTrajectory(corrupted), field, problem.hamiltonian, problem.grid
        )
        assert resid > 0.1

    def test_minimal_grid_exact(self):
        grid = qoct.TimeGrid(dt=0.3, n_steps=2, index_T=1)
        field = qoct.ControlField.constant(0.8, 2)
        traj = qoct.propagate_forward(
            qoct.StateVector([1, 0]), field, free_hamiltonian(), grid
        )
        assert qoct.tdse_residual(traj, field, free_hamiltonian(), grid) == 0.0

    def test_length_mismatch(self):
        problem, field = seeded_problem(27, 2, 30, 1.0)
        traj = qoct.propagate_forward(problem.psi0, field, problem.hamiltonian, problem.grid)
        bad = qoct.ControlField.constant(0.0, 29)
        with pytest.raises(ValueError, match="samples"):
            qoct.tdse_residual(traj, bad, problem.hamiltonian, problem.grid)


def bits(value):
    """The value with every float as its bytes, so == compares bitwise."""
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if isinstance(value, float):
        return np.float64(value).tobytes()
    if dataclasses.is_dataclass(value):
        return tuple(bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    return value


class TestLastSolve:
    """``propagator``'s last forward solve: reused behind the public calls, never needed.

    Every forward solve is kept as one record of its trajectory, stack,
    series and step views, found by the identity of the field's samples
    and of H, and by dt; a solve from the same psi0 object is served whole.
    """

    N_STEPS = 40

    @pytest.fixture
    def built(self, monkeypatch):
        """Whole-grid forward stacks built and forward marches run since set-up.

        Only those of N_STEPS steps count: the probes' moved steps (2m) and
        the continuous costate's march from T are others.
        """
        counts = {"_stacks": 0, "_march_forward": 0}

        def counting(name):
            original = getattr(propagator, name)

            def wrapper(*args, **kwargs):
                steps = len(args[1]) if name == "_stacks" else len(args[0])
                if steps == self.N_STEPS and kwargs.get("u", True):
                    counts[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(propagator, name, wrapper)

        for name in counts:
            counting(name)
        return counts

    @staticmethod
    def public_calls(problem, field, sol):
        """Every public call that reads the field's stack or forward solve, by name."""
        H, O, grid = problem.hamiltonian, problem.observable, problem.grid
        calls = {
            f"continuous_family({n})": lambda n=n: qoct.check_continuous_family(
                sol.psi, O, field, H, grid, n
            )
            for n in (1, 2, -1)
        }
        for beta in (1.0, 0.3 + 0.7j):
            calls[f"conjugate({beta})"] = lambda beta=beta: qoct.check_conjugate_independence(
                problem.psi0, field, H, grid, beta
            )
        calls["eval_total"] = lambda: qoct.eval_total(
            sol.psi, sol.chi, field, problem.eps_ref, problem.alpha, O, H, grid
        )
        calls["propagate_costate"] = lambda: qoct.propagate_costate(
            sol.psi, O, field, H, grid, qoct.CostateBoundary.canonical()
        )
        for n in (1, 2, -1):
            calls[f"propagate_costate({n})"] = lambda n=n: qoct.propagate_costate(
                sol.psi, O, field, H, grid, qoct.CostateBoundary.continuous(n)
            )
        calls["tdse_residual"] = lambda: qoct.tdse_residual(sol.psi, field, H, grid)
        return calls

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_reused_values_are_bitwise_the_rebuilt_ones(self, dim, complex_, built):
        # the kept stack, defects and adjoint solution give what a cold call
        # forms afresh, bit for bit: the continuous costates included
        problem, field = seeded_problem(
            90 + dim, dim, self.N_STEPS, 1.0, complex_hermitian=complex_
        )
        sol = qoct.solve(problem, field, qoct.CostateBoundary.canonical())
        last = propagator._last_solve
        assert last.traj is sol.psi and built == {"_stacks": 1, "_march_forward": 1}
        calls = self.public_calls(problem, field, sol)
        reused = {name: bits(call()) for name, call in calls.items()}
        # every call read the solve's stack and trajectory: none was built again
        assert propagator._last_solve is last
        assert built == {"_stacks": 1, "_march_forward": 1}
        for name, call in calls.items():
            propagator._clear_last_solve()
            assert bits(call()) == reused[name], name
        # gradient_report solves the field on steps it builds itself and keeps
        # that solve: a solve after it builds nothing and is a cold one's bits
        qoct.gradient_report(problem, field)
        for count in built:
            built[count] = 0
        after = qoct.solve(problem, field, qoct.CostateBoundary.canonical())
        assert built == {"_stacks": 0, "_march_forward": 0}
        propagator._clear_last_solve()
        cold = qoct.solve(problem, field, qoct.CostateBoundary.canonical())
        assert (bits(after.psi), bits(after.chi)) == (bits(cold.psi), bits(cold.chi))

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_other_inputs_miss(self, dim, built):
        problem, field = seeded_problem(93 + dim, dim, self.N_STEPS, 1.0)
        H, grid = problem.hamiltonian, problem.grid
        # the same values in new objects, and a new dt
        others = {
            "psi0": (qoct.StateVector(problem.psi0.amplitudes), field, H, grid),
            "field": (problem.psi0, qoct.ControlField(field.samples), H, grid),
            "H": (problem.psi0, field, qoct.ControlHamiltonian(H.drift, H.coupling), grid),
            "dt": (problem.psi0, field, H, qoct.TimeGrid(grid.dt * 1.5, grid.n_steps, grid.index_T)),
        }
        seen = {}
        for name, (psi0, f, h, g) in others.items():
            solved = qoct.propagate_forward(problem.psi0, field, H, grid)
            for count in built:
                built[count] = 0
            traj = qoct.propagate_forward(psi0, f, h, g)
            assert traj is not solved
            seen[name] = dict(built)
        # a new psi0 marches again on the same stack; anything else builds it too
        assert seen == {
            "psi0": {"_stacks": 0, "_march_forward": 1},
            "field": {"_stacks": 1, "_march_forward": 1},
            "H": {"_stacks": 1, "_march_forward": 1},
            "dt": {"_stacks": 1, "_march_forward": 1},
        }

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_holds_one_solve(self, dim):
        problem, field_a = seeded_problem(96 + dim, dim, 40, 1.0)
        field_b = qoct.ControlField(-field_a.samples)
        qoct.solve(problem, field_a, qoct.CostateBoundary.canonical())
        stack_a = weakref.ref(propagator._last_solve.us)
        assert stack_a() is not None
        qoct.solve(problem, field_b, qoct.CostateBoundary.canonical())
        gc.collect()
        assert stack_a() is None
        assert propagator._last_solve.samples is field_b.samples

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_conjugate_check_after_solve_marches_rows_only(self, dim, built):
        problem, field = seeded_problem(99 + dim, dim, self.N_STEPS, 1.0)
        H, grid = problem.hamiltonian, problem.grid
        qoct.solve(problem, field, qoct.CostateBoundary.canonical())
        built["_march_forward"] = 0
        for beta in (1.0, 0.3 + 0.7j):
            qoct.check_conjugate_independence(problem.psi0, field, H, grid, beta)
        assert built == {"_stacks": 1, "_march_forward": 0}

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_continuous_costates_scale_the_unit_solution(self, dim, complex_):
        # the unit solution is the canonical costate before T, O psi(T) at T
        # and the forward march of O psi(T) after it; continuous(n) is
        # (i / 2 pi n) times it on the whole grid, bitwise, kept or not
        problem, field = seeded_problem(
            110 + dim, dim, self.N_STEPS, 1.0, complex_hermitian=complex_
        )
        H, O, grid = problem.hamiltonian, problem.observable, problem.grid
        m = grid.index_T
        sol = qoct.solve(problem, field, qoct.CostateBoundary.canonical())
        us = propagator._last_solve.us
        unit = np.concatenate([
            sol.chi.states[:m], _march_forward(us[m:], sol.chi.chi_T_minus)
        ])
        for kept in (True, False):
            if not kept:
                propagator._clear_last_solve()
            for n in (1, 2, -1, 3):
                scale = 1j / (2.0 * np.pi * n)
                chi = qoct.propagate_costate(
                    sol.psi, O, field, H, grid, qoct.CostateBoundary.continuous(n)
                )
                assert chi.states.tobytes() == (scale * unit).tobytes(), (kept, n)
                assert chi.chi_T_minus.tobytes() == (scale * unit[m]).tobytes()
                assert chi.jump_norm == 0.0

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_new_observable_or_solve_marches_again(self, dim, monkeypatch):
        marches = []

        def counting(name):
            original = getattr(propagator, name)

            def wrapper(us, x0):
                marches.append((name, len(us)))
                return original(us, x0)

            monkeypatch.setattr(propagator, name, wrapper)

        for name in ("_march_forward", "_march_rows"):
            counting(name)
        problem, field = seeded_problem(120 + dim, dim, self.N_STEPS, 1.0)
        H, O, grid = problem.hamiltonian, problem.observable, problem.grid
        n, m = grid.n_steps, grid.index_T
        sol = qoct.solve(problem, field, qoct.CostateBoundary.canonical())

        def family(observable, g=grid, traj=None):
            marches.clear()
            rep = qoct.check_continuous_family(traj or sol.psi, observable, field, H, g, 1)
            return rep, marches[:]

        head, tail = ("_march_rows", m), ("_march_forward", n - m)
        kept, seen = family(O)
        assert seen == [tail]
        assert family(O)[1] == []
        # the same values in a new object are another observable: one is kept
        other = qoct.HermitianOperator(O.matrix)
        rep, seen = family(other)
        assert seen == [head, tail] and bits(rep) == bits(kept)
        assert family(O)[1] == [head, tail]
        # another measurement node on the same steps
        moved = qoct.TimeGrid(grid.dt, n, m - 1)
        assert family(O, moved)[1] == [("_march_rows", m - 1), ("_march_forward", n - m + 1)]
        # a new solve: the same values from a new psi0 object
        again = dataclasses.replace(problem, psi0=qoct.StateVector(problem.psi0.amplitudes))
        resolved = qoct.solve(again, field, qoct.CostateBoundary.canonical())
        assert propagator._last_solve.traj is resolved.psi
        rep, seen = family(O, traj=resolved.psi)
        assert seen == [tail] and bits(rep) == bits(kept)

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_optimize_solves_on_the_kept_stack(self, dim, monkeypatch):
        # each evaluation solves its window's m + 1 steps, built with the rows'
        # m derivatives by one _stacks call, keeps that solve and builds no
        # further stack or series; after the run no solve is kept, so the
        # whole-grid solve that follows builds its own stack, as cold
        problem, field = seeded_problem(102, dim, self.N_STEPS, 1.0)
        H, O, grid = problem.hamiltonian, problem.observable, problem.grid
        n, m = grid.n_steps, grid.index_T
        log = []

        def counting(name):
            original = getattr(propagator, name)

            def wrapper(*args, **kwargs):
                log.append((name, len(args[1])) if name != "_field_series" else (name,))
                return original(*args, **kwargs)

            monkeypatch.setattr(propagator, name, wrapper)

        for name in ("_stacks", "_field_series"):
            counting(name)
        solves = []

        def recording(psi0, field, h, g, n_du=0):
            solved, du = forward(psi0, field, h, g, n_du)
            assert propagator._last_solve is solved and solved.samples is field.samples
            assert solved.psi0 is psi0 and solved.traj is not None
            assert solved.us.shape[0] == m + 1 and du.shape[0] == n_du == m
            log.append(("_forward",))
            solves.append(solved)
            return solved, du

        # the evaluations' solves, as gradient reaches them
        forward = propagator._forward
        monkeypatch.setattr(gradient, "_forward", recording)
        qoct.solve(problem, field, qoct.CostateBoundary.canonical())
        before = propagator._last_solve
        log.clear()
        config = qoct.OptimizationConfig(
            alpha=1.0, max_iters=2, j_tol=1e-300, stationarity_tol=1e-6,
            initial_field=field, eps_ref=problem.eps_ref,
        )
        result = qoct.optimize(problem.psi0, H, O, grid, config)
        k = result.evaluations_run
        assert k == len(solves) >= 3
        assert log == [("_stacks", m + 1), ("_field_series",), ("_forward",)] * k
        assert before is not None and propagator._last_solve is None

        log.clear()
        traj = qoct.propagate_forward(problem.psi0, result.final_field, H, grid)
        assert log == [("_stacks", n), ("_field_series",)]
        assert propagator._last_solve.us.shape[0] == n
        propagator._clear_last_solve()
        cold = qoct.propagate_forward(problem.psi0, result.final_field, H, grid)
        assert traj.states.tobytes() == cold.states.tobytes()

    @pytest.fixture
    def views(self, monkeypatch):
        """Per list of step views made since set-up, (steps, a weak reference to its first view)."""
        made = []

        def spying(us):
            steps = make(us)
            made.append((len(steps), weakref.ref(steps[0])))
            return steps

        make = propagator._step_views
        monkeypatch.setattr(propagator, "_step_views", spying)
        return made

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_a_kept_stack_makes_its_views_once(self, dim, complex_, views, monkeypatch):
        # the solve's forward march makes the stack's views; the canonical
        # adjoint, the continuous tail, the conjugate check's rows and the
        # probes' suffix products all walk that list and make none
        problem, field = seeded_problem(
            130 + dim, dim, self.N_STEPS, 1.0, complex_hermitian=complex_
        )
        H, O, grid = problem.hamiltonian, problem.observable, problem.grid
        walked = []

        def probing(nodes, us, *args):
            walked.append(us)
            return probe(nodes, us, *args)

        def marching(us, x0, rows):
            walked.append(type(us))
            return march(us, x0, rows)

        probe, march = gradient._march_probes, propagator._march
        monkeypatch.setattr(gradient, "_march_probes", probing)
        monkeypatch.setattr(propagator, "_march", marching)
        sol = qoct.solve(problem, field, qoct.CostateBoundary.canonical())
        last = propagator._last_solve
        assert [steps for steps, _ in views] == [self.N_STEPS]
        assert len(last.steps) == self.N_STEPS and last.steps[0].base is last.us
        for n in (1, 2, -1):
            qoct.check_continuous_family(sol.psi, O, field, H, grid, n)
        for beta in (1.0, 0.3 + 0.7j):
            qoct.check_conjugate_independence(problem.psi0, field, H, grid, beta)
        qoct.gradient_report(problem, field)
        assert len(views) == 1 and propagator._last_solve is last
        # the forward march, the adjoint, the tail, two conjugate row marches
        # and the probes, each over the list or a slice of it
        assert walked[:5] == [list] * 5 and walked[5] is last.steps and len(walked) == 6
        # a new psi0 marches on the same stack and shares its views
        again = qoct.StateVector(problem.psi0.amplitudes)
        qoct.propagate_forward(again, field, H, grid)
        assert len(views) == 1 and propagator._last_solve.steps is last.steps
        del last
        walked.clear()
        gc.collect()
        assert views[0][1]() is not None
        propagator._clear_last_solve()
        gc.collect()
        assert views[0][1]() is None

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_views_made_before_the_solve_is_kept_once(self, dim, views):
        # an evaluation's solve makes the views with its stack and keeps
        # them; the report's probes and a later solve of the field walk them
        problem, field = seeded_problem(133 + dim, dim, self.N_STEPS, 1.0)
        qoct.gradient_report(problem, field)
        assert [steps for steps, _ in views] == [self.N_STEPS]
        assert propagator._last_solve.steps is not None
        qoct.solve(problem, field, qoct.CostateBoundary.canonical())
        assert len(views) == 1

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_another_trajectory_reads_the_kept_stack(self, dim, complex_, views, monkeypatch):
        # a trajectory of another psi0 on the kept field is served by a record
        # for the call alone, which reads the kept stack and walks its views:
        # its costates and residual make no stack and no list of views, and
        # give a cold call's bits
        problem, field = seeded_problem(
            140 + dim, dim, self.N_STEPS, 1.0, complex_hermitian=complex_
        )
        H, O, grid = problem.hamiltonian, problem.observable, problem.grid
        psi0 = random_state(np.random.default_rng(150 + dim), dim)
        other = qoct.propagate_forward(psi0, field, H, grid)
        qoct.solve(problem, field, qoct.CostateBoundary.canonical())
        last = propagator._last_solve
        assert last.traj is not other and last.us is not None
        stacks = []

        def counting(*args, **kwargs):
            stacks.append(len(args[1]))
            return build(*args, **kwargs)

        build = propagator._stacks
        monkeypatch.setattr(propagator, "_stacks", counting)
        views.clear()
        calls = {
            "propagate_costate": lambda: qoct.propagate_costate(
                other, O, field, H, grid, qoct.CostateBoundary.canonical()
            ),
            "propagate_costate(2)": lambda: qoct.propagate_costate(
                other, O, field, H, grid, qoct.CostateBoundary.continuous(2)
            ),
            "tdse_residual": lambda: qoct.tdse_residual(other, field, H, grid),
        }
        reused = {name: bits(call()) for name, call in calls.items()}
        assert stacks == [] and views == []
        assert propagator._last_solve is last
        for name, call in calls.items():
            propagator._clear_last_solve()
            assert bits(call()) == reused[name], name
        assert stacks == [self.N_STEPS] * len(calls)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_optimize_drops_its_views(self, dim, views):
        # each evaluation's solve makes the views of its window's m + 1
        # steps; the end of the run drops the last solve and every list
        problem, field = seeded_problem(136 + dim, dim, self.N_STEPS, 1.0)
        config = qoct.OptimizationConfig(
            alpha=1.0, max_iters=2, j_tol=1e-300, stationarity_tol=1e-6,
            initial_field=field, eps_ref=problem.eps_ref,
        )
        result = qoct.optimize(
            problem.psi0, problem.hamiltonian, problem.observable, problem.grid, config
        )
        m = problem.grid.index_T
        assert [steps for steps, _ in views] == [m + 1] * result.evaluations_run
        gc.collect()
        assert propagator._last_solve is None
        assert all(ref() is None for _, ref in views)

    def test_stack_is_read_only(self):
        problem, field = seeded_problem(103, 3, 40, 1.0)
        qoct.propagate_forward(problem.psi0, field, problem.hamiltonian, problem.grid)
        with pytest.raises(ValueError, match="read-only"):
            propagator._last_solve.us[0, 0, 0] = 0.0
