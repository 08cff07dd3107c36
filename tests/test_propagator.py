import numpy as np
import pytest
import scipy.linalg

import qoct
from qoct.propagator import (
    Direction, _expm_hermitian, _h_stack, _step_two_level, _su2_control_derivative,
)
from conftest import (
    level_projector,
    pauli_x,
    random_hermitian,
    random_state,
    random_symmetric,
    seeded_problem,
)


def free_hamiltonian(dim: int = 2) -> qoct.ControlHamiltonian:
    """Zero drift with sigma_x-like coupling (two-level unless stated)."""
    coupling = pauli_x() if dim == 2 else qoct.HermitianOperator(np.eye(dim))
    return qoct.ControlHamiltonian(
        drift=qoct.HermitianOperator(np.zeros((dim, dim))), coupling=coupling
    )


class TestStep:
    def test_quarter_turn_closed_form(self):
        # exp(-i theta sigma_x) = cos(theta) I - i sin(theta) sigma_x at theta = pi/2
        psi = qoct.step(qoct.StateVector([1, 0]), free_hamiltonian(), np.pi / 2, 1.0)
        assert np.allclose(psi.amplitudes, [0.0, -1.0j], atol=1e-15)

    def test_backward_inverts_forward(self):
        rng = np.random.default_rng(10)
        for dim in (2, 3, 4):
            H = qoct.ControlHamiltonian(
                drift=random_symmetric(rng, dim), coupling=random_symmetric(rng, dim)
            )
            psi = random_state(rng, dim)
            eps, dt = float(rng.uniform(-2, 2)), float(rng.uniform(0.01, 0.5))
            roundtrip = qoct.step(
                qoct.step(psi, H, eps, dt, Direction.FORWARD), H, eps, dt, Direction.BACKWARD
            )
            assert np.linalg.norm(roundtrip.amplitudes - psi.amplitudes) < 1e-13

    def test_stationary_eigenstate(self):
        H = qoct.ControlHamiltonian(
            drift=level_projector(), coupling=qoct.HermitianOperator(np.zeros((2, 2)))
        )
        psi = qoct.step(qoct.StateVector([1, 0]), H, 0.0, 0.7)
        assert np.allclose(psi.amplitudes, [1.0, 0.0], atol=1e-15)

    def test_norm_preserved_per_step(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            H = qoct.ControlHamiltonian(
                drift=random_symmetric(rng, dim), coupling=random_symmetric(rng, dim)
            )
            psi = qoct.step(random_state(rng, dim), H, float(rng.uniform(-3, 3)), 0.3)
            assert abs(psi.norm - 1.0) < 1e-13

    def test_matches_dense_matrix_exponential(self):
        # independent oracle: scipy's expm on the same Hermitian matrix
        rng = np.random.default_rng(12)
        for dim in (2, 3, 4):
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            drift = qoct.HermitianOperator((a + a.conj().T) / 2)
            H = qoct.ControlHamiltonian(drift=drift, coupling=random_symmetric(rng, dim))
            eps, dt = 0.37, 0.11
            u = qoct.step_matrix(H, eps, dt, Direction.FORWARD)
            u_ref = scipy.linalg.expm(-1j * H.evaluate(eps) * dt)
            assert np.max(np.abs(u - u_ref)) < 1e-13
            ub = qoct.step_matrix(H, eps, dt, Direction.BACKWARD)
            assert np.max(np.abs(ub - u_ref.conj().T)) < 1e-13

    def test_rejects_nonfinite_field(self):
        with pytest.raises(ValueError, match="finite"):
            qoct.step(qoct.StateVector([1, 0]), free_hamiltonian(), np.nan, 0.1)


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
            phi = qoct.step(phi, H, float(field.samples[k]), grid.dt, Direction.BACKWARD)
            worst = max(worst, np.linalg.norm(phi.amplitudes - traj.node(k + 1).conj()))
        assert worst < 1e-12


def march_by_step(x0, H, samples, dt, direction):
    """Nodes of a per-step march with qoct.step, in the order the steps are applied."""
    nodes = [np.asarray(x0, dtype=complex)]
    for eps in samples:
        nodes.append(qoct.step(qoct.StateVector(nodes[-1]), H, float(eps), dt, direction).amplitudes)
    return np.array(nodes)


class TestComplexHermitian:
    def test_propagators_match_per_step_march(self):
        # complex-Hermitian H has a non-symmetric U, so U^dagger differs
        # from conj(U); dim 2 runs the closed form, dim 4 the eigh route
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
                du = qoct.step_control_derivative(H, float(eps), dt)
                ref = scipy.linalg.expm_frechet(
                    -1j * H.evaluate(eps) * dt, -1j * H.control_derivative * dt,
                    compute_expm=False,
                )
                assert np.max(np.abs(du - ref)) < 1e-12


class TestTwoLevelScalarStep:
    """The scalar SU(2) step pinned to the stack closed form and to scipy."""

    @staticmethod
    def assert_matches(h, tau, psi):
        (a, b), (_, c) = h.tolist()
        p0, p1 = psi.tolist()
        q = np.array(_step_two_level(a.real, b, c.real, tau, p0, p1))
        assert np.max(np.abs(q - _expm_hermitian(h, tau) @ psi)) < 1e-14
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


class TestTwoLevelControlDerivative:
    """The closed-form SU(2) eps-derivative pinned to the eigenbasis route."""

    @staticmethod
    def assert_matches(H, samples, dt):
        du = _su2_control_derivative(_h_stack(H, samples), H.control_derivative, dt)
        for k, eps in enumerate(samples):
            ref = qoct.step_control_derivative(H, float(eps), dt)
            assert np.max(np.abs(du[k] - ref)) < 1e-14

    def test_random_complex_hermitian(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            H = qoct.ControlHamiltonian(
                drift=random_hermitian(rng, 2), coupling=random_hermitian(rng, 2)
            )
            self.assert_matches(H, rng.uniform(-1.5, 1.5, 5), float(rng.uniform(0.01, 0.5)))

    def test_identity_multiple_and_series_branch(self):
        # at eps = 0 a drift 0.7 I gives h proportional to I (x = 0), and
        # splittings that put x = |n| dt just either side of the series
        # cut at 0.01; couplings generic and proportional to I
        rng = np.random.default_rng(35)
        dt = 0.05
        for split in (0.0, 0.0099 / dt, 0.0101 / dt):
            drift = qoct.HermitianOperator(np.diag([0.7 + split, 0.7 - split]))
            for coupling in (random_hermitian(rng, 2), qoct.HermitianOperator(0.4 * np.eye(2))):
                H = qoct.ControlHamiltonian(drift=drift, coupling=coupling)
                self.assert_matches(H, np.zeros(1), dt)


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
