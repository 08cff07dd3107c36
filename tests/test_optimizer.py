import numpy as np
import pytest

import qoct
from qoct.optimizer import _feedback_sweep
from qoct.propagator import Direction
from conftest import random_hermitian, random_state, two_level_benchmark


def benchmark_config(alpha=1.0, seed=42, max_iters=500, j_tol=1e-12, stationarity_tol=1e-6,
                     n_steps=420, noise=1e-2):
    rng = np.random.default_rng(seed)
    eps_ref = qoct.ControlField.constant(0.0, n_steps)
    initial = qoct.ControlField(eps_ref.samples + noise * rng.uniform(-1, 1, n_steps))
    return qoct.OptimizationConfig(
        alpha=alpha, max_iters=max_iters, j_tol=j_tol, stationarity_tol=stationarity_tol,
        initial_field=initial, eps_ref=eps_ref,
    )


@pytest.fixture(scope="module")
def benchmark_run():
    psi0, H, O, grid = two_level_benchmark()
    result = qoct.optimize(psi0, H, O, grid, benchmark_config())
    return psi0, H, O, grid, result


class TestBenchmark:
    def test_converges_with_certificate(self, benchmark_run):
        *_, result = benchmark_run
        assert result.converged
        assert result.iterations_run <= 500
        assert result.final_stationarity_residual < 1e-6

    def test_objective_never_decreases(self, benchmark_run):
        *_, result = benchmark_run
        assert result.largest_j_decrease >= -1e-8
        totals = [bd.j_total for bd in result.j_history]
        assert min(np.diff(totals)) >= -1e-8

    def test_transfer_quality_of_the_stationary_point(self, benchmark_run):
        # the alpha=1 extremum trades fidelity against pulse cost and sits
        # near 0.932; anything lower means the sweeps lost the fixed point
        *_, result = benchmark_run
        assert result.final_fidelity > 0.93
        assert result.final_fidelity == result.j_history[-1].j_opt

    def test_field_reverts_to_reference_after_measurement(self, benchmark_run):
        _, _, _, grid, result = benchmark_run
        assert np.array_equal(result.final_field.samples[grid.index_T:],
                              np.zeros(grid.n_steps - grid.index_T))

    def test_iterates_respect_dynamics(self, benchmark_run):
        psi0, H, O, grid, result = benchmark_run
        # the multiplier term is evaluated per iteration and stays at zero
        assert max(abs(bd.j_tdse) for bd in result.j_history) < 1e-11
        traj = qoct.propagate_forward(psi0, result.final_field, H, grid)
        assert qoct.tdse_residual(traj, result.final_field, H, grid) < 1e-11

    def test_fd_gradient_consistent_with_residual_certificate(self, benchmark_run):
        # at the field-law fixed point the exact discrete gradient retains a
        # systematic dt^2-level floor, so the two stationarity notions agree
        # at the 1e-3 scale on this grid (not at arbitrarily small tolerances)
        psi0, H, O, grid, result = benchmark_run
        tol = 1e-3
        assert result.final_stationarity_residual < tol
        problem = qoct.ControlProblem(
            psi0=psi0, hamiltonian=H, observable=O, grid=grid,
            eps_ref=qoct.ControlField.constant(0.0, grid.n_steps), alpha=1.0,
        )
        sup_fd = max(
            abs(qoct.fd_gradient(problem, result.final_field, k, 1e-5))
            for k in range(0, grid.n_steps, 10)
        )
        assert sup_fd < 10 * tol * 2 * grid.dt * 1.0


class TestTwoLevelSweep:
    def test_matches_step_matrix_loop(self):
        # the scalar two-level sweep against the field law stepped with the
        # public matrix stepper; the canonical costate vanishes from T on,
        # so the law returns the reference there
        rng = np.random.default_rng(41)
        H = qoct.ControlHamiltonian(
            drift=random_hermitian(rng, 2), coupling=random_hermitian(rng, 2)
        )
        O = random_hermitian(rng, 2)
        psi0 = random_state(rng, 2)
        grid = qoct.TimeGrid(dt=0.05, n_steps=100, index_T=80)
        field = qoct.ControlField(rng.uniform(-1.0, 1.0, grid.n_steps))
        eps_ref = rng.uniform(-0.5, 0.5, grid.n_steps)
        alpha = 0.7
        traj = qoct.propagate_forward(psi0, field, H, grid)
        chi = qoct.propagate_costate(traj, O, field, H, grid, qoct.CostateBoundary.canonical())

        new_field, nodes = _feedback_sweep(
            psi0.amplitudes, chi.states, field.samples, eps_ref, alpha, H, grid
        )

        mu = H.control_derivative
        ref_field = np.empty(grid.n_steps)
        ref_nodes = [psi0.amplitudes]
        for k in range(grid.n_steps):
            psi = ref_nodes[-1]
            ref_field[k] = eps_ref[k] + np.vdot(chi.states[k], mu @ psi).imag / alpha
            u = qoct.step_matrix(H, ref_field[k], grid.dt, Direction.FORWARD)
            ref_nodes.append(u @ psi)
        assert np.max(np.abs(new_field - ref_field)) < 1e-12
        assert np.max(np.abs(nodes - np.array(ref_nodes))) < 1e-12


class TestDegenerateObjectives:
    def test_identity_observable_returns_reference_field(self):
        # objective is field-independent, so the sweeps shed the field;
        # the J-stagnation stop fires once the quadratic cost of the
        # residual field dips below j_tol, here around the 1e-6 level
        psi0, H, _, grid = two_level_benchmark()
        O = qoct.HermitianOperator(np.eye(2))
        result = qoct.optimize(psi0, H, O, grid, benchmark_config(max_iters=50))
        assert result.converged
        assert result.final_stationarity_residual < 1e-6
        assert np.max(np.abs(result.final_field.samples)) < 1e-6
        assert all(bd.j_opt == pytest.approx(1.0, abs=1e-12) for bd in result.j_history)

    def test_huge_penalty_pins_field_to_reference(self):
        psi0, H, O, grid = two_level_benchmark()
        result = qoct.optimize(psi0, H, O, grid, benchmark_config(alpha=1e6, max_iters=100))
        assert np.max(np.abs(result.final_field.samples)) < 1e-3


class TestStoppingAndValidation:
    def test_non_convergence_reported_not_raised(self):
        psi0, H, O, grid = two_level_benchmark()
        result = qoct.optimize(
            psi0, H, O, grid, benchmark_config(max_iters=2, j_tol=1e-16)
        )
        assert not result.converged
        assert result.iterations_run == 2
        assert len(result.j_history) == 3

    def test_history_starts_with_initial_point(self):
        psi0, H, O, grid = two_level_benchmark()
        result = qoct.optimize(psi0, H, O, grid, benchmark_config(max_iters=1))
        assert len(result.j_history) == 2

    def test_config_validation(self):
        f = qoct.ControlField.constant(0.0, 10)
        with pytest.raises(ValueError, match="alpha"):
            qoct.OptimizationConfig(
                alpha=0.0, max_iters=10, j_tol=1e-8, stationarity_tol=1e-6,
                initial_field=f, eps_ref=f,
            )
        with pytest.raises(ValueError, match="max_iters"):
            qoct.OptimizationConfig(
                alpha=1.0, max_iters=0, j_tol=1e-8, stationarity_tol=1e-6,
                initial_field=f, eps_ref=f,
            )
        with pytest.raises(ValueError, match="tolerances"):
            qoct.OptimizationConfig(
                alpha=1.0, max_iters=10, j_tol=0.0, stationarity_tol=1e-6,
                initial_field=f, eps_ref=f,
            )
        with pytest.raises(ValueError, match="samples"):
            qoct.OptimizationConfig(
                alpha=1.0, max_iters=10, j_tol=1e-8, stationarity_tol=1e-6,
                initial_field=f, eps_ref=qoct.ControlField.constant(0.0, 9),
            )

    def test_grid_field_mismatch(self):
        psi0, H, O, grid = two_level_benchmark()
        with pytest.raises(ValueError, match="samples"):
            qoct.optimize(psi0, H, O, grid, benchmark_config(n_steps=10))
