import numpy as np
import pytest

import qoct
from conftest import level_projector, pauli_x, seeded_problem


def constant_state_setup(psi0_amps, n_steps=8, index_T=5):
    """Zero drift, zero field: the state sits still at psi0."""
    grid = qoct.TimeGrid(dt=0.25, n_steps=n_steps, index_T=index_T)
    H = qoct.ControlHamiltonian(
        drift=qoct.HermitianOperator(np.zeros((2, 2))), coupling=pauli_x()
    )
    psi0 = qoct.StateVector(psi0_amps)
    field = qoct.ControlField.constant(0.0, n_steps)
    traj = qoct.propagate_forward(psi0, field, H, grid)
    return grid, H, field, traj


def canonical_chi(traj, O, field, H, grid):
    return qoct.propagate_costate(traj, O, field, H, grid, qoct.CostateBoundary.canonical())


class TestJOpt:
    def test_target_eigenstate(self):
        grid, _, _, traj = constant_state_setup([0.0, 1.0])
        assert qoct.eval_j_opt(traj, level_projector(), grid) == 1.0

    def test_orthogonal_state(self):
        grid, _, _, traj = constant_state_setup([1.0, 0.0])
        assert qoct.eval_j_opt(traj, level_projector(), grid) == 0.0

    def test_equal_superposition(self):
        grid, _, _, traj = constant_state_setup([1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert qoct.eval_j_opt(traj, level_projector(), grid) == pytest.approx(0.5, abs=1e-15)

    def test_bounded_by_spectrum(self):
        rng = np.random.default_rng(30)
        for seed in range(5):
            problem, field = seeded_problem(300 + seed, 3, 40, 1.0)
            traj = qoct.propagate_forward(problem.psi0, field, problem.hamiltonian, problem.grid)
            val = qoct.eval_j_opt(traj, problem.observable, problem.grid)
            lam = np.linalg.eigvalsh(problem.observable.matrix)
            assert lam[0] - 1e-12 <= val <= lam[-1] + 1e-12


class TestJCost:
    def test_zero_deviation(self):
        grid = qoct.TimeGrid(dt=0.25, n_steps=10, index_T=8)
        f = qoct.ControlField(np.linspace(-1, 1, 10))
        assert qoct.eval_j_cost(f, f, 1.0, grid) == 0.0

    def test_unit_deviation_closed_form(self):
        # deviation 1 over [0, T_hat] with T_hat = 2.5, alpha = 0.5: -0.5 * 1 * 2.5
        grid = qoct.make_grid(2.0, 2.5, 0.25)
        field = qoct.ControlField.constant(1.0, grid.n_steps)
        ref = qoct.ControlField.constant(0.0, grid.n_steps)
        assert qoct.eval_j_cost(field, ref, 0.5, grid) == pytest.approx(-1.25, abs=1e-15)

    def test_penalty_spans_the_whole_grid(self):
        # a deviation after the measurement node costs, and the reduced
        # objective the gradient differentiates is exactly j_opt + j_cost
        problem, _ = seeded_problem(39, 2, 40, 1.0)
        grid = problem.grid
        samples = np.array(problem.eps_ref.samples)
        samples[grid.index_T :] += 0.3
        field = qoct.ControlField(samples)
        traj = qoct.propagate_forward(problem.psi0, field, problem.hamiltonian, grid)
        j_opt = qoct.eval_j_opt(traj, problem.observable, grid)
        j_cost = qoct.eval_j_cost(field, problem.eps_ref, problem.alpha, grid)
        assert j_cost < 0.0
        assert qoct.reduced_objective(problem, field) == j_opt + j_cost

    def test_linear_in_alpha(self):
        grid = qoct.TimeGrid(dt=0.1, n_steps=20, index_T=15)
        rng = np.random.default_rng(31)
        field = qoct.ControlField(rng.uniform(-1, 1, 20))
        ref = qoct.ControlField(rng.uniform(-1, 1, 20))
        j1 = qoct.eval_j_cost(field, ref, 1.0, grid)
        j2 = qoct.eval_j_cost(field, ref, 2.0, grid)
        assert j2 == pytest.approx(2 * j1, rel=1e-15)

    def test_swap_symmetry(self):
        grid = qoct.TimeGrid(dt=0.1, n_steps=20, index_T=15)
        rng = np.random.default_rng(32)
        field = qoct.ControlField(rng.uniform(-1, 1, 20))
        ref = qoct.ControlField(rng.uniform(-1, 1, 20))
        assert qoct.eval_j_cost(field, ref, 1.3, grid) == qoct.eval_j_cost(ref, field, 1.3, grid)

    def test_never_positive(self):
        grid = qoct.TimeGrid(dt=0.1, n_steps=20, index_T=15)
        rng = np.random.default_rng(33)
        for _ in range(10):
            field = qoct.ControlField(rng.uniform(-2, 2, 20))
            ref = qoct.ControlField(rng.uniform(-2, 2, 20))
            assert qoct.eval_j_cost(field, ref, 0.7, grid) <= 0.0

    def test_rejects_nonpositive_alpha(self):
        grid = qoct.TimeGrid(dt=0.1, n_steps=20, index_T=15)
        f = qoct.ControlField.constant(0.0, 20)
        with pytest.raises(ValueError, match="alpha"):
            qoct.eval_j_cost(f, f, 0.0, grid)


class TestJTdse:
    def test_vanishes_on_propagated_trajectory(self):
        problem, field = seeded_problem(34, 3, 60, 1.0)
        H, grid = problem.hamiltonian, problem.grid
        traj = qoct.propagate_forward(problem.psi0, field, H, grid)
        for boundary in (qoct.CostateBoundary.canonical(), qoct.CostateBoundary.continuous(1)):
            chi = qoct.propagate_costate(traj, problem.observable, field, H, grid, boundary)
            assert abs(qoct.eval_j_tdse(traj, chi, field, H, grid)) < 1e-11

    def test_zero_multiplier_gives_exact_zero(self):
        problem, field = seeded_problem(35, 2, 40, 1.0)
        H, grid = problem.hamiltonian, problem.grid
        traj = qoct.propagate_forward(problem.psi0, field, H, grid)
        chi = canonical_chi(traj, qoct.HermitianOperator(np.zeros((2, 2))), field, H, grid)
        assert qoct.eval_j_tdse(traj, chi, field, H, grid) == 0.0

    def test_detects_corrupted_node(self):
        problem, field = seeded_problem(5, 2, 50, 1.0)
        H, grid = problem.hamiltonian, problem.grid
        traj = qoct.propagate_forward(problem.psi0, field, H, grid)
        chi = canonical_chi(traj, problem.observable, field, H, grid)
        rng = np.random.default_rng(5)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        corrupted = np.array(traj.states)
        corrupted[25] = v / np.linalg.norm(v)
        val = qoct.eval_j_tdse(qoct.StateTrajectory(corrupted), chi, field, H, grid)
        assert abs(val) > 1e-3


class TestTotal:
    def test_reference_field_leaves_only_j_opt(self):
        problem, _ = seeded_problem(36, 2, 40, 1.0)
        H, grid = problem.hamiltonian, problem.grid
        traj = qoct.propagate_forward(problem.psi0, problem.eps_ref, H, grid)
        chi = canonical_chi(traj, problem.observable, problem.eps_ref, H, grid)
        bd = qoct.eval_total(
            traj, chi, problem.eps_ref, problem.eps_ref, problem.alpha,
            problem.observable, H, grid,
        )
        assert bd.j_cost == 0.0
        assert abs(bd.j_total - bd.j_opt) < 1e-11

    def test_zero_observable_zeroes_everything(self):
        problem, _ = seeded_problem(37, 2, 40, 1.0)
        H, grid = problem.hamiltonian, problem.grid
        zero = qoct.HermitianOperator(np.zeros((2, 2)))
        traj = qoct.propagate_forward(problem.psi0, problem.eps_ref, H, grid)
        chi = canonical_chi(traj, zero, problem.eps_ref, H, grid)
        bd = qoct.eval_total(
            traj, chi, problem.eps_ref, problem.eps_ref, problem.alpha, zero, H, grid
        )
        assert bd.j_total == 0.0

    def test_sum_identity_holds(self):
        problem, field = seeded_problem(38, 3, 50, 2.0)
        H, grid = problem.hamiltonian, problem.grid
        traj = qoct.propagate_forward(problem.psi0, field, H, grid)
        chi = canonical_chi(traj, problem.observable, field, H, grid)
        bd = qoct.eval_total(
            traj, chi, field, problem.eps_ref, problem.alpha, problem.observable, H, grid
        )
        assert bd.j_total == bd.j_opt + bd.j_cost + bd.j_tdse

    def test_breakdown_validates_sum(self):
        with pytest.raises(ValueError, match="non-positive"):
            qoct.FunctionalBreakdown(j_opt=0.0, j_cost=0.5, j_tdse=0.0)
