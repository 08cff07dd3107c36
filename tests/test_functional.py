import numpy as np
import pytest

import qoct
from conftest import level_projector, pauli_x, seeded_problem, u_stack


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
        # j_tdse is real-linear in each node, with the Euler-Lagrange residual
        # U_j^dagger chi'_{j+1} - chi'_j as its coefficient: the costate
        # annuls it at every node but T, where it is -O psi(T). So the
        # costate of the true trajectory sees a corrupted node 25 not at all,
        # and a corrupted measurement node by -2 Re <O psi(T) | v - psi(T)>
        problem, field = seeded_problem(5, 2, 50, 1.0)
        H, grid = problem.hamiltonian, problem.grid
        m = grid.index_T
        traj = qoct.propagate_forward(problem.psi0, field, H, grid)
        chi = canonical_chi(traj, problem.observable, field, H, grid)
        rng = np.random.default_rng(5)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        seen = {}
        for node in (25, m):
            corrupted = np.array(traj.states)
            corrupted[node] = v
            seen[node] = qoct.eval_j_tdse(qoct.StateTrajectory(corrupted), chi, field, H, grid)
        source = problem.observable.matrix @ traj.node(m)
        expected = -2.0 * np.vdot(source, v - traj.node(m)).real
        assert abs(seen[25]) < 1e-14
        assert abs(seen[m]) > 1e-3
        assert seen[m] == pytest.approx(expected, abs=1e-14)


class TestEulerLagrange:
    """L = j_opt + j_cost + j_tdse is the discrete Lagrangian whose stationarity is qoct's equations.

    Step k's multiplier is -i chi_{k+1}, and -i chi(T-) for step m - 1. On
    a solve and its canonical costate, dL/dconj(psi_j) =
    U_j^dagger chi'_{j+1} - chi'_j + [j = m] O psi(T) vanishes at every
    node j >= 1, chi'_j being the multiplier chi of step j - 1, and
    dL/d eps at fixed psi and chi is the exact gradient.
    """

    N_STEPS = 40

    @staticmethod
    def solved(seed, dim, complex_):
        problem, field = seeded_problem(
            seed, dim, TestEulerLagrange.N_STEPS, 1.0, complex_hermitian=complex_
        )
        return problem, field, qoct.solve(problem, field, qoct.CostateBoundary.canonical())

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("dim", [2, 3, 5])
    @pytest.mark.parametrize("seed", range(3))
    def test_state_variation_vanishes_at_every_node(self, seed, dim, complex_):
        problem, field, sol = self.solved(seed, dim, complex_)
        grid, m = problem.grid, problem.grid.index_T
        us = u_stack(problem.hamiltonian, field.samples, grid.dt)
        chi = np.array(sol.chi.states)
        chi[m] = sol.chi.chi_T_minus
        # row j - 1 is node j's residual; the last node has no step after it
        residual = -chi[1:]
        residual[:-1] += np.einsum("kji,kj->ki", us[1:].conj(), chi[2:])
        source = problem.observable.matrix @ sol.psi.node(m)
        residual[m - 1] += source
        # measured at most 2.8e-16 on seeds range(5)
        assert np.max(np.linalg.norm(residual, axis=1)) <= 1e-14 * np.linalg.norm(source)

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("dim", [2, 3, 5])
    @pytest.mark.parametrize("seed", range(3))
    def test_field_variation_is_the_exact_gradient(self, seed, dim, complex_):
        problem, field, sol = self.solved(seed, dim, complex_)
        H, O, grid = problem.hamiltonian, problem.observable, problem.grid
        grad = qoct.analytic_gradient(
            sol.psi, sol.chi, field, problem.eps_ref, problem.alpha, H, grid
        )

        def lagrangian(k, step):
            samples = np.array(field.samples)
            samples[k] += step
            return qoct.eval_total(
                sol.psi, sol.chi, qoct.ControlField(samples), problem.eps_ref,
                problem.alpha, O, H, grid,
            ).j_total

        h = 1e-5
        diffs = [(lagrangian(k, h) - lagrangian(k, -h)) / (2 * h) for k in range(grid.n_steps)]
        # the difference floor: at most 5.3e-10 of max |g| on seeds range(5); the
        # pairing of chi_k with step k missed by 8-10%
        assert np.max(np.abs(np.array(diffs) - grad)) < 1e-8 * np.max(np.abs(grad))


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
