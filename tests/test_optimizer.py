import numpy as np
import pytest

import qoct
from qoct import cli, optimizer
from qoct.optimizer import _feedback_sweep
from qoct.propagator import Direction
from conftest import random_hermitian, random_state, seeded_problem, two_level_benchmark


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

    @pytest.mark.parametrize("seed", [7, 3])
    def test_objective_never_decreases_at_other_seeds(self, seed):
        # J stays monotone from other starting noise too
        psi0, H, O, grid = two_level_benchmark()
        result = qoct.optimize(psi0, H, O, grid, benchmark_config(seed=seed))
        assert result.converged
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
        # the certificate is the exact discrete gradient scaled by 1/(2 alpha dt),
        # so central differences, which use neither the costate nor dU/deps,
        # must find the certified field stationary too
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


def check_sweep_against_step_matrix_loop(seed, dim):
    # two sweeps against the discrete field law stepped with the public
    # matrix stepper: before T, eps_k = ref_k + Re <chi_{k+1}| D_k psi_k> /
    # (alpha dt) with D_k = step_control_derivative at the previous sample
    # and chi the previous costate (left limit O psi(T) after the last
    # step); from T on the canonical costate vanishes and the law returns
    # the reference. The first sweep's rows come from a fresh field, the
    # second's from what the first sweep kept; every returned step is the
    # forward step at the new sample
    rng = np.random.default_rng(seed)
    H = qoct.ControlHamiltonian(
        drift=random_hermitian(rng, dim), coupling=random_hermitian(rng, dim)
    )
    O = random_hermitian(rng, dim)
    psi0 = random_state(rng, dim)
    grid = qoct.TimeGrid(dt=0.05, n_steps=100, index_T=80)
    m, dt = grid.index_T, grid.dt
    field = qoct.ControlField(rng.uniform(-1.0, 1.0, grid.n_steps))
    eps_ref = rng.uniform(-0.5, 0.5, grid.n_steps)
    alpha = 0.7
    traj = qoct.propagate_forward(psi0, field, H, grid)
    chi = qoct.propagate_costate(traj, O, field, H, grid, qoct.CostateBoundary.canonical())
    post_us = np.array(
        [qoct.step_matrix(H, e, grid.dt, Direction.FORWARD) for e in eps_ref[m:]]
    )
    rows = optimizer._pairing_rows(H, field.samples[:m], chi, dt)

    for _ in range(2):
        new_field, nodes, us, eig = _feedback_sweep(
            psi0.amplitudes, rows, eps_ref, post_us, alpha, H, grid
        )

        chi_next = list(chi.states[1:m]) + [chi.chi_T_minus]
        ref_field = np.empty(grid.n_steps)
        ref_nodes = [psi0.amplitudes]
        ref_us = []
        for k in range(grid.n_steps):
            psi = ref_nodes[-1]
            ref_field[k] = eps_ref[k]
            if k < m:
                du = qoct.step_control_derivative(H, float(field.samples[k]), dt)
                ref_field[k] += np.vdot(chi_next[k], du @ psi).real / (alpha * dt)
            ref_us.append(qoct.step_matrix(H, ref_field[k], dt, Direction.FORWARD))
            ref_nodes.append(ref_us[-1] @ psi)
        assert np.max(np.abs(new_field - ref_field)) < 1e-12
        assert np.max(np.abs(nodes - np.array(ref_nodes))) < 1e-12
        assert us.shape == (grid.n_steps, dim, dim)
        assert np.max(np.abs(us - np.array(ref_us))) < 1e-12

        field = qoct.ControlField(new_field)
        chi = qoct.propagate_costate(
            qoct.StateTrajectory(nodes), O, field, H, grid, qoct.CostateBoundary.canonical()
        )
        rows = optimizer._pairing_rows(H, new_field[:m], chi, dt, eig)


class TestTwoLevelSweep:
    def test_matches_step_matrix_loop(self):
        # the pre-T steps run in Python scalars, then form one batched stack;
        # the rows take the closed-form SU(2) derivative
        check_sweep_against_step_matrix_loop(41, 2)


class TestGeneralSweep:
    def test_matches_step_matrix_loop(self):
        # dim > 2 decomposes one matrix per step and keeps its eigenpairs
        # for the next sweep's rows
        check_sweep_against_step_matrix_loop(43, 4)


class TestStackInSync:
    """The objective and certificate the run reports are those of its final field."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_history_and_residual_match_a_fresh_solve(self, dim):
        problem, field = seeded_problem(90 + dim, dim, 60, 1.0, complex_hermitian=True)
        config = qoct.OptimizationConfig(
            alpha=problem.alpha, max_iters=3, j_tol=1e-300, stationarity_tol=1e-6,
            initial_field=field, eps_ref=problem.eps_ref,
        )
        H, O, grid = problem.hamiltonian, problem.observable, problem.grid
        assert grid.index_T == 48
        result = qoct.optimize(problem.psi0, H, O, grid, config)
        assert result.iterations_run == 3

        sol = qoct.solve(problem, result.final_field, qoct.CostateBoundary.canonical())
        fresh = qoct.eval_total(
            sol.psi, sol.chi, result.final_field, problem.eps_ref, problem.alpha, O, H, grid
        )
        last = result.j_history[-1]
        for term in ("j_opt", "j_cost", "j_tdse", "j_total"):
            assert abs(getattr(last, term) - getattr(fresh, term)) <= 1e-12, term
        # the certificate is the exact discrete gradient before T
        g = qoct.analytic_gradient(
            sol.psi, sol.chi, result.final_field, problem.eps_ref, problem.alpha, H, grid
        )
        residual = np.max(np.abs(g[: grid.index_T])) / (2 * problem.alpha * grid.dt)
        assert abs(result.final_stationarity_residual - residual) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3])
    def test_sweep_off_its_steps_cannot_source_a_costate(self, monkeypatch, dim):
        # every sweep's trajectory passes the costate's equation-of-motion gate;
        # a 1e-8 phase on one node keeps its norm, so only that gate can see it
        def perturbed(*args):
            new_field, nodes, us, eig = _feedback_sweep(*args)
            nodes[5] *= np.exp(1e-8j)
            return new_field, nodes, us, eig

        monkeypatch.setattr(optimizer, "_feedback_sweep", perturbed)
        problem, field = seeded_problem(95, dim, 40, 1.0)
        config = qoct.OptimizationConfig(
            alpha=1.0, max_iters=2, j_tol=1e-300, stationarity_tol=1e-6,
            initial_field=field, eps_ref=problem.eps_ref,
        )
        with pytest.raises(ValueError, match="equation of motion"):
            qoct.optimize(
                problem.psi0, problem.hamiltonian, problem.observable, problem.grid, config
            )


class TestContinuumLimit:
    def test_optimal_field_jumps_at_T_as_dt_shrinks(self):
        # The sweep solves the two-level benchmark to its discrete maximum at
        # three step sizes. J* converges at order 2; the collocated (paper's
        # continuum) residual at the discrete optimum is O(dt), 0.122 dt; and
        # the field gap at T tends to 0.2445, not to 0: it is the identity
        # gap = |<psi(T)| [O, mu] |psi(T)>| / (2 alpha), nonzero here, so the
        # optimal field is discontinuous at T in the limit. eps -> -eps is a
        # symmetry, so only J and |gap| are compared across step sizes.
        psi0, H, O, _ = two_level_benchmark()
        j_star, collocated_per_dt = [], []
        for dt in (0.05, 0.025, 0.0125):
            grid = qoct.make_grid(10.0, 10.5, dt)
            config = benchmark_config(n_steps=grid.n_steps)
            result = qoct.optimize(psi0, H, O, grid, config)
            assert result.converged
            problem = qoct.ControlProblem(
                psi0=psi0, hamiltonian=H, observable=O, grid=grid, eps_ref=config.eps_ref,
                alpha=config.alpha,
            )
            sol = qoct.solve(problem, result.final_field, qoct.CostateBoundary.canonical())
            j_star.append(qoct.reduced_objective(problem, result.final_field))
            collocated_per_dt.append(qoct.stationarity_residual(
                sol.psi, sol.chi, result.final_field, config.eps_ref, config.alpha, H, grid
            ) / dt)
            report = qoct.check_canonical_jump(sol)
            gap = report.field_left_limit_gap
            assert abs(gap - abs(report.commutator_expectation_at_T) / config.alpha) < 1e-10
            assert gap > 0.2
            source = np.linalg.norm(O.matrix @ sol.psi.node(grid.index_T))
            assert abs(report.jump_norm_at_T - source) < cli.BOUNDARY_TOL

        order = np.log2((j_star[1] - j_star[0]) / (j_star[2] - j_star[1]))
        assert abs(order - 2.0) < 0.1
        assert max(collocated_per_dt) / min(collocated_per_dt) - 1.0 < 0.01


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

    def test_history_starts_at_the_reduced_objective(self):
        # the sweep reports the J the gradient differentiates: its penalty
        # also covers the initial noise after the measurement node
        psi0, H, O, grid = two_level_benchmark()
        config = benchmark_config(max_iters=1)
        result = qoct.optimize(psi0, H, O, grid, config)
        problem = qoct.ControlProblem(
            psi0=psi0, hamiltonian=H, observable=O, grid=grid, eps_ref=config.eps_ref,
            alpha=config.alpha,
        )
        first = result.j_history[0]
        expected = qoct.reduced_objective(problem, config.initial_field) + first.j_tdse
        assert abs(first.j_total - expected) <= 1e-15

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
