import dataclasses
import math

import numpy as np
import pytest

import qoct
from qoct import cli, gradient, optimizer, propagator
from qoct.optimizer import _feedback_sweep
from qoct.propagator import _du_stack
from conftest import (
    patch_everywhere, random_hermitian, random_state, random_symmetric, seeded_problem,
    two_level_benchmark,
)
from reference import Direction, step_control_derivative, step_matrix


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
        # J* = 0.606177477398 (L-BFGS-B on the exact gradient)
        assert abs(result.j_history[-1].j_total - 0.606177477398) < 1e-11

    def test_objective_never_decreases(self, benchmark_run):
        *_, result = benchmark_run
        assert result.largest_j_decrease == 0.0
        totals = [bd.j_total for bd in result.j_history]
        assert min(np.diff(totals)) >= 0.0

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_objective_never_decreases_at_other_seeds(self, seed):
        # J stays monotone from other starting noise too: a sweep that would
        # lower it is not taken, and no accepted line-search step lowers it
        psi0, H, O, grid = two_level_benchmark()
        result = qoct.optimize(psi0, H, O, grid, benchmark_config(seed=seed))
        assert result.converged
        assert result.largest_j_decrease == 0.0
        totals = [bd.j_total for bd in result.j_history]
        assert min(np.diff(totals)) >= 0.0

    def test_evaluation_count(self, monkeypatch):
        # one sweep, then L-BFGS certifies the benchmark in 19 iterations at
        # seed 42; every evaluation, the initial field's and each line-search
        # trial's included, is one solve
        solves = []

        def counting(*args):
            solves.append(None)
            return forward(*args)

        forward = patch_everywhere(monkeypatch, "_forward", counting)
        psi0, H, O, grid = two_level_benchmark()
        result = qoct.optimize(psi0, H, O, grid, benchmark_config())
        assert result.converged
        assert (result.iterations_run, result.evaluations_run) == (19, 26)
        assert result.evaluations_run == len(solves)

    @pytest.mark.parametrize("seed", [42, 7])
    def test_smallest_penalty_is_certified(self, seed):
        # alpha = 0.1 reaches J* = 0.9537042364 (L-BFGS-B on the exact
        # gradient), where the fixed-point sweep stalls: its condition number
        # is about ten times alpha = 1's
        psi0, H, O, grid = two_level_benchmark()
        result = qoct.optimize(psi0, H, O, grid, benchmark_config(alpha=0.1, seed=seed))
        assert result.converged
        assert result.final_stationarity_residual < 1e-6
        assert result.largest_j_decrease == 0.0
        assert abs(result.j_history[-1].j_total - 0.9537042364) < 1e-9

    def test_smaller_penalty_is_certified(self):
        # alpha = 0.3 reaches J* = 0.8662365548 (L-BFGS-B on the exact
        # gradient) within the default budget
        psi0, H, O, grid = two_level_benchmark()
        result = qoct.optimize(psi0, H, O, grid, benchmark_config(alpha=0.3))
        assert result.converged
        assert result.iterations_run < 500
        assert result.final_stationarity_residual < 1e-6
        assert result.largest_j_decrease == 0.0
        assert abs(result.j_history[-1].j_total - 0.8662365548) < 1e-9

    def test_transfer_quality_of_the_stationary_point(self, benchmark_run):
        # the alpha=1 extremum trades fidelity against pulse cost and sits
        # near 0.932; anything lower means the run lost the maximum
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
        fd = qoct.gradient_report(problem, result.final_field, probe_step=1e-5).finite_diff
        sup_fd = np.max(np.abs(fd[::10]))
        assert sup_fd < 10 * tol * 2 * grid.dt * 1.0


class TestTwoLevelSweep:
    def test_matches_step_matrix_loop(self):
        # two sweeps against the discrete field law stepped with the public
        # matrix stepper: before T, eps_k = ref_k + Re <chi_{k+1}| D_k psi_k> /
        # (alpha dt) with D_k = step_control_derivative at the previous sample
        # and chi the previous costate (left limit O psi(T) after the last
        # step); from T on the canonical costate vanishes and the law returns
        # the reference. The first sweep's rows come from a fresh field, the
        # second's from the first sweep's field and its fresh costate. Each
        # sample reads the state stepped under every sample before it, so the
        # samples check the steps too. The steps run in Python scalars; the
        # rows differentiate the field series
        rng = np.random.default_rng(41)
        H = qoct.ControlHamiltonian(
            drift=random_hermitian(rng, 2), coupling=random_hermitian(rng, 2)
        )
        O = random_hermitian(rng, 2)
        psi0 = random_state(rng, 2)
        grid = qoct.TimeGrid(dt=0.05, n_steps=100, index_T=80)
        n, m, dt, alpha = grid.n_steps, grid.index_T, grid.dt, 0.7
        field = qoct.ControlField(rng.uniform(-1.0, 1.0, n))
        eps_ref = rng.uniform(-0.5, 0.5, n)

        for _ in range(2):
            traj = qoct.propagate_forward(psi0, field, H, grid)
            chi = qoct.propagate_costate(traj, O, field, H, grid, qoct.CostateBoundary.canonical())
            du = _du_stack(H, field.samples[:m], dt)
            rows = gradient._law_gap(du, traj, chi, field, qoct.ControlField(eps_ref), alpha, dt)[0]
            new_field = _feedback_sweep(psi0.amplitudes, rows, eps_ref, alpha, H, grid)

            chi_next = list(chi.states[1:m]) + [chi.chi_T_minus]
            ref_field = eps_ref.copy()
            psi = psi0.amplitudes
            for k in range(m):
                du = step_control_derivative(H, float(field.samples[k]), dt)
                ref_field[k] += np.vdot(chi_next[k], du @ psi).real / (alpha * dt)
                psi = step_matrix(H, ref_field[k], dt, Direction.FORWARD) @ psi
            assert new_field.shape == (n,)
            assert np.max(np.abs(new_field - ref_field)) < 1e-12
            assert np.array_equal(new_field[m:], eps_ref[m:])
            field = qoct.ControlField(new_field)


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

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_history_replays_from_fresh_solves(self, monkeypatch, dim):
        # every record is the breakdown of an evaluation: a fresh solve of its
        # samples before T, with the reference's sample at T, gives its j_opt
        # and j_tdse bitwise, the initial field's first and the final field's
        # last, with no solve beyond the counted evaluations; its j_cost is the
        # whole grid's penalty
        problem, field = seeded_problem(80 + dim, dim, 60, 1.0, complex_hermitian=True)
        config = qoct.OptimizationConfig(
            alpha=problem.alpha, max_iters=8, j_tol=1e-300, stationarity_tol=1e-6,
            initial_field=field, eps_ref=problem.eps_ref,
        )
        solved = []

        def recording(psi0, field, *args):
            solved.append(field)
            return forward(psi0, field, *args)

        forward = patch_everywhere(monkeypatch, "_forward", recording)
        H, O, grid = problem.hamiltonian, problem.observable, problem.grid
        m = grid.index_T
        result = qoct.optimize(problem.psi0, H, O, grid, config)
        assert result.evaluations_run == len(solved)

        window = dataclasses.replace(
            problem, grid=qoct.TimeGrid(grid.dt, m + 1, m),
            eps_ref=qoct.ControlField(problem.eps_ref.samples[: m + 1]),
        )

        def fresh_terms(f):
            sol = qoct.solve(window, f, qoct.CostateBoundary.canonical())
            j_tdse = qoct.eval_j_tdse(sol.psi, sol.chi, f, H, window.grid)
            return qoct.eval_j_opt(sol.psi, O, window.grid), j_tdse

        terms = iter(fresh_terms(f) for f in solved)
        head = np.append(field.samples[:m], problem.eps_ref.samples[m])
        assert np.array_equal(solved[0].samples, head)
        for recorded in result.j_history:
            assert any(t == (recorded.j_opt, recorded.j_tdse) for t in terms)
        last, final = result.j_history[-1], result.final_field
        assert fresh_terms(qoct.ControlField(final.samples[: m + 1])) == (last.j_opt, last.j_tdse)
        assert qoct.eval_j_cost(final, problem.eps_ref, problem.alpha, grid) == last.j_cost

    @pytest.mark.parametrize("complex_hermitian", [False, True])
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_window_solve_matches_the_whole_grid(self, dim, complex_hermitian):
        # an evaluation solves its field only up to the first node past T; with
        # a reference that is nonzero after T and an initial field that
        # differs from it there, the first record is still the whole grid's
        # breakdown (j_cost bitwise: it spans every sample) and the
        # certificate the whole grid's exact gradient, to round-off
        problem, field = seeded_problem(
            110 + dim, dim, 60, 0.7, complex_hermitian=complex_hermitian
        )
        H, O, grid = problem.hamiltonian, problem.observable, problem.grid
        m, alpha = grid.index_T, problem.alpha
        eps_ref = qoct.ControlField(np.random.default_rng(120 + dim).uniform(-0.5, 0.5, 60))
        problem = dataclasses.replace(problem, eps_ref=eps_ref)
        assert eps_ref.samples[m:].all()
        assert (field.samples[m:] != eps_ref.samples[m:]).all()
        config = qoct.OptimizationConfig(
            alpha=alpha, max_iters=1, j_tol=1e-300, stationarity_tol=1e-6,
            initial_field=field, eps_ref=eps_ref,
        )
        result = qoct.optimize(problem.psi0, H, O, grid, config)
        canonical = qoct.CostateBoundary.canonical()

        sol = qoct.solve(problem, field, canonical)
        whole = qoct.eval_total(sol.psi, sol.chi, field, eps_ref, alpha, O, H, grid)
        first = result.j_history[0]
        assert first.j_cost == whole.j_cost
        for term in ("j_opt", "j_tdse", "j_total"):
            assert abs(getattr(first, term) - getattr(whole, term)) <= 1e-12 * abs(getattr(whole, term)), term

        final = result.final_field
        assert np.array_equal(final.samples[m:], eps_ref.samples[m:])
        sol = qoct.solve(problem, final, canonical)
        g = qoct.analytic_gradient(sol.psi, sol.chi, final, eps_ref, alpha, H, grid)
        residual = np.max(np.abs(g[:m])) / (2 * alpha * grid.dt)
        assert abs(result.final_stationarity_residual - residual) <= 1e-12 * residual


class TestFirstIteration:
    def test_records_the_paper_sweep(self):
        # the sweep from the initial field's own rows raises J on the
        # benchmark, so its field is the first record
        psi0, H, O, grid = two_level_benchmark()
        config = benchmark_config()
        m = grid.index_T
        # the rows the evaluation reads: its m + 1 steps up to the first node
        # past T and the m derivatives before T from one series, and the
        # costate solved on those steps
        window = qoct.ControlProblem(
            psi0=psi0, hamiltonian=H, observable=O, grid=qoct.TimeGrid(grid.dt, m + 1, m),
            eps_ref=qoct.ControlField(config.eps_ref.samples[: m + 1]), alpha=config.alpha,
        )
        samples = qoct.ControlField(config.initial_field.samples[: m + 1])
        rows = gradient._evaluate(window, samples)[1]
        swept = _feedback_sweep(
            psi0.amplitudes, rows, config.eps_ref.samples, config.alpha, H, grid
        )
        result = qoct.optimize(psi0, H, O, grid, benchmark_config(max_iters=1))
        assert np.array_equal(result.final_field.samples, swept)
        assert result.evaluations_run == 2
        assert result.j_history[1].j_total > result.j_history[0].j_total

    def test_sweep_that_lowers_j_is_not_taken(self, monkeypatch):
        # this two-level instance's sweep lowers J; the first iteration steps
        # from the initial samples before T instead, with the reference after T
        problem, field = seeded_problem(5, 2, 200, 1.0)
        H, O, grid = problem.hamiltonian, problem.observable, problem.grid
        m = grid.index_T
        swept = []

        def recording(*args):
            swept.append(_feedback_sweep(*args))
            return swept[-1]

        monkeypatch.setattr(optimizer, "_feedback_sweep", recording)
        config = qoct.OptimizationConfig(
            alpha=1.0, max_iters=1, j_tol=1e-300, stationarity_tol=1e-6,
            initial_field=field, eps_ref=problem.eps_ref,
        )
        result = qoct.optimize(problem.psi0, H, O, grid, config)
        sweep_j = qoct.reduced_objective(problem, qoct.ControlField(swept[0]))
        assert sweep_j < result.j_history[0].j_total
        assert result.iterations_run == 1
        assert result.largest_j_decrease == 0.0
        assert result.j_history[1].j_total > result.j_history[0].j_total
        assert not np.array_equal(result.final_field.samples, swept[0])
        assert np.array_equal(result.final_field.samples[m:], problem.eps_ref.samples[m:])

    @pytest.mark.parametrize("complex_hermitian", [False, True])
    @pytest.mark.parametrize("dim", [3, 8])
    def test_no_sweep_above_two_levels(self, monkeypatch, dim, complex_hermitian):
        # above two levels the first iteration is an L-BFGS step with an empty
        # memory: along the exact gradient of the initial samples before T,
        # with the reference after T; no later iteration lowers J either
        problem, field = seeded_problem(
            60 + dim, dim, 200, 1.0, complex_hermitian=complex_hermitian
        )
        H, O, grid = problem.hamiltonian, problem.observable, problem.grid
        m, eps_ref = grid.index_T, problem.eps_ref

        def refused(*args):
            raise AssertionError("the feedback sweep ran above two levels")

        monkeypatch.setattr(optimizer, "_feedback_sweep", refused)
        results = [
            qoct.optimize(problem.psi0, H, O, grid, qoct.OptimizationConfig(
                alpha=1.0, max_iters=max_iters, j_tol=1e-12, stationarity_tol=1e-6,
                initial_field=field, eps_ref=eps_ref,
            ))
            for max_iters in (1, 10)
        ]
        first = results[0].final_field.samples
        assert np.array_equal(first[m:], eps_ref.samples[m:])
        start = qoct.ControlField(np.concatenate([field.samples[:m], eps_ref.samples[m:]]))
        sol = qoct.solve(problem, start, qoct.CostateBoundary.canonical())
        g = qoct.analytic_gradient(sol.psi, sol.chi, start, eps_ref, 1.0, H, grid)[:m]
        step = first[:m] - field.samples[:m]
        assert step @ g / (np.linalg.norm(step) * np.linalg.norm(g)) > 1 - 1e-12
        for result in results:
            assert result.largest_j_decrease == 0.0
            assert min(np.diff([bd.j_total for bd in result.j_history])) >= 0.0


class TestMonotone:
    @pytest.mark.parametrize("dim", range(3, 9))
    def test_objective_never_decreases_above_two_levels(self, dim):
        # the immediate-feedback sweep alone lost J on 36 of these 60 runs
        # (J falling by up to 2 in one iteration); no accepted iteration
        # lowers J now
        for seed in range(1, 11):
            problem, field = seeded_problem(seed, dim, 200, 1.0)
            config = qoct.OptimizationConfig(
                alpha=1.0, max_iters=10, j_tol=1e-12, stationarity_tol=1e-6,
                initial_field=field, eps_ref=problem.eps_ref,
            )
            result = qoct.optimize(
                problem.psi0, problem.hamiltonian, problem.observable, problem.grid, config
            )
            assert result.largest_j_decrease == 0.0, seed
            assert min(np.diff([bd.j_total for bd in result.j_history])) >= 0.0, seed


class TestContinuumLimit:
    def test_optimal_field_jumps_at_T_as_dt_shrinks(self):
        # optimize solves the two-level benchmark to its discrete maximum at
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
            assert result.largest_j_decrease == 0.0
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
        # objective is field-independent, so the sweep sheds the field; the
        # run stops once J stagnates below j_tol and the residual, here the
        # field itself, is below stationarity_tol (no step can then raise J
        # beyond round-off, so the iteration after the sweep keeps the field)
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


class TestLineSearchFloor:
    """A strong-Wolfe search ends once no trial can move J beyond round-off of f0."""

    def test_flat_search_stops_before_its_budget(self):
        # f sits a few ulps above f0 wherever it is probed: every bracket
        # fails sufficient decrease, and once its width times the slope is
        # below ulp(f0) the search gives up instead of shrinking it further
        f0, d0 = -2.5, -1e-15
        trials = []

        def phi(a):
            trials.append(a)
            return f0 + 8 * math.ulp(f0), d0, a

        assert optimizer._wolfe_step(phi, f0, d0) is None
        assert 1 < len(trials) < optimizer.MAX_TRIALS
        bracket = trials[-1]
        assert bracket * abs(d0) <= math.ulp(f0) < trials[-2] * abs(d0)

    def test_resolvable_search_is_not_cut(self):
        # f0 + d0 a + c a^2 / 2 overshoots at a = 1 and has its minimizer at
        # -d0 / c = 0.1, 5e-12 (about 2e4 ulps of f0) below f0: the bracket
        # [0, 1] is far above the floor, so the cubic step finds it
        f0, d0, c = 1.0, -1e-10, 1e-9

        def phi(a):
            return f0 + d0 * a + 0.5 * c * a * a, d0 + c * a, a

        assert optimizer._wolfe_step(phi, f0, d0) == pytest.approx(0.1, rel=1e-6)

    @pytest.mark.parametrize("seed, dim", [(80, 3), (82, 8), (83, 2)])
    def test_run_to_the_floor_keeps_its_field(self, monkeypatch, seed, dim):
        # j_tol below round-off: the run converges only on an iteration that
        # keeps its field (Delta J = 0) after both searches fail. Each failed
        # search now ends on the floor, short of MAX_TRIALS evaluations
        searches = []
        wolfe = optimizer._wolfe_step

        def counted(phi, f0, d0):
            trials = []

            def logged(a):
                trials.append(a)
                return phi(a)

            step = wolfe(logged, f0, d0)
            searches.append((len(trials), step is not None))
            return step

        monkeypatch.setattr(optimizer, "_wolfe_step", counted)
        problem, field = seeded_problem(seed, dim, 60, 1.0)
        config = qoct.OptimizationConfig(
            alpha=1.0, max_iters=200, j_tol=1e-300, stationarity_tol=1e-6,
            initial_field=qoct.ControlField(0.01 * field.samples), eps_ref=problem.eps_ref,
        )
        result = qoct.optimize(
            problem.psi0, problem.hamiltonian, problem.observable, problem.grid, config
        )
        assert result.converged and result.j_history[-1] == result.j_history[-2]
        failed = [n for n, found in searches if not found]
        assert failed and max(failed) < optimizer.MAX_TRIALS


class TestRefusedFields:
    """A field the run makes itself whose step phase the stack kernel refuses is not taken."""

    def test_refused_trial_brackets_the_step(self):
        # f0 + d0 a + c a^2 / 2 has its minimizer at 0.1; trials at a >= 0.3
        # are refused (f = +inf): a = 1 brackets, the search halves back
        # toward lo and returns a strong-Wolfe step short of the refused ones
        f0, d0, c = 1.0, -1.0, 10.0
        trials = []

        def phi(a):
            trials.append(a)
            if a >= 0.3:
                return math.inf, 0.0, None
            return f0 + d0 * a + 0.5 * c * a * a, d0 + c * a, a

        step = optimizer._wolfe_step(phi, f0, d0)
        assert trials[:3] == [1.0, 0.5, 0.25] and step == trials[-1] < 0.3
        assert f0 + d0 * step + 0.5 * c * step * step <= f0 + optimizer.WOLFE_C1 * step * d0
        assert abs(d0 + c * step) <= -optimizer.WOLFE_C2 * d0

    def test_search_refused_everywhere_fails(self):
        trials = []

        def phi(a):
            trials.append(a)
            return math.inf, 0.0, None

        assert optimizer._wolfe_step(phi, 1.0, -1.0) is None
        assert len(trials) == optimizer.MAX_TRIALS

    def test_refused_sweep_is_not_taken(self, monkeypatch):
        # at alpha 1e-11 the two-level sweep's samples are past the step phase
        # bound: its field is not taken, as one that lowers J is not, and the
        # first iteration is a line search from the initial samples
        rng = np.random.default_rng(0)
        drift, coupling, observable = (1e3 * random_symmetric(rng, 2).matrix for _ in range(3))
        H = qoct.ControlHamiltonian(
            drift=qoct.HermitianOperator(drift), coupling=qoct.HermitianOperator(coupling)
        )
        grid = qoct.TimeGrid(dt=1.0, n_steps=2, index_T=1)
        psi0 = qoct.StateVector(np.array([1.0, 0.0]))
        eps_ref = qoct.ControlField.constant(0.0, 2)
        swept = []

        def recording(*args):
            swept.append(_feedback_sweep(*args))
            return swept[-1]

        monkeypatch.setattr(optimizer, "_feedback_sweep", recording)
        config = qoct.OptimizationConfig(
            alpha=1e-11, max_iters=1, j_tol=1e-300, stationarity_tol=1e-6,
            initial_field=qoct.ControlField(np.array([1e-3, 0.0])), eps_ref=eps_ref,
        )
        result = qoct.optimize(psi0, H, qoct.HermitianOperator(observable), grid, config)
        phase = max(np.linalg.norm(H.evaluate(eps), 1) for eps in swept[0]) * grid.dt
        assert not phase <= propagator.MAX_STEP_PHASE
        assert result.iterations_run == 1 and result.largest_j_decrease == 0.0
        assert not np.array_equal(result.final_field.samples, swept[0])
        assert np.isfinite(result.final_field.samples).all()
        assert result.j_history[1].j_total >= result.j_history[0].j_total

    def test_refused_initial_field_raises(self):
        # the caller's own field is not the run's to drop
        psi0, H, O, grid = two_level_benchmark()
        config = benchmark_config(max_iters=1)
        samples = config.initial_field.samples.copy()
        samples[3] = 1e18
        config = dataclasses.replace(config, initial_field=qoct.ControlField(samples))
        with pytest.raises(ValueError, match="step phase"):
            qoct.optimize(psi0, H, O, grid, config)


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
        # the run reports the J the gradient differentiates: its penalty
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
