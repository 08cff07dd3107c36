import dataclasses
import math

import numpy as np
import pytest

import qoct
from qoct import cli, gradient, propagator
from conftest import pauli_x, random_hermitian, random_state, seeded_problem
from reference import Direction, step_control_derivative, step_matrix
from test_cli import example_config


def forward_and_canonical(problem, field):
    traj = qoct.propagate_forward(problem.psi0, field, problem.hamiltonian, problem.grid)
    chi = qoct.propagate_costate(
        traj, problem.observable, field, problem.hamiltonian, problem.grid,
        qoct.CostateBoundary.canonical(),
    )
    return traj, chi


class TestAnalyticGradient:
    def test_costate_parallel_to_state_leaves_cost_term(self):
        # O = 2*I makes the canonical costate exactly 2*psi node by node,
        # and a costate parallel to the state cannot move the objective
        problem, field = seeded_problem(40, 3, 30, 1.5)
        H, grid = problem.hamiltonian, problem.grid
        traj = qoct.propagate_forward(problem.psi0, field, H, grid)
        chi = qoct.propagate_costate(
            traj, qoct.HermitianOperator(2.0 * np.eye(3)), field, H, grid,
            qoct.CostateBoundary.canonical(),
        )
        g = qoct.analytic_gradient(traj, chi, field, problem.eps_ref, 1.5, H, grid)
        cost_only = -2 * 1.5 * grid.dt * (field.samples - problem.eps_ref.samples)
        assert np.max(np.abs(g - cost_only)) < 1e-12

    def test_vanishes_at_trivial_stationary_point(self):
        problem, _ = seeded_problem(41, 2, 30, 1.0)
        H, grid = problem.hamiltonian, problem.grid
        traj = qoct.propagate_forward(problem.psi0, problem.eps_ref, H, grid)
        chi = qoct.propagate_costate(
            traj, qoct.HermitianOperator(np.eye(2)), problem.eps_ref, H, grid,
            qoct.CostateBoundary.canonical(),
        )
        g = qoct.analytic_gradient(traj, chi, problem.eps_ref, problem.eps_ref, 1.0, H, grid)
        assert np.max(np.abs(g)) < 1e-14

    def test_direct_field_law_evaluation(self):
        # sigma_x eigenstate driven by a sigma_x-only Hamiltonian, costate
        # i*psi by hand: every pre-measurement sample gets -2*dt
        n_steps, m, dt = 10, 7, 0.2
        grid = qoct.TimeGrid(dt=dt, n_steps=n_steps, index_T=m)
        H = qoct.ControlHamiltonian(
            drift=qoct.HermitianOperator(np.zeros((2, 2))), coupling=pauli_x()
        )
        psi0 = qoct.StateVector([1 / np.sqrt(2), 1 / np.sqrt(2)])
        field = qoct.ControlField(np.linspace(0.3, 1.1, n_steps))
        ref = qoct.ControlField(np.array(field.samples))
        traj = qoct.propagate_forward(psi0, field, H, grid)
        states = np.zeros((n_steps + 1, 2), dtype=complex)
        states[:m] = 1j * traj.states[:m]
        chi = qoct.CostateTrajectory(
            states=states,
            chi_T_minus=1j * traj.states[m],
            chi_T_plus=np.zeros(2, dtype=complex),
            index_T=m,
        )
        g = qoct.analytic_gradient(traj, chi, field, ref, 1.0, H, grid)
        assert np.max(np.abs(g[:m] - (-2.0 * dt))) < 1e-12
        assert np.max(np.abs(g[m:])) == 0.0

    def test_rejects_continuous_costate(self):
        problem, field = seeded_problem(42, 2, 30, 1.0)
        traj = qoct.propagate_forward(problem.psi0, field, problem.hamiltonian, problem.grid)
        chi = qoct.propagate_costate(
            traj, problem.observable, field, problem.hamiltonian, problem.grid,
            qoct.CostateBoundary.continuous(1),
        )
        with pytest.raises(ValueError, match="canonical"):
            qoct.analytic_gradient(
                traj, chi, field, problem.eps_ref, 1.0, problem.hamiltonian, problem.grid
            )

    @pytest.mark.parametrize("dim", [2, 4])
    def test_batched_matches_per_sample_derivative(self, dim):
        # complex-Hermitian: the batched pairing rows (the field series'
        # derivative at every dimension) against the per-sample eigenbasis
        # dU_k/deps of step_control_derivative
        rng = np.random.default_rng(53)
        H = qoct.ControlHamiltonian(
            drift=random_hermitian(rng, dim), coupling=random_hermitian(rng, dim)
        )
        O = random_hermitian(rng, dim)
        grid = qoct.TimeGrid(dt=0.05, n_steps=60, index_T=48)
        field = qoct.ControlField(rng.uniform(-1.0, 1.0, 60))
        ref = qoct.ControlField(rng.uniform(-0.5, 0.5, 60))
        traj = qoct.propagate_forward(random_state(rng, dim), field, H, grid)
        chi = qoct.propagate_costate(traj, O, field, H, grid, qoct.CostateBoundary.canonical())
        g = qoct.analytic_gradient(traj, chi, field, ref, 0.7, H, grid)

        m = grid.index_T
        loop = -2.0 * 0.7 * grid.dt * (field.samples - ref.samples)
        for k in range(m):
            chi_next = chi.chi_T_minus if k + 1 == m else chi.node(k + 1)
            du = step_control_derivative(H, float(field.samples[k]), grid.dt)
            loop[k] += 2.0 * np.vdot(chi_next, du @ traj.node(k)).real
        assert np.max(np.abs(g - loop)) < 1e-14


class TestEigenpairOracle:
    """The exact gradient against central differences of J marched on ``step_matrix`` steps.

    ``gradient_report``'s oracle steps the field series the gradient
    differentiates, so it checks the adjoint and the pairing only. Here
    psi(T) is marched on the eigenpair route instead, so the series, its
    derivative, the adjoint and the pairing are checked end to end. The
    probe step 1e-3 keeps the round-off of |J| / h far below the
    truncation, which stays under the relative 1e-6 gate.
    """

    PROBE_STEP = 1e-3

    @staticmethod
    def objective(problem, samples):
        """j_opt + j_cost of the samples, with psi(T) marched by ``step_matrix``."""
        grid, H = problem.grid, problem.hamiltonian
        psi = problem.psi0
        for eps in samples[: grid.index_T]:
            psi = qoct.StateVector(
                step_matrix(H, float(eps), grid.dt, Direction.FORWARD) @ psi.amplitudes
            )
        return qoct.expectation(problem.observable, psi) + qoct.eval_j_cost(
            qoct.ControlField(samples), problem.eps_ref, problem.alpha, grid
        )

    @pytest.mark.parametrize("complex_hermitian", [False, True])
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_matches_central_differences_of_eigh_steps(self, dim, complex_hermitian):
        problem, field = seeded_problem(80 + dim, dim, 40, 1.0, complex_hermitian=complex_hermitian)
        traj, chi = forward_and_canonical(problem, field)
        g = qoct.analytic_gradient(
            traj, chi, field, problem.eps_ref, problem.alpha, problem.hamiltonian, problem.grid
        )
        h = self.PROBE_STEP
        for k in (0, 9, 21, problem.grid.index_T - 1):
            move = np.zeros(field.n_samples)
            move[k] = h
            fd = (
                self.objective(problem, field.samples + move)
                - self.objective(problem, field.samples - move)
            ) / (2.0 * h)
            assert abs(g[k] - fd) / max(1e-12, abs(fd)) < 1e-6


class TestFiniteDifference:
    def test_post_measurement_samples_see_only_cost(self):
        problem, field = seeded_problem(43, 2, 40, 1.0)
        m = problem.grid.index_T
        dt = problem.grid.dt
        fd = qoct.gradient_report(problem, field, probe_step=1e-5).finite_diff
        for k in (m, m + 3, problem.grid.n_steps - 1):
            expected = -2.0 * problem.alpha * dt * (field.samples[k] - problem.eps_ref.samples[k])
            assert fd[k] == pytest.approx(expected, abs=1e-9)

    def test_matches_analytic_on_seeded_three_level(self):
        problem, field = seeded_problem(44, 3, 60, 1.0)
        traj, chi = forward_and_canonical(problem, field)
        g = qoct.analytic_gradient(
            traj, chi, field, problem.eps_ref, problem.alpha, problem.hamiltonian, problem.grid
        )
        fd = qoct.gradient_report(problem, field, probe_step=1e-5).finite_diff
        for k in range(0, 60, 7):
            assert abs(g[k] - fd[k]) / max(1e-12, abs(fd[k])) < 1e-6

    def test_truncation_shrinks_quadratically(self):
        problem, field = seeded_problem(45, 2, 30, 1.0)
        traj, chi = forward_and_canonical(problem, field)
        g = qoct.analytic_gradient(
            traj, chi, field, problem.eps_ref, problem.alpha, problem.hamiltonian, problem.grid
        )
        k = int(np.argmax(np.abs(g[: problem.grid.index_T])))
        errors = [
            abs(qoct.gradient_report(problem, field, probe_step=h).finite_diff[k] - g[k])
            for h in (1e-1, 1e-2, 1e-5)
        ]
        # central differences: a tenfold step cut shrinks the error ~100x,
        # until the probe hits the round-off plateau well below 1e-9
        assert 50 < errors[0] / errors[1] < 200
        assert errors[2] < 1e-9

    def test_probe_step_validation(self):
        problem, field = seeded_problem(46, 2, 30, 1.0)
        # a non-finite step is refused up front, not deep in the probes' stack
        for h in (0.0, -1e-5, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                qoct.gradient_report(problem, field, probe_step=h)


class TestGradientReport:
    def test_mismatch_past_the_largest_double_reads_as_it(self):
        # h below the samples' spacing leaves most probes unmoved (fd = 0)
        # while alpha = 1e300 makes |g| ~ 1e299: the relative mismatch
        # |g| / 1e-12 is past the largest double, with no overflow warning
        problem, field = seeded_problem(49, 2, 30, 1e300)
        report = qoct.gradient_report(problem, field, probe_step=1e-17)
        assert np.isfinite(report.analytic).all() and np.isfinite(report.finite_diff).all()
        assert report.max_rel_error == np.finfo(np.float64).max

    def test_penalty_difference_does_not_overflow(self):
        # alpha (eps +- h - ref)^2 is past the largest double at alpha = 1e279
        # and h = 1e15, but its central difference, about -2 alpha dt (eps - ref),
        # is not
        problem, field = seeded_problem(53, 2, 30, 1e279)
        report = qoct.gradient_report(problem, field, probe_step=1e15)
        assert np.isfinite(report.finite_diff).all() and math.isfinite(report.max_rel_error)

    def test_seeded_instance_passes_oracle(self):
        problem, field = seeded_problem(47, 3, 50, 1.0)
        report = qoct.gradient_report(problem, field)
        assert report.max_rel_error < 1e-6
        assert report.probe_step == 1e-5

    def test_max_rel_error_definition(self):
        problem, field = seeded_problem(48, 2, 30, 1.0)
        report = qoct.gradient_report(problem, field)
        rel = np.abs(report.analytic - report.finite_diff) / np.maximum(
            1e-12, np.abs(report.finite_diff)
        )
        assert report.max_rel_error == np.max(rel)

    def test_complex4_passes_the_gate_at_the_default_probe_step(self):
        # gradcheck's probe field on CI's dim-4 complex-Hermitian config: each
        # probe pair shares its suffix product, so the pair's round-off
        # cancels and stays far below the relative gate
        config = cli.ProblemConfig.from_dict(example_config("complex4"))
        field = config.noisy_field(cli.NOISE_AMPLITUDE_PROBE)
        report = qoct.gradient_report(config.problem, field)
        assert report.max_rel_error < cli.GRADCHECK_TOL


class TestOneLaw:
    """The oracle checks the gap ``optimize`` certifies: both evaluate through ``_evaluate``."""

    @pytest.mark.parametrize("complex_hermitian", [False, True])
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_report_is_the_evaluated_gap(self, dim, complex_hermitian):
        problem, field = seeded_problem(130 + dim, dim, 50, 0.7, complex_hermitian=complex_hermitian)
        eps_ref = qoct.ControlField(np.random.default_rng(140 + dim).uniform(-0.5, 0.5, 50))
        problem = dataclasses.replace(problem, eps_ref=eps_ref)
        grid, alpha, m = problem.grid, problem.alpha, problem.grid.index_T
        gap = gradient._evaluate(problem, field)[2]
        report = qoct.gradient_report(problem, field)
        # before T the gradient is -2 alpha dt times the evaluated gap, bit for bit
        assert np.array_equal(report.analytic[:m], -2.0 * grid.dt * gap * alpha)
        # analytic_gradient on a fresh solve takes the derivatives of the m
        # samples before T from a series of their own range: round-off apart
        propagator._clear_last_solve()
        traj, chi = forward_and_canonical(problem, field)
        g = qoct.analytic_gradient(traj, chi, field, eps_ref, alpha, problem.hamiltonian, grid)
        assert np.max(np.abs(g - report.analytic)) <= 1e-12 * max(1.0, np.max(np.abs(g)))


class TestBatchedOracle:
    @pytest.mark.parametrize("h", [1e-1, 1e-5])
    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_matches_two_reduced_objectives_per_sample(self, dim, h):
        # complex-Hermitian, 40 steps with T at node 32: the last 8 samples
        # come after T and move only the penalty
        problem, field = seeded_problem(60 + dim, dim, 40, 1.0, complex_hermitian=True)
        report = qoct.gradient_report(problem, field, probe_step=h)
        definition = np.empty(field.n_samples)
        for k in range(field.n_samples):
            move = np.zeros(field.n_samples)
            move[k] = h
            definition[k] = (
                qoct.reduced_objective(problem, qoct.ControlField(field.samples + move))
                - qoct.reduced_objective(problem, qoct.ControlField(field.samples - move))
            ) / (2.0 * h)
        assert np.max(np.abs(report.finite_diff - definition)) <= 1e-9


class TestStationarityResidual:
    def test_field_built_from_the_law_scores_zero(self):
        problem, field = seeded_problem(50, 2, 40, 2.0)
        traj, chi = forward_and_canonical(problem, field)
        m = problem.grid.index_T
        mu = problem.hamiltonian.control_derivative
        samples = np.array(field.samples)
        for k in range(m):
            samples[k] = problem.eps_ref.samples[k] + (
                np.vdot(chi.node(k), mu @ traj.node(k)).imag / problem.alpha
            )
        residual = qoct.stationarity_residual(
            traj, chi, qoct.ControlField(samples), problem.eps_ref, problem.alpha,
            problem.hamiltonian, problem.grid,
        )
        assert residual < 1e-12

    def test_reference_field_measures_overlap_term(self):
        problem, _ = seeded_problem(51, 3, 40, 2.0)
        traj, chi = forward_and_canonical(problem, problem.eps_ref)
        m = problem.grid.index_T
        mu = problem.hamiltonian.control_derivative
        overlaps = [
            abs(np.vdot(chi.node(k), mu @ traj.node(k)).imag) for k in range(m)
        ]
        residual = qoct.stationarity_residual(
            traj, chi, problem.eps_ref, problem.eps_ref, problem.alpha,
            problem.hamiltonian, problem.grid,
        )
        assert residual == pytest.approx(max(overlaps) / problem.alpha, rel=1e-12)

    def test_requires_canonical_costate(self):
        problem, field = seeded_problem(52, 2, 30, 1.0)
        traj = qoct.propagate_forward(problem.psi0, field, problem.hamiltonian, problem.grid)
        chi = qoct.propagate_costate(
            traj, problem.observable, field, problem.hamiltonian, problem.grid,
            qoct.CostateBoundary.continuous(1),
        )
        with pytest.raises(ValueError, match="canonical"):
            qoct.stationarity_residual(
                traj, chi, field, problem.eps_ref, 1.0, problem.hamiltonian, problem.grid
            )
