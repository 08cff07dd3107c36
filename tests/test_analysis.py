import dataclasses

import numpy as np
import pytest

import qoct
from qoct import cli
from conftest import (
    level_projector,
    pauli_x,
    random_state,
    random_symmetric,
    seeded_problem,
)
from test_cli import as_pairs_matrix, as_pairs_vector, write_config


def frozen_state_problem(psi0_amps, O, mu=None, alpha=1.0, n_steps=10, index_T=6):
    """Zero drift, zero reference: under the zero field psi never moves."""
    dim = len(psi0_amps)
    H = qoct.ControlHamiltonian(
        drift=qoct.HermitianOperator(np.zeros((dim, dim))),
        coupling=mu if mu is not None else pauli_x(),
    )
    grid = qoct.TimeGrid(dt=0.25, n_steps=n_steps, index_T=index_T)
    return qoct.ControlProblem(
        psi0=qoct.StateVector(psi0_amps),
        hamiltonian=H,
        observable=O,
        grid=grid,
        eps_ref=qoct.ControlField.constant(0.0, n_steps),
        alpha=alpha,
    )


def canonical_solution(problem, field=None):
    field = field if field is not None else problem.eps_ref
    return qoct.solve(problem, field, qoct.CostateBoundary.canonical())


class TestCanonicalJump:
    def test_projector_on_superposition(self):
        problem = frozen_state_problem([1 / np.sqrt(2), 1 / np.sqrt(2)], level_projector())
        report = qoct.check_canonical_jump(canonical_solution(problem))
        assert report.jump_norm_at_T == pytest.approx(1 / np.sqrt(2), abs=1e-15)
        assert report.costate_matches_boundary < 1e-12

    def test_kernel_state_has_no_jump(self):
        problem = frozen_state_problem([1.0, 0.0], level_projector())
        report = qoct.check_canonical_jump(canonical_solution(problem))
        assert report.jump_norm_at_T == 0.0

    def test_identity_observable_unit_jump(self):
        problem = frozen_state_problem([0.6, 0.8], qoct.HermitianOperator(np.eye(2)))
        report = qoct.check_canonical_jump(canonical_solution(problem))
        assert report.jump_norm_at_T == pytest.approx(1.0, abs=1e-14)

    def test_jump_equals_source_norm_on_random_instances(self):
        for seed in range(5):
            problem, field = seeded_problem(400 + seed, 3, 40, 1.0)
            sol = canonical_solution(problem, field)
            report = qoct.check_canonical_jump(sol)
            source = problem.observable.matrix @ sol.psi.node(problem.grid.index_T)
            assert report.jump_norm_at_T == np.linalg.norm(source)
            assert report.costate_matches_boundary < 1e-12

    def test_rejects_continuous_solutions(self):
        problem, field = seeded_problem(410, 2, 30, 1.0)
        sol = qoct.solve(problem, field, qoct.CostateBoundary.continuous(1))
        with pytest.raises(ValueError, match="canonical"):
            qoct.check_canonical_jump(sol)


class TestFieldContinuity:
    def test_one_report_under_both_names(self):
        assert qoct.check_field_continuity is qoct.check_canonical_jump

    def test_limits_around_nonzero_reference(self):
        # x = Im<chi(T-)|mu|psi(T)> / alpha, measured independently here
        problem, field = seeded_problem(630, 3, 40, 0.7, complex_hermitian=True)
        problem = dataclasses.replace(
            problem, eps_ref=qoct.ControlField.constant(0.45, problem.grid.n_steps)
        )
        sol = canonical_solution(problem, field)
        report = qoct.check_field_continuity(sol)
        psi_T = sol.psi.node(problem.grid.index_T)
        overlap = np.vdot(sol.chi.chi_T_minus, problem.hamiltonian.coupling.matrix @ psi_T)
        x = overlap.imag / problem.alpha
        assert abs(x) > 1e-3
        assert report.field_left_limit_gap == abs(overlap.imag) / problem.alpha
        assert report.eps_right_limit == 0.45
        assert report.eps_left_limit - report.eps_right_limit == pytest.approx(x, abs=1e-15)

    def test_identity_observable_keeps_field_continuous(self):
        rng = np.random.default_rng(60)
        problem = frozen_state_problem(
            random_state(rng, 2).amplitudes, qoct.HermitianOperator(np.eye(2))
        )
        report = qoct.check_field_continuity(canonical_solution(problem))
        assert report.commutator_condition_holds
        assert report.field_left_limit_gap < 1e-10
        assert report.eps_left_limit == pytest.approx(report.eps_right_limit, abs=1e-10)

    def test_noncommuting_pair_closed_form_gap(self):
        # projector observable with sigma_x coupling on (1, i)/sqrt(2):
        # the field law's left limit sits 1/(2*alpha) away from the reference
        for alpha, expected in ((1.0, 0.5), (2.0, 0.25)):
            problem = frozen_state_problem(
                [1 / np.sqrt(2), 1j / np.sqrt(2)], level_projector(), alpha=alpha
            )
            report = qoct.check_field_continuity(canonical_solution(problem))
            assert not report.commutator_condition_holds
            assert report.field_left_limit_gap == pytest.approx(expected, abs=1e-10)

    def test_coupling_equal_to_observable_commutes(self):
        rng = np.random.default_rng(61)
        O = random_symmetric(rng, 2)
        problem = frozen_state_problem(random_state(rng, 2).amplitudes, O, mu=O)
        report = qoct.check_field_continuity(canonical_solution(problem))
        assert report.commutator_condition_holds
        assert report.field_left_limit_gap < 1e-10

    def test_commutator_predicate_controls_gap(self):
        rng = np.random.default_rng(62)
        for trial in range(5):
            problem, field = seeded_problem(620 + trial, 3, 40, 1.0)
            sol = canonical_solution(problem, field)
            report = qoct.check_field_continuity(sol)
            # random symmetric pairs essentially never commute
            assert not report.commutator_condition_holds
            assert report.field_left_limit_gap > 1e-8
        # commuting pair built from a common eigenbasis
        d1 = qoct.HermitianOperator(np.diag([0.3, -0.7, 1.1]))
        d2 = qoct.HermitianOperator(np.diag([1.0, 2.0, -0.5]))
        H = qoct.ControlHamiltonian(drift=random_symmetric(rng, 3), coupling=d2)
        grid = qoct.TimeGrid(dt=0.1, n_steps=30, index_T=20)
        problem = qoct.ControlProblem(
            psi0=random_state(rng, 3), hamiltonian=H, observable=d1, grid=grid,
            eps_ref=qoct.ControlField.constant(0.0, 30), alpha=1.0,
        )
        field = qoct.ControlField(rng.uniform(-1, 1, 30))
        report = qoct.check_field_continuity(canonical_solution(problem, field))
        assert report.commutator_condition_holds
        assert report.field_left_limit_gap < 1e-10


class TestContinuousFamily:
    @pytest.mark.parametrize("n", [1, 2, -1])
    def test_whole_turn_phase_removes_jump(self, n):
        problem, field = seeded_problem(70 + n, 3, 40, 1.0)
        psi = qoct.propagate_forward(problem.psi0, field, problem.hamiltonian, problem.grid)
        report = qoct.check_continuous_family(
            psi, problem.observable, field, problem.hamiltonian, problem.grid, n
        )
        assert report.jump_norm_at_T == 0.0
        assert report.costate_matches_boundary == 0.0
        assert report.homogeneous_residual < 1e-12
        assert abs(report.phase_defect_magnitude - 2.0) < 1e-14

    def test_identity_observable_value(self):
        problem, field = seeded_problem(74, 2, 30, 1.0)
        psi = qoct.propagate_forward(problem.psi0, field, problem.hamiltonian, problem.grid)
        chi = qoct.propagate_costate(
            psi, qoct.HermitianOperator(np.eye(2)), field, problem.hamiltonian,
            problem.grid, qoct.CostateBoundary.continuous(1),
        )
        m = problem.grid.index_T
        assert np.allclose(chi.node(m), (1j / (2 * np.pi)) * psi.node(m), atol=1e-16)

    def test_dichotomy_against_canonical(self):
        problem, field = seeded_problem(75, 3, 40, 1.0)
        sol = canonical_solution(problem, field)
        canonical_report = qoct.check_canonical_jump(sol)
        continuous_report = qoct.check_continuous_family(
            sol.psi, problem.observable, field, problem.hamiltonian, problem.grid, 1
        )
        assert canonical_report.jump_norm_at_T > 0.1
        assert continuous_report.jump_norm_at_T == 0.0


class TestConjugateIndependence:
    def test_seeded_instances(self):
        for seed in (80, 81, 82):
            problem, field = seeded_problem(seed, 2, 50, 1.0)
            dev = qoct.check_conjugate_independence(
                problem.psi0, field, problem.hamiltonian, problem.grid
            )
            assert dev < 1e-12

    def test_complex_scaling_variant(self):
        problem, field = seeded_problem(83, 3, 50, 1.0)
        dev = qoct.check_conjugate_independence(
            problem.psi0, field, problem.hamiltonian, problem.grid, beta=2j
        )
        assert dev < 1e-12

    def test_eigenstate_closed_form(self):
        # free evolution of the upper level: the companion function must
        # carry the conjugate phase exp(+i t_k)
        H = qoct.ControlHamiltonian(drift=level_projector(), coupling=pauli_x())
        grid = qoct.TimeGrid(dt=0.05, n_steps=40, index_T=30)
        field = qoct.ControlField.constant(0.0, 40)
        phi = np.array([0.0, 1.0], dtype=complex)
        for k in range(grid.n_steps):
            u = qoct.step_matrix(H, 0.0, grid.dt, qoct.Direction.BACKWARD)
            phi = u @ phi
            assert abs(phi[1] - np.exp(1j * grid.times[k + 1])) < 1e-12
        dev = qoct.check_conjugate_independence(qoct.StateVector([0, 1]), field, H, grid)
        assert dev < 1e-12


class TestOneStackPerCall:
    """Count eigendecomposed matrices: each call builds its forward stack once."""

    @pytest.fixture
    def eigh_log(self, monkeypatch):
        log = []
        eigh = np.linalg.eigh

        def counting(a):
            log.append(int(np.prod(np.shape(a)[:-2])))
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        return log

    def test_each_call_decomposes_each_interval_once(self, eigh_log):
        # dim 3 leaves the SU(2) closed form, so every stack goes through eigh
        problem, field = seeded_problem(70, 3, 40, 1.0)
        H, O, grid = problem.hamiltonian, problem.observable, problem.grid

        def logged(call):
            eigh_log.clear()
            call()
            return list(eigh_log)

        sol = qoct.solve(problem, field, qoct.CostateBoundary.canonical())
        counts = {
            "solve": logged(lambda: qoct.solve(problem, field, qoct.CostateBoundary.canonical())),
            "continuous_family": logged(
                lambda: qoct.check_continuous_family(sol.psi, O, field, H, grid, 1)
            ),
            "conjugate": logged(
                lambda: qoct.check_conjugate_independence(problem.psi0, field, H, grid)
            ),
            "gradient": logged(
                lambda: qoct.analytic_gradient(sol.psi, sol.chi, field, problem.eps_ref, 1.0, H, grid)
            ),
        }
        n, m = grid.n_steps, grid.index_T
        # one stack of n per call, and the gradient's m intervals in one call
        assert counts == {"solve": [n], "continuous_family": [n], "conjugate": [n], "gradient": [m]}

    def test_gradient_report_decomposes_each_step_once(self, eigh_log):
        problem, field = seeded_problem(71, 3, 40, 1.0)
        qoct.gradient_report(problem, field)
        n, m = problem.grid.n_steps, problem.grid.index_T
        # one forward stack for both trajectories, the gradient's m intervals,
        # then only the probes' 2m moved steps: they step off the solved nodes
        assert eigh_log == [n, m, 2 * m]

    @pytest.mark.parametrize("dim", [3, 2])
    def test_optimize_forms_each_sweeps_steps_once(self, eigh_log, dim):
        problem, field = seeded_problem(72, dim, 40, 1.0)
        config = qoct.OptimizationConfig(
            alpha=1.0, max_iters=2, j_tol=1e-300, stationarity_tol=1e-6,
            initial_field=field, eps_ref=problem.eps_ref,
        )
        qoct.optimize(problem.psi0, problem.hamiltonian, problem.observable, problem.grid, config)
        n, m = problem.grid.n_steps, problem.grid.index_T
        # the initial stack, the reference's post-T steps and the initial
        # field's pre-T rows, then one step per pre-T sample and sweep; the
        # costate, the objective and the next rows read them. Two levels take
        # the SU(2) closed form and its derivative and never decompose.
        expected = [n, n - m, m] + [1] * (2 * m) if dim == 3 else []
        assert eigh_log == expected

    def test_verify_solves_its_probe_field_once(self, eigh_log, tmp_path):
        rng = np.random.default_rng(73)
        h0, mu, observable = (as_pairs_matrix(random_symmetric(rng, 3).matrix) for _ in range(3))
        config = write_config(
            tmp_path / "cfg.json", dimension=3, h0=h0, mu=mu, observable=observable,
            psi0=as_pairs_vector([1.0, 0.0, 0.0]),
        )
        assert cli.run_verify(config, tmp_path / "out") == 0
        n, m = 100, 80
        # one solve, three continuous-family stacks and two conjugate-pair
        # stacks, then the gradient's m intervals and the probes' 2m moved steps
        assert sum(eigh_log) == 6 * n + 3 * m
