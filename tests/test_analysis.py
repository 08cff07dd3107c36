import dataclasses

import numpy as np
import pytest

import qoct
from qoct import cli, propagator
from conftest import (
    level_projector,
    patch_everywhere,
    pauli_x,
    random_state,
    random_symmetric,
    seeded_problem,
    u_stack,
)
from reference import Direction, step_control_derivative, step_matrix
from test_cli import as_pairs_matrix, as_pairs_vector, write_config, write_example_config
from test_propagator import bits


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

    @pytest.mark.parametrize("complex_", [False, True])
    def test_residual_is_the_unit_costates_over_n(self, complex_):
        # continuous(n) is continuous(1) over n, so are its step defects: the
        # residual is n = 1's over |n|, bitwise its own costate's worst defect
        # for n = +-2^k, kept or not; otherwise the two differ by round-off in
        # the costate's nodes, since both defects are round-off themselves
        problem, field = seeded_problem(77, 3, 40, 1.0, complex_hermitian=complex_)
        H, O, grid = problem.hamiltonian, problem.observable, problem.grid
        sol = canonical_solution(problem, field)
        us = u_stack(H, field.samples, grid.dt)
        ns = (1, 2, -1, 4, -8, 3, -5, 7)
        for kept in (True, False):
            if not kept:
                propagator._clear_last_solve()
            residuals = {
                n: qoct.check_continuous_family(sol.psi, O, field, H, grid, n).homogeneous_residual
                for n in ns
            }
            for n in ns:
                boundary = qoct.CostateBoundary.continuous(n)
                chi = qoct.propagate_costate(sol.psi, O, field, H, grid, boundary)
                own = propagator._worst_defect(propagator._step_defects(us, chi.states))
                assert residuals[n] == residuals[1] / abs(n), (kept, n)
                if n in (1, 2, -1, 4, -8):
                    assert residuals[n] == own, (kept, n)
                else:
                    size = np.max(np.linalg.norm(chi.states, axis=1))
                    assert abs(residuals[n] - own) <= 4 * np.finfo(float).eps * size, (kept, n)

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

    def test_numpy_integer_n_gives_the_int_report(self):
        # n taken from np.arange is a numpy integer; the report is the int's
        problem, field = seeded_problem(76, 3, 40, 1.0)
        psi = qoct.propagate_forward(problem.psi0, field, problem.hamiltonian, problem.grid)
        reports = [
            qoct.check_continuous_family(
                psi, problem.observable, field, problem.hamiltonian, problem.grid, n
            )
            for n in (2, np.int64(2))
        ]
        assert reports[0].as_dict() == reports[1].as_dict()
        assert qoct.CostateBoundary.continuous(np.int64(2)) == qoct.CostateBoundary.continuous(2)
        assert type(qoct.CostateBoundary.continuous(np.int32(-3)).n) is int


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
            u = step_matrix(H, 0.0, grid.dt, Direction.BACKWARD)
            phi = u @ phi
            assert abs(phi[1] - np.exp(1j * grid.times[k + 1])) < 1e-12
        dev = qoct.check_conjugate_independence(qoct.StateVector([0, 1]), field, H, grid)
        assert dev < 1e-12


    # conj(beta) for 1, 2i and -4 scales a march exactly, for 0.3 + 0.7i not
    BETAS = (1.0, 2j, 0.3 + 0.7j, -4.0)
    EXACT = (1.0, 2j, -4.0)

    @staticmethod
    def direct_deviation(problem, field, beta):
        """The companion marched from conj(beta) psi0, step by step, on a stack of the field."""
        H, grid = problem.hamiltonian, problem.grid
        traj = qoct.propagate_forward(problem.psi0, field, H, grid)
        row = np.conj(beta) * problem.psi0.amplitudes
        worst = np.linalg.norm(row - np.conj(beta) * traj.states[0])
        for u, psi in zip(u_stack(H, field.samples, grid.dt), traj.states[1:]):
            row = row.dot(u)
            worst = max(worst, np.linalg.norm(row - np.conj(beta) * psi))
        return float(worst)

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_one_companion_serves_every_beta(self, dim, monkeypatch):
        marches = []

        def counting(us, x0, rows):
            marches.append("rows" if rows else "forward")
            return march(us, x0, rows)

        march = propagator._march
        monkeypatch.setattr(propagator, "_march", counting)
        problem, field = seeded_problem(160 + dim, dim, 40, 1.0)
        H, grid = problem.hamiltonian, problem.grid

        def devs(psi0, f):
            marches.clear()
            seen = {b: qoct.check_conjugate_independence(psi0, f, H, grid, b) for b in self.BETAS}
            return seen, marches[:]

        qoct.solve(problem, field, qoct.CostateBoundary.canonical())
        kept, seen = devs(problem.psi0, field)
        # one companion march for the four beta, and none when they are asked again
        assert seen == ["rows"]
        assert devs(problem.psi0, field) == (kept, [])
        # a new field, or another psi0 object, solves and marches its companion again
        fresh = qoct.ControlField(np.array(field.samples))
        assert devs(problem.psi0, fresh) == (kept, ["forward", "rows"])
        other = qoct.StateVector(problem.psi0.amplitudes)
        assert devs(other, field) == (kept, ["forward", "rows"])
        one = kept[1.0]
        assert one < 1e-13
        for beta, dev in kept.items():
            if beta in self.EXACT:
                assert dev == abs(beta) * one, beta
            else:
                assert dev == pytest.approx(abs(beta) * one, rel=1e-15, abs=0.0)
            direct = self.direct_deviation(problem, field, beta)
            assert abs(dev - direct) <= 1e-14 * abs(beta), beta
            if beta in self.EXACT:
                assert dev == direct, beta

    @pytest.mark.parametrize("beta", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
    def test_refuses_a_non_finite_beta(self, beta):
        problem, field = seeded_problem(5, 3, 40, 1.0)
        with pytest.raises(ValueError, match="beta"):
            qoct.check_conjugate_independence(
                problem.psi0, field, problem.hamiltonian, problem.grid, beta
            )

    def test_largest_beta_is_finite(self):
        # the march never sees beta: no overflow, and |beta| times beta = 1's
        problem, field = seeded_problem(5, 3, 40, 1.0)
        H, grid = problem.hamiltonian, problem.grid
        dev = qoct.check_conjugate_independence(problem.psi0, field, H, grid, 1e308)
        one = qoct.check_conjugate_independence(problem.psi0, field, H, grid)
        assert np.isfinite(dev) and dev == 1e308 * one


def matrices(log):
    return [n for n, _ in log]


class TestOneStackPerCall:
    """Count the steps each call forms and the matrices it decomposes: one stack per field.

    A call builds at most one forward stack, and none when ``propagator``'s
    last forward solve is the one it asks for: a solve from the same psi0,
    or the trajectory the call is handed. After that solve the checks also
    read its step defects and its adjoint solution instead of forming or
    marching them again.

    ``stack_log`` holds the steps per forward stack ``propagator._stacks`` builds,
    ``series_log`` the arithmetic dtype per ``propagator._field_series``
    build and ``eigh_log`` (matrices, dtype) per ``np.linalg.eigh`` call:
    real-symmetric Hamiltonians build their series in float64, any complex
    operator in complex128. At every dimension every step of a stack is
    evaluated from a field series, and the stacks built later for a field
    whose solve is kept (the probes' moved steps, the exact gradient's
    derivatives) evaluate that solve's series; no production route
    decomposes anything, and only the reference routes read eigenpairs.
    """

    @pytest.fixture
    def eigh_log(self, monkeypatch):
        log = []
        eigh = np.linalg.eigh

        def counting(a):
            log.append((int(np.prod(np.shape(a)[:-2])), np.asarray(a).dtype))
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        return log

    @pytest.fixture
    def stack_log(self, monkeypatch):
        log = []

        def counting(H, samples, dt, n_du=0, u=True, series=None):
            if u:
                log.append(int(np.size(samples)))
            return stacks(H, samples, dt, n_du, u, series)

        stacks = patch_everywhere(monkeypatch, "_stacks", counting)
        return log

    @pytest.fixture
    def series_log(self, monkeypatch):
        log = []

        def counting(H, dt, bound):
            log.append(propagator._operators(H)[0].dtype)
            return series(H, dt, bound)

        series = patch_everywhere(monkeypatch, "_field_series", counting)
        return log

    def test_each_call_decomposes_each_interval_once(self, eigh_log, stack_log, series_log):
        problem, field = seeded_problem(70, 3, 40, 1.0)
        H, O, grid = problem.hamiltonian, problem.observable, problem.grid

        def logged(call):
            for log in (eigh_log, stack_log, series_log):
                log.clear()
            call()
            return stack_log[:], len(series_log), matrices(eigh_log)

        def cold(call):
            # the same call with no last forward solve to read
            def run():
                propagator._clear_last_solve()
                call()

            return run

        def family():
            qoct.check_continuous_family(sol.psi, O, field, H, grid, 1)

        def conjugate():
            qoct.check_conjugate_independence(problem.psi0, field, H, grid)

        # the checks read the trajectory of the cold solve, the one kept
        solved = []
        counts = {"solve": logged(cold(
            lambda: solved.append(qoct.solve(problem, field, qoct.CostateBoundary.canonical()))
        ))}
        sol = solved[0]
        counts.update({
            "continuous_family": logged(family),
            "conjugate": logged(conjugate),
            "gradient": logged(
                lambda: qoct.analytic_gradient(sol.psi, sol.chi, field, problem.eps_ref, 1.0, H, grid)
            ),
            "cold continuous_family": logged(cold(family)),
            "cold conjugate": logged(cold(conjugate)),
        })
        n, m = grid.n_steps, grid.index_T
        # (stack steps, series built, decomposed): a solve builds one stack of
        # n from one series, and the checks after it on the same field read
        # it; with no last solve each check builds one of its own. The
        # gradient's m derivatives come from the solve's series; nothing is
        # decomposed
        assert counts == {
            "solve": ([n], 1, []), "continuous_family": ([], 0, []), "conjugate": ([], 0, []),
            "gradient": ([], 0, []),
            "cold continuous_family": ([n], 1, []), "cold conjugate": ([n], 1, []),
        }

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_checks_after_solve_reuse_its_marches_and_defects(self, monkeypatch, dim, complex_):
        # the solve marches psi forward and the canonical costate back and
        # forms the state's defects once; the checks after it read them. The
        # continuous family is (i / 2 pi n) times the solve's adjoint
        # solution: n = 1 marches only its tail after T and forms its
        # costate's defects for the residual, and the other n, whose residuals
        # are n = 1's over |n|, form nothing
        log = []

        def counting(name):
            def wrapper(*args):
                log.append((name, len(args[0])))
                return original(*args)

            original = patch_everywhere(monkeypatch, name, wrapper)

        for name in ("_march_forward", "_march_rows", "_step_defects"):
            counting(name)
        problem, field = seeded_problem(78, dim, 40, 1.0, complex_hermitian=complex_)
        H, O, grid = problem.hamiltonian, problem.observable, problem.grid
        n, m = grid.n_steps, grid.index_T

        def logged(call):
            log.clear()
            call()
            return log[:]

        canonical = qoct.CostateBoundary.canonical()
        solved = []
        counts = {"solve": logged(lambda: solved.append(qoct.solve(problem, field, canonical)))}
        sol = solved[0]
        for k in (1, 2, -1):
            counts[f"family({k})"] = logged(
                lambda: qoct.check_continuous_family(sol.psi, O, field, H, grid, k)
            )
        counts["eval_total"] = logged(
            lambda: qoct.eval_total(sol.psi, sol.chi, field, problem.eps_ref, 1.0, O, H, grid)
        )
        counts["tdse_residual"] = logged(lambda: qoct.tdse_residual(sol.psi, field, H, grid))
        counts["canonical costate"] = logged(
            lambda: qoct.propagate_costate(sol.psi, O, field, H, grid, canonical)
        )
        # (kernel, steps or defect rows) per call
        assert counts == {
            "solve": [("_march_forward", n), ("_step_defects", n), ("_march_rows", m)],
            "family(1)": [("_march_forward", n - m), ("_step_defects", n)],
            "family(2)": [],
            "family(-1)": [],
            "eval_total": [],
            "tdse_residual": [],
            "canonical costate": [],
        }

    @pytest.mark.parametrize("dim", [3, 2])
    def test_gradient_report_decomposes_each_step_once(
        self, monkeypatch, eigh_log, stack_log, series_log, dim
    ):
        marches = []
        march = propagator._march

        def counting(us, x0, rows):
            marches.append((len(us), rows))
            return march(us, x0, rows)

        monkeypatch.setattr(propagator, "_march", counting)
        problem, field = seeded_problem(71, dim, 40, 1.0)
        qoct.gradient_report(problem, field)
        n, m = problem.grid.n_steps, problem.grid.index_T
        # one forward stack for both trajectories, built with the gradient's m
        # derivatives from one series, and the probes' 2m moved steps, which
        # step off the solved nodes, from the same series
        assert (stack_log, len(series_log), matrices(eigh_log)) == ([n, 2 * m], 1, [])
        # the solve's forward march and its costate's row march; the probes
        # reach T through suffix products of the solved steps and march nothing
        assert marches == [(n, False), (m, True)]

    @pytest.mark.parametrize("dt, norm_range, s", [(0.05, (0.5, 1.0), 0), (0.1, (1.0, 2.0), 1)])
    def test_gradient_report_in_the_unsquared_band(self, monkeypatch, stack_log, dt, norm_range, s):
        # a dim-8 complex-Hermitian report whose field range has ||H dt||_1 in
        # (1/2, 1] builds one series with no squaring: its stack, its m
        # derivatives and the probes' 2m moved steps are each one product of
        # powers and coefficients. At twice dt the range is past 1, and the
        # same report squares once: the kept stack, the derivatives' chain
        # (two products) and the moved steps
        built, products = [], []

        def spying(H, dt, bound):
            series = build(H, dt, bound)
            built.append(series.s)
            return series

        def counting(a, b, *args, **kwargs):
            # the products of whole stacks, written in place: only the
            # squarings and the derivatives' chain through them
            if np.ndim(a) == np.ndim(b) == 3 and "out" in kwargs:
                products.append(len(a))
            return matmul(a, b, *args, **kwargs)

        build = patch_everywhere(monkeypatch, "_field_series", spying)
        matmul = np.matmul
        monkeypatch.setattr(np, "matmul", counting)
        problem, field = seeded_problem(79, 8, 40, 1.0, dt=dt, complex_hermitian=True)
        h0, mu = propagator._operators(problem.hamiltonian)
        bound = np.max(np.abs(field.samples))
        norm = max(np.linalg.norm(h0 + e * mu, 1) for e in (bound, -bound)) * dt
        assert norm_range[0] < norm <= norm_range[1]
        propagator._clear_last_solve()
        qoct.gradient_report(problem, field)
        n, m = problem.grid.n_steps, problem.grid.index_T
        assert (stack_log, built) == ([n, 2 * m], [s])
        assert products == ([] if s == 0 else [m, m, n, 2 * m])

    @pytest.mark.parametrize("dim", [3, 2])
    def test_gradient_report_after_solve_keeps_its_stack(
        self, monkeypatch, eigh_log, stack_log, series_log, dim
    ):
        marches = []
        march = propagator._march

        def counting(us, x0, rows):
            marches.append((len(us), rows))
            return march(us, x0, rows)

        monkeypatch.setattr(propagator, "_march", counting)
        problem, field = seeded_problem(71, dim, 40, 1.0)
        sol = qoct.solve(problem, field, qoct.CostateBoundary.canonical())
        for log in (eigh_log, stack_log, series_log, marches):
            log.clear()
        report = qoct.gradient_report(problem, field)
        n, m = problem.grid.n_steps, problem.grid.index_T
        # the report asks for derivatives, so it drops the solve kept before
        # it and builds its own stack of n with its m derivatives from one
        # series, and the probes' 2m moved steps from the same series; it
        # marches its own solve and its costate, and keeps that solve
        assert (stack_log, len(series_log), matrices(eigh_log)) == ([n, 2 * m], 1, [])
        assert marches == [(n, False), (m, True)]
        kept = propagator._last_solve
        assert kept.traj is not sol.psi and kept.us.shape[0] == n
        propagator._clear_last_solve()
        cold = qoct.gradient_report(problem, field)
        assert bits(report) == bits(cold)

    @pytest.mark.parametrize("dim", [3, 2])
    def test_optimize_forms_each_solves_steps_once(
        self, monkeypatch, eigh_log, stack_log, series_log, dim
    ):
        calls = {"_step_defects": 0, "_worst_defect": 0}

        def counted(name):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            original = patch_everywhere(monkeypatch, name, wrapper)

        for name in calls:
            counted(name)
        problem, field = seeded_problem(72, dim, 40, 1.0)
        config = qoct.OptimizationConfig(
            alpha=1.0, max_iters=2, j_tol=1e-300, stationarity_tol=1e-6,
            initial_field=field, eps_ref=problem.eps_ref,
        )
        result = qoct.optimize(
            problem.psi0, problem.hamiltonian, problem.observable, problem.grid, config
        )
        # dim 3: the initial field and one line-search trial per iteration;
        # dim 2: the initial field, the sweep's field (it lowers J here, so it
        # is not taken) and one trial per iteration. The first iteration steps
        # from the initial samples before T with the reference after T, whose
        # solve is the initial field's: it forms only j_cost, and solves nothing
        k = {3: 3, 2: 4}[dim]
        assert (result.iterations_run, result.evaluations_run) == (2, k)
        m = problem.grid.index_T
        # each evaluation solves its field up to the first node past T, on one
        # stack of m + 1 steps, and that stack and the rows' m derivatives
        # come from one series. The costate's gate and the objective read the
        # solved steps and their one set of defects, one pass each. Only two
        # levels sweep, in Python scalars, on the initial field's rows.
        # Nothing is decomposed.
        expected = ([m + 1] * k, k, [])
        assert (stack_log, len(series_log), matrices(eigh_log)) == expected
        assert calls == {"_step_defects": k, "_worst_defect": k}

    def test_verify_solves_its_probe_field_once(
        self, eigh_log, stack_log, series_log, tmp_path, monkeypatch
    ):
        marches = []

        def counting(us, x0, rows):
            marches.append(("rows" if rows else "forward", len(us)))
            return march(us, x0, rows)

        march = propagator._march
        monkeypatch.setattr(propagator, "_march", counting)
        rng = np.random.default_rng(73)
        h0, mu, observable = (as_pairs_matrix(random_symmetric(rng, 3).matrix) for _ in range(3))
        config = write_config(
            tmp_path / "cfg.json", dimension=3, h0=h0, mu=mu, observable=observable,
            psi0=as_pairs_vector([1.0, 0.0, 0.0]),
        )
        assert cli.run_verify(config, tmp_path / "out") == 0
        n, m = 100, 80
        # one solve, the oracle's, whose stack comes with the gradient's m
        # derivatives from one series and which the probes, the solve after
        # it, the continuous family and the conjugate pair read, and the
        # probes' 2m moved steps from the same series; nothing is decomposed
        assert (sum(stack_log), len(series_log), matrices(eigh_log)) == (n + 2 * m, 1, [])
        # its forward march, the adjoint before T, the continuous tail after
        # it, and one companion for both beta
        assert marches == [("forward", n), ("rows", m), ("forward", n - m), ("rows", n)]

    @pytest.mark.parametrize("command", ["propagate", "gradcheck", "optimize"])
    def test_each_subcommand_builds_its_stacks(self, monkeypatch, series_log, tmp_path, command):
        built, served = [], []

        def counting(H, samples, dt, n_du=0, u=True, series=None):
            if u:
                built.append((int(np.size(samples)), n_du))
            return stacks(H, samples, dt, n_du, u, series)

        def serving(traj, field, H, dt):
            solved = solve_on(traj, field, H, dt)
            served.append(solved is propagator._last_solve)
            return solved

        stacks = patch_everywhere(monkeypatch, "_stacks", counting)
        solve_on = patch_everywhere(monkeypatch, "_solve_on", serving)
        config = write_example_config(tmp_path / "cfg.json", "readme")
        n, m = 420, 400
        args = [command, "--config", str(config), "--out", str(tmp_path / "out")]
        if command == "propagate":
            field = tmp_path / "field.csv"
            field.write_text("t,eps\n" + "".join(f"{k * 0.025!r},0.0\n" for k in range(n)))
            args += ["--field", str(field)]
        assert cli.main(args) == 0
        # (steps, derivatives) per stack built, the series built, and whether
        # each call handed a trajectory was served the solve that marched it:
        # propagate's residual reads its solve; gradcheck builds its stack
        # with the gradient's m derivatives and the probes' 2m moved steps
        # from one series; each of optimize's 26 evaluations builds its
        # window of m + 1 steps with m derivatives, and populations.csv is
        # one whole-grid solve
        expected = {
            "propagate": ([(n, 0)], 1, [True]),
            "gradcheck": ([(n, m), (2 * m, 0)], 1, []),
            "optimize": ([(m + 1, m)] * 26 + [(n, 0)], 27, [True] * 26),
        }[command]
        assert (built, len(series_log), served) == expected

    @staticmethod
    def run_every_route(problem, field):
        """Each qoct route that builds a stack or its derivatives, on one problem."""
        H, O, grid = problem.hamiltonian, problem.observable, problem.grid
        sol = qoct.solve(problem, field, qoct.CostateBoundary.canonical())
        qoct.check_continuous_family(sol.psi, O, field, H, grid, 1)
        qoct.check_conjugate_independence(problem.psi0, field, H, grid)
        qoct.eval_total(sol.psi, sol.chi, field, problem.eps_ref, problem.alpha, O, H, grid)
        qoct.gradient_report(problem, field)
        config = qoct.OptimizationConfig(
            alpha=problem.alpha, max_iters=2, j_tol=1e-300, stationarity_tol=1e-6,
            initial_field=field, eps_ref=problem.eps_ref,
        )
        qoct.optimize(problem.psi0, H, O, grid, config)

    @pytest.mark.parametrize("dim", [3, 4, 8])
    def test_real_hamiltonian_decomposes_in_float64(self, eigh_log, series_log, dim):
        problem, field = seeded_problem(74, dim, 30, 1.0)
        self.run_every_route(problem, field)
        assert eigh_log == []
        assert series_log and set(series_log) == {np.dtype(np.float64)}

    @pytest.mark.parametrize("drift", ["complex", "real"])
    def test_complex_coupling_decomposes_in_complex128(self, eigh_log, series_log, drift):
        # a complex-Hermitian H, and a mixed one (real drift, complex coupling)
        problem, field = seeded_problem(75, 4, 30, 1.0, complex_hermitian=True)
        if drift == "real":
            rng = np.random.default_rng(76)
            H = qoct.ControlHamiltonian(
                drift=random_symmetric(rng, 4), coupling=problem.hamiltonian.coupling
            )
            problem = dataclasses.replace(problem, hamiltonian=H)
        self.run_every_route(problem, field)
        assert eigh_log == []
        assert series_log and set(series_log) == {np.dtype(np.complex128)}

    def test_reference_routes_stay_complex(self, eigh_log, series_log):
        # step_matrix and step_control_derivative read H.evaluate and
        # decompose it, so they check the real route and the field series
        # against an independent complex one
        problem, _ = seeded_problem(77, 4, 30, 1.0)
        H = problem.hamiltonian
        step_matrix(H, 0.3, 0.05, Direction.FORWARD)
        step_control_derivative(H, 0.3, 0.05)
        assert [dtype for _, dtype in eigh_log] == [np.dtype(np.complex128)] * 2
        assert series_log == []
