"""Acceptance battery: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines inline; they also appear in captured output with plain -v.
"""

import json
import time

import numpy as np
import pytest
from scipy.optimize import minimize

import qoct
from qoct import cli
from conftest import (
    SEEDED_INSTANCES,
    level_projector,
    pauli_x,
    seeded_problem,
    two_level_benchmark,
)
from test_cli import write_config


def verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} {name}: {status}{suffix}")


@pytest.fixture(scope="module")
def benchmark_result():
    psi0, H, O, grid = two_level_benchmark()
    rng = np.random.default_rng(42)
    eps_ref = qoct.ControlField.constant(0.0, grid.n_steps)
    config = qoct.OptimizationConfig(
        alpha=1.0,
        max_iters=500,
        j_tol=1e-12,
        stationarity_tol=1e-6,
        initial_field=qoct.ControlField(eps_ref.samples + 1e-2 * rng.uniform(-1, 1, grid.n_steps)),
        eps_ref=eps_ref,
    )
    start = time.monotonic()
    result = qoct.optimize(psi0, H, O, grid, config)
    elapsed = time.monotonic() - start
    problem = qoct.ControlProblem(
        psi0=psi0, hamiltonian=H, observable=O, grid=grid, eps_ref=eps_ref, alpha=config.alpha
    )
    return result, elapsed, problem, config.initial_field


def exact_gradient(problem: qoct.ControlProblem, field: qoct.ControlField) -> np.ndarray:
    sol = qoct.solve(problem, field, qoct.CostateBoundary.canonical())
    return qoct.analytic_gradient(
        sol.psi, sol.chi, field, problem.eps_ref, problem.alpha,
        problem.hamiltonian, problem.grid,
    )


def lbfgs_maximum(problem: qoct.ControlProblem, start: qoct.ControlField) -> qoct.ControlField:
    """Independent maximizer of the reduced objective: L-BFGS-B on the exact gradient."""

    def negated(x):
        field = qoct.ControlField(x)
        return -qoct.reduced_objective(problem, field), -exact_gradient(problem, field)

    res = minimize(
        negated, start.samples, jac=True, method="L-BFGS-B",
        options={"maxiter": 2000, "ftol": 1e-15, "gtol": 1e-11},
    )
    return qoct.ControlField(res.x)


def test_criterion_1_gradient_oracle():
    start = time.monotonic()
    worst = 0.0
    for seed, dim, n_steps, alpha in SEEDED_INSTANCES:
        problem, field = seeded_problem(seed, dim, n_steps, alpha)
        report = qoct.gradient_report(problem, field, probe_step=1e-5)
        worst = max(worst, report.max_rel_error)
    elapsed = time.monotonic() - start
    ok = worst < 1e-6 and elapsed < 30.0
    verdict(1, "gradient oracle", ok, f"worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-6
    assert elapsed < 30.0


def test_criterion_2_canonical_discontinuity():
    worst_match = 0.0
    all_jumped = True
    for seed, dim, n_steps, alpha in SEEDED_INSTANCES:
        problem, field = seeded_problem(seed, dim, n_steps, alpha)
        sol = qoct.solve(problem, field, qoct.CostateBoundary.canonical())
        source = problem.observable.matrix @ sol.psi.node(problem.grid.index_T)
        worst_match = max(
            worst_match, float(np.linalg.norm(sol.chi.chi_T_minus - source))
        )
        assert not sol.chi.chi_T_plus.any()
        assert sol.chi.jump_norm == np.linalg.norm(source)
        if np.linalg.norm(source) > 1e-12 and sol.chi.jump_norm == 0.0:
            all_jumped = False
    ok = worst_match < 1e-12 and all_jumped
    verdict(2, "canonical discontinuity", ok, f"worst boundary dev {worst_match:.2e}")
    assert worst_match < 1e-12
    assert all_jumped


def test_criterion_3_field_continuity():
    # commuting pairs: identity observable, coupling-valued observable,
    # and a simultaneously diagonal pair
    rng = np.random.default_rng(900)
    gaps = []
    for O, mu in [
        (np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])),
        (np.diag([0.4, -1.2]), np.diag([1.0, 2.0])),
        (np.array([[1.0, 0.5], [0.5, -1.0]]), np.array([[1.0, 0.5], [0.5, -1.0]])),
    ]:
        H = qoct.ControlHamiltonian(
            drift=qoct.HermitianOperator(np.diag([0.0, 1.0])),
            coupling=qoct.HermitianOperator(mu),
        )
        grid = qoct.TimeGrid(dt=0.02, n_steps=60, index_T=45)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        problem = qoct.ControlProblem(
            psi0=qoct.StateVector(v / np.linalg.norm(v)),
            hamiltonian=H,
            observable=qoct.HermitianOperator(O),
            grid=grid,
            eps_ref=qoct.ControlField.constant(0.0, 60),
            alpha=1.0,
        )
        field = qoct.ControlField(rng.uniform(-1, 1, 60))
        sol = qoct.solve(problem, field, qoct.CostateBoundary.canonical())
        report = qoct.check_field_continuity(sol)
        assert report.commutator_condition_holds
        gaps.append(report.field_left_limit_gap)
        # the canonical extremal field reverts to the reference after T
        m = grid.index_T
        mu_mat = H.control_derivative
        for k in range(m, grid.n_steps):
            reconstructed = problem.eps_ref.samples[k] + (
                np.vdot(sol.chi.node(k), mu_mat @ sol.psi.node(k)).imag / problem.alpha
            )
            assert reconstructed == problem.eps_ref.samples[k]
    commuting_ok = max(gaps) < 1e-10

    # non-commuting closed form: projector observable, sigma_x coupling,
    # psi(T) = (1, i)/sqrt(2), alpha = 1 puts the left limit 0.5 away
    H = qoct.ControlHamiltonian(
        drift=qoct.HermitianOperator(np.zeros((2, 2))), coupling=pauli_x()
    )
    grid = qoct.TimeGrid(dt=0.25, n_steps=10, index_T=6)
    problem = qoct.ControlProblem(
        psi0=qoct.StateVector([1 / np.sqrt(2), 1j / np.sqrt(2)]),
        hamiltonian=H,
        observable=level_projector(),
        grid=grid,
        eps_ref=qoct.ControlField.constant(0.0, 10),
        alpha=1.0,
    )
    sol = qoct.solve(problem, problem.eps_ref, qoct.CostateBoundary.canonical())
    report = qoct.check_field_continuity(sol)
    closed_form_ok = (
        not report.commutator_condition_holds
        and abs(report.field_left_limit_gap - 0.5) < 1e-10
    )
    ok = commuting_ok and closed_form_ok
    verdict(
        3, "field continuity", ok,
        f"worst commuting gap {max(gaps):.2e}, non-commuting gap "
        f"{report.field_left_limit_gap:.12f}",
    )
    assert commuting_ok
    assert closed_form_ok


def test_criterion_4_continuous_family():
    problem, field = seeded_problem(910, 3, 60, 1.0)
    psi = qoct.propagate_forward(problem.psi0, field, problem.hamiltonian, problem.grid)
    worst_resid = 0.0
    worst_defect = 0.0
    for n in (1, 2, -1):
        report = qoct.check_continuous_family(
            psi, problem.observable, field, problem.hamiltonian, problem.grid, n
        )
        assert report.jump_norm_at_T == 0.0
        worst_resid = max(worst_resid, report.homogeneous_residual)
        worst_defect = max(worst_defect, abs(report.phase_defect_magnitude - 2.0))
    ok = worst_resid < 1e-12 and worst_defect < 1e-14
    verdict(
        4, "continuous family", ok,
        f"worst homogeneous residual {worst_resid:.2e}, phase defect off by {worst_defect:.1e}",
    )
    assert worst_resid < 1e-12
    assert worst_defect < 1e-14


def test_criterion_5_conjugate_independence():
    worst = 0.0
    for seed, dim, n_steps, alpha in SEEDED_INSTANCES:
        problem, field = seeded_problem(seed, dim, n_steps, alpha)
        dev = qoct.check_conjugate_independence(
            problem.psi0, field, problem.hamiltonian, problem.grid
        )
        dev_beta = qoct.check_conjugate_independence(
            problem.psi0, field, problem.hamiltonian, problem.grid, beta=2j
        )
        worst = max(worst, dev, dev_beta)
    ok = worst < 1e-12
    verdict(5, "conjugate independence", ok, f"worst deviation {worst:.2e}")
    assert worst < 1e-12


def test_criterion_6_optimization_benchmark(benchmark_result):
    result, elapsed, _, _ = benchmark_result
    ok = (
        elapsed < 10.0
        and result.converged
        and result.iterations_run <= 230
        and result.iterations_run <= 500
        and result.final_stationarity_residual < 1e-6
        and result.largest_j_decrease >= -1e-8
    )
    verdict(
        6, "optimization benchmark dynamics", ok,
        f"{'converged' if result.converged else 'not converged'} after "
        f"{result.iterations_run} iters in {elapsed:.1f}s, residual "
        f"{result.final_stationarity_residual:.1e}, worst drop {result.largest_j_decrease:.1e}",
    )
    assert elapsed < 10.0
    # host-independent companion of the wall-clock gate: 217 sweeps at seed 42
    assert result.iterations_run <= 230
    assert result.converged
    assert result.iterations_run <= 500
    assert result.final_stationarity_residual < 1e-6
    assert result.largest_j_decrease >= -1e-8


def test_criterion_6_optimization_benchmark_fidelity(benchmark_result):
    # The sweep must reach the maximum of J = <O>(T) - alpha * int eps^2 dt,
    # whatever transfer that gives. At alpha = 1 the maximum sits at
    # F* = 0.93244 (J* = 0.6061775, reached by L-BFGS-B from every start
    # tried, field amplitudes 0.01 to 2), so a 0.99 fidelity bar lies above
    # anything this objective allows. The sweep's field law is the zero of
    # the exact discrete gradient, not the collocated continuum law, so it
    # reaches the oracle's maximum itself: J* - J = 1.0e-11 and |F* - F|
    # about 5e-9 at seed 42.
    result, _, problem, sweep_start = benchmark_result
    rng = np.random.default_rng(7)
    starts = [
        sweep_start,
        qoct.ControlField(0.5 * rng.uniform(-1, 1, problem.grid.n_steps)),
    ]
    maxima = [lbfgs_maximum(problem, start) for start in starts]
    j_maxima = [qoct.reduced_objective(problem, field) for field in maxima]
    j_star = max(j_maxima)
    best = maxima[j_maxima.index(j_star)]
    oracle_spread = j_star - min(j_maxima)
    oracle_grad = float(np.max(np.abs(exact_gradient(problem, best))))
    f_star = qoct.eval_j_opt(
        qoct.propagate_forward(problem.psi0, best, problem.hamiltonian, problem.grid),
        problem.observable, problem.grid,
    )

    j_sweep = qoct.reduced_objective(problem, result.final_field)
    f_sweep = result.final_fidelity
    j_gap = j_star - j_sweep
    f_gap = abs(f_star - f_sweep)
    ok = (
        oracle_spread < 1e-8
        and oracle_grad < 1e-8
        and j_sweep <= j_star + 1e-12
        and j_gap <= 1e-9
        and f_gap <= 1e-7
    )
    verdict(
        6, "optimization benchmark fidelity", ok,
        f"sweep F {f_sweep:.9f} vs maximum F* {f_star:.9f}, J* - J {j_gap:.2e} (bound "
        f"1e-9) and |F* - F| {f_gap:.2e} (bound 1e-7); "
        f"the 0.99 bar lies {'above' if f_star < 0.99 else 'below'} F*",
    )
    assert oracle_spread < 1e-8
    assert oracle_grad < 1e-8
    assert j_sweep <= j_star + 1e-12
    assert j_gap <= 1e-9
    assert f_gap <= 1e-7


def test_criterion_7_numerical_hygiene():
    # norm drift over 1e4 exact-exponential steps
    rng = np.random.default_rng(920)
    a = rng.standard_normal((2, 2))
    H = qoct.ControlHamiltonian(
        drift=qoct.HermitianOperator((a + a.T) / 2), coupling=pauli_x()
    )
    grid = qoct.TimeGrid(dt=0.01, n_steps=10_000, index_T=5_000)
    field = qoct.ControlField(rng.uniform(-1, 1, 10_000))
    traj = qoct.propagate_forward(qoct.StateVector([1, 0]), field, H, grid)
    drift = float(np.max(np.abs(np.linalg.norm(traj.states, axis=1) - 1.0)))

    # backward-after-forward identity per step
    worst_roundtrip = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        b = rng.standard_normal((dim, dim))
        Hr = qoct.ControlHamiltonian(
            drift=qoct.HermitianOperator((b + b.T) / 2),
            coupling=qoct.HermitianOperator(np.eye(dim)),
        )
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi = qoct.StateVector(v / np.linalg.norm(v))
        eps, dt = float(rng.uniform(-2, 2)), float(rng.uniform(0.01, 0.4))
        back = qoct.step(
            qoct.step(psi, Hr, eps, dt), Hr, eps, dt, qoct.Direction.BACKWARD
        )
        worst_roundtrip = max(
            worst_roundtrip, float(np.linalg.norm(back.amplitudes - psi.amplitudes))
        )

    # breakdown sum identity and multiplier-term size on propagated runs
    worst_tdse = 0.0
    for seed, dim, n_steps, alpha in SEEDED_INSTANCES[:5]:
        problem, pfield = seeded_problem(seed, dim, n_steps, alpha)
        ptraj = qoct.propagate_forward(problem.psi0, pfield, problem.hamiltonian, problem.grid)
        chi = qoct.propagate_costate(
            ptraj, problem.observable, pfield, problem.hamiltonian, problem.grid,
            qoct.CostateBoundary.canonical(),
        )
        bd = qoct.eval_total(
            ptraj, chi, pfield, problem.eps_ref, problem.alpha,
            problem.observable, problem.hamiltonian, problem.grid,
        )
        assert abs(bd.j_total - (bd.j_opt + bd.j_cost + bd.j_tdse)) < 1e-14
        worst_tdse = max(worst_tdse, abs(bd.j_tdse))

    ok = drift < 1e-11 and worst_roundtrip < 1e-12 and worst_tdse < 1e-11
    verdict(
        7, "numerical hygiene", ok,
        f"norm drift {drift:.1e}, roundtrip {worst_roundtrip:.1e}, "
        f"multiplier term {worst_tdse:.1e}",
    )
    assert drift < 1e-11
    assert worst_roundtrip < 1e-12
    assert worst_tdse < 1e-11


def test_criterion_8_cli_round_trip(tmp_path, capsys):
    config = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    code = cli.run_optimize(config, out)
    summary = json.loads((out / "summary.json").read_text())

    out2 = tmp_path / "replay"
    code2 = cli.run_propagate(config, out / "field.csv", out2)
    replay = json.loads((out2 / "summary.json").read_text())
    reproduces = abs(replay["j_opt"] - summary["j_opt"]) < 1e-10

    bad = write_config(
        tmp_path / "bad.json", h0=[[[0, 0], [1, 0]], [[0, 0], [0, 0]]]
    )
    code_bad = cli.run_optimize(bad, tmp_path / "outbad")
    err = capsys.readouterr().err

    ok = code == 0 and code2 == 0 and reproduces and code_bad == 1 and "h0" in err
    verdict(
        8, "cli round trip", ok,
        f"j_opt delta {abs(replay['j_opt'] - summary['j_opt']):.1e}",
    )
    assert code == 0 and code2 == 0
    assert reproduces
    assert code_bad == 1 and "h0" in err
