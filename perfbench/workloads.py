"""The four benchmark workloads: inputs made from a seed, one pass, output checks.

Each workload is a closed loop with one caller. Building a workload
generates all of its inputs from the seed; ``run_pass`` runs one pass
and checks every output it produced, counting each unit (one optimize
run, one probe field or one gradient instance) in the ``UnitLog``.
Every tolerance comes from the program itself (``qoct.cli`` and
``qoct.core``); the benchmark adds none of its own. The fidelity it
reports is the program's own, once a fresh propagation of the returned
field has reproduced it.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from pathlib import Path
from typing import Optional

import numpy as np

import qoct
from qoct import cli
from qoct.core import NORM_TOL

from harness import Tracer, UnitLog, digest, expect


def _check_span(tracer: Optional[Tracer]):
    """Span that keeps the benchmark's own checks out of the per-layer numbers."""
    return tracer.span("bench.check") if tracer is not None else nullcontext()


def _random_operator(rng: np.random.Generator, dim: int, complex_: bool) -> qoct.HermitianOperator:
    a = rng.standard_normal((dim, dim))
    if complex_:
        a = a + 1j * rng.standard_normal((dim, dim))
    return qoct.HermitianOperator((a + a.conj().T) / 2.0)


def _random_state(rng: np.random.Generator, dim: int) -> qoct.StateVector:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return qoct.StateVector(v / np.linalg.norm(v))


def _random_problem(
    rng: np.random.Generator, dim: int, n_steps: int, dt: float, complex_: bool
) -> qoct.ControlProblem:
    """Unpicked instance with T at 80% of the grid, zero reference and alpha = 1."""
    return qoct.ControlProblem(
        psi0=_random_state(rng, dim),
        hamiltonian=qoct.ControlHamiltonian(
            drift=_random_operator(rng, dim, complex_),
            coupling=_random_operator(rng, dim, complex_),
        ),
        observable=_random_operator(rng, dim, complex_),
        grid=qoct.TimeGrid(dt=dt, n_steps=n_steps, index_T=round(0.8 * n_steps)),
        eps_ref=qoct.ControlField.constant(0.0, n_steps),
        alpha=1.0,
    )


def _problem_digest(problem: qoct.ControlProblem, *fields: qoct.ControlField) -> str:
    H = problem.hamiltonian
    return digest(
        problem.psi0.amplitudes, H.drift.matrix, H.coupling.matrix,
        problem.observable.matrix, *(f.samples for f in fields),
    )


def _fidelity(psi0, H, O, grid, field: qoct.ControlField) -> float:
    """<O> at T, propagated afresh from the returned field."""
    traj = qoct.propagate_forward(psi0, field, H, grid)
    return qoct.expectation(O, qoct.StateVector(traj.node(grid.index_T)))


class Pulse2:
    """``qoct optimize`` on the paper's two-level population-transfer benchmark.

    Every pass runs the config seeded with the benchmark's seed, so a pass
    is the time to one certified solution of the same problem.
    """

    name = "pulse2"

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.psi0 = qoct.StateVector([1.0, 0.0])
        self.H = qoct.ControlHamiltonian(
            drift=qoct.HermitianOperator(np.diag([0.0, 1.0])),
            coupling=qoct.HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]])),
        )
        self.O = qoct.HermitianOperator(np.diag([0.0, 1.0]))
        self.grid = qoct.make_grid(10.0, 10.5, 0.025)
        text = json.dumps(self._config(seed))
        self.config = workdir / f"pulse2-{seed}.json"
        self.config.write_text(text, encoding="utf-8")
        self.warm_config = workdir / "pulse2-warm.json"
        self.warm_config.write_text(json.dumps(self._config(seed, max_iters=1)), encoding="utf-8")
        self.param_hash = digest(text)

    @staticmethod
    def _config(seed: int, max_iters: int = 500) -> dict:
        def pairs(m):
            return [[[float(x), 0.0] for x in row] for row in m]

        return {
            "dimension": 2,
            "h0": pairs(np.diag([0.0, 1.0])),
            "mu": pairs([[0.0, 1.0], [1.0, 0.0]]),
            "observable": pairs(np.diag([0.0, 1.0])),
            "psi0": [[1.0, 0.0], [0.0, 0.0]],
            "T": 10.0,
            "T_hat": 10.5,
            "dt": 0.025,
            "alpha": 1.0,
            "eps_ref": {"constant": 0.0},
            "max_iters": max_iters,
            "j_tol": 1e-12,
            "stationarity_tol": 1e-6,
            "seed": seed,
        }

    def warm_up(self) -> None:
        cli.run_optimize(self.warm_config, self.workdir / "warm")

    def run_pass(self, log: UnitLog, obs: dict, tracer: Optional[Tracer] = None) -> None:
        log.run(self.config.stem, lambda: self._unit(self.config, self.workdir / "out", obs, tracer))

    def _unit(self, config: Path, out: Path, obs: dict, tracer) -> list[str]:
        broken: list[str] = []
        code = cli.run_optimize(config, out)
        with _check_span(tracer):
            expect(broken, code == cli.EXIT_OK, f"exit code {code}")
            summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
            field_csv = (out / "field.csv").read_text(encoding="utf-8")
            expect(broken, field_csv.startswith("t,eps\n"), "field.csv header")
            eps = np.loadtxt(out / "field.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1]
            grid = self.grid
            fidelity = _fidelity(self.psi0, self.H, self.O, grid, qoct.ControlField(eps))
            expect(
                broken,
                abs(fidelity - summary["final_fidelity"]) < cli.BOUNDARY_TOL,
                f"recomputed fidelity {fidelity!r} != summary {summary['final_fidelity']!r}",
            )
            expect(broken, np.all(eps[grid.index_T:] == 0.0), "samples after T differ from eps_ref")
            pops = np.loadtxt(out / "populations.csv", delimiter=",", skiprows=1, ndmin=2)
            expect(broken, pops.shape == (grid.n_steps + 1, 3), f"populations shape {pops.shape}")
            expect(
                broken,
                float(np.max(np.abs(pops[:, 1:].sum(axis=1) - 1.0))) < NORM_TOL,
                "populations rows do not sum to 1",
            )
            obs.setdefault("fidelity", []).append(summary["final_fidelity"])
            obs.setdefault("final_residual", []).append(summary["final_stationarity_residual"])
            obs.setdefault("bytes_written", []).append(
                sum((out / f).stat().st_size for f in ("field.csv", "populations.csv", "summary.json"))
            )
        return broken


class Verify8:
    """The paper's verification battery on a dim-8 real-symmetric problem, no FD oracle."""

    name = "verify8"
    FIELDS = 3

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.problem = _random_problem(rng, 8, 2000, 0.01, complex_=False)
        self.fields = [
            qoct.ControlField(rng.uniform(-1.0, 1.0, 2000)) for _ in range(self.FIELDS)
        ]
        self.param_hash = _problem_digest(self.problem, *self.fields)

    def warm_up(self) -> None:
        qoct.solve(self.problem, self.fields[0], qoct.CostateBoundary.canonical())

    def run_pass(self, log: UnitLog, obs: dict, tracer: Optional[Tracer] = None) -> None:
        for k, field in enumerate(self.fields):
            log.run(f"verify8 field {k}", lambda: self._unit(field, tracer))

    def _unit(self, field: qoct.ControlField, tracer) -> list[str]:
        p = self.problem
        H, O, grid = p.hamiltonian, p.observable, p.grid
        sol = qoct.solve(p, field, qoct.CostateBoundary.canonical())
        jump = qoct.check_canonical_jump(sol)
        continuity = qoct.check_field_continuity(sol)
        family = {n: qoct.check_continuous_family(sol.psi, O, field, H, grid, n) for n in (1, 2, -1)}
        conjugate = {
            beta: qoct.check_conjugate_independence(p.psi0, field, H, grid, beta) for beta in (1.0, 2j)
        }
        grad = qoct.analytic_gradient(sol.psi, sol.chi, field, p.eps_ref, p.alpha, H, grid)
        residual = qoct.stationarity_residual(sol.psi, sol.chi, field, p.eps_ref, p.alpha, H, grid)
        breakdown = qoct.eval_total(sol.psi, sol.chi, field, p.eps_ref, p.alpha, O, H, grid)

        broken: list[str] = []
        with _check_span(tracer):
            source = float(np.linalg.norm(O.matrix @ sol.psi.node(grid.index_T)))
            expect(broken, jump.costate_matches_boundary < cli.BOUNDARY_TOL, "canonical boundary law")
            expect(broken, abs(jump.jump_norm_at_T - source) < cli.BOUNDARY_TOL, "jump != ||O psi(T)||")
            if continuity.commutator_condition_holds:
                expect(broken, continuity.field_left_limit_gap < cli.FIELD_GAP_TOL, "field continuity")
            for n, rep in family.items():
                expect(broken, rep.jump_norm_at_T == 0.0, f"continuous({n}) jump")
                expect(broken, rep.costate_matches_boundary < cli.BOUNDARY_TOL, f"continuous({n}) boundary")
                expect(broken, rep.homogeneous_residual < cli.HOMOGENEOUS_TOL, f"continuous({n}) residual")
                expect(
                    broken,
                    abs(rep.phase_defect_magnitude - 2.0) < cli.PHASE_DEFECT_TOL,
                    f"continuous({n}) phase defect",
                )
            for beta, dev in conjugate.items():
                expect(broken, dev < cli.CONJUGATE_TOL, f"conjugate deviation {dev:.3e} at beta={beta}")
            expect(broken, abs(breakdown.j_tdse) < cli.HOMOGENEOUS_TOL, f"|j_tdse| = {breakdown.j_tdse:.3e}")
            expect(broken, bool(np.isfinite(grad).all()), "non-finite gradient")
            expect(broken, bool(np.isfinite(residual)), "non-finite stationarity residual")
        return broken


class GradCheck:
    """Serial ``gradient_report`` on unpicked complex-Hermitian instances."""

    name = "gradcheck"
    DIMS = (2, 4, 8)

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.instances = []
        for dim in self.DIMS:
            problem = _random_problem(rng, dim, 200, 0.05, complex_=True)
            self.instances.append((problem, qoct.ControlField(rng.uniform(-1.0, 1.0, 200))))
        self.param_hash = digest(*(_problem_digest(p, f) for p, f in self.instances))

    def warm_up(self) -> None:
        for problem, field in self.instances:
            qoct.reduced_objective(problem, field)

    def run_pass(self, log: UnitLog, obs: dict, tracer: Optional[Tracer] = None) -> None:
        for problem, field in self.instances:
            log.run(f"gradcheck dim {problem.dim}", lambda: self._unit(problem, field, obs, tracer))

    def _unit(self, problem, field, obs: dict, tracer) -> list[str]:
        report = qoct.gradient_report(problem, field)
        broken: list[str] = []
        with _check_span(tracer):
            n = field.n_samples
            expect(broken, report.analytic.shape == (n,) and report.finite_diff.shape == (n,), "shape")
            expect(broken, bool(np.isfinite(report.analytic).all()), "non-finite analytic gradient")
            expect(broken, bool(np.isfinite(report.finite_diff).all()), "non-finite FD gradient")
            expect(broken, bool(np.isfinite(report.max_rel_error)), "non-finite max_rel_error")
            obs.setdefault("grad_rel_err", []).append(report.max_rel_error)
            obs.setdefault("grad_gate_miss", []).append(report.max_rel_error >= cli.GRADCHECK_TOL)
        return broken


class Pulse8:
    """``qoct.optimize`` on a dim-8 real-symmetric problem for a fixed sweep budget."""

    name = "pulse8"
    SWEEPS = 30

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.problem = _random_problem(rng, 8, 1000, 0.01, complex_=False)
        p = self.problem
        initial = qoct.ControlField(
            p.eps_ref.samples
            + cli.NOISE_AMPLITUDE_OPTIMIZE * rng.uniform(-1.0, 1.0, p.grid.n_steps)
        )
        self.config = self._config(initial, self.SWEEPS)
        self.warm = self._config(initial, 1)
        self.param_hash = _problem_digest(p, initial)

    def _config(self, initial: qoct.ControlField, sweeps: int) -> qoct.OptimizationConfig:
        # a j_tol this small never stops the run before the budget
        return qoct.OptimizationConfig(
            alpha=self.problem.alpha, max_iters=sweeps, j_tol=1e-300, stationarity_tol=1e-6,
            initial_field=initial, eps_ref=self.problem.eps_ref,
        )

    def _optimize(self, config: qoct.OptimizationConfig):
        p = self.problem
        return qoct.optimize(p.psi0, p.hamiltonian, p.observable, p.grid, config)

    def warm_up(self) -> None:
        self._optimize(self.warm)

    def run_pass(self, log: UnitLog, obs: dict, tracer: Optional[Tracer] = None) -> None:
        log.run("pulse8", lambda: self._unit(obs, tracer))

    def _unit(self, obs: dict, tracer) -> list[str]:
        result = self._optimize(self.config)
        broken: list[str] = []
        with _check_span(tracer):
            p = self.problem
            fidelity = _fidelity(p.psi0, p.hamiltonian, p.observable, p.grid, result.final_field)
            expect(
                broken,
                abs(fidelity - result.final_fidelity) < cli.BOUNDARY_TOL,
                f"recomputed fidelity {fidelity!r} != returned {result.final_fidelity!r}",
            )
            expect(
                broken,
                result.iterations_run == self.SWEEPS,
                f"ran {result.iterations_run} sweeps, budget {self.SWEEPS}",
            )
            obs.setdefault("fidelity", []).append(result.final_fidelity)
            obs.setdefault("final_residual", []).append(result.final_stationarity_residual)
        return broken


WORKLOADS = {w.name: w for w in (Pulse2, Verify8, GradCheck, Pulse8)}
