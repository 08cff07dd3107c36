"""Command-line entry point: parse a problem config, run, emit results.

Subcommands: optimize, verify, gradcheck, propagate. Each reads a JSON
problem description (complex numbers as [re, im] pairs, matrices
row-major) and writes machine-readable CSV/JSON into an output
directory. Files are written atomically (temp file + rename), CSV uses
a header row and LF endings, and floats carry 17 significant digits so
they round-trip exactly.

Exit codes: 0 success, 1 malformed input (the diagnostic on stderr
names the offending config field), 2 a run that finished but missed its
tolerance (non-convergence, failed verification, failed gradient check).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import (
    check_canonical_jump,
    check_conjugate_independence,
    check_continuous_family,
    solve,
)
from .core import (
    ControlField,
    ControlHamiltonian,
    ControlProblem,
    HermitianOperator,
    StateVector,
    TimeGrid,
    make_grid,
)
from .functional import eval_j_opt
from .gradient import DEFAULT_PROBE_STEP, gradient_report
from .optimizer import OptimizationConfig, OptimizationResult, optimize
from .propagator import MAX_STEP_PHASE, CostateBoundary, propagate_forward, tdse_residual

__all__ = [
    "ConfigError",
    "ProblemConfig",
    "run_optimize",
    "run_verify",
    "run_gradcheck",
    "run_propagate",
    "main",
]

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_TOLERANCE = 2

NOISE_AMPLITUDE_OPTIMIZE = 1e-2
NOISE_AMPLITUDE_PROBE = 0.5

GRADCHECK_TOL = 1e-6
BOUNDARY_TOL = 1e-12
FIELD_GAP_TOL = 1e-10
HOMOGENEOUS_TOL = 1e-12
CONJUGATE_TOL = 1e-12
# the conjugate pair's second start beta * conj(psi0): with real and imaginary
# parts of their own, so its deviation is not an exact multiple of beta = 1's
CONJUGATE_BETA = 0.3 + 0.7j
PHASE_DEFECT_TOL = 1e-14
# the most complex entries, n_steps * dim^2, one forward stack of the grid may
# hold: 2^26 of them are 1 GiB, and every run holds such a stack, so a grid past
# it is refused at parse time, before anything of its size is allocated
MAX_STACK_ENTRIES = 2 ** 26


class ConfigError(Exception):
    """Malformed config; carries the name of the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


# Every key a config may carry; any other key is rejected, so a typo
# cannot silently fall back to a default.
_CONFIG_FIELDS = frozenset({
    "dimension", "h0", "mu", "observable", "psi0", "T", "T_hat", "dt", "alpha",
    "eps_ref", "max_iters", "j_tol", "stationarity_tol", "seed",
})


@dataclass(frozen=True)
class ProblemConfig:
    """Validated control problem plus scheme options."""

    problem: ControlProblem
    max_iters: int
    j_tol: float
    stationarity_tol: float
    seed: int

    @classmethod
    def from_file(cls, path: str | Path) -> "ProblemConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError("config", f"cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"invalid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config", "top level must be a JSON object")
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "ProblemConfig":
        unknown = sorted(set(raw) - _CONFIG_FIELDS)
        if unknown:
            raise ConfigError(unknown[0], "unknown config field")
        dim = _require(raw, "dimension", int)
        if dim < 2:
            raise ConfigError("dimension", f"must be >= 2, got {dim}")

        h0 = _parse_operator(raw, "h0", dim)
        mu = _parse_operator(raw, "mu", dim)
        observable = _parse_operator(raw, "observable", dim)
        try:
            hamiltonian = ControlHamiltonian(drift=h0, coupling=mu)
        except ValueError as exc:
            raise ConfigError("mu", str(exc)) from exc

        psi0_vec = _parse_complex_vector(raw, "psi0", dim)
        try:
            psi0 = StateVector(psi0_vec)
            psi0.require_normalized("psi0")
        except ValueError as exc:
            raise ConfigError("psi0", str(exc)) from exc

        T = _require(raw, "T", float)
        T_hat = _require(raw, "T_hat", float)
        dt = _require(raw, "dt", float)
        if not dt > 0:
            raise ConfigError("dt", f"must be positive, got {dt!r}")
        if not T > 0:
            raise ConfigError("T", f"must be positive, got {T!r}")
        if not T_hat > T:
            raise ConfigError("T_hat", f"must exceed T={T!r}, got {T_hat!r}")
        try:
            grid = make_grid(T, T_hat, dt)
        except ValueError as exc:
            field = "T_hat" if "T_hat" in str(exc) else "T"
            raise ConfigError(field, str(exc)) from exc
        if grid.n_steps * dim * dim > MAX_STACK_ENTRIES:
            raise ConfigError(
                "T_hat",
                f"{float(grid.n_steps):.4g} steps of dt={dt!r} at dimension {dim}: a forward "
                f"stack would hold more than {MAX_STACK_ENTRIES} complex entries (1 GiB)",
            )

        alpha = _require(raw, "alpha", float)
        if not alpha > 0:
            raise ConfigError("alpha", f"must be positive, got {alpha!r}")

        eps_ref = _parse_eps_ref(raw, grid)

        max_iters = _optional(raw, "max_iters", int, 500)
        if max_iters < 1:
            raise ConfigError("max_iters", f"must be >= 1, got {max_iters}")
        j_tol = _optional(raw, "j_tol", float, 1e-10)
        if not j_tol > 0:
            raise ConfigError("j_tol", f"must be positive, got {j_tol!r}")
        stat_tol = _optional(raw, "stationarity_tol", float, 1e-6)
        if not stat_tol > 0:
            raise ConfigError("stationarity_tol", f"must be positive, got {stat_tol!r}")
        seed = _optional(raw, "seed", int, 0)
        if seed < 0:
            raise ConfigError("seed", f"must be non-negative, got {seed}")

        problem = ControlProblem(
            psi0=psi0,
            hamiltonian=hamiltonian,
            observable=observable,
            grid=grid,
            eps_ref=eps_ref,
            alpha=alpha,
        )
        # ||H(eps) dt||_1 is convex in eps: the reference's extremes, widened by
        # the larger noise a run adds to it, bound the steps of every start field
        ref = eps_ref.samples
        for eps in (float(ref.min()) - NOISE_AMPLITUDE_PROBE, float(ref.max()) + NOISE_AMPLITUDE_PROBE):
            _require_step_phase(
                problem, eps, "eps_ref", f"reference widened by noise {NOISE_AMPLITUDE_PROBE} reaches {eps!r}"
            )
        return cls(
            problem=problem,
            max_iters=max_iters,
            j_tol=j_tol,
            stationarity_tol=stat_tol,
            seed=seed,
        )

    def noisy_field(self, amplitude: float) -> ControlField:
        """Reference field plus uniform noise from the config's seed, to probe a generic point."""
        rng = np.random.default_rng(self.seed)
        noise = amplitude * rng.uniform(-1.0, 1.0, self.problem.grid.n_steps)
        return ControlField(self.problem.eps_ref.samples + noise)


def _require(raw: dict, field: str, types) -> object:
    """The value at ``field``; ``types`` float reads it with ``_number``."""
    if field not in raw:
        raise ConfigError(field, "missing required field")
    value = raw[field]
    if types is float:
        return _number(value, field)
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(field, f"unexpected type {type(value).__name__}")
    return value


def _number(value, field: str) -> float:
    """The one reader of config numbers: a JSON int or float, finite as a float.

    Python's json parses NaN, Infinity and integers of any size; an
    integer too large for a float counts as not finite.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(field, f"expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(field, "must be finite")
    return x


def _optional(raw: dict, field: str, types, default):
    if field not in raw:
        return default
    return _require(raw, field, types)


def _parse_complex(value, field: str) -> complex:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(field, f"complex numbers are [re, im] pairs, got {value!r}")
    return complex(_number(value[0], field), _number(value[1], field))


def _parse_complex_vector(raw: dict, field: str, dim: int) -> np.ndarray:
    value = _require(raw, field, list)
    if len(value) != dim:
        raise ConfigError(field, f"expected {dim} entries, got {len(value)}")
    return np.array([_parse_complex(v, field) for v in value], dtype=np.complex128)


def _parse_operator(raw: dict, field: str, dim: int) -> HermitianOperator:
    value = _require(raw, field, list)
    if len(value) != dim or not all(isinstance(row, list) and len(row) == dim for row in value):
        raise ConfigError(field, f"expected a {dim}x{dim} row-major matrix")
    entries = np.array(
        [[_parse_complex(v, field) for v in row] for row in value], dtype=np.complex128
    )
    try:
        return HermitianOperator(entries)
    except ValueError as exc:
        raise ConfigError(field, str(exc)) from exc


def _parse_eps_ref(raw: dict, grid: TimeGrid) -> ControlField:
    value = _require(raw, "eps_ref", dict)
    keys = set(value.keys())
    if keys == {"constant"}:
        return ControlField.constant(_number(value["constant"], "eps_ref"), grid.n_steps)
    if keys == {"samples"}:
        samples = value["samples"]
        if not isinstance(samples, list):
            raise ConfigError("eps_ref", "samples must be a list of numbers")
        if len(samples) != grid.n_steps:
            raise ConfigError(
                "eps_ref", f"expected {grid.n_steps} samples, got {len(samples)}"
            )
        return ControlField(np.array([_number(x, "eps_ref") for x in samples]))
    raise ConfigError("eps_ref", 'expected {"constant": x} or {"samples": [...]}')


def _write_atomic(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: Path, header: list[str], table: np.ndarray) -> None:
    """The header, then each row of a 2-d float table at 17 significant digits.

    One %-format of the whole table: "%.17g" renders a float as
    format(x, ".17g") does, without a call per value.
    """
    n_rows, n_cols = table.shape
    row = ",".join(["%.17g"] * n_cols) + "\n"
    _write_atomic(path, ",".join(header) + "\n" + (row * n_rows) % tuple(table.ravel().tolist()))


def _write_json(path: Path, obj) -> None:
    _write_atomic(path, json.dumps(obj, indent=2) + "\n")


def _timed(dt: float, values: np.ndarray) -> np.ndarray:
    """Rows (k dt, values[k]) for each row k of the values."""
    return np.column_stack((np.arange(len(values)) * dt, values))


def _write_populations(out: Path, problem: ControlProblem, states: np.ndarray) -> None:
    header = ["t"] + [f"p{i}" for i in range(problem.dim)]
    _write_csv(out / "populations.csv", header, _timed(problem.grid.dt, np.abs(states) ** 2))


def _reports_config_errors(run):
    """``run`` with a ConfigError it raises reported on stderr, as exit status EXIT_INPUT_ERROR."""

    @functools.wraps(run)
    def reporting(*args, **kwargs) -> int:
        try:
            return run(*args, **kwargs)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR

    return reporting


@contextmanager
def _trajectory_gate(field: str):
    """Re-raise a ValueError inside, the trajectory's norm gate, as ConfigError(field).

    A step inside MAX_STEP_PHASE still loses unitarity by about its phase
    times 2^-53, so a trajectory can drift past NORM_TOL far inside it: on
    a 420-step grid from a step phase of a few thousand. The runners write
    nothing before the gate has passed.
    """
    try:
        yield
    except ValueError as exc:
        raise ConfigError(field, str(exc)) from exc


@_reports_config_errors
def run_optimize(config_path: str | Path, out_dir: str | Path) -> int:
    """Optimize the field and emit field.csv, populations.csv, summary.json."""
    cfg = ProblemConfig.from_file(config_path)
    p = cfg.problem
    initial = cfg.noisy_field(NOISE_AMPLITUDE_OPTIMIZE)
    with _trajectory_gate("eps_ref"):
        result = optimize(
            p.psi0,
            p.hamiltonian,
            p.observable,
            p.grid,
            OptimizationConfig(
                alpha=p.alpha,
                max_iters=cfg.max_iters,
                j_tol=cfg.j_tol,
                stationarity_tol=cfg.stationarity_tol,
                initial_field=initial,
                eps_ref=p.eps_ref,
            ),
        )
        traj = propagate_forward(p.psi0, result.final_field, p.hamiltonian, p.grid)

    out = _ensure_out(out_dir)
    _write_csv(out / "field.csv", ["t", "eps"], _timed(p.grid.dt, result.final_field.samples))
    _write_populations(out, p, traj.states)
    _write_json(out / "summary.json", _optimize_summary(result))
    return EXIT_OK if result.converged else EXIT_TOLERANCE


def _optimize_summary(result: OptimizationResult) -> dict:
    return {
        "iterations": [bd.as_dict() for bd in result.j_history],
        "j_opt": result.final_fidelity,
        "final_fidelity": result.final_fidelity,
        "final_stationarity_residual": result.final_stationarity_residual,
        "converged": result.converged,
        "iterations_run": result.iterations_run,
        "evaluations_run": result.evaluations_run,
        "largest_j_decrease": result.largest_j_decrease,
    }


@_reports_config_errors
def run_verify(config_path: str | Path, out_dir: str | Path) -> int:
    """Run the continuity/independence/gradient battery and emit verify.json."""
    cfg = ProblemConfig.from_file(config_path)
    p = cfg.problem
    field = cfg.noisy_field(NOISE_AMPLITUDE_PROBE)
    _require_finite_gradient(p, field, DEFAULT_PROBE_STEP)
    # the oracle solves the probe field first and keeps that solve for the
    # solve and checks after it, so only it can trip the trajectory's norm gate
    with _trajectory_gate("eps_ref"):
        grad = gradient_report(p, field)
        solution = solve(p, field, CostateBoundary.canonical())

    jump = check_canonical_jump(solution)
    family = {
        n: check_continuous_family(
            solution.psi, p.observable, field, p.hamiltonian, p.grid, n
        )
        for n in (1, 2, -1)
    }

    # The continuous costates are (i / 2 pi n) O psi(T) in size and so are
    # their step defects: HOMOGENEOUS_TOL bounds them relative to
    # ||O psi(T)||, and never more loosely than the absolute 1e-12. The
    # boundary deviations stay absolute: each compares one product with
    # itself and is zero at any norm.
    homogeneous_tol = HOMOGENEOUS_TOL * max(1.0, jump.jump_norm_at_T)
    gap = jump.field_left_limit_gap
    checks = {
        "canonical_boundary": bool(jump.costate_matches_boundary < BOUNDARY_TOL),
        # gap = |<psi(T)| [O, mu] |psi(T)> / (2i)| / alpha, zero when O and mu commute
        "field_continuity": bool(
            abs(gap - abs(jump.commutator_expectation_at_T) / p.alpha)
            < FIELD_GAP_TOL * max(1.0, gap)
        ),
    }
    for n, rep in family.items():
        checks[f"continuous_{n}"] = bool(
            rep.jump_norm_at_T == 0.0
            and rep.costate_matches_boundary < BOUNDARY_TOL
            and rep.homogeneous_residual < homogeneous_tol
            and abs(rep.phase_defect_magnitude - 2.0) < PHASE_DEFECT_TOL
        )

    conjugate: dict[str, object]
    if p.hamiltonian.is_real():
        dev = check_conjugate_independence(p.psi0, field, p.hamiltonian, p.grid)
        dev_beta = check_conjugate_independence(
            p.psi0, field, p.hamiltonian, p.grid, beta=CONJUGATE_BETA
        )
        conjugate = {
            "deviation": dev,
            "beta": [CONJUGATE_BETA.real, CONJUGATE_BETA.imag],
            "beta_deviation": dev_beta,
        }
        checks["conjugate_independence"] = bool(
            dev < CONJUGATE_TOL and dev_beta < CONJUGATE_TOL
        )
    else:
        conjugate = {"skipped": "Hamiltonian matrices are not real-valued"}

    checks["gradient"] = bool(grad.max_rel_error < GRADCHECK_TOL)

    passed = all(checks.values())
    _write_json(
        _ensure_out(out_dir) / "verify.json",
        {
            "canonical_jump": jump.as_dict(),
            "field_continuity": jump.as_dict(),
            "continuous_family": {str(n): rep.as_dict() for n, rep in family.items()},
            "conjugate_independence": conjugate,
            "gradient": grad.as_dict(),
            "checks": checks,
            "passed": passed,
        },
    )
    return EXIT_OK if passed else EXIT_TOLERANCE


@_reports_config_errors
def run_gradcheck(
    config_path: str | Path,
    out_dir: str | Path,
    h: float = DEFAULT_PROBE_STEP,
) -> int:
    """Compare analytic and finite-difference gradients; emit grad.json."""
    cfg = ProblemConfig.from_file(config_path)
    if not (math.isfinite(h) and h > 0):
        raise ConfigError("h", f"probe step must be positive and finite, got {h!r}")
    field = cfg.noisy_field(NOISE_AMPLITUDE_PROBE)
    # ||H(eps) dt||_1 is convex in eps: the outermost probes bound every probe's step
    for eps in (float(field.samples.min()) - h, float(field.samples.max()) + h):
        _require_step_phase(cfg.problem, eps, "h", f"probe step {h!r} moves a sample to {eps!r}")
    _require_finite_gradient(cfg.problem, field, h)
    with _trajectory_gate("eps_ref"):
        report = gradient_report(cfg.problem, field, probe_step=h)
    passed = report.max_rel_error < GRADCHECK_TOL

    payload = report.as_dict()
    payload["passed"] = passed
    payload["tolerance"] = GRADCHECK_TOL
    if not passed:
        payload["diagnostic"] = (
            f"max relative mismatch {report.max_rel_error:.3e} at probe step {h:.1e}; "
            "central differences truncate at O(h^2), so an oversized h dominates the "
            "comparison long before the analytic gradient can be at fault"
        )
    _write_json(_ensure_out(out_dir) / "grad.json", payload)
    return EXIT_OK if passed else EXIT_TOLERANCE


@_reports_config_errors
def run_propagate(config_path: str | Path, field_csv: str | Path, out_dir: str | Path) -> int:
    """Propagate under a stored field; emit populations.csv and summary.json."""
    cfg = ProblemConfig.from_file(config_path)
    field = _read_field_csv(field_csv, cfg.problem.grid.n_steps)
    # convex in eps: the smallest and largest samples bound every step's phase
    for k in (int(np.argmin(field.samples)), int(np.argmax(field.samples))):
        eps = float(field.samples[k])
        _require_step_phase(cfg.problem, eps, "field", f"line {k + 2}: sample {eps!r}")
    p = cfg.problem
    with _trajectory_gate("field"):
        traj = propagate_forward(p.psi0, field, p.hamiltonian, p.grid)

    out = _ensure_out(out_dir)
    _write_populations(out, p, traj.states)
    _write_json(
        out / "summary.json",
        {
            "j_opt": eval_j_opt(traj, p.observable, p.grid),
            "tdse_residual": tdse_residual(traj, field, p.hamiltonian, p.grid),
            "final_populations": (np.abs(traj.states[-1]) ** 2).tolist(),
        },
    )
    return EXIT_OK


def _require_step_phase(problem: ControlProblem, eps: float, field: str, where: str) -> None:
    """ConfigError(field) unless the step phase bound ||H(eps) dt||_1 is at most MAX_STEP_PHASE."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan once H(eps) overflows
        phase = float(np.linalg.norm(problem.hamiltonian.evaluate(eps), 1)) * problem.grid.dt
    if not phase <= MAX_STEP_PHASE:
        raise ConfigError(field, f"{where}: step phase ||H dt||_1 = {phase:.3e} > {MAX_STEP_PHASE:.3e}")


def _require_finite_gradient(problem: ControlProblem, field: ControlField, h: float) -> None:
    """ConfigError("alpha") unless the field's gradient and its central differences stay finite.

    g_k = -2 dt (alpha (eps_k - ref_k) - Re(rho_k psi_k)) before T, where
    |rho_k psi_k| <= ||O|| ||mu||, and -2 dt alpha (eps_k - ref_k) after
    it. The penalty's central difference with the samples moved by h
    rounds to less than 3 dt alpha (|eps_k - ref_k| + h), so
    4 dt (alpha (max |eps - ref| + h) + ||O|| ||mu||) bounds both.
    """
    dev = float(np.max(np.abs(field.samples - problem.eps_ref.samples))) + h
    mu = problem.hamiltonian.coupling.matrix
    law = float(np.linalg.norm(problem.observable.matrix, 2) * np.linalg.norm(mu, 2))
    scale = 4.0 * problem.grid.dt * (problem.alpha * dev + law)
    if not scale <= np.finfo(np.float64).max:
        raise ConfigError(
            "alpha",
            f"{problem.alpha!r} at dt={problem.grid.dt!r}: the gradient's bound "
            f"4 dt (alpha (max|eps - ref| + h) + ||O|| ||mu||) = {scale:.3e} is past the largest double",
        )


def _read_field_csv(path: str | Path, n_steps: int) -> ControlField:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError("field", f"cannot read {path}: {exc}") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].lower().startswith("t,"):
        raise ConfigError("field", "expected a CSV with header 't,eps'")
    samples = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 2:
            raise ConfigError("field", f"line {i}: expected two columns, got {len(parts)}")
        try:
            eps = float(parts[1])
        except ValueError as exc:
            raise ConfigError("field", f"line {i}: {exc}") from exc
        if not math.isfinite(eps):
            raise ConfigError("field", f"line {i}: sample {eps!r} is not finite")
        samples.append(eps)
    if len(samples) != n_steps:
        raise ConfigError(
            "field", f"sample count {len(samples)} does not match grid steps {n_steps}"
        )
    return ControlField(np.array(samples))


def _ensure_out(out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qoct",
        description="Quantum optimal control: optimize, verify, gradcheck, propagate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="Path to the JSON problem config.")
        p.add_argument("--out", required=True, help="Output directory (created if missing).")

    p_opt = sub.add_parser("optimize", help="Drive the field to a stationary point of J.")
    add_common(p_opt)
    p_ver = sub.add_parser("verify", help="Run the continuity and gradient verification battery.")
    add_common(p_ver)
    p_grad = sub.add_parser("gradcheck", help="Check the analytic gradient against central differences.")
    add_common(p_grad)
    p_grad.add_argument(
        "--h", type=float, default=DEFAULT_PROBE_STEP, help="Finite-difference probe step."
    )
    p_prop = sub.add_parser("propagate", help="Propagate under a stored field, no optimization.")
    add_common(p_prop)
    p_prop.add_argument("--field", required=True, help="CSV with columns t,eps (one row per step).")

    args = parser.parse_args(argv)
    if args.command == "optimize":
        return run_optimize(args.config, args.out)
    if args.command == "verify":
        return run_verify(args.config, args.out)
    if args.command == "gradcheck":
        return run_gradcheck(args.config, args.out, h=args.h)
    return run_propagate(args.config, args.field, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
