"""Metric definitions, the functions the traced run wraps, and how layers map to outcomes.

``END_TO_END`` and ``PER_LAYER`` must agree with BENCHMARK.json (a test
checks this). Each per-layer entry names the end-to-end metric it should
move and on which workload, so a later change can say in advance which
numbers it expects to move.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from harness import LayerStats, Target, median


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float


# error_rate is zero on a healthy run, and a bounded metric must never be 0,
# so the bounded form is its complement pass_rate; error_rate itself is in
# the result's attempted/failed counts and in the traced run as bench.error_rate.
END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("wall_ref", "ref", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1),
    EndToEnd("pass_rate", "1", "higher", 0.05),
)

# End-to-end figures that are not bounded metrics: pass time in seconds swings
# with the shared machine's speed, and the others exist only on some workloads
# or vary by orders of magnitude across seeds. Each is read from a per-layer
# metric: name -> (per-layer metric, workloads it applies to).
OUTCOMES = {
    "wall_s": ("bench.wall_s", ("pulse2", "verify8", "gradcheck", "pulse8")),
    "fidelity": ("optimizer.fidelity", ("pulse2", "pulse8")),
    "grad_max_rel_err": ("gradient.max_rel_err", ("gradcheck",)),
    "grad_gate_fail_frac": ("gradient.gate_fail_frac", ("gradcheck",)),
}

TARGETS = (
    Target("numpy.linalg.eigh", "numpy.linalg", "eigh",
           lambda a, k, r: int(np.prod(np.shape(a[0])[:-2]))),
    Target("propagator.propagate_forward", "qoct.propagator", "propagate_forward",
           lambda a, k, r: r.n_nodes - 1),
    Target("propagator.propagate_costate", "qoct.propagator", "propagate_costate"),
    Target("propagator.tdse_residual", "qoct.propagator", "tdse_residual"),
    Target("propagator.step_control_derivative", "qoct.propagator", "step_control_derivative"),
    Target("functional.eval_total", "qoct.functional", "eval_total"),
    Target("gradient.analytic_gradient", "qoct.gradient", "analytic_gradient"),
    Target("gradient.reduced_objective", "qoct.gradient", "reduced_objective"),
    Target("gradient.gradient_report", "qoct.gradient", "gradient_report"),
    Target("gradient.stationarity_residual", "qoct.gradient", "stationarity_residual"),
    Target("optimizer.optimize", "qoct.optimizer", "optimize",
           lambda a, k, r: r.iterations_run),
    Target("analysis.solve", "qoct.analysis", "solve"),
    Target("analysis.check_canonical_jump", "qoct.analysis", "check_canonical_jump"),
    Target("analysis.check_field_continuity", "qoct.analysis", "check_field_continuity"),
    Target("analysis.check_continuous_family", "qoct.analysis", "check_continuous_family"),
    Target("analysis.check_conjugate_independence", "qoct.analysis", "check_conjugate_independence"),
    Target("cli.ProblemConfig.from_file", "qoct.cli", "ProblemConfig.from_file"),
    Target("cli.run_optimize", "qoct.cli", "run_optimize"),
)

CHECKS = tuple(t.span for t in TARGETS if t.span.startswith("analysis.check_"))


@dataclass(frozen=True)
class Ctx:
    """What a per-layer metric is computed from: span stats per traced pass and run facts."""

    stats: dict[str, LayerStats]
    passes: int
    obs: dict
    build_s: list[float]
    error_rate: float
    overhead_s: float
    wall_s: float
    ref_s: float

    def get(self, span: str) -> LayerStats:
        return self.stats.get(span, LayerStats())

    def per_pass(self, span: str, what: str) -> float:
        return getattr(self.get(span), what) / self.passes


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _first_pass(key: str) -> Callable[[Ctx], float]:
    """An output of the first pass."""
    return lambda c: c.obs[key][0] if c.obs.get(key) else 0.0


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    moves: str
    spans: tuple[str, ...]
    value: Callable[[Ctx], float]


FWD = "propagator.propagate_forward"
OPT = "optimizer.optimize"

# Values are per traced pass. A metric reads 0 on a workload that never
# calls its layer.
PER_LAYER = (
    PerLayer("propagator.eigh_matrices", "count", "lower",
             "wall_ref on verify8 and pulse8; about 0 on pulse2",
             ("numpy.linalg.eigh",), lambda c: c.per_pass("numpy.linalg.eigh", "work")),
    PerLayer("propagator.eigh_s", "s", "lower", "wall_ref on verify8 and pulse8",
             ("numpy.linalg.eigh",), lambda c: c.per_pass("numpy.linalg.eigh", "total_s")),
    PerLayer("propagator.forward_calls", "count", "lower", "wall_ref on gradcheck and verify8",
             (FWD,), lambda c: c.per_pass(FWD, "calls")),
    PerLayer("propagator.forward_s", "s", "lower", "wall_ref on gradcheck and verify8",
             (FWD,), lambda c: c.per_pass(FWD, "total_s")),
    PerLayer("propagator.steps_per_s", "1/s", "higher", "wall_ref on gradcheck and verify8",
             (FWD,), lambda c: _ratio(c.get(FWD).work, c.get(FWD).total_s)),
    PerLayer("propagator.costate_s", "s", "lower", "wall_ref on verify8",
             ("propagator.propagate_costate",),
             lambda c: c.per_pass("propagator.propagate_costate", "total_s")),
    PerLayer("propagator.tdse_residual_s", "s", "lower", "wall_ref on verify8",
             ("propagator.tdse_residual",),
             lambda c: c.per_pass("propagator.tdse_residual", "total_s")),
    PerLayer("propagator.step_derivative_calls", "count", "lower", "wall_ref on verify8 and gradcheck",
             ("propagator.step_control_derivative",),
             lambda c: c.per_pass("propagator.step_control_derivative", "calls")),
    PerLayer("propagator.step_derivative_s", "s", "lower", "wall_ref on verify8 and gradcheck",
             ("propagator.step_control_derivative",),
             lambda c: c.per_pass("propagator.step_control_derivative", "total_s")),
    PerLayer("functional.eval_total_calls", "count", "lower", "wall_ref on pulse2 and pulse8",
             ("functional.eval_total",), lambda c: c.per_pass("functional.eval_total", "calls")),
    PerLayer("functional.eval_total_s", "s", "lower", "wall_ref on pulse2 and pulse8",
             ("functional.eval_total",), lambda c: c.per_pass("functional.eval_total", "total_s")),
    PerLayer("gradient.analytic_s", "s", "lower", "wall_ref on verify8",
             ("gradient.analytic_gradient",),
             lambda c: c.per_pass("gradient.analytic_gradient", "total_s")),
    PerLayer("gradient.reduced_objective_calls", "count", "lower", "wall_ref on gradcheck",
             ("gradient.reduced_objective",),
             lambda c: c.per_pass("gradient.reduced_objective", "calls")),
    PerLayer("gradient.reduced_objective_s", "s", "lower", "wall_ref on gradcheck",
             ("gradient.reduced_objective",),
             lambda c: c.per_pass("gradient.reduced_objective", "total_s")),
    PerLayer("gradient.report_s", "s", "lower", "wall_ref on gradcheck",
             ("gradient.gradient_report",),
             lambda c: c.per_pass("gradient.gradient_report", "total_s")),
    PerLayer("optimizer.sweeps", "count", "lower", "wall_ref and fidelity on pulse2",
             (OPT,), lambda c: c.per_pass(OPT, "work")),
    PerLayer("optimizer.sweep_ms", "ms", "lower", "wall_ref on pulse2 and pulse8",
             (OPT,), lambda c: 1e3 * _ratio(c.get(OPT).self_s, c.get(OPT).work)),
    PerLayer("optimizer.final_residual", "1", "lower", "fidelity on pulse2",
             (), _first_pass("final_residual")),
    PerLayer("optimizer.fidelity", "1", "higher",
             "end-to-end outcome on pulse2 and pulse8: <O> at T recomputed from the returned field",
             (), _first_pass("fidelity")),
    PerLayer("analysis.solve_s", "s", "lower", "wall_ref on verify8",
             ("analysis.solve",), lambda c: c.per_pass("analysis.solve", "total_s")),
    PerLayer("analysis.checks_s", "s", "lower", "wall_ref on verify8",
             CHECKS, lambda c: sum(c.per_pass(s, "total_s") for s in CHECKS)),
    PerLayer("cli.parse_s", "s", "lower", "wall_ref on pulse2",
             ("cli.ProblemConfig.from_file",),
             lambda c: c.per_pass("cli.ProblemConfig.from_file", "total_s")),
    PerLayer("cli.self_s", "s", "lower", "wall_ref on pulse2",
             ("cli.run_optimize",), lambda c: c.per_pass("cli.run_optimize", "self_s")),
    PerLayer("cli.bytes_written", "B", "lower", "wall_ref on pulse2",
             (), _first_pass("bytes_written")),
    PerLayer("core.build_s", "s", "lower", "setup_s on all workloads",
             (), lambda c: median(c.build_s)),
    PerLayer("gradient.max_rel_err", "1", "lower",
             "end-to-end outcome on gradcheck: worst max_rel_error over the instances",
             (), lambda c: max(c.obs.get("grad_rel_err", [0.0]))),
    PerLayer("gradient.gate_fail_frac", "1", "lower",
             "end-to-end outcome on gradcheck: share of instances missing cli.GRADCHECK_TOL",
             (), lambda c: _ratio(sum(c.obs.get("grad_gate_miss", [])),
                                  len(c.obs.get("grad_gate_miss", [])))),
    PerLayer("bench.wall_s", "s", "lower",
             "wall_ref on every workload: median untraced pass time in seconds, "
             "without the reference kernel's share",
             (), lambda c: c.wall_s),
    PerLayer("bench.ref_ms", "ms", "lower",
             "none: median over passes of the reference kernel's mean time, the machine's speed",
             (), lambda c: 1e3 * c.ref_s),
    PerLayer("bench.error_rate", "1", "lower", "pass_rate on every workload",
             (), lambda c: c.error_rate),
    PerLayer("bench.trace_overhead_s", "s", "lower",
             "none: median of traced minus untraced pass time over adjacent pairs; "
             "negative means below the noise",
             (), lambda c: c.overhead_s),
)


def per_layer_values(ctx: Ctx, missing: dict[str, str]) -> tuple[dict[str, float], dict[str, str]]:
    """Every per-layer value; a metric whose wrapped function is gone reads 0 and is listed."""
    values: dict[str, float] = {}
    absent: dict[str, str] = {}
    for m in PER_LAYER:
        gone = [missing[s] for s in m.spans if s in missing]
        if gone:
            absent[m.name] = "; ".join(gone)
            values[m.name] = 0.0
        else:
            values[m.name] = float(m.value(ctx))
    return values, absent
