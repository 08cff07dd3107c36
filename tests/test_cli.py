import dataclasses
import inspect
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qoct
from qoct import cli, gradient
from conftest import random_hermitian, random_symmetric


# an integer Python's json reads exactly but no float can hold
BIG = 10**400


def as_pairs_matrix(m):
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def as_pairs_vector(v):
    return [[float(x.real), float(x.imag)] for x in np.asarray(v, dtype=complex)]


def finite_outputs(out: Path) -> bool:
    """Whether every number in a run's JSON and CSV outputs is finite."""
    for path in out.iterdir():
        if path.suffix == ".json":
            # json reads NaN, Infinity and -Infinity through parse_constant only
            constants = []
            json.loads(path.read_text(encoding="utf-8"), parse_constant=constants.append)
            if constants:
                return False
        elif not np.isfinite(np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)).all():
            return False
    return True


def write_config(path, **overrides):
    cfg = {
        "dimension": 2,
        "h0": as_pairs_matrix(np.diag([0.0, 1.0])),
        "mu": as_pairs_matrix([[0, 1], [1, 0]]),
        "observable": as_pairs_matrix(np.diag([0.0, 1.0])),
        "psi0": as_pairs_vector([1.0, 0.0]),
        "T": 2.0,
        "T_hat": 2.5,
        "dt": 0.025,
        "alpha": 1.0,
        "eps_ref": {"constant": 0.0},
        "max_iters": 300,
        "j_tol": 1e-12,
        "stationarity_tol": 1e-6,
        "seed": 7,
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def readme_config():
    """The config example of README's "Config format" section, as a dict."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config format", 1)[1]
    return json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])


def example_config(name):
    """README's config ("readme"), or a dim-4 CI config built from it, as a dict.

    "real4" draws real-symmetric operators from ``default_rng(4)``,
    "complex4" complex-Hermitian ones, in CI's order: h0, mu, observable.
    """
    cfg = readme_config()
    if name in ("real4", "complex4"):
        rng = np.random.default_rng(4)
        draw = random_symmetric if name == "real4" else random_hermitian
        h0, mu, observable = (as_pairs_matrix(draw(rng, 4).matrix) for _ in range(3))
        cfg.update(
            dimension=4, h0=h0, mu=mu, observable=observable, psi0=as_pairs_vector(np.eye(4)[0])
        )
    return cfg


def write_example_config(path, name):
    """``example_config(name)`` written as JSON to path."""
    path.write_text(json.dumps(example_config(name)), encoding="utf-8")
    return path


class TestConfigValidation:
    def test_non_hermitian_h0_names_field(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "bad.json", h0=[[[0, 0], [1, 0]], [[0, 0], [0, 0]]]
        )
        assert cli.run_optimize(config, tmp_path / "out") == 1
        assert "h0" in capsys.readouterr().err

    def test_grid_precondition_names_t_hat(self, tmp_path, capsys):
        config = write_config(tmp_path / "bad.json", T_hat=2.0)
        assert cli.run_optimize(config, tmp_path / "out") == 1
        assert "T_hat" in capsys.readouterr().err

    def test_zero_alpha_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path / "bad.json", alpha=0.0)
        assert cli.run_gradcheck(config, tmp_path / "out") == 1
        assert "alpha" in capsys.readouterr().err

    def test_unnormalized_psi0_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path / "bad.json", psi0=as_pairs_vector([1.0, 1.0]))
        assert cli.run_optimize(config, tmp_path / "out") == 1
        assert "psi0" in capsys.readouterr().err

    def test_eps_ref_sample_count_checked(self, tmp_path, capsys):
        config = write_config(tmp_path / "bad.json", eps_ref={"samples": [0.0, 0.0]})
        assert cli.run_optimize(config, tmp_path / "out") == 1
        assert "eps_ref" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("max_iter", 10), ("boundary", "canonical")])
    def test_unknown_key_rejected(self, tmp_path, capsys, key, value):
        config = write_config(tmp_path / "bad.json", **{key: value})
        assert cli.run_optimize(config, tmp_path / "out") == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("alpha", float("inf")),
            ("eps_ref", {"constant": float("nan")}),
            ("T_hat", float("inf")),
            ("j_tol", float("inf")),
        ],
    )
    def test_non_finite_number_rejected(self, tmp_path, capsys, key, value):
        # Python's json reads NaN and Infinity; each must be a named config error
        config = write_config(tmp_path / "bad.json", **{key: value})
        assert cli.run_verify(config, tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert key in err and "must be finite" in err

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("alpha", BIG, "alpha"),
            ("T_hat", BIG, "T_hat"),
            ("dt", BIG, "dt"),
            ("j_tol", BIG, "j_tol"),
            ("stationarity_tol", BIG, "stationarity_tol"),
            ("h0", [[[BIG, 0], [0, 0]], [[0, 0], [1, 0]]], "h0"),
            ("psi0", [[BIG, 0], [0, 0]], "psi0"),
            ("eps_ref", {"constant": BIG}, "eps_ref"),
            ("eps_ref", {"samples": [BIG] + [0.0] * 99}, "eps_ref"),
            ("seed", -1, "seed"),
            # grids no stack can hold, 4e13 and 1e300 steps: refused by the
            # step count, before anything of the grid's size is allocated
            ("T_hat", 1e12, "T_hat"),
            ("dt", 1e-300, "T_hat"),
            # T / dt overflows to inf steps
            ("dt", 5e-324, "T"),
        ],
        ids=[
            "alpha", "T_hat", "dt", "j_tol", "stationarity_tol", "h0", "psi0",
            "eps_ref-constant", "eps_ref-samples", "seed", "T_hat-steps", "dt-steps",
            "dt-subnormal",
        ],
    )
    def test_out_of_range_number_rejected(self, tmp_path, capsys, key, value, named):
        # Python's json parses integers of any size exactly; none may end in a traceback
        config = write_config(tmp_path / "bad.json", **{key: value})
        assert cli.run_optimize(config, tmp_path / "out") == 1
        assert f"config error: {named}: " in capsys.readouterr().err

    @pytest.mark.parametrize("limit, ok", [(100 * 2 * 2, True), (100 * 2 * 2 - 1, False)])
    def test_stack_entries_limit_is_the_bound(self, tmp_path, monkeypatch, limit, ok):
        # 100 steps at dimension 2: a stack of 400 entries parses at a limit of
        # 400 and is refused, naming T_hat, at 399
        monkeypatch.setattr(cli, "MAX_STACK_ENTRIES", limit)
        config = write_config(tmp_path / "cfg.json")
        if ok:
            assert cli.ProblemConfig.from_file(config).problem.grid.n_steps == 100
        else:
            with pytest.raises(cli.ConfigError) as info:
                cli.ProblemConfig.from_file(config)
            assert info.value.field == "T_hat"

    @pytest.mark.parametrize("command", ["verify", "optimize"])
    @pytest.mark.parametrize("example", ["readme", "real4"])
    def test_reference_past_the_step_phase_bound_rejected(self, tmp_path, capsys, command, example):
        # a finite reference whose step phase bound ||H dt||_1 is far past 2^53
        # (inf on real4): malformed input naming eps_ref, with nothing solved
        # or written
        config = write_example_config(tmp_path / "cfg.json", example)
        cfg = json.loads(config.read_text(encoding="utf-8"))
        cfg["eps_ref"] = {"constant": 1e308}
        config.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(config), "--out", str(out)]) == 1
        assert "config error: eps_ref: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["verify", "optimize", "gradcheck"])
    @pytest.mark.parametrize("example", ["readme", "real4"])
    def test_reference_past_the_norm_gate_rejected(self, tmp_path, capsys, command, example):
        # a reference at step phase 1e4, far inside the step phase bound,
        # whose steps still lose unitarity past the trajectory's norm gate at
        # two levels and at four: malformed input naming eps_ref, with no
        # traceback and nothing written
        config = write_example_config(tmp_path / "cfg.json", example)
        cfg = json.loads(config.read_text(encoding="utf-8"))
        mu = np.array([[x[0] for x in row] for row in cfg["mu"]])
        cfg["eps_ref"] = {"constant": float(1e4 / (cfg["dt"] * np.linalg.norm(mu, 1)))}
        config.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: eps_ref: norm drift along trajectory")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("scale, ok", [(0.99, True), (1.01, False)])
    def test_reference_bound_includes_the_probe_noise(self, scale, ok):
        # README's H(eps) = diag(0, 1) + eps sigma_x has ||H(eps) dt||_1 =
        # (|eps| + 1) dt; the reference is checked widened by the probe noise
        # verify adds to it, so a reference just inside the bound with that
        # noise parses and one just past it is rejected
        cfg = readme_config()
        ref = scale * cli.MAX_STEP_PHASE / cfg["dt"] - 1.0 - cli.NOISE_AMPLITUDE_PROBE
        cfg["eps_ref"] = {"constant": ref}
        if ok:
            cli.ProblemConfig.from_dict(cfg)
        else:
            with pytest.raises(cli.ConfigError, match="step phase") as info:
                cli.ProblemConfig.from_dict(cfg)
            assert info.value.field == "eps_ref"

    def test_readme_example_parses(self):
        cfg = cli.ProblemConfig.from_dict(readme_config())
        assert cfg.problem.dim == 2

    def test_missing_field_reported(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text('{"dimension": 2}', encoding="utf-8")
        assert cli.run_optimize(config, tmp_path / "out") == 1
        assert "h0" in capsys.readouterr().err


def per_value_csv(header, rows):
    """CSV text with each value rendered by its own format(x, ".17g") call."""
    lines = [",".join(header)]
    lines.extend(",".join(format(float(x), ".17g") for x in row) for row in rows)
    return "\n".join(lines) + "\n"


class TestCsvOutput:
    """The CSV writer's one %-format per file, byte for byte against one format call per value."""

    def test_edge_values(self, tmp_path):
        rng = np.random.default_rng(11)
        edges = [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e308,
                 -1.7976931348623157e308, 0.1, 1.0 / 3.0, 2.0 ** 53 + 2.0, 1e16, 1e-5, np.pi]
        spread = rng.standard_normal(3000) * 10.0 ** rng.integers(-323, 308, 3000)
        table = np.concatenate([edges + [0.0] * (3 - len(edges) % 3), spread]).reshape(-1, 3)
        cli._write_csv(tmp_path / "t.csv", ["a", "b", "c"], table)
        expected = per_value_csv(["a", "b", "c"], table)
        assert (tmp_path / "t.csv").read_bytes() == expected.encode("utf-8")

    def test_optimize_outputs(self, tmp_path):
        config = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert cli.run_optimize(config, out) == 0
        p = cli.ProblemConfig.from_file(config).problem
        dt = p.grid.dt
        # 17 significant digits read back exactly
        eps = np.loadtxt(out / "field.csv", delimiter=",", skiprows=1)[:, 1]
        field = per_value_csv(["t", "eps"], ((k * dt, x) for k, x in enumerate(eps)))
        states = qoct.propagate_forward(p.psi0, qoct.ControlField(eps), p.hamiltonian, p.grid).states
        pops = per_value_csv(
            ["t", "p0", "p1"], ((k * dt, *row) for k, row in enumerate(np.abs(states) ** 2))
        )
        assert (out / "field.csv").read_bytes() == field.encode("utf-8")
        assert (out / "populations.csv").read_bytes() == pops.encode("utf-8")


class TestOptimize:
    def test_emits_artifacts_and_roundtrips(self, tmp_path):
        config = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        code = cli.run_optimize(config, out)
        assert code == 0

        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["final_stationarity_residual"] < 1e-6
        assert len(summary["iterations"]) == summary["iterations_run"] + 1
        # the initial field and at least one evaluation per iteration
        assert summary["evaluations_run"] > summary["iterations_run"]
        assert summary["largest_j_decrease"] == 0.0
        field_lines = (out / "field.csv").read_text().splitlines()
        assert field_lines[0] == "t,eps"
        assert len(field_lines) == 1 + 100
        pop_lines = (out / "populations.csv").read_text().splitlines()
        assert pop_lines[0] == "t,p0,p1"
        assert len(pop_lines) == 1 + 101

        out2 = tmp_path / "out2"
        assert cli.run_propagate(config, out / "field.csv", out2) == 0
        replay = json.loads((out2 / "summary.json").read_text())
        assert abs(replay["j_opt"] - summary["j_opt"]) < 1e-10
        assert replay["tdse_residual"] < 1e-13

    def test_summary_counts_evaluations(self, tmp_path):
        # the two-level benchmark at seed 42: 19 iterations solve 26 fields,
        # the initial one and every line-search trial included
        config = write_config(tmp_path / "cfg.json", T=10.0, T_hat=10.5, max_iters=500, seed=42)
        assert cli.run_optimize(config, tmp_path / "out") == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert (summary["iterations_run"], summary["evaluations_run"]) == (19, 26)
        assert "sweeps_run" not in summary

    def test_eps_ref_samples_read_like_constant(self, tmp_path):
        files = ("field.csv", "populations.csv", "summary.json")
        outputs = []
        for eps_ref in ({"constant": 0.0}, {"samples": [0.0] * 100}):
            out = tmp_path / next(iter(eps_ref))
            config = write_config(tmp_path / "cfg.json", eps_ref=eps_ref)
            assert cli.run_optimize(config, out) == 0
            outputs.append([(out / f).read_bytes() for f in files])
        assert outputs[0] == outputs[1]

    def test_largest_penalty_is_certified(self, tmp_path):
        # README's config at alpha 1e308: the sweep shrinks the field below
        # 1e-308, where the field series' derivative must stay finite; the run
        # certifies that field with a finite residual, and its line search's
        # slope along a vanishing gap is 0, not 2 alpha = inf times 0 = NaN
        cfg = readme_config()
        cfg["alpha"] = 1e308
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["optimize", "--config", str(config), "--out", str(out)]) == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        assert np.isfinite(summary["final_stationarity_residual"])
        assert summary["final_stationarity_residual"] < cfg["stationarity_tol"]

    def test_sweep_past_the_step_phase_bound_is_refused(self, tmp_path):
        # at alpha 1e-11 the two-level sweep sets samples whose step phase is
        # past MAX_STEP_PHASE: the stack kernel refuses them before building
        # anything (their squarings overflowed). The field is the run's own,
        # so it is not taken, as a sweep that lowers J is not, and the run
        # goes on from the initial field: it ends in exit 0 or 2, with no
        # RuntimeWarning, and everything it writes is finite
        rng = np.random.default_rng(0)
        h0, mu, observable = (as_pairs_matrix(1e3 * random_symmetric(rng, 2).matrix) for _ in range(3))
        config = write_config(
            tmp_path / "cfg.json", h0=h0, mu=mu, observable=observable, T=1.0, T_hat=2.0,
            dt=1.0, alpha=1e-11, max_iters=1,
        )
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.run_optimize(config, out) in (0, 2)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert sorted(path.name for path in out.iterdir()) == [
            "field.csv", "populations.csv", "summary.json"
        ]
        assert finite_outputs(out)

    @pytest.mark.parametrize("alpha", [1e-10, 1e-12])
    def test_trial_past_the_norm_gate_is_refused(self, tmp_path, capsys, alpha):
        # on README's config at these alpha the line search tries fields whose
        # samples grow like 1 / alpha: inside the step phase bound, but their
        # trajectories drift past the norm gate. The fields are the run's own,
        # so they are not taken, as one past the bound is not, and the run does
        # not blame the reference (the constant 0): it ends unconverged (exit
        # 2), with no RuntimeWarning, and everything it writes is finite
        cfg = example_config("readme")
        cfg["alpha"] = alpha
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["optimize", "--config", str(config), "--out", str(out)]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert capsys.readouterr().err == ""
        assert sorted(path.name for path in out.iterdir()) == [
            "field.csv", "populations.csv", "summary.json"
        ]
        assert finite_outputs(out)

    def test_exhausted_iterations_exit_code(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", max_iters=2, j_tol=1e-16)
        assert cli.run_optimize(config, tmp_path / "out") == 2


class TestVerify:
    def test_commuting_observable(self, tmp_path):
        config = write_config(
            tmp_path / "cfg.json", observable=as_pairs_matrix(np.eye(2))
        )
        out = tmp_path / "out"
        assert cli.run_verify(config, out) == 0
        report = json.loads((out / "verify.json").read_text())
        assert report["passed"] is True
        assert report["field_continuity"]["commutator_condition_holds"] is True
        assert report["field_continuity"]["field_left_limit_gap"] < 1e-10
        assert report["conjugate_independence"]["deviation"] < 1e-12
        assert report["conjugate_independence"]["beta"] == [0.3, 0.7]
        assert report["conjugate_independence"]["beta_deviation"] < 1e-12
        assert report["gradient"]["max_rel_error"] < 1e-6
        for n in ("1", "2", "-1"):
            fam = report["continuous_family"][n]
            assert fam["jump_norm_at_T"] == 0.0
            assert fam["homogeneous_residual"] < 1e-12
            assert fam["phase_defect_magnitude"] == 2.0

    def test_noncommuting_pair_reports_gap(self, tmp_path):
        config = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert cli.run_verify(config, out) == 0
        report = json.loads((out / "verify.json").read_text())
        assert report["field_continuity"]["commutator_condition_holds"] is False
        assert report["field_continuity"]["field_left_limit_gap"] > 0
        assert report["canonical_jump"]["jump_norm_at_T"] > 0
        assert report["canonical_jump"] == report["field_continuity"]
        # alpha = 1: the gap is |<psi(T)| [O, mu] |psi(T)>| / 2
        jump = report["canonical_jump"]
        assert abs(jump["field_left_limit_gap"] - abs(jump["commutator_expectation_at_T"])) < 1e-12
        assert report["passed"] is True

    def test_noncommuting_gap_is_checked(self, tmp_path, monkeypatch):
        # the gap must equal |<psi(T)| [O, mu] |psi(T)> / (2i)| / alpha even
        # when O and mu do not commute: a report off by 1e-6 fails the check
        jump = cli.check_canonical_jump

        def off(solution):
            rep = jump(solution)
            return dataclasses.replace(rep, field_left_limit_gap=rep.field_left_limit_gap + 1e-6)

        monkeypatch.setattr(cli, "check_canonical_jump", off)
        config = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert cli.run_verify(config, out) == 2
        report = json.loads((out / "verify.json").read_text())
        assert report["field_continuity"]["commutator_condition_holds"] is False
        assert report["checks"]["field_continuity"] is False
        assert report["passed"] is False

    @pytest.mark.parametrize(
        "observable",
        [1e5 * np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([0.0, 1e6])],
        ids=["1e5_sigma_x", "diag_0_1e6"],
    )
    def test_large_norm_observable_passes(self, tmp_path, observable):
        # the continuous costates and their step defects scale with
        # ||O psi(T)||; an absolute 1e-12 failed these correct runs
        config = write_config(tmp_path / "cfg.json", observable=as_pairs_matrix(observable))
        out = tmp_path / "out"
        assert cli.run_verify(config, out) == 0
        report = json.loads((out / "verify.json").read_text())
        assert report["passed"] is True
        scale = report["canonical_jump"]["jump_norm_at_T"]
        assert scale > 1e3
        for n in ("1", "2", "-1"):
            fam = report["continuous_family"][n]
            assert fam["homogeneous_residual"] < cli.HOMOGENEOUS_TOL * scale
            assert fam["costate_matches_boundary"] < cli.BOUNDARY_TOL

    def test_complex_hamiltonian_skips_conjugate_check(self, tmp_path):
        sy = [[0, -1j], [1j, 0]]
        config = write_config(tmp_path / "cfg.json", mu=as_pairs_matrix(sy))
        out = tmp_path / "out"
        assert cli.run_verify(config, out) == 0
        report = json.loads((out / "verify.json").read_text())
        assert "skipped" in report["conjugate_independence"]


class TestGradcheck:
    def test_default_probe_passes(self, tmp_path):
        config = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert cli.run_gradcheck(config, out) == 0
        report = json.loads((out / "grad.json").read_text())
        assert report["passed"] is True
        assert report["max_rel_error"] < 1e-6

    def test_largest_penalty_gradient_is_finite(self, tmp_path):
        # README's config at alpha 1e308: -2 alpha dt (eps - ref) is finite, and
        # the gradient multiplies by alpha last, so grad.json is finite too (with
        # 2 alpha formed first it overflowed, and every entry read Infinity)
        cfg = readme_config()
        cfg["alpha"] = 1e308
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "out"
        assert cli.run_gradcheck(config, out) == 0
        report = json.loads((out / "grad.json").read_text())
        assert np.isfinite(report["analytic"]).all() and report["max_rel_error"] < 1e-6

    @pytest.mark.parametrize("command", ["gradcheck", "verify"])
    def test_gradient_past_the_largest_double_is_refused(self, tmp_path, capsys, command):
        # README's operators at dt 10 and alpha 1e308 (seed 0): -2 alpha dt
        # (eps - ref) overflows for the probe field's deviations, which wrote
        # Infinity and NaN; the config is refused naming alpha, with nothing written
        cfg = readme_config()
        cfg.update(dt=10.0, T=20.0, T_hat=30.0, alpha=1e308, seed=0)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "out"
        assert cli.main([command, "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error: alpha: ")
        assert not out.exists()

    def test_coarse_probe_fails_with_diagnostic(self, tmp_path):
        config = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert cli.run_gradcheck(config, out, h=1e-1) == 2
        report = json.loads((out / "grad.json").read_text())
        assert report["passed"] is False
        assert "truncate" in report["diagnostic"]

    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("h", ["inf", "nan"])
    def test_non_finite_probe_rejected(self, tmp_path, capsys, h, dim):
        # as typed on the command line: malformed input, naming h, with no
        # gradient computed or written; an infinite step would otherwise
        # reach the series' plan
        rng = np.random.default_rng(4)
        operators = {
            name: as_pairs_matrix(random_symmetric(rng, dim).matrix)
            for name in ("h0", "mu", "observable")
        }
        config = write_config(
            tmp_path / "cfg.json", dimension=dim, psi0=as_pairs_vector(np.eye(dim)[0]),
            **operators,
        )
        out = tmp_path / "out"
        assert cli.main(["gradcheck", "--config", str(config), "--out", str(out), "--h", h]) == 1
        assert "config error: h: " in capsys.readouterr().err
        assert not (out / "grad.json").exists()

    @pytest.mark.parametrize("example", ["readme", "real4"])
    def test_probe_step_past_the_step_phase_bound_rejected(self, tmp_path, capsys, example):
        # finite, but the outermost probes' step phase bound ||H dt||_1 is far
        # past 2^53 (inf on real4): malformed input naming h, with no gradient
        # computed or written
        config = write_example_config(tmp_path / "cfg.json", example)
        out = tmp_path / "out"
        assert cli.main(["gradcheck", "--config", str(config), "--out", str(out), "--h", "1e308"]) == 1
        assert "config error: h: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scale, code", [(0.99, 2), (1.01, 1)])
    def test_step_phase_bound_is_the_limit(self, tmp_path, capsys, scale, code):
        # README's H(eps) = diag(0, 1) + eps sigma_x has ||H(eps) dt||_1 =
        # (|eps| + 1) dt: an h whose outermost probe is just inside the bound
        # is run (its central differences miss the gate), one just past it
        # is rejected
        config = write_example_config(tmp_path / "cfg.json", "readme")
        cfg = cli.ProblemConfig.from_file(config)
        widest = np.max(np.abs(cfg.noisy_field(cli.NOISE_AMPLITUDE_PROBE).samples))
        h = scale * cli.MAX_STEP_PHASE / cfg.problem.grid.dt - 1.0 - widest
        assert cli.run_gradcheck(config, tmp_path / "out", h=h) == code
        assert ("config error: h: " in capsys.readouterr().err) == (code == 1)

    def test_default_probe_step_is_the_gradient_modules(self, tmp_path, monkeypatch):
        # the runner's default and the parser's --h default both read it
        assert inspect.signature(cli.run_gradcheck).parameters["h"].default == (
            gradient.DEFAULT_PROBE_STEP
        )
        seen = []
        monkeypatch.setattr(cli, "run_gradcheck", lambda config, out, h: seen.append(h) or 0)
        assert cli.main(["gradcheck", "--config", "c.json", "--out", str(tmp_path)]) == 0
        assert seen == [gradient.DEFAULT_PROBE_STEP]

    def test_seed_option_changes_probe_field(self, tmp_path):
        config1 = write_config(tmp_path / "cfg1.json", seed=1)
        config2 = write_config(tmp_path / "cfg2.json", seed=2)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.run_gradcheck(config1, out1) == 0
        assert cli.run_gradcheck(config2, out2) == 0
        g1 = json.loads((out1 / "grad.json").read_text())["analytic"]
        g2 = json.loads((out2 / "grad.json").read_text())["analytic"]
        assert g1 != g2


class TestPropagate:
    def write_field_csv(self, path, samples):
        lines = ["t,eps"] + [f"{k * 0.025},{x}" for k, x in enumerate(samples)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_eigenstate_has_constant_populations(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", psi0=as_pairs_vector([0.0, 1.0]))
        field_csv = self.write_field_csv(tmp_path / "field.csv", np.zeros(100))
        out = tmp_path / "out"
        assert cli.run_propagate(config, field_csv, out) == 0
        rows = np.loadtxt(out / "populations.csv", delimiter=",", skiprows=1)
        assert np.max(np.abs(rows[:, 1] - 0.0)) < 1e-12
        assert np.max(np.abs(rows[:, 2] - 1.0)) < 1e-12

    def test_pi_pulse_reaches_full_transfer(self, tmp_path):
        # zero drift: a constant sigma_x drive of area pi/2 up to the
        # measurement node is an exact population inverter
        config = write_config(
            tmp_path / "cfg.json",
            h0=as_pairs_matrix(np.zeros((2, 2))),
            T=1.0,
            T_hat=1.25,
            dt=0.0125,
        )
        samples = np.where(np.arange(100) < 80, np.pi / 2, 0.0)
        field_csv = tmp_path / "field.csv"
        lines = ["t,eps"] + [f"{k * 0.0125},{x}" for k, x in enumerate(samples)]
        field_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert cli.run_propagate(config, field_csv, out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["j_opt"] >= 1 - 1e-6
        assert summary["final_populations"][1] >= 1 - 1e-6

    def test_sample_count_mismatch(self, tmp_path, capsys):
        config = write_config(tmp_path / "cfg.json")
        field_csv = self.write_field_csv(tmp_path / "field.csv", np.zeros(99))
        assert cli.run_propagate(config, field_csv, tmp_path / "out") == 1
        assert "field" in capsys.readouterr().err


    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_sample_rejected(self, tmp_path, capsys, bad):
        # the diagnostic names the field file and the line of the sample;
        # 1e400 overflows to inf when read
        config = write_config(tmp_path / "cfg.json")
        samples = ["0.0"] * 100
        samples[41] = bad
        field_csv = self.write_field_csv(tmp_path / "field.csv", samples)
        assert cli.run_propagate(config, field_csv, tmp_path / "out") == 1
        assert "config error: field: line 43: " in capsys.readouterr().err

    @pytest.mark.parametrize("example", ["readme", "real4"])
    def test_sample_past_the_step_phase_bound_rejected(self, tmp_path, capsys, example):
        # one finite sample whose step phase bound ||H dt||_1 is far past 2^53
        # (inf on real4): the diagnostic names the field file and its line
        config = write_example_config(tmp_path / "cfg.json", example)
        samples = ["0.0"] * 420
        samples[41] = "1e308"
        field_csv = self.write_field_csv(tmp_path / "field.csv", samples)
        assert cli.run_propagate(config, field_csv, tmp_path / "out") == 1
        assert "config error: field: line 43: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_steps_that_lose_unitarity_rejected(self, tmp_path, capsys):
        # one sample inside the step phase bound whose step still loses
        # unitarity past the trajectory's norm gate (step phase 1e5 on
        # real4): malformed input naming the field, with nothing written
        config = write_example_config(tmp_path / "cfg.json", "real4")
        problem = cli.ProblemConfig.from_file(config).problem
        mu = problem.hamiltonian.coupling.matrix
        samples = ["0.0"] * 420
        samples[100] = repr(float(1e5 / (problem.grid.dt * np.linalg.norm(mu, 1))))
        field_csv = self.write_field_csv(tmp_path / "field.csv", samples)
        assert cli.run_propagate(config, field_csv, tmp_path / "out") == 1
        assert "config error: field: norm drift along trajectory" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestMainEntry:
    def test_dispatch_and_exit_codes(self, tmp_path):
        config = write_config(tmp_path / "cfg.json", max_iters=40, j_tol=1e-9)
        out = tmp_path / "out"
        code = cli.main(["optimize", "--config", str(config), "--out", str(out)])
        assert code in (0, 2)
        assert (out / "field.csv").exists()

    def test_dispatch_to_verify_gradcheck_and_propagate(self, tmp_path):
        config = write_config(tmp_path / "cfg.json")
        common = ["--config", str(config), "--out"]
        assert cli.main(["verify", *common, str(tmp_path / "v")]) == 0
        assert json.loads((tmp_path / "v" / "verify.json").read_text())["passed"] is True
        # --h reaches the probe: an oversized step fails the gate
        assert cli.main(["gradcheck", *common, str(tmp_path / "g"), "--h", "0.1"]) == 2
        assert json.loads((tmp_path / "g" / "grad.json").read_text())["probe_step"] == 0.1
        field_csv = tmp_path / "field.csv"
        rows = "".join(f"{k * 0.025},0\n" for k in range(100))
        field_csv.write_text("t,eps\n" + rows, encoding="utf-8")
        assert cli.main(["propagate", *common, str(tmp_path / "p"), "--field", str(field_csv)]) == 0
        assert json.loads((tmp_path / "p" / "summary.json").read_text())["j_opt"] == 0.0

    @pytest.mark.parametrize("draw", [random_symmetric, random_hermitian])
    def test_verify_and_gradcheck_above_two_levels(self, tmp_path, draw):
        # dim 4: real-symmetric operators build their field series in real
        # arithmetic, complex-Hermitian ones in complex
        rng = np.random.default_rng(4)
        h0, mu, observable = (as_pairs_matrix(draw(rng, 4).matrix) for _ in range(3))
        config = write_config(
            tmp_path / "cfg.json", dimension=4, h0=h0, mu=mu, observable=observable,
            psi0=as_pairs_vector([1.0, 0.0, 0.0, 0.0]),
        )
        common = ["--config", str(config), "--out"]
        assert cli.main(["verify", *common, str(tmp_path / "v")]) == 0
        report = json.loads((tmp_path / "v" / "verify.json").read_text())
        assert report["passed"] is True
        conjugate = report["conjugate_independence"]
        assert ("skipped" in conjugate) == (draw is random_hermitian)
        assert cli.main(["gradcheck", *common, str(tmp_path / "g")]) == 0

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_import_does_not_load_scipy(self):
        # scipy is a test dependency only; importing the command line must not
        # pay for it (numpy and qoct.cli are what the console script imports)
        code = "import sys, qoct.cli; print('scipy' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert out.stdout.strip() == "False"
