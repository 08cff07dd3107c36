import json
from pathlib import Path

import numpy as np
import pytest

from qoct import cli


# an integer Python's json reads exactly but no float can hold
BIG = 10**400


def as_pairs_matrix(m):
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def as_pairs_vector(v):
    return [[float(x.real), float(x.imag)] for x in np.asarray(v, dtype=complex)]


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
        "key, value",
        [
            ("alpha", BIG),
            ("T_hat", BIG),
            ("dt", BIG),
            ("j_tol", BIG),
            ("stationarity_tol", BIG),
            ("h0", [[[BIG, 0], [0, 0]], [[0, 0], [1, 0]]]),
            ("psi0", [[BIG, 0], [0, 0]]),
            ("eps_ref", {"constant": BIG}),
            ("eps_ref", {"samples": [BIG] + [0.0] * 99}),
            ("seed", -1),
        ],
        ids=[
            "alpha", "T_hat", "dt", "j_tol", "stationarity_tol", "h0", "psi0",
            "eps_ref-constant", "eps_ref-samples", "seed",
        ],
    )
    def test_out_of_range_number_rejected(self, tmp_path, capsys, key, value):
        # Python's json parses integers of any size exactly; none may end in a traceback
        config = write_config(tmp_path / "bad.json", **{key: value})
        assert cli.run_optimize(config, tmp_path / "out") == 1
        assert f"config error: {key}" in capsys.readouterr().err

    def test_readme_example_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Config format", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        cfg = cli.ProblemConfig.from_dict(json.loads(block))
        assert cfg.problem.dim == 2

    def test_missing_field_reported(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text('{"dimension": 2}', encoding="utf-8")
        assert cli.run_optimize(config, tmp_path / "out") == 1
        assert "h0" in capsys.readouterr().err


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

    def test_eps_ref_samples_read_like_constant(self, tmp_path):
        files = ("field.csv", "populations.csv", "summary.json")
        outputs = []
        for eps_ref in ({"constant": 0.0}, {"samples": [0.0] * 100}):
            out = tmp_path / next(iter(eps_ref))
            config = write_config(tmp_path / "cfg.json", eps_ref=eps_ref)
            assert cli.run_optimize(config, out) == 0
            outputs.append([(out / f).read_bytes() for f in files])
        assert outputs[0] == outputs[1]

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
        assert report["conjugate_independence"]["beta_2i_deviation"] < 1e-12
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

    def test_coarse_probe_fails_with_diagnostic(self, tmp_path):
        config = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert cli.run_gradcheck(config, out, h=1e-1) == 2
        report = json.loads((out / "grad.json").read_text())
        assert report["passed"] is False
        assert "truncate" in report["diagnostic"]

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

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli.main([])
