import dataclasses

import numpy as np
import pytest

import qoct
from conftest import random_state, random_symmetric


class TestInnerProduct:
    def test_orthogonal_basis_vectors(self):
        a = qoct.StateVector([1.0, 0.0])
        b = qoct.StateVector([0.0, 1.0])
        assert qoct.inner_product(a, b) == 0.0

    def test_normalized_self_overlap(self):
        s = qoct.StateVector([1 / np.sqrt(2), 1j / np.sqrt(2)])
        assert qoct.inner_product(s, s) == pytest.approx(1.0, abs=1e-15)

    def test_component_readoff(self):
        a = qoct.StateVector([1.0, 0.0])
        b = qoct.StateVector([0.6j, 0.8])
        assert qoct.inner_product(a, b) == pytest.approx(0.6j, abs=1e-15)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(0)
        for dim in (2, 3, 4):
            a = random_state(rng, dim)
            b = random_state(rng, dim)
            assert qoct.inner_product(a, b) == pytest.approx(
                np.conj(qoct.inner_product(b, a)), abs=1e-15
            )

    def test_self_overlap_real_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = random_state(rng, 3)
            val = qoct.inner_product(a, a)
            assert val.imag == 0.0
            assert val.real >= 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            qoct.inner_product(qoct.StateVector([1, 0]), qoct.StateVector([1, 0, 0]))


class TestExpectation:
    def test_eigenstate(self):
        O = qoct.HermitianOperator(np.diag([1.0, -1.0]))
        assert qoct.expectation(O, qoct.StateVector([1, 0])) == 1.0

    def test_balanced_superposition(self):
        O = qoct.HermitianOperator(np.diag([1.0, -1.0]))
        psi = qoct.StateVector([1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert qoct.expectation(O, psi) == pytest.approx(0.0, abs=1e-15)

    def test_sigma_x_eigenstate(self):
        O = qoct.HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))
        psi = qoct.StateVector([1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert qoct.expectation(O, psi) == pytest.approx(1.0, abs=1e-15)

    def test_real_for_random_hermitian(self):
        rng = np.random.default_rng(2)
        for dim in (2, 3, 4):
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            O = qoct.HermitianOperator((a + a.conj().T) / 2)
            val = qoct.expectation(O, random_state(rng, dim))
            assert isinstance(val, float)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            qoct.expectation(qoct.HermitianOperator(np.eye(3)), qoct.StateVector([1, 0]))


class TestCommutes:
    def test_identity_commutes_with_anything(self):
        I = qoct.HermitianOperator(np.eye(2))
        sx = qoct.HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert qoct.commutes(I, sx, 1e-12)

    def test_projector_and_sigma_x(self):
        P = qoct.HermitianOperator(np.diag([0.0, 1.0]))
        sx = qoct.HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert not qoct.commutes(P, sx, 1e-12)

    def test_self_commutation(self):
        sx = qoct.HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert qoct.commutes(sx, sx, 1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            qoct.commutes(qoct.HermitianOperator(np.eye(2)), qoct.HermitianOperator(np.eye(3)), 1e-12)


class TestMakeGrid:
    def test_exact_division(self):
        grid = qoct.make_grid(1.0, 1.25, 0.25)
        assert grid.index_T == 4
        assert grid.n_steps == 5

    def test_t_hat_off_grid_rejected(self):
        with pytest.raises(ValueError, match="T_hat"):
            qoct.make_grid(1.0, 1.1, 0.25)

    def test_t_hat_must_exceed_t(self):
        with pytest.raises(ValueError, match="T < T_hat"):
            qoct.make_grid(1.0, 1.0, 0.25)

    def test_benchmark_grid(self):
        grid = qoct.make_grid(10.0, 10.5, 0.025)
        assert (grid.index_T, grid.n_steps) == (400, 420)
        assert grid.T == pytest.approx(10.0, abs=1e-12)
        assert grid.T_hat == pytest.approx(10.5, abs=1e-12)

    def test_measurement_node_always_interior(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = int(rng.integers(1, 50))
            n = m + int(rng.integers(1, 50))
            dt = float(rng.uniform(0.01, 0.5))
            grid = qoct.make_grid(m * dt, n * dt, dt)
            assert 0 < grid.index_T < grid.n_steps

    def test_node_times(self):
        grid = qoct.make_grid(1.0, 1.25, 0.25)
        assert np.allclose(grid.times, [0.0, 0.25, 0.5, 0.75, 1.0, 1.25])


class TestTypeInvariants:
    def test_state_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            qoct.StateVector([np.nan, 0.0])

    def test_operator_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            qoct.HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_operator_accepts_large_norm_hermitian(self):
        # V diag(l) V^dagger with ||A||_max ~ 1e4 carries ~1e-12 of round-off
        # asymmetry, above an absolute 1e-12 bound but not a relative one
        rng = np.random.default_rng(5)
        for dim in (4, 16):
            devs = []
            for _ in range(10):
                z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                v, _ = np.linalg.qr(z)
                a = (v * (2e4 * rng.uniform(-1, 1, dim))) @ v.conj().T
                devs.append(np.max(np.abs(a - a.conj().T)))
                qoct.HermitianOperator(a)
            assert max(devs) >= 1e-12

    def test_operator_rejects_small_anti_hermitian_part(self):
        rng = np.random.default_rng(6)
        a = random_symmetric(rng, 4).matrix
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = a / np.max(np.abs(a)) + 1e-10 * (b - b.conj().T) / 2
        with pytest.raises(ValueError, match="not Hermitian"):
            qoct.HermitianOperator(m)

    def test_hamiltonian_dimension_check(self):
        with pytest.raises(ValueError, match="dimensions differ"):
            qoct.ControlHamiltonian(
                drift=qoct.HermitianOperator(np.eye(2)),
                coupling=qoct.HermitianOperator(np.eye(3)),
            )

    def test_hamiltonian_hermitian_for_any_field(self):
        rng = np.random.default_rng(4)
        H = qoct.ControlHamiltonian(
            drift=random_symmetric(rng, 3), coupling=random_symmetric(rng, 3)
        )
        for eps in (-5.0, 0.0, 0.3, 100.0):
            h = H.evaluate(eps)
            assert np.max(np.abs(h - h.conj().T)) < 1e-12
        assert np.array_equal(H.control_derivative, H.coupling.matrix)

    def test_field_length_and_finiteness(self):
        with pytest.raises(ValueError, match="non-finite"):
            qoct.ControlField([0.0, np.inf])
        grid = qoct.make_grid(1.0, 1.25, 0.25)
        psi0 = qoct.StateVector([1.0, 0.0])
        H = qoct.ControlHamiltonian(
            drift=qoct.HermitianOperator(np.zeros((2, 2))),
            coupling=qoct.HermitianOperator(np.eye(2)),
        )
        with pytest.raises(ValueError, match="samples"):
            qoct.propagate_forward(psi0, qoct.ControlField([0.0, 0.0]), H, grid)

    def test_trajectory_rejects_norm_drift(self):
        states = np.array([[1.0, 0.0], [0.5, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="norm drift"):
            qoct.StateTrajectory(states)

    def test_costate_node_convention_enforced(self):
        states = np.zeros((4, 2), dtype=complex)
        states[2] = [1.0, 0.0]
        with pytest.raises(ValueError, match="chi_T_plus"):
            qoct.CostateTrajectory(
                states=states,
                chi_T_minus=np.array([0.0, 1.0], dtype=complex),
                chi_T_plus=np.zeros(2, dtype=complex),
                index_T=2,
            )

    def test_grid_interior_measurement_node(self):
        with pytest.raises(ValueError, match="interior"):
            qoct.TimeGrid(dt=0.1, n_steps=5, index_T=5)
        with pytest.raises(ValueError, match="interior"):
            qoct.TimeGrid(dt=0.1, n_steps=5, index_T=0)

    def test_problem_requires_normalized_psi0(self):
        grid = qoct.make_grid(1.0, 1.25, 0.25)
        H = qoct.ControlHamiltonian(
            drift=qoct.HermitianOperator(np.zeros((2, 2))),
            coupling=qoct.HermitianOperator(np.eye(2)),
        )
        with pytest.raises(ValueError, match="not normalized"):
            qoct.ControlProblem(
                psi0=qoct.StateVector([1.0, 1.0]),
                hamiltonian=H,
                observable=qoct.HermitianOperator(np.eye(2)),
                grid=grid,
                eps_ref=qoct.ControlField.constant(0.0, 5),
                alpha=1.0,
            )


class TestImmutability:
    def test_arrays_are_read_only(self):
        s = qoct.StateVector([1.0, 0.0])
        with pytest.raises(ValueError):
            s.amplitudes[0] = 2.0
        O = qoct.HermitianOperator(np.eye(2))
        with pytest.raises(ValueError):
            O.matrix[0, 0] = 5.0
        f = qoct.ControlField([0.0, 1.0])
        with pytest.raises(ValueError):
            f.samples[0] = 3.0

    def test_dataclasses_are_frozen(self):
        s = qoct.StateVector([1.0, 0.0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.amplitudes = np.array([0.0, 1.0])

    def test_construction_copies_input(self):
        raw = np.array([1.0 + 0j, 0.0])
        s = qoct.StateVector(raw)
        raw[0] = 5.0
        assert s.amplitudes[0] == 1.0
