import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brightpath.errors import (
    DimensionMismatch,
    LinearlyDependentInput,
    NotHermitian,
    NotOrthonormal,
    NotUnitary,
)
from brightpath.linalg import (
    HermitianOperator,
    UnitaryOperator,
    expm_hermitian,
    gram_schmidt,
    matrix_distance,
    projector_from_frame,
    unitary_distance,
)

from conftest import random_unitary

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


class TestOperatorTypes:
    def test_hermitian_accepts_and_freezes(self):
        h = HermitianOperator([[1.0, 1j], [-1j, 2.0]])
        assert h.dim == 2
        with pytest.raises(ValueError):
            h.matrix[0, 0] = 5.0

    def test_hermitian_rejects_asymmetric(self):
        for matrix in ([[0.0, 1.0], [0.5, 0.0]], np.full((2, 2), np.nan)):
            with pytest.raises(NotHermitian):
                HermitianOperator(matrix)

    def test_hermitian_relative_tolerance(self):
        # A large matrix with a proportionally small asymmetry still passes.
        scale = 1e6
        m = scale * np.array([[1.0, 1.0], [1.0 + 1e-12, 1.0]])
        HermitianOperator(m)

    def test_unitary_rejects_contraction(self):
        for matrix in (0.5 * np.eye(3), np.full((3, 3), np.nan)):
            with pytest.raises(NotUnitary):
                UnitaryOperator(matrix)

    def test_unitary_composition_and_dagger(self, rng):
        u = UnitaryOperator(random_unitary(rng, 4))
        v = UnitaryOperator(random_unitary(rng, 4))
        np.testing.assert_allclose((u @ v).matrix, u.matrix @ v.matrix, atol=1e-14)
        np.testing.assert_allclose((u @ u.dagger()).matrix, np.eye(4), atol=1e-12)

    def test_rectangular_rejected(self):
        with pytest.raises(DimensionMismatch):
            HermitianOperator(np.zeros((2, 3)))


class TestGramSchmidt:
    def test_forced_two_vector_case(self):
        out = gram_schmidt([np.array([1.0, 0.0]), np.array([1.0, 1.0])])
        np.testing.assert_allclose(out[0], [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(out[1], [0.0, 1.0], atol=1e-15)

    def test_orthonormal_input_is_fixed_point(self, rng):
        u = random_unitary(rng, 5)
        out = gram_schmidt(list(u.T))
        np.testing.assert_allclose(np.asarray(out), u.T, atol=1e-12)

    def test_dependent_input_rejected(self):
        with pytest.raises(LinearlyDependentInput):
            gram_schmidt([np.array([1.0, 0.0]), np.array([2.0, 0.0])])

    def test_first_vector_is_normalized_first_input(self, rng):
        vecs = [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(3)]
        out = gram_schmidt(vecs)
        np.testing.assert_allclose(out[0], vecs[0] / np.linalg.norm(vecs[0]), atol=1e-13)

    def test_output_passes_orthonormality_check(self, rng):
        vecs = [rng.normal(size=6) + 1j * rng.normal(size=6) for _ in range(4)]
        out = gram_schmidt(vecs)
        gram = np.asarray(out).conj() @ np.asarray(out).T
        assert np.max(np.abs(gram - np.eye(4))) < 1e-10

    def test_span_is_preserved(self, rng):
        vecs = [rng.normal(size=5) + 1j * rng.normal(size=5) for _ in range(3)]
        out = gram_schmidt(vecs)
        # Same span iff the two projectors agree.
        q = np.linalg.qr(np.asarray(vecs).T)[0]
        p_input = q @ q.conj().T
        p_output = np.asarray(out).T @ np.asarray(out).conj()
        np.testing.assert_allclose(p_input, p_output, atol=1e-10)


class TestProjectorFromFrame:
    def test_single_basis_vector(self):
        p = projector_from_frame([np.array([1.0, 0.0, 0.0])])
        np.testing.assert_allclose(p.matrix, np.diag([1.0, 0.0, 0.0]), atol=1e-15)

    def test_empty_frame_needs_dim(self):
        p = projector_from_frame([], dim=4)
        np.testing.assert_allclose(p.matrix, np.zeros((4, 4)), atol=0)
        with pytest.raises(DimensionMismatch):
            projector_from_frame([])

    def test_idempotent_hermitian_trace(self, rng):
        u = random_unitary(rng, 6)
        frame = list(u.T[:3])
        p = projector_from_frame(frame).matrix
        assert np.linalg.norm(p @ p - p) < 1e-10
        np.testing.assert_allclose(p, p.conj().T, atol=1e-14)
        assert abs(np.trace(p).real - 3.0) < 1e-12

    def test_rejects_non_orthonormal(self):
        with pytest.raises(NotOrthonormal):
            projector_from_frame([np.array([1.0, 0.0]), np.array([0.9, 0.1])])


class TestExpmHermitian:
    def test_zero_hamiltonian(self):
        u = expm_hermitian(np.zeros((3, 3)), 2.7)
        np.testing.assert_allclose(u.matrix, np.eye(3), atol=1e-15)

    def test_pauli_x_half_period(self):
        # exp(-i pi sigma_x) = -1, by the analytic two-level solution.
        u = expm_hermitian(SIGMA_X, np.pi)
        np.testing.assert_allclose(u.matrix, -np.eye(2), atol=1e-14)

    def test_diagonal_case(self):
        u = expm_hermitian(np.diag([1.0, 2.0]), 0.37)
        np.testing.assert_allclose(u.matrix, np.diag(np.exp([-0.37j, -0.74j])), atol=1e-15)

    @given(t1=st.floats(-3, 3), t2=st.floats(-3, 3), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_group_property(self, t1, t2, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = HermitianOperator(z + z.conj().T)
        lhs = expm_hermitian(h, t1).matrix @ expm_hermitian(h, t2).matrix
        rhs = expm_hermitian(h, t1 + t2).matrix
        assert np.linalg.norm(lhs - rhs) < 1e-10


class TestUnitaryDistance:
    def test_zero_on_equal(self, rng):
        u = UnitaryOperator(random_unitary(rng, 3))
        assert unitary_distance(u, u, "exact") == 0.0
        assert unitary_distance(u, u, "up_to_global_phase") < 1e-12

    def test_global_phase_closed_form(self, rng):
        gamma = 0.813
        u = UnitaryOperator(random_unitary(rng, 5))
        v = UnitaryOperator(np.exp(1j * gamma) * u.matrix)
        assert unitary_distance(u, v, "up_to_global_phase") < 1e-12
        expected = 2.0 * abs(np.sin(gamma / 2.0)) * np.sqrt(5)
        assert abs(unitary_distance(u, v, "exact") - expected) < 1e-12

    def test_traceless_target_makes_phase_mode_vacuous(self):
        u = UnitaryOperator(np.eye(2))
        v = UnitaryOperator(SIGMA_X)
        assert abs(unitary_distance(u, v, "exact") - 2.0) < 1e-14
        assert abs(unitary_distance(u, v, "up_to_global_phase") - 2.0) < 1e-14

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            unitary_distance(
                UnitaryOperator(np.eye(2)), UnitaryOperator(np.eye(3)), "exact"
            )

    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_symmetry_and_triangle_inequality(self, seed, dim):
        rng = np.random.default_rng(seed)
        u, v, w = (UnitaryOperator(random_unitary(rng, dim)) for _ in range(3))
        for mode in ("exact", "up_to_global_phase"):
            duv = unitary_distance(u, v, mode)
            dvu = unitary_distance(v, u, mode)
            assert abs(duv - dvu) < 1e-10
            duw = unitary_distance(u, w, mode)
            dwv = unitary_distance(w, v, mode)
            assert duv <= duw + dwv + 1e-10

    def test_matrix_distance_on_nonsquare_blocks(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[np.exp(0.4j), 0.0]])
        assert matrix_distance(a, b, "up_to_global_phase") < 1e-12
