import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brightpath.errors import DimensionMismatch, NotHermitian, NotOrthonormal, NotUnitary
from brightpath.linalg import (
    HermitianOperator,
    UnitaryOperator,
    _expm_bright_stack,
    _expm_hermitian_stack,
    expm_hermitian,
    matrix_distance,
    projector_from_frame,
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("size", [1e160, 1e200, 1e300])
    def test_hermiticity_scale_does_not_overflow(self, size):
        # Squaring the entries of ||M||_F overflows past ~1e154, and an
        # infinite scale would wave through a skew part 1e-7 of the size.
        hermitian = size * np.array([[1.0, 2.0 - 1j], [2.0 + 1j, -0.5]])
        HermitianOperator(hermitian)
        with pytest.raises(NotHermitian):
            HermitianOperator(hermitian + 1e-7 * size * np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_unitary_rejects_contraction(self):
        for matrix in (0.5 * np.eye(3), np.full((3, 3), np.nan)):
            with pytest.raises(NotUnitary):
                UnitaryOperator(matrix)

    def test_unitary_composition_and_adjoint(self, rng):
        u = UnitaryOperator(random_unitary(rng, 4))
        v = UnitaryOperator(random_unitary(rng, 4))
        np.testing.assert_allclose((u @ v).matrix, u.matrix @ v.matrix, atol=1e-14)
        np.testing.assert_allclose((u @ UnitaryOperator(u.matrix.conj().T)).matrix, np.eye(4), atol=1e-12)

    def test_rectangular_rejected(self):
        with pytest.raises(DimensionMismatch):
            HermitianOperator(np.zeros((2, 3)))


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
        for frame in ([np.array([1.0, 0.0]), np.array([0.9, 0.1])], [np.array([np.nan, 0.0])]):
            with pytest.raises(NotOrthonormal):
                projector_from_frame(frame)


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


def one_bright_pairs(rng, dim, speeds, pure_gauge=False):
    """Random unit B and tangent Bdot with ||Bdot|| = speeds, as (count, dim)
    stacks; with ``pure_gauge``, Bdot = +-i ||Bdot|| B."""
    count = len(speeds)
    b = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    if pure_gauge:
        v = 1j * rng.choice([-1.0, 1.0], size=(count, 1)) * b
    else:
        v = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
        v -= (b.conj() * v).sum(axis=1).real[:, None] * b
        v /= np.linalg.norm(v, axis=1, keepdims=True)
    return b, v * np.asarray(speeds)[:, None]


def dense_generators(b, bdot):
    """i(|Bdot><B| - |B><Bdot|) for every row, as (count, dim, dim)."""
    cross = bdot[:, :, None] * b.conj()[:, None, :]
    return 1j * (cross - cross.conj().transpose(0, 2, 1))


def unitarity_defect(stack):
    return np.abs(stack.conj().transpose(0, 2, 1) @ stack - np.eye(stack.shape[1])).max()


class TestExpmRank2:
    """The closed-form one-bright-state step, from the Gram matrix of
    (B, t Bdot), against the eigh route on the dense generator."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("pure_gauge", [False, True])
    @pytest.mark.parametrize("t", [1e-3, 0.25, 1.0])
    def test_matches_eigh(self, rng, dim, pure_gauge, t):
        b, bdot = one_bright_pairs(rng, dim, np.logspace(-10, 1, 400), pure_gauge)
        u = _expm_bright_stack(b, bdot, t)
        assert np.abs(u - _expm_hermitian_stack(dense_generators(b, bdot), t)).max() <= 1e-13
        assert unitarity_defect(u) <= 1e-13

    def test_zero_generator_is_identity(self, rng):
        b, _ = one_bright_pairs(rng, 4, np.ones(3))
        u = _expm_bright_stack(b, np.zeros_like(b), 0.7)
        np.testing.assert_array_equal(u, np.broadcast_to(np.eye(4), (3, 4, 4)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("speed, t", [(1e300, 3e-301), (1e-200, 4e199)])
    def test_only_the_scaled_exponent_is_squared(self, rng, speed, t):
        # ||Bdot||^2 overflows (or underflows) here; ||t Bdot||^2 is of order one.
        b, bdot = one_bright_pairs(rng, 3, np.full(50, speed))
        u = _expm_bright_stack(b, bdot, t)
        assert np.abs(u - _expm_hermitian_stack(dense_generators(b, bdot) * t, 1.0)).max() <= 1e-13
        assert unitarity_defect(u) <= 1e-13


class TestUnitaryDistance:
    def test_zero_on_equal(self, rng):
        u = random_unitary(rng, 3)
        assert matrix_distance(u, u, "exact") == 0.0
        assert matrix_distance(u, u, "up_to_global_phase") < 1e-12

    def test_global_phase_closed_form(self, rng):
        gamma = 0.813
        u = random_unitary(rng, 5)
        v = np.exp(1j * gamma) * u
        assert matrix_distance(u, v, "up_to_global_phase") < 1e-12
        expected = 2.0 * abs(np.sin(gamma / 2.0)) * np.sqrt(5)
        assert abs(matrix_distance(u, v, "exact") - expected) < 1e-12

    def test_traceless_target_makes_phase_mode_vacuous(self):
        u, v = np.eye(2), SIGMA_X
        assert abs(matrix_distance(u, v, "exact") - 2.0) < 1e-14
        assert abs(matrix_distance(u, v, "up_to_global_phase") - 2.0) < 1e-14

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            matrix_distance(np.eye(2), np.eye(3), "exact")

    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_symmetry_and_triangle_inequality(self, seed, dim):
        rng = np.random.default_rng(seed)
        u, v, w = (random_unitary(rng, dim) for _ in range(3))
        for mode in ("exact", "up_to_global_phase"):
            duv = matrix_distance(u, v, mode)
            dvu = matrix_distance(v, u, mode)
            assert abs(duv - dvu) < 1e-10
            duw = matrix_distance(u, w, mode)
            dwv = matrix_distance(w, v, mode)
            assert duv <= duw + dwv + 1e-10

    def test_matrix_distance_on_nonsquare_blocks(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[np.exp(0.4j), 0.0]])
        assert matrix_distance(a, b, "up_to_global_phase") < 1e-12
