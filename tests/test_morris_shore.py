import numpy as np
import pytest

from brightpath.errors import ZeroCoupling
from brightpath.lambda_system import CouplingSet, bright_state, lambda_hamiltonian
from brightpath.morris_shore import (
    TwoManifoldSystem,
    morris_shore_transform,
)


def random_coupling_matrix(rng, r, m):
    return rng.normal(size=(r, m)) + 1j * rng.normal(size=(r, m))


def rebuilt_drive(d):
    """The (r+m)-level drive rebuilt from the bright pairs alone."""
    return TwoManifoldSystem(d.reconstruct()).drive_hamiltonian()


class TestTwoManifoldSystem:
    def test_transposes_when_ground_is_smaller(self, rng):
        v = random_coupling_matrix(rng, 2, 5)
        sys = TwoManifoldSystem(v)
        assert (sys.r, sys.m) == (5, 2)
        np.testing.assert_array_equal(sys.v, v.T)

    def test_drive_hamiltonian_layout(self):
        v = np.array([[1.0], [2.0]])
        h = TwoManifoldSystem(v).drive_hamiltonian()
        expected = np.zeros((3, 3))
        expected[0, 2] = expected[2, 0] = 1.0
        expected[1, 2] = expected[2, 1] = 2.0
        np.testing.assert_allclose(h, expected, atol=0)


class TestMorrisShoreTransform:
    def test_single_pair_case(self):
        d = morris_shore_transform(TwoManifoldSystem(np.array([[2.2]])))
        assert d.rank == 1
        assert len(d.dark_ground) == 0
        assert abs(d.couplings[0] - 2.2) < 1e-14

    def test_rank_one_lambda_system(self):
        # A 3x1 coupling column reproduces the Lambda-system bright state.
        c = CouplingSet(omega=1.3, r=np.array([0.7, np.sqrt(1 - 0.49 - 0.09), 0.3]), phi=np.array([0.0, 0.4, -0.8]))
        v = (1.3 * bright_state(c))[:, None]
        d = morris_shore_transform(TwoManifoldSystem(v))
        assert d.rank == 1
        assert abs(d.couplings[0] - 1.3) < 1e-12
        np.testing.assert_allclose(d.ground_bright[0], bright_state(c), atol=1e-12)
        assert d.dark_ground.shape == (2, 3)
        assert np.max(np.abs(v.conj().T @ d.dark_ground.T)) < 1e-12

    def test_full_rank_5x2(self, rng):
        v = random_coupling_matrix(rng, 5, 2)
        d = morris_shore_transform(TwoManifoldSystem(v))
        assert d.rank == 2
        assert d.dark_ground.shape == (3, 5)
        assert np.linalg.norm(d.reconstruct() - v) < 1e-12 * np.linalg.norm(v)

    def test_dark_states_annihilated(self, rng):
        v = random_coupling_matrix(rng, 6, 3)
        d = morris_shore_transform(TwoManifoldSystem(v))
        scale = np.linalg.norm(v)
        for dark in d.dark_ground:
            assert np.linalg.norm(v.conj().T @ dark) < 1e-10 * scale

    def test_rank_deficient_matrix(self, rng):
        column = random_coupling_matrix(rng, 4, 1)
        v = np.hstack([column, 2.0 * column])
        d = morris_shore_transform(TwoManifoldSystem(v))
        assert d.rank == 1
        assert d.dark_ground.shape == (3, 4)

    def test_zero_coupling_rejected(self):
        with pytest.raises(ZeroCoupling):
            morris_shore_transform(TwoManifoldSystem(np.zeros((3, 2))))

    @pytest.mark.parametrize("split, ground", [(1e-14, [[0, 1, 0], [1, 0, 0]]), (1e-6, [[1, 0, 0], [0, 1, 0]])])
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_degeneracy_is_relative_to_the_largest_coupling(self, split, ground, scale):
        # Couplings 1 + split and 1 on |0> and |1>, at any scale: a pair
        # split by 1e-14 is degenerate (within 1e-10 of the largest) and is
        # ordered lexicographically, |1> first; one split by 1e-6 is not,
        # and keeps the order of its couplings.
        v = scale * np.array([[1.0 + split, 0.0], [0.0, 1.0], [0.0, 0.0]])
        d = morris_shore_transform(TwoManifoldSystem(v))
        np.testing.assert_array_equal(d.ground_bright, ground)

    def test_deterministic_and_phase_convention(self, rng):
        v = random_coupling_matrix(rng, 5, 2)
        d1 = morris_shore_transform(TwoManifoldSystem(v))
        d2 = morris_shore_transform(TwoManifoldSystem(v.copy()))
        np.testing.assert_array_equal(d1.ground_bright, d2.ground_bright)
        np.testing.assert_array_equal(d1.excited_bright, d2.excited_bright)
        for g in d1.ground_bright:
            pivot = g[np.argmax(np.abs(g))]
            assert abs(pivot.imag) < 1e-12 and pivot.real > 0


class TestDriveRebuiltFromPairs:
    def test_rank_one_reproduces_lambda_hamiltonian(self):
        c = CouplingSet(omega=1.0, r=np.array([0.8, 0.36, np.sqrt(1 - 0.64 - 0.1296)]), phi=np.array([0.0, 1.1, -0.3]))
        v = bright_state(c)[:, None]
        d = morris_shore_transform(TwoManifoldSystem(v))
        np.testing.assert_allclose(rebuilt_drive(d), lambda_hamiltonian(c).matrix, atol=1e-12)

    def test_rebuilt_operator_matches_drive(self, rng):
        sys = TwoManifoldSystem(random_coupling_matrix(rng, 5, 2))
        np.testing.assert_allclose(rebuilt_drive(morris_shore_transform(sys)), sys.drive_hamiltonian(), atol=1e-12)

    def test_spectrum_is_plus_minus_couplings(self, rng):
        sys = TwoManifoldSystem(random_coupling_matrix(rng, 4, 2))
        d = morris_shore_transform(sys)
        h = rebuilt_drive(d)
        evals = np.sort(np.abs(np.linalg.eigvalsh(h)))[::-1]
        nonzero = np.sort(np.concatenate([d.couplings, d.couplings]))[::-1]
        np.testing.assert_allclose(evals[: len(nonzero)], nonzero, atol=1e-10)
        assert np.max(np.abs(evals[len(nonzero) :])) < 1e-10

    def test_dark_states_in_rebuilt_kernel(self, rng):
        sys = TwoManifoldSystem(random_coupling_matrix(rng, 5, 2))
        d = morris_shore_transform(sys)
        h = rebuilt_drive(d)
        for dark in d.dark_ground:
            embedded = np.concatenate([dark, np.zeros(2)])
            assert np.linalg.norm(h @ embedded) < 1e-10 * np.linalg.norm(sys.v)
