import numpy as np
import pytest

from brightpath.lambda_system import (
    CouplingSet,
    SphericalAngles,
    _angle_couplings,
    bright_state,
    coupling_rates_from_angles,
    couplings_from_angles,
    dark_basis_parametrized,
    lambda_hamiltonian,
)


def coupling(omega, r, phi):
    return CouplingSet(omega=omega, r=np.asarray(r, float), phi=np.asarray(phi, float))


class TestCouplingSet:
    def test_rejects_unnormalized_amplitudes(self):
        with pytest.raises(ValueError):
            coupling(1.0, [0.5, 0.5], [0.0, 0.0])

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            coupling(0.0, [1.0], [0.0])

    def test_rejects_negative_amplitude(self):
        with pytest.raises(ValueError):
            coupling(1.0, [-1.0], [0.0])


class TestBrightState:
    def test_single_level_drive(self):
        c = coupling(1.0, [1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        np.testing.assert_allclose(bright_state(c), [1.0, 0.0, 0.0], atol=0)

    def test_two_level_with_phase(self):
        c = coupling(1.0, [1 / np.sqrt(2), 1 / np.sqrt(2)], [0.0, np.pi / 2])
        np.testing.assert_allclose(bright_state(c), [1 / np.sqrt(2), 1j / np.sqrt(2)], atol=1e-15)

    def test_angle_pole_points_along_first_level(self):
        b = bright_state(couplings_from_angles(SphericalAngles(theta1=np.pi / 2, theta2=0.61)))
        np.testing.assert_allclose(b, [1.0, 0.0, 0.0], atol=1e-15)


class TestLambdaHamiltonian:
    def test_two_level_matrix(self):
        c = coupling(2.5, [1.0], [0.0])
        np.testing.assert_allclose(lambda_hamiltonian(c).matrix, 2.5 * np.array([[0, 1], [1, 0]]), atol=0)

    def test_annihilates_dark_states(self, rng):
        r = rng.uniform(0.1, 1.0, size=4)
        r /= np.linalg.norm(r)
        c = coupling(1.7, r, rng.uniform(-np.pi, np.pi, size=4))
        h = lambda_hamiltonian(c).matrix
        b = bright_state(c)
        # Any ground vector orthogonal to B must be annihilated.
        d = rng.normal(size=4) + 1j * rng.normal(size=4)
        d -= np.vdot(b, d) * b
        d /= np.linalg.norm(d)
        assert np.linalg.norm(h[:4, :4] @ d) < 1e-12 * c.omega
        np.testing.assert_allclose(h[:4, 4], c.omega * b, atol=1e-15)

    def test_sparse_drive_pattern(self):
        c = coupling(3.0, [1.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        h = lambda_hamiltonian(c).matrix
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 3] = expected[3, 0] = 3.0
        np.testing.assert_allclose(h, expected, atol=0)

    def test_spectrum_is_pm_omega_and_zeros(self, rng):
        for _ in range(10):
            n = rng.integers(2, 7)
            r = rng.uniform(0.05, 1.0, size=n)
            r /= np.linalg.norm(r)
            omega = float(rng.uniform(0.2, 5.0))
            c = coupling(omega, r, rng.uniform(-np.pi, np.pi, size=n))
            evals = np.sort(np.linalg.eigvalsh(lambda_hamiltonian(c).matrix))
            expected = np.sort(np.concatenate([[-omega, omega], np.zeros(n - 1)]))
            np.testing.assert_allclose(evals, expected, atol=1e-10 * omega)

    def test_dark_block_annihilation(self, rng):
        r = rng.uniform(0.1, 1.0, size=3)
        r /= np.linalg.norm(r)
        c = coupling(1.0, r, rng.uniform(-np.pi, np.pi, size=3))
        b = bright_state(c)
        # The projector 1 - |B><B| onto the ground-space dark states, embedded.
        p = np.zeros((4, 4), dtype=complex)
        p[:3, :3] = np.eye(3) - np.outer(b, b.conj())
        assert np.linalg.norm(lambda_hamiltonian(c).matrix @ p) < 1e-12


class TestAngleParametrization:
    @pytest.mark.parametrize(
        "angles,expected_r",
        [
            (SphericalAngles(), [0.0, 0.0, 1.0]),
            (SphericalAngles(theta1=np.pi / 2), [1.0, 0.0, 0.0]),
            (SphericalAngles(theta2=np.pi / 2), [0.0, 1.0, 0.0]),
        ],
    )
    def test_reference_points(self, angles, expected_r):
        c = couplings_from_angles(angles)
        np.testing.assert_allclose(c.r, expected_r, atol=1e-15)

    def test_normalization_identity(self, rng):
        for _ in range(25):
            a = SphericalAngles(*rng.uniform(0.0, np.pi / 2, size=2), *rng.uniform(-np.pi, np.pi, size=2))
            c = couplings_from_angles(a, omega=2.0)
            assert abs(np.sum(c.r**2) - 1.0) < 1e-14
            np.testing.assert_allclose(c.phi, [0.0, a.phi2, a.phi3], atol=0)

    def test_scalar_is_the_stacked_row(self, rng):
        # theta1, theta2 in [0, pi/2]: every r_i >= 0, as a CouplingSet requires.
        angles = rng.uniform(-2, 2, size=(63, 4))
        angles[:, :2] = rng.uniform(0.0, np.pi / 2, size=(63, 2))
        angles[-2:] = [[0.0, 0.0, 0.0, 0.0], [np.pi / 2, np.pi / 2, 1.0, -1.0]]
        rates = rng.normal(size=angles.shape)
        r, phi, rdot, phidot = _angle_couplings(angles.T, rates.T)
        for j, row in enumerate(angles):
            c = couplings_from_angles(SphericalAngles(*row))
            row_rdot, row_phidot = coupling_rates_from_angles(SphericalAngles(*row), rates[j])
            for scalar, stacked in ((c.r, r), (c.phi, phi), (row_rdot, rdot), (row_phidot, phidot)):
                assert np.array_equal(scalar, stacked[:, j])

    def test_rates_match_finite_differences(self, rng):
        h = 1e-6
        for _ in range(10):
            base = rng.uniform(0.1, 1.2, size=4)
            rates = rng.normal(size=4)
            rdot, phidot = coupling_rates_from_angles(SphericalAngles(*base), rates)
            up = couplings_from_angles(SphericalAngles(*(base + h * rates)))
            dn = couplings_from_angles(SphericalAngles(*(base - h * rates)))
            np.testing.assert_allclose(rdot, (up.r - dn.r) / (2 * h), atol=1e-7)
            np.testing.assert_allclose(phidot, (up.phi - dn.phi) / (2 * h), atol=1e-7)


class TestDarkBasisParametrized:
    def test_origin(self):
        d1, d2 = dark_basis_parametrized(SphericalAngles())
        np.testing.assert_allclose(d1, [1.0, 0.0, 0.0], atol=0)
        np.testing.assert_allclose(d2, [0.0, 1.0, 0.0], atol=0)

    def test_first_pole(self):
        d1, d2 = dark_basis_parametrized(SphericalAngles(theta1=np.pi / 2))
        np.testing.assert_allclose(d1, [0.0, 0.0, -1.0], atol=1e-15)
        np.testing.assert_allclose(d2, [0.0, 1.0, 0.0], atol=1e-15)

    def test_dark_frame_orthonormal_at_any_angles(self, rng):
        for _ in range(20):
            a = SphericalAngles(*rng.uniform(-4.0, 4.0, size=4))
            d1, d2 = dark_basis_parametrized(a)
            assert abs(np.vdot(d1, d2)) < 1e-14
            assert abs(np.linalg.norm(d1) - 1.0) < 1e-14
            assert abs(np.linalg.norm(d2) - 1.0) < 1e-14

    def test_full_frame_with_bright_state(self, rng):
        # Amplitude fractions stay non-negative in the first angle quadrant,
        # which is where coupling sets can be built.
        for _ in range(20):
            a = SphericalAngles(
                *rng.uniform(0.0, np.pi / 2, size=2), *rng.uniform(-np.pi, np.pi, size=2)
            )
            d1, d2 = dark_basis_parametrized(a)
            b = bright_state(couplings_from_angles(a))
            frame = np.array([b, d1, d2])
            gram = frame.conj() @ frame.T
            np.testing.assert_allclose(gram, np.eye(3), atol=1e-12)
