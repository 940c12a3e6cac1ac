import numpy as np
import pytest

from brightpath.effective import BrightTrajectory
from brightpath.errors import DimensionMismatch, NonHermitianSample, NonMonotoneMap
from brightpath.lambda_system import CouplingSet, bright_state
from brightpath.linalg import (
    HermitianOperator,
    expm_hermitian,
    projector_from_frame,
    unitary_distance,
)
from brightpath.propagators import (
    AdiabaticRunConfig,
    dark_block,
    evolve_full_adiabatic,
    evolve_state_full,
    evolve_state_time_ordered,
    evolve_time_ordered,
    evolve_trajectory,
    leakage,
    reparametrize,
)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def rotating_trajectory(t_end=np.pi / 2):
    return BrightTrajectory(
        dim=2,
        k=1,
        t_start=0.0,
        t_end=t_end,
        value=lambda t: np.atleast_2d([np.cos(t), np.sin(t)]).astype(complex),
        derivative=lambda t: np.atleast_2d([-np.sin(t), np.cos(t)]).astype(complex),
    )


def smooth_noncommuting(t):
    return HermitianOperator(np.sin(t) * SIGMA_X + (0.5 + 0.3 * np.cos(2 * t)) * SIGMA_Z)


def constant_lambda_schedule(n=3):
    r = np.zeros(n)
    r[0] = 0.6
    r[1] = 0.8
    phi = np.zeros(n)
    phi[1] = 0.7
    return lambda s: CouplingSet(omega=1.0, r=r, phi=phi)


class TestEvolveTimeOrdered:
    def test_zero_hamiltonian(self):
        res = evolve_time_ordered(lambda t: np.zeros((3, 3)), 0.0, 1.0, 17)
        np.testing.assert_allclose(res.unitary.matrix, np.eye(3), atol=1e-14)

    def test_constant_hamiltonian_any_steps(self, rng):
        z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = HermitianOperator(z + z.conj().T)
        exact = expm_hermitian(h, 0.8).matrix
        for steps in (1, 7, 64):
            res = evolve_time_ordered(lambda t: h, 0.0, 0.8, steps)
            assert np.linalg.norm(res.unitary.matrix - exact) < 1e-10

    def test_rotating_bright_state_closed_form(self):
        # The generator of the planar rotation is constant (sigma_y), so the
        # propagated unitary has the closed form exp(-i sigma_y T).
        traj = rotating_trajectory()
        res = evolve_trajectory(traj, steps=10_000)
        sigma_y = np.array([[0, -1j], [1j, 0]])
        exact = expm_hermitian(sigma_y, np.pi / 2).matrix
        assert np.linalg.norm(res.unitary.matrix - exact) < 1e-10

    def test_rejects_nonhermitian_sample(self):
        # The error names the first failing midpoint of the 4-step grid.
        for sample, first_bad in (
            (lambda t: np.array([[0, 1], [0, 0]]), "0.125"),
            (lambda t: np.full((2, 2), np.nan), "0.125"),
            (lambda t: np.full((2, 2), np.nan) if t > 0.5 else np.zeros((2, 2)), "0.625"),
        ):
            with pytest.raises(NonHermitianSample, match=rf"H\({first_bad}\)"):
                evolve_time_ordered(sample, 0.0, 1.0, 4)

    def test_rejects_nonsquare_sample(self):
        with pytest.raises(DimensionMismatch):
            evolve_time_ordered(lambda t: np.zeros((2, 3)), 0.0, 1.0, 4)

    @pytest.mark.parametrize("steps", [1, 2, 3, 7, 257])
    def test_matches_left_multiplied_loop(self, steps):
        # Pins the factor order (later steps to the left) and the odd-length
        # tail of the tree product against the plain sequential product.
        t0, t1 = 0.0, 2.0
        dt = (t1 - t0) / steps
        u = np.eye(2, dtype=complex)
        for j in range(steps):
            u = expm_hermitian(smooth_noncommuting(t0 + (j + 0.5) * dt), dt).matrix @ u
        res = evolve_time_ordered(smooth_noncommuting, t0, t1, steps)
        assert np.linalg.norm(res.unitary.matrix - u) < 1e-12

    def test_composition(self):
        full = evolve_time_ordered(smooth_noncommuting, 0.0, 2.0, 4096)
        first = evolve_time_ordered(smooth_noncommuting, 0.0, 1.0, 2048)
        second = evolve_time_ordered(smooth_noncommuting, 1.0, 2.0, 2048)
        glued = second.unitary.matrix @ first.unitary.matrix
        assert np.linalg.norm(full.unitary.matrix - glued) < 1e-9

    def test_second_order_convergence(self):
        # Richardson-extrapolated reference; halving dt should reduce the
        # error by ~4x for the midpoint rule.
        fine = evolve_time_ordered(smooth_noncommuting, 0.0, 2.0, 8192).unitary.matrix
        finer = evolve_time_ordered(smooth_noncommuting, 0.0, 2.0, 16384).unitary.matrix
        reference = finer + (finer - fine) / 3.0
        errors = []
        for steps in (512, 1024, 2048):
            u = evolve_time_ordered(smooth_noncommuting, 0.0, 2.0, steps).unitary.matrix
            errors.append(np.linalg.norm(u - reference))
        for coarse, halved in zip(errors, errors[1:]):
            assert 3.0 < coarse / halved < 5.0

    def test_time_reversal_gives_inverse(self):
        traj = rotating_trajectory(1.3)
        forward = evolve_trajectory(traj, steps=2048).unitary
        backward = evolve_trajectory(traj.reversed(), steps=2048).unitary
        assert unitary_distance(backward, forward.dagger(), "exact") < 1e-8

    def test_unitarity_error_reported_small(self):
        res = evolve_time_ordered(smooth_noncommuting, 0.0, 2.0, 4096)
        assert res.unitarity_error < 1e-8


class TestEvolveFullAdiabatic:
    def test_constant_drive_matches_rabi_closed_form(self):
        schedule = constant_lambda_schedule()
        omega_T = 2.3
        res = evolve_full_adiabatic(schedule, AdiabaticRunConfig(omega_T=omega_T, steps=64))
        c = schedule(0.0)
        b = np.zeros(4, dtype=complex)
        b[:3] = bright_state(c)
        e = np.zeros(4, dtype=complex)
        e[3] = 1.0
        p_bright = np.outer(b, b.conj()) + np.outer(e, e.conj())
        cross = np.outer(b, e.conj()) + np.outer(e, b.conj())
        exact = np.eye(4) + (np.cos(omega_T) - 1.0) * p_bright - 1j * np.sin(omega_T) * cross
        assert np.linalg.norm(res.unitary.matrix - exact) < 1e-8

    def test_dark_state_is_stationary(self):
        schedule = constant_lambda_schedule()
        res = evolve_full_adiabatic(schedule, AdiabaticRunConfig(omega_T=5.0, steps=256))
        c = schedule(0.0)
        b = bright_state(c)
        d = np.array([b[1].conj(), -b[0].conj(), 0.0, 0.0])
        np.testing.assert_allclose(res.unitary.matrix @ d, d, atol=1e-12)

    def test_bright_state_rabi_flops_to_excited(self):
        schedule = constant_lambda_schedule()
        res = evolve_full_adiabatic(schedule, AdiabaticRunConfig(omega_T=np.pi / 2, steps=64))
        c = schedule(0.0)
        start = np.zeros(4, dtype=complex)
        start[:3] = bright_state(c)
        final = res.unitary.matrix @ start
        expected = np.zeros(4, dtype=complex)
        expected[3] = -1j
        assert np.linalg.norm(final - expected) < 1e-8

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdiabaticRunConfig(omega_T=0.0)
        with pytest.raises(ValueError):
            AdiabaticRunConfig(omega_T=1.0, steps=5)

    def test_smooth_ramp_suppresses_diabatic_leakage(self):
        # A bright sweep |3> -> |1> driven at constant speed starts and
        # stops abruptly; the sin^2 progress shaping removes the endpoint
        # velocity kinks and cuts the dark-block unitarity defect by orders
        # of magnitude at the same Omega*T.
        from brightpath.lambda_system import SphericalAngles, couplings_from_angles, dark_basis_parametrized

        def schedule(s):
            return couplings_from_angles(SphericalAngles(theta1=(np.pi / 2) * s), omega=1.0)

        start = np.zeros((2, 4), dtype=complex)
        start[0, 0] = start[1, 1] = 1.0
        d1, d2 = dark_basis_parametrized(SphericalAngles(theta1=np.pi / 2))
        end = np.zeros((2, 4), dtype=complex)
        end[0, :3], end[1, :3] = d1, d2
        defects = {}
        for ramp in ("linear", "smooth"):
            res = evolve_full_adiabatic(schedule, AdiabaticRunConfig(omega_T=200.0, steps=16384, ramp=ramp))
            blk = dark_block(res.unitary, start, end)
            defects[ramp] = np.linalg.norm(blk.conj().T @ blk - np.eye(2))
        assert defects["smooth"] < 1e-6
        assert defects["smooth"] < defects["linear"] / 50.0


class TestStatePropagation:
    def full(self):
        schedule = constant_lambda_schedule()
        config = AdiabaticRunConfig(omega_T=1.9, steps=128)
        start = np.array([0.0, 0.0, 1.0, 0.0], dtype=complex)
        unitary = evolve_full_adiabatic(schedule, config).unitary
        _, states = evolve_state_full(schedule, config, start)
        return unitary, start, states, 1e-10

    def time_ordered(self):
        start = np.array([0.6, 0.8j], dtype=complex)
        unitary = evolve_time_ordered(smooth_noncommuting, 0.0, 2.0, 257).unitary
        _, states = evolve_state_time_ordered(smooth_noncommuting, 0.0, 2.0, 257, start)
        return unitary, start, states, 1e-12

    @pytest.mark.parametrize("route", ["full", "time_ordered"])
    def test_state_propagation_matches_unitary(self, route):
        unitary, start, states, bound = getattr(self, route)()
        np.testing.assert_allclose(states[-1], unitary.matrix @ start, rtol=0, atol=bound)

    @pytest.mark.parametrize("steps", [0, -3])
    def test_time_ordered_rejects_empty_grid(self, steps):
        with pytest.raises(ValueError, match="steps"):
            evolve_state_time_ordered(smooth_noncommuting, 0.0, 1.0, steps, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("t0, t1", [(1.0, 1.0), (1.0, 0.0)])
    def test_time_ordered_rejects_reversed_interval(self, t0, t1):
        with pytest.raises(ValueError, match="t1 > t0"):
            evolve_state_time_ordered(smooth_noncommuting, t0, t1, 8, np.array([1.0, 0.0]))

    def test_record_every_keeps_recorded_steps_and_last(self):
        start = np.array([1.0, 0.0], dtype=complex)
        all_times, all_states = evolve_state_time_ordered(smooth_noncommuting, 0.5, 1.5, 10, start)
        times, states = evolve_state_time_ordered(smooth_noncommuting, 0.5, 1.5, 10, start, record_every=4)
        assert len(all_times) == 11
        np.testing.assert_allclose(all_times, 0.5 + 0.1 * np.arange(11), rtol=0, atol=1e-15)
        np.testing.assert_array_equal(times, all_times[[0, 4, 8, 10]])
        np.testing.assert_array_equal(states, all_states[[0, 4, 8, 10]])
        with pytest.raises(ValueError, match="record_every"):
            evolve_state_time_ordered(smooth_noncommuting, 0.5, 1.5, 10, start, record_every=0)


class TestDarkBlockAndLeakage:
    def test_identity_block(self):
        frame = np.eye(4)[:2]
        np.testing.assert_allclose(dark_block(np.eye(4), frame, frame), np.eye(2), atol=0)

    def test_block_entries_are_matrix_elements(self, rng):
        from conftest import random_unitary

        u = random_unitary(rng, 4)
        frame = np.eye(4)[:2]
        blk = dark_block(u, frame, frame)
        np.testing.assert_allclose(blk, u[:2, :2], atol=1e-15)

    def test_subunitarity_measures_leakage(self):
        # A rotation that mixes the dark frame with outside levels makes the
        # block strictly sub-unitary.
        theta = 0.3
        u = np.eye(3, dtype=complex)
        u[1, 1] = u[2, 2] = np.cos(theta)
        u[1, 2], u[2, 1] = -np.sin(theta), np.sin(theta)
        frame = np.eye(3)[:2]
        blk = dark_block(u, frame, frame)
        defect = np.linalg.norm(blk.conj().T @ blk - np.eye(2))
        assert abs(defect - np.sin(theta) ** 2) < 1e-12

    def test_leakage_zero_for_geometric_propagation(self):
        traj = rotating_trajectory(0.9)
        res = evolve_trajectory(traj, steps=512)
        # The dark ray follows (-sin t, cos t); the full 2-dim space splits
        # into bright + dark, so transporting the dark start must land in
        # the dark end ray.
        dark_start = np.atleast_2d([0.0, 1.0]).astype(complex)
        end = np.array([-np.sin(0.9), np.cos(0.9)], dtype=complex)
        p_end = projector_from_frame([end])
        assert leakage(res.unitary, dark_start, p_end) < 1e-10

    def test_leakage_constant_full_hamiltonian(self):
        c = CouplingSet(omega=1.0, r=np.array([0.6, 0.8]), phi=np.zeros(2))
        res = evolve_full_adiabatic(lambda s: c, AdiabaticRunConfig(omega_T=7.7, steps=512))
        d = np.array([0.8, -0.6, 0.0], dtype=complex)
        p_end = projector_from_frame([d])
        assert leakage(res.unitary, [d], p_end) < 1e-12


class TestReparametrize:
    def test_identity_map_is_noop(self):
        base = evolve_time_ordered(smooth_noncommuting, 0.0, 2.0, 2048).unitary
        remapped = reparametrize(smooth_noncommuting, lambda t: t, 0.0, 2.0, fprime=lambda t: 1.0)
        again = evolve_time_ordered(remapped, 0.0, 2.0, 2048).unitary
        assert unitary_distance(base, again, "exact") < 1e-12

    def test_quadratic_map_preserves_geometric_unitary(self):
        traj = rotating_trajectory(1.0)
        base = evolve_trajectory(traj, steps=10_000).unitary
        remapped = reparametrize(traj.h_eff, lambda t: t * t, 0.0, 1.0, fprime=lambda t: 2 * t)
        warped = evolve_time_ordered(remapped, 0.0, 1.0, 10_000).unitary
        assert unitary_distance(base, warped, "exact") < 1e-6

    def test_orientation_reversal_rejected(self):
        with pytest.raises(NonMonotoneMap):
            reparametrize(smooth_noncommuting, lambda t: -t, 0.0, 1.0)
