import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from brightpath.effective import BrightTrajectory
from brightpath.errors import (
    DerivativeInconsistent,
    DimensionMismatch,
    NonHermitianSample,
    NonMonotoneMap,
    NotOrthonormal,
)
from brightpath.gates import GateSpec, gate_coupling_schedule, stage_trajectory, stirap_trajectory
from brightpath.lambda_system import CouplingSet, bright_state
from brightpath.linalg import (
    HermitianOperator,
    expm_hermitian,
    matrix_distance,
    projector_from_frame,
)
from brightpath.propagators import (
    FULL_BLOCK,
    MAX_STEPS,
    AdiabaticRunConfig,
    _drive_factors,
    _lambda_step_factors,
    dark_block,
    evolve_full_adiabatic,
    evolve_full_sweep,
    evolve_state_full,
    evolve_state_time_ordered,
    evolve_time_ordered,
    leakage,
    reparametrize,
)
from brightpath.ramps import ramp_value

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def rotating_sampler(times):
    values = np.stack([np.cos(times), np.sin(times)], axis=-1)[:, None, :].astype(complex)
    derivatives = np.stack([-np.sin(times), np.cos(times)], axis=-1)[:, None, :].astype(complex)
    return values, derivatives


def rotating_trajectory(t_end=np.pi / 2):
    return BrightTrajectory(2, 1, 0.0, t_end, rotating_sampler)


def smooth_noncommuting(t):
    return HermitianOperator(np.sin(t) * SIGMA_X + (0.5 + 0.3 * np.cos(2 * t)) * SIGMA_Z)


def twisted_sampler(times):
    """B = (cos a, sin a cos c e^{i phi}, sin a sin c) with a = t, c = 0.7 t^2
    and phi = 2 sin t: a complex three-level path whose one-bright
    generators do not commute."""
    a, c, phi = times, 0.7 * times**2, 2.0 * np.sin(times)
    da, dc, dphi = np.ones_like(times), 1.4 * times, 2.0 * np.cos(times)
    twist = np.exp(1j * phi)
    values = np.stack([np.cos(a), np.sin(a) * np.cos(c) * twist, np.sin(a) * np.sin(c)], axis=-1)
    derivatives = np.stack(
        [
            -da * np.sin(a),
            (da * np.cos(a) * np.cos(c) - dc * np.sin(a) * np.sin(c) + 1j * dphi * np.sin(a) * np.cos(c)) * twist,
            da * np.cos(a) * np.sin(c) + dc * np.sin(a) * np.cos(c),
        ],
        axis=-1,
    )
    return values[:, None, :].astype(complex), derivatives[:, None, :]


def halving_ratios(propagate):
    """Error ratios of ``propagate(steps)`` at 512 -> 1024 -> 2048 steps
    against a Richardson-extrapolated reference from 8192 and 16384 steps."""
    fine, finer = propagate(8192), propagate(16384)
    reference = finer + (finer - fine) / 3.0
    errors = [np.linalg.norm(propagate(steps) - reference) for steps in (512, 1024, 2048)]
    return [coarse / halved for coarse, halved in zip(errors, errors[1:])]


def drive(sample):
    """A drive schedule given by its sampler progress -> (r, phi, omega)."""
    return SimpleNamespace(sample=sample)


def held(c):
    """The drive that holds the coupling set ``c`` at every progress value."""
    return drive(lambda s: (np.tile(c.r, (s.size, 1)), np.tile(c.phi, (s.size, 1)), np.full(s.size, c.omega)))


CONSTANT_LAMBDA = CouplingSet(omega=1.0, r=np.array([0.6, 0.8, 0.0]), phi=np.array([0.0, 0.7, 0.0]))


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
        res = evolve_time_ordered(traj, traj.t_start, traj.t_end, 10_000)
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_huge_nonhermitian_sample_without_overflow(self):
        # Entries of 1e200: the check must neither overflow nor let the
        # skew part that appears after t = 0.5 through.
        hermitian = 1e200 * SIGMA_X
        skew = 1e193 * np.array([[0.0, 1.0], [-1.0, 0.0]])
        evolve_time_ordered(lambda t: hermitian, 0.0, 1e-200, 4)
        with pytest.raises(NonHermitianSample, match=r"H\(0\.625\)"):
            evolve_time_ordered(lambda t: hermitian + skew if t > 0.5 else hermitian, 0.0, 1.0, 4)

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

    @pytest.mark.parametrize("steps", [1, 2, 3, 7, 257, 10_000])
    def test_trajectory_matches_its_scalar_generator(self, steps):
        # The batched build from one sample of all midpoints against one
        # h_eff call per midpoint, on a piecewise gate path.
        psi = np.array([0.6, 0.8j, 0.0])
        spec = GateSpec(n=3, psi=psi, phase_twist=0.9, t1=0.3137, t2=0.5711, theta_schedule="smooth")
        traj = stage_trajectory(spec)
        batched = evolve_time_ordered(traj, 0.0, spec.t3, steps).unitary.matrix
        scalar = evolve_time_ordered(traj.h_eff, 0.0, spec.t3, steps).unitary.matrix
        assert np.linalg.norm(batched - scalar) < 1e-12

    def test_rejects_broken_trajectory_sample(self):
        # A vectorized sampler that breaks one rule at exactly one midpoint
        # of the 4-step grid; the error names that time.
        def broken(rule, at):
            def sampler(times):
                values = np.stack([np.cos(times), np.sin(times)], axis=-1)[:, None, :].astype(complex)
                derivatives = np.stack([-np.sin(times), np.cos(times)], axis=-1)[:, None, :].astype(complex)
                hit = times == at
                if rule == "scale":
                    values[hit] *= 1.1
                elif rule == "radial":
                    derivatives[hit] += values[hit]
                else:
                    target, bad = rule
                    (values if target == "value" else derivatives)[hit] = bad
                return values, derivatives

            return BrightTrajectory(2, 1, 0.0, 1.0, sampler)

        # The generator is Hermitian by construction, so these two checks
        # are all that stands between a non-finite sample and the kernel.
        for rule, at, error in (
            ("scale", 0.625, NotOrthonormal),
            (("value", np.nan), 0.125, NotOrthonormal),
            (("value", np.inf), 0.875, NotOrthonormal),
            (("value", -np.inf), 0.375, NotOrthonormal),
            ("radial", 0.375, DerivativeInconsistent),
            (("derivative", np.inf), 0.625, DerivativeInconsistent),
            (("derivative", -np.inf), 0.125, DerivativeInconsistent),
        ):
            # inf * 0 = nan inside the checks is expected here, not a warning.
            with pytest.raises(error, match=rf"at t={at}$"), np.errstate(invalid="ignore"):
                evolve_time_ordered(broken(rule, at), 0.0, 1.0, 4)

    @pytest.mark.parametrize(
        "values_shape, derivatives_shape",
        [((1, 3), (1, 3)), ((2, 2), (2, 2)), ((1, 2), (1, 3)), ((1, 3), (1, 2))],
    )
    @pytest.mark.parametrize("vectorized", [True, False])
    def test_rejects_misshapen_trajectory_sample(self, values_shape, derivatives_shape, vectorized):
        # Declared k = 1, dim = 2; an orthonormal sample of another shape
        # would otherwise be propagated as if it were declared.  The block
        # route samples 4 midpoints at once; the scalar route (through
        # ``h_eff``) samples one at a time and meets the same check.
        frame = np.eye(*values_shape, dtype=complex)

        def sampler(times):
            return np.broadcast_to(frame, (times.size, *values_shape)), np.zeros((times.size, *derivatives_shape))

        traj = BrightTrajectory(2, 1, 0.0, 1.0, sampler)
        m = 4 if vectorized else 1
        named = "values {} and derivatives {} must both be {}".format(
            *(re.escape(str((m, *shape))) for shape in (values_shape, derivatives_shape, (1, 2)))
        )
        with pytest.raises(DimensionMismatch, match=named):
            evolve_time_ordered(traj if vectorized else traj.h_eff, 0.0, 1.0, 4)

    def test_composition(self):
        full = evolve_time_ordered(smooth_noncommuting, 0.0, 2.0, 4096)
        first = evolve_time_ordered(smooth_noncommuting, 0.0, 1.0, 2048)
        second = evolve_time_ordered(smooth_noncommuting, 1.0, 2.0, 2048)
        glued = second.unitary.matrix @ first.unitary.matrix
        assert np.linalg.norm(full.unitary.matrix - glued) < 1e-9

    def test_second_order_convergence(self):
        # Halving dt should reduce the error by ~4x for the midpoint rule.
        def unitary(steps):
            return evolve_time_ordered(smooth_noncommuting, 0.0, 2.0, steps).unitary.matrix

        for ratio in halving_ratios(unitary):
            assert 3.0 < ratio < 5.0

    @pytest.mark.parametrize(
        "trajectory",
        [stirap_trajectory(1.3, "smooth"), BrightTrajectory(3, 1, 0.0, 1.5, twisted_sampler)],
        ids=["stirap-smooth", "twisted"],
    )
    def test_second_order_convergence_of_the_trajectory_route(self, trajectory):
        # The closed-form one-bright-state step keeps the rule's order.  The
        # unitary is projected onto the unitary group at the end, which hides
        # a step that is unitary only to first order; the state route applies
        # the steps with no projection, so such a step shows there.
        t0, t1 = trajectory.t_start, trajectory.t_end

        def unitary(steps):
            return evolve_time_ordered(trajectory, t0, t1, steps).unitary.matrix

        def columns(steps):
            basis = np.eye(trajectory.dim, dtype=complex)
            return np.array([evolve_state_time_ordered(trajectory, t0, t1, steps, e, steps)[1][-1] for e in basis])

        for propagate in (unitary, columns):
            for ratio in halving_ratios(propagate):
                assert 3.0 < ratio < 5.0

    def test_time_reversal_gives_inverse(self):
        traj = rotating_trajectory(1.3)
        forward = evolve_time_ordered(traj, traj.t_start, traj.t_end, 2048).unitary
        backward = evolve_time_ordered(traj.reversed(), traj.t_start, traj.t_end, 2048).unitary
        assert matrix_distance(backward.matrix, forward.matrix.conj().T, "exact") < 1e-8

    def test_unitarity_error_reported_small(self):
        res = evolve_time_ordered(smooth_noncommuting, 0.0, 2.0, 4096)
        assert res.unitarity_error < 1e-8


class TestEvolveFullAdiabatic:
    def test_constant_drive_matches_rabi_closed_form(self):
        c = CONSTANT_LAMBDA
        omega_T = 2.3
        res = evolve_full_adiabatic(held(c), AdiabaticRunConfig(omega_T=omega_T, steps=64))
        b = np.zeros(4, dtype=complex)
        b[:3] = bright_state(c)
        e = np.zeros(4, dtype=complex)
        e[3] = 1.0
        p_bright = np.outer(b, b.conj()) + np.outer(e, e.conj())
        cross = np.outer(b, e.conj()) + np.outer(e, b.conj())
        exact = np.eye(4) + (np.cos(omega_T) - 1.0) * p_bright - 1j * np.sin(omega_T) * cross
        assert np.linalg.norm(res.unitary.matrix - exact) < 1e-8

    def test_dark_state_is_stationary(self):
        res = evolve_full_adiabatic(held(CONSTANT_LAMBDA), AdiabaticRunConfig(omega_T=5.0, steps=256))
        b = bright_state(CONSTANT_LAMBDA)
        d = np.array([b[1].conj(), -b[0].conj(), 0.0, 0.0])
        np.testing.assert_allclose(res.unitary.matrix @ d, d, atol=1e-12)

    def test_bright_state_rabi_flops_to_excited(self):
        res = evolve_full_adiabatic(held(CONSTANT_LAMBDA), AdiabaticRunConfig(omega_T=np.pi / 2, steps=64))
        start = np.zeros(4, dtype=complex)
        start[:3] = bright_state(CONSTANT_LAMBDA)
        final = res.unitary.matrix @ start
        expected = np.zeros(4, dtype=complex)
        expected[3] = -1j
        assert np.linalg.norm(final - expected) < 1e-8

    def test_config_validation(self):
        for omega_T in (0.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="^omega_T"):
                AdiabaticRunConfig(omega_T=omega_T)
        for steps in (5, MAX_STEPS + 1):
            with pytest.raises(ValueError, match="^steps"):
                AdiabaticRunConfig(omega_T=1.0, steps=steps)
        with pytest.raises(ValueError, match="^ramp"):
            AdiabaticRunConfig(omega_T=1.0, ramp="bogus")

    def test_smooth_ramp_suppresses_diabatic_leakage(self):
        # A bright sweep |3> -> |1> driven at constant speed starts and
        # stops abruptly; the sin^2 progress shaping removes the endpoint
        # velocity kinks and cuts the dark-block unitarity defect by orders
        # of magnitude at the same Omega*T.
        from brightpath.lambda_system import SphericalAngles, dark_basis_parametrized

        def sample(s):
            # The angle couplings at theta1 = (pi/2) s, theta2 = phi2 = phi3 = 0.
            theta1 = (np.pi / 2) * s
            r = np.stack([np.sin(theta1), np.zeros_like(s), np.cos(theta1)], axis=1)
            return r, np.zeros_like(r), np.ones_like(s)

        schedule = drive(sample)

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


def off_grid_gate(n=3):
    psi = np.zeros(n, dtype=complex)
    psi[0], psi[1] = 0.6, 0.8j
    return GateSpec(n=n, psi=psi, phase_twist=0.9, t1=0.3137, t2=0.5711, theta_schedule="smooth")


def gate_schedule(n=3):
    return gate_coupling_schedule(off_grid_gate(n))


class TestBlockedOracle:
    """The full oracle streams its steps in blocks of FULL_BLOCK."""

    def test_matches_whole_grid_sequential_product(self):
        # Two full blocks and a ragged tail, against every factor of the run
        # built at once and multiplied one by one, later steps to the left.
        schedule = gate_schedule()
        config = AdiabaticRunConfig(omega_T=40.0, steps=2 * FULL_BLOCK + 37, ramp="smooth")
        mids = (np.arange(config.steps) + 0.5) / config.steps
        r, phi, omega = schedule.sample(ramp_value(config.ramp, mids))
        factors = _lambda_step_factors(r * np.exp(1j * phi), omega * (config.omega_T / omega[0] / config.steps))
        u = np.eye(4, dtype=complex)
        for factor in factors:
            u = factor @ u
        assert np.linalg.norm(evolve_full_adiabatic(schedule, config).unitary.matrix - u) < 1e-12
        start = np.array([0.0, 0.0, 1.0, 0.0], dtype=complex)
        times, states = evolve_state_full(schedule, config, start, record_every=FULL_BLOCK - 1)
        marks = np.array([0, FULL_BLOCK - 1, 2 * FULL_BLOCK - 2, config.steps])
        np.testing.assert_array_equal(times, marks / config.steps)
        assert np.linalg.norm(states[-1] - u @ start) < 1e-12

    @pytest.mark.parametrize("record_every", [1, 7])
    def test_snapshots_match_a_matmul_loop_bit_for_bit(self, record_every):
        # The snapshot reducer against the same factor stream applied one
        # `factor @ psi` at a time: equal bits, not a tolerance.
        schedule = gate_schedule()
        config = AdiabaticRunConfig(omega_T=40.0, steps=2 * FULL_BLOCK + 5, ramp="smooth")
        psi = np.array([0.6, 0.0, 0.8j, 0.0], dtype=complex)
        rows = [psi]
        j = 0
        for block in _drive_factors(schedule, config):
            for factor in block:
                psi = factor @ psi
                j += 1
                if j % record_every == 0 or j == config.steps:
                    rows.append(psi)
        times, states = evolve_state_full(schedule, config, rows[0], record_every)
        assert len(times) == len(rows)
        assert np.array_equal(states, np.array(rows))

    def test_duration_comes_from_the_run_first_sample(self):
        # A schedule whose Rabi frequency doubles at the block boundary:
        # with the duration omega_T / Omega(first sample), the second block
        # turns the bright state twice as fast as the first.
        c = CouplingSet(omega=1.0, r=np.array([0.6, 0.8]), phi=np.array([0.0, 0.7]))
        schedule = drive(lambda s: (np.tile(c.r, (s.size, 1)), np.tile(c.phi, (s.size, 1)), np.where(s < 0.5, 1.0, 2.0)))

        omega_T = 2.1
        res = evolve_full_adiabatic(schedule, AdiabaticRunConfig(omega_T=omega_T, steps=2 * FULL_BLOCK))
        b = np.zeros(3, dtype=complex)
        b[:2] = bright_state(c)
        e = np.eye(3)[2]
        angle = 1.5 * omega_T
        p_bright = np.outer(b, b.conj()) + np.outer(e, e)
        cross = np.outer(b, e) + np.outer(e, b.conj())
        exact = np.eye(3) + (np.cos(angle) - 1.0) * p_bright - 1j * np.sin(angle) * cross
        assert np.linalg.norm(res.unitary.matrix - exact) < 1e-10

    @pytest.mark.parametrize("rule, message", [("norm", r"sum\(r_i\^2\)"), ("omega", "omega must be positive")])
    def test_a_bad_step_in_a_later_block_is_rejected(self, rule, message):
        # One step of the second block breaks a drive invariant.
        base = gate_schedule()
        config = AdiabaticRunConfig(omega_T=10.0, steps=2 * FULL_BLOCK)
        bad = (FULL_BLOCK + 100 + 0.5) / config.steps  # a midpoint; the linear ramp keeps it
        blocks = []

        class Broken:
            def sample(self, progress):
                blocks.append(progress.size)
                r, phi, omega = base.sample(progress)
                hit = progress == bad
                if rule == "norm":
                    r[hit] *= 1.001
                else:
                    omega[hit] = 0.0
                return r, phi, omega

        for run in (evolve_full_adiabatic, lambda sch, cfg: evolve_state_full(sch, cfg, np.eye(4)[0])):
            blocks.clear()
            with pytest.raises(ValueError, match=message):
                run(Broken(), config)
            assert blocks == [FULL_BLOCK, FULL_BLOCK]

    def test_memory_stays_flat_in_the_step_count(self):
        # 2^18 steps on 6 levels would need 144 MiB for the factors alone.
        schedule = gate_schedule(n=5)
        config = AdiabaticRunConfig(omega_T=2000.0, steps=2**18)
        tracemalloc.start()
        try:
            evolve_full_adiabatic(schedule, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestFullSweep:
    """One sampled drive per block feeds every Omega*T run of a sweep."""

    STEPS = 2 * FULL_BLOCK + 5  # the last block is partial

    @pytest.mark.parametrize("omega_Ts", [(40.0,), (40.0, 7.5, 130.0)], ids=["K1", "K3"])
    def test_equals_separate_runs_bit_for_bit(self, omega_Ts):
        schedule = gate_schedule()
        configs = [AdiabaticRunConfig(omega_T=w, steps=self.STEPS, ramp="smooth") for w in omega_Ts]
        results = evolve_full_sweep(schedule, configs)
        assert len(results) == len(configs)
        for config, got in zip(configs, results):
            want = evolve_full_adiabatic(schedule, config)
            assert np.array_equal(got.unitary.matrix, want.unitary.matrix)
            assert got.unitarity_error == want.unitarity_error
            assert (got.steps, got.method) == (config.steps, "full")

    def test_samples_the_drive_once_per_block(self):
        base = gate_schedule()
        sizes = []

        def counting(progress):
            sizes.append(progress.size)
            return base.sample(progress)

        configs = [AdiabaticRunConfig(omega_T=w, steps=self.STEPS) for w in (40.0, 7.5, 130.0)]
        evolve_full_sweep(drive(counting), configs)
        assert sizes == [FULL_BLOCK, FULL_BLOCK, 5]

    @pytest.mark.parametrize("second", [{"steps": STEPS + 1}, {"ramp": "smooth"}], ids=["steps", "ramp"])
    def test_runs_on_different_grids_rejected(self, second):
        configs = [
            AdiabaticRunConfig(omega_T=40.0, steps=self.STEPS),
            AdiabaticRunConfig(omega_T=7.5, **{"steps": self.STEPS, **second}),
        ]
        with pytest.raises(ValueError, match="must share steps and ramp"):
            evolve_full_sweep(gate_schedule(), configs)

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="at least one run"):
            evolve_full_sweep(gate_schedule(), [])


class TestStatePropagation:
    def full(self):
        schedule = held(CONSTANT_LAMBDA)
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
        res = evolve_time_ordered(traj, traj.t_start, traj.t_end, 512)
        # The dark ray follows (-sin t, cos t); the full 2-dim space splits
        # into bright + dark, so transporting the dark start must land in
        # the dark end ray.
        dark_start = np.atleast_2d([0.0, 1.0]).astype(complex)
        end = np.array([-np.sin(0.9), np.cos(0.9)], dtype=complex)
        p_end = projector_from_frame([end])
        assert leakage(res.unitary, dark_start, p_end) < 1e-10

    def test_leakage_constant_full_hamiltonian(self):
        c = CouplingSet(omega=1.0, r=np.array([0.6, 0.8]), phi=np.zeros(2))
        res = evolve_full_adiabatic(held(c), AdiabaticRunConfig(omega_T=7.7, steps=512))
        d = np.array([0.8, -0.6, 0.0], dtype=complex)
        p_end = projector_from_frame([d])
        assert leakage(res.unitary, [d], p_end) < 1e-12


class TestReparametrize:
    """A time remap tau = f(t) of a bright trajectory, as a trajectory."""

    @staticmethod
    def square(t):
        return t * t

    @staticmethod
    def square_rate(t):
        return 2.0 * t

    def test_samples_the_base_at_the_mapped_times(self):
        traj = stage_trajectory(off_grid_gate())
        remapped = reparametrize(traj, self.square, self.square_rate, 0.0, 1.0)
        times = np.linspace(0.0, 1.0, 37)
        values, derivatives = remapped.sample(times)
        base_values, base_derivatives = traj.sample(times * times)
        assert np.array_equal(values, base_values)
        assert np.array_equal(derivatives, (2.0 * times)[:, None, None] * base_derivatives)

    def test_breakpoints_move_to_their_preimages(self):
        spec = off_grid_gate()
        traj = stage_trajectory(spec)
        assert traj.breakpoints == (spec.t1, spec.t2)
        remapped = reparametrize(traj, self.square, self.square_rate, 0.0, 1.0)
        np.testing.assert_allclose(remapped.breakpoints, np.sqrt([spec.t1, spec.t2]), rtol=0, atol=1e-12)
        # Only breakpoints inside (f(t0), f(t1)) are kept.
        assert reparametrize(traj, self.square, self.square_rate, 0.0, 0.7).breakpoints == pytest.approx((np.sqrt(spec.t1),))

    def test_identity_map_is_noop(self):
        traj = stage_trajectory(off_grid_gate())
        base = evolve_time_ordered(traj, 0.0, 1.0, 2048).unitary
        remapped = reparametrize(traj, lambda t: t, lambda t: 1.0, 0.0, 1.0)
        again = evolve_time_ordered(remapped, 0.0, 1.0, 2048).unitary
        assert np.array_equal(base.matrix, again.matrix)

    def test_quadratic_map_preserves_geometric_unitary(self):
        # f = 1.5 t^2 maps [0, 1] onto the base's [0, 1.5].
        traj = rotating_trajectory(1.5)
        base = evolve_time_ordered(traj, traj.t_start, traj.t_end, 10_000).unitary
        remapped = reparametrize(traj, lambda t: 1.5 * t * t, lambda t: 3.0 * t, 0.0, 1.0)
        warped = evolve_time_ordered(remapped, 0.0, 1.0, 10_000).unitary
        assert matrix_distance(base.matrix, warped.matrix, "exact") < 1e-6

    def test_orientation_reversal_rejected(self):
        with pytest.raises(NonMonotoneMap):
            reparametrize(rotating_trajectory(1.0), lambda t: 1.0 - t, lambda t: -1.0, 0.0, 1.0)

    @pytest.mark.parametrize(
        "f, fprime, t0, t1",
        [
            (lambda t: 2.0 * t * t, lambda t: 4.0 * t, 0.0, 1.0),  # f(1) = 2 > t_end
            (lambda t: t - 0.5, lambda t: 1.0 + 0.0 * t, 0.0, 1.0),  # f(0) < t_start
            (lambda t: np.where(t > 0.5, np.nan, t), lambda t: 1.0 + 0.0 * t, 0.0, 1.0),
        ],
        ids=["past_t_end", "before_t_start", "nan"],
    )
    def test_map_leaving_the_base_domain_rejected(self, f, fprime, t0, t1):
        traj = stage_trajectory(off_grid_gate())
        with pytest.raises(ValueError, match=r"outside the trajectory's \[0, 1\]"):
            reparametrize(traj, f, fprime, t0, t1)
        # The map onto exactly [t_start, t_end] stays accepted.
        reparametrize(traj, self.square, self.square_rate, 0.0, 1.0)
