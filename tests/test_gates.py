import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brightpath.gates import (
    GateSpec,
    analytic_stage_unitaries,
    compose_gate,
    extract_geometric_phase,
    gate_coupling_schedule,
    logical_block,
    measure_gate,
    simulate_full_gate,
    simulate_gate,
    stage_trajectory,
    stirap_trajectory,
    stirap_transfer,
)
from brightpath.errors import DimensionMismatch, NotNormalized
from brightpath.linalg import UnitaryOperator, matrix_distance
from brightpath.propagators import (
    FULL_BLOCK,
    AdiabaticRunConfig,
    PropagationResult,
    StateTrace,
    evolve_full_sweep,
    evolve_state_full,
    evolve_state_time_ordered,
    evolve_time_ordered,
)
from brightpath.ramps import ramp_rate, ramp_value
from conftest import excited_and, frame_at, frameless, random_state, reference_gate_drive, validate_trajectory


def spec_pi3(n=3, **kwargs):
    psi = np.zeros(n, dtype=complex)
    psi[0] = psi[1] = 1 / np.sqrt(2)
    return GateSpec(n=n, psi=psi, phase_twist=np.pi / 3, **kwargs)


def whole_array_coordinates(spec, times):
    """The gate's bright path in its coordinates (along p, along a), and
    their rates, by whole-array formulas: theta, phi and their rates at
    every time, then sin(theta/2), cos(theta/2) and e^{i phi} over every
    sample.  The rise and the fall are (sin(theta/2), cos(theta/2)), real
    (the fall's frame carries e^{i twist}); the twist is
    (e^{i phi} sin(theta/2), cos(theta/2)), with no rate along a.
    ``stage_trajectory``'s pieces evaluate each angle only on the stages
    that move it, and must keep these bits."""
    t1, t2, t3 = spec.t1, spec.t2, spec.t3
    theta, phi = np.full(times.shape, np.pi), np.zeros(times.shape)
    theta_rate, phi_rate = np.zeros(times.shape), np.zeros(times.shape)
    rise, fall = times < t1, t2 <= times
    twist = ~(rise | fall)
    for inside, angle, rate, ramp, lo, hi, start, change in (
        (rise, theta, theta_rate, spec.theta_schedule, 0.0, t1, 0.0, np.pi),
        (twist, phi, phi_rate, spec.phi_schedule, t1, t2, 0.0, spec.phase_twist),
        (fall, theta, theta_rate, spec.theta_schedule, t2, t3, np.pi, -np.pi),
    ):
        s = (times[inside] - lo) / (hi - lo)
        angle[inside] = start + change * ramp_value(ramp, s)
        rate[inside] = change * ramp_rate(ramp, s) / (hi - lo)
    sin, cos, turned = np.sin(theta / 2), np.cos(theta / 2), np.exp(1j * phi)
    values, derivatives = np.zeros((2, times.size, 1, 2), dtype=complex)
    values[:, 0, 0] = np.where(twist, turned * sin, sin)
    values[:, 0, 1] = cos
    across = np.empty(times.shape, dtype=complex)
    across.real, across.imag = 0.5 * theta_rate * cos, phi_rate * sin
    derivatives[:, 0, 0] = np.where(twist, turned * across, 0.5 * theta_rate * cos)
    derivatives[~twist, 0, 1] = -(0.5 * theta_rate * sin)[~twist]
    return values, derivatives, twist


class TestGateSpec:
    def test_rejects_unnormalized_psi(self):
        for psi in (np.array([1.0, 1.0, 0.0]), np.array([np.nan, 0.0, 0.0])):
            with pytest.raises(NotNormalized):
                GateSpec(n=3, psi=psi, phase_twist=0.1)

    def test_rejects_auxiliary_support(self):
        psi = np.array([0.6, 0.0, 0.8], dtype=complex)
        with pytest.raises(ValueError):
            GateSpec(n=3, psi=psi, phase_twist=0.1)

    def test_rejects_bad_stage_times(self):
        psi = np.array([1.0, 0.0, 0.0], dtype=complex)
        with pytest.raises(ValueError):
            GateSpec(n=3, psi=psi, phase_twist=0.1, t1=0.5, t2=0.4)

    @pytest.mark.parametrize(
        "changes, named",
        [
            ({"n": 1, "psi": np.array([1.0])}, "n"),
            ({"phase_twist": np.nan}, "phase_twist"),
            ({"phase_twist": np.inf}, "phase_twist"),
            ({"phase_twist": -np.inf}, "phase_twist"),
            ({"t1": np.nan}, "t1"),
            ({"t3": np.inf}, "t1"),
            ({"t2": -np.inf}, "t1"),
            ({"theta_schedule": "bogus"}, "theta_schedule"),
            ({"phi_schedule": None}, "phi_schedule"),
        ],
    )
    def test_rejects_non_finite_and_unknown_inputs(self, changes, named):
        arguments = {"n": 3, "psi": np.array([1.0, 0.0, 0.0]), "phase_twist": 0.1, **changes}
        with pytest.raises(ValueError, match=f"^{named}"):
            GateSpec(**arguments)


class TestStageTrajectory:
    @pytest.mark.parametrize("ramps", [("linear", "linear"), ("smooth", "smooth")])
    def test_boundary_values(self, ramps):
        spec = spec_pi3(theta_schedule=ramps[0], phi_schedule=ramps[1])
        traj = stage_trajectory(spec)
        aux = np.array([0, 0, 1], dtype=complex)
        np.testing.assert_allclose(frame_at(traj, 0.0)[0][0], aux, atol=1e-12)
        np.testing.assert_allclose(frame_at(traj, spec.t1)[0][0], spec.psi, atol=1e-12)
        np.testing.assert_allclose(frame_at(traj, spec.t3)[0][0], aux, atol=1e-12)

    def test_continuity_at_stage_boundaries(self):
        spec = spec_pi3()
        traj = stage_trajectory(spec)
        for boundary in (spec.t1, spec.t2):
            left = frame_at(traj, boundary - 1e-9)[0]
            right = frame_at(traj, boundary + 1e-9)[0]
            assert np.linalg.norm(left - right) < 1e-7

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 6),
        core=st.booleans(),
        twist=st.sampled_from([0.0, np.pi, -np.pi]) | st.floats(-10.0, 10.0),
        schedules=st.sampled_from([(a, b) for a in ("linear", "smooth") for b in ("linear", "smooth")]),
    )
    @settings(max_examples=150, deadline=None)
    def test_samplers_keep_the_bits_of_the_whole_array_formulas(self, seed, n, core, twist, schedules):
        # Raw 64-bit words, so a constant off in its last bit fails as well:
        # the rise's and the fall's phase factors, cos(pi/2) ~ 6.1e-17 on
        # the twist.  Times are unsorted and repeat, and include each stage
        # boundary and its neighbouring floats.
        rng = np.random.default_rng(seed)
        if core:
            n, psi = 2, np.array([1.0, 0.0])
        else:
            psi = np.zeros(n, dtype=complex)
            psi[: n - 1] = random_state(rng, n - 1)
        t1 = rng.uniform(0.05, 0.5)
        t2 = t1 + rng.uniform(0.01, 0.5)
        t3 = t2 + rng.uniform(0.01, 0.5)
        spec = GateSpec(n, psi, twist, t1, t2, t3, *schedules)
        marks = np.array([0.0, t1, t2, t3])
        marks = np.concatenate([marks, np.nextafter(marks, -np.inf), np.nextafter(marks, np.inf)])
        marks = marks[(0.0 <= marks) & (marks <= t3)]
        times = np.concatenate([rng.uniform(0.0, t3, rng.integers(0, 40)), marks, rng.choice(marks, 4)])
        rng.shuffle(times)
        trajectory = stage_trajectory(spec)
        # Each piece's coordinates, on its part of the sorted times as a
        # route's grid hands them over: real on the rise and the fall.
        times = np.sort(times)
        values, derivatives, twist = whole_array_coordinates(spec, times)
        at = 0
        for piece, part in trajectory.split(times):
            inside = slice(at, at + part.size)
            at += part.size
            for got, want in zip((*piece.sampler(part), piece.values(part)), (values[inside], derivatives[inside], values[inside])):
                assert got.dtype == (complex if twist[inside].all() else float)
                assert got.shape == want.shape
                np.testing.assert_array_equal(np.asarray(got, dtype=complex).view(np.uint64), want.view(np.uint64))
        assert at == times.size

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_pieces_map_their_coordinates_to_the_bright_path(self, rng, n):
        # B = e^{i phi} sin(theta/2) psi + cos(theta/2) |n-1>, Bdot by the
        # chain rule, on unsorted times with every stage edge: the frames of
        # the three pieces, with e^{i twist} on the fall.
        psi = np.zeros(n, dtype=complex)
        psi[: n - 1] = random_state(rng, n - 1)
        spec = GateSpec(n, psi, 0.7, 0.3, 0.55, 1.1, "smooth", "smooth")
        times = np.concatenate([rng.uniform(0.0, spec.t3, 50), [0.0, spec.t1, spec.t2, spec.t3]])
        values, derivatives, _ = whole_array_coordinates(spec, times)
        phase = np.where(times < spec.t2, 1.0, np.exp(1j * spec.phase_twist))
        aux = spec.auxiliary
        for got, want in zip(stage_trajectory(spec).sample(times), (values, derivatives)):
            want = (phase * want[:, 0, 0])[:, None, None] * psi + want[:, 0, 1, None, None] * aux
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    def test_normalized_everywhere_and_derivatives_consistent(self):
        spec = spec_pi3(theta_schedule="smooth", phi_schedule="smooth")
        traj = stage_trajectory(spec)
        for t in np.linspace(0.001, 0.999, 23):
            assert abs(np.linalg.norm(frame_at(traj, t)[0]) - 1.0) < 1e-12
        validate_trajectory(traj)


class TestAnalyticStageUnitaries:
    def test_u1_swaps_psi_and_auxiliary(self):
        spec = spec_pi3()
        u1, _, _ = analytic_stage_unitaries(spec)
        aux = spec.auxiliary
        np.testing.assert_allclose(u1.matrix @ spec.psi, -aux, atol=1e-14)
        np.testing.assert_allclose(u1.matrix @ aux, spec.psi, atol=1e-14)

    def test_u2_identity_at_zero_twist(self):
        spec = spec_pi3()
        u2 = analytic_stage_unitaries(GateSpec(n=3, psi=spec.psi, phase_twist=0.0))[1]
        np.testing.assert_allclose(u2.matrix, np.eye(3), atol=0)

    def test_u2_phases_psi_ray(self):
        spec = spec_pi3()
        _, u2, _ = analytic_stage_unitaries(spec)
        np.testing.assert_allclose(u2.matrix @ spec.psi, np.exp(2j * np.pi / 3) * spec.psi, atol=1e-14)

    def test_u3_at_quarter_twist(self):
        psi = np.array([1.0, 0.0, 0.0], dtype=complex)
        spec = GateSpec(n=3, psi=psi, phase_twist=np.pi / 2)
        _, _, u3 = analytic_stage_unitaries(spec)
        aux = spec.auxiliary
        expected = np.eye(3, dtype=complex)
        expected[0, 0] = expected[2, 2] = 0.0
        expected -= 1j * (np.outer(psi, aux.conj()) + np.outer(aux, psi.conj()))
        np.testing.assert_allclose(u3.matrix, expected, atol=1e-14)

    def test_each_stage_matches_its_propagated_generator(self):
        # The closed forms are the time-ordered exponentials of the stage
        # generators; propagate the gate path over each stage and compare.
        spec = spec_pi3()
        traj = stage_trajectory(spec)
        stages = [(0.0, spec.t1), (spec.t1, spec.t2), (spec.t2, spec.t3)]
        for (t0, t1), expected in zip(stages, analytic_stage_unitaries(spec)):
            res = evolve_time_ordered(traj, t0, t1, 4000)
            assert matrix_distance(res.unitary.matrix, expected.matrix, "exact") < 1e-9


class TestComposeGate:
    def test_zero_twist_is_identity(self):
        spec = GateSpec(n=3, psi=np.array([1, 0, 0], dtype=complex), phase_twist=0.0)
        np.testing.assert_allclose(compose_gate(spec).matrix, np.eye(3), atol=1e-14)

    def test_pi_twist_flips_psi(self):
        psi = np.array([1, 1, 0], dtype=complex) / np.sqrt(2)
        spec = GateSpec(n=3, psi=psi, phase_twist=np.pi)
        u = compose_gate(spec).matrix
        np.testing.assert_allclose(u @ psi, -psi, atol=1e-13)
        dark = np.array([1, -1, 0], dtype=complex) / np.sqrt(2)
        np.testing.assert_allclose(u @ dark, dark, atol=1e-13)

    def test_acts_as_phase_on_psi_and_identity_on_dark_complement(self, rng):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi[-1] = 0.0
        psi /= np.linalg.norm(psi)
        twist = 0.77
        spec = GateSpec(n=4, psi=psi, phase_twist=twist)
        u = compose_gate(spec).matrix
        np.testing.assert_allclose(u @ psi, np.exp(1j * twist) * psi, atol=1e-12)
        d = rng.normal(size=4) + 1j * rng.normal(size=4)
        d[-1] = 0.0
        d -= np.vdot(psi, d) * psi
        d /= np.linalg.norm(d)
        np.testing.assert_allclose(u @ d, d, atol=1e-12)

    def test_cphase_at_pi(self):
        # n = 5, psi on the last logical level, twist pi: the logical block
        # is diag(1, 1, 1, -1), a CPHASE on two qubits.
        psi = np.zeros(5, dtype=complex)
        psi[3] = 1.0
        spec = GateSpec(n=5, psi=psi, phase_twist=np.pi)
        block = logical_block(compose_gate(spec), 5)
        np.testing.assert_allclose(block, np.diag([1.0, 1.0, 1.0, -1.0]), atol=1e-13)

    def test_symbolic_identity_on_working_plane(self):
        spec = spec_pi3()
        u = compose_gate(spec).matrix
        twist = spec.phase_twist
        expected = (
            np.eye(3, dtype=complex)
            + (np.exp(1j * twist) - 1) * np.outer(spec.psi, spec.psi.conj())
            + (np.exp(1j * twist) - 1) * np.outer(spec.auxiliary, spec.auxiliary.conj())
        )
        assert np.max(np.abs(u - expected)) < 1e-12


class TestSimulateGate:
    def test_reference_gate_reproduction(self):
        spec = spec_pi3()
        result = simulate_gate(spec, steps=10_000)
        ((_, distance_exact, _, _),) = measure_gate(logical_block(compose_gate(spec), 3), [result])
        assert distance_exact < 1e-6
        assert abs(extract_geometric_phase(result.unitary, spec.psi) - (-np.pi / 3)) < 1e-7

    @pytest.mark.parametrize("steps", [1007, 3007])
    def test_off_grid_linear_gate_is_exact_to_rounding(self, steps):
        # Stage times 0.3 and 0.55 fall off any equal grid of 1007 or 3007
        # steps.  Each linear piece keeps one direction of H_eff, so its
        # midpoint steps are exact once no step crosses a stage edge: the
        # whole matrix, bright ray included, is compose_gate to rounding.
        psi = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        spec = GateSpec(n=3, psi=psi, phase_twist=np.pi / 3, t1=0.3, t2=0.55, t3=1.0)
        assert np.linalg.norm(simulate_gate(spec, steps).unitary.matrix - compose_gate(spec).matrix) <= 1e-13

    def test_zero_twist_dark_block_is_identity(self):
        psi = np.array([1, 0, 0], dtype=complex)
        result = simulate_gate(GateSpec(n=3, psi=psi, phase_twist=0.0), steps=2000)
        block = logical_block(result.unitary, 3)
        assert np.linalg.norm(block - np.eye(2)) < 1e-8

    def test_fast_middle_stage_changes_nothing(self):
        # The middle stage acts only on the bright ray, so shrinking its
        # duration 100x must leave the gate unchanged.
        slow = simulate_gate(spec_pi3(), steps=10_000)
        fast = simulate_gate(spec_pi3(t1=0.25, t2=0.2525, t3=1.0), steps=10_000)
        block_slow = logical_block(slow.unitary, 3)
        block_fast = logical_block(fast.unitary, 3)
        assert matrix_distance(block_slow, block_fast, "exact") < 1e-8

    def test_schedule_independence_linear_vs_smooth(self):
        linear = simulate_gate(spec_pi3(), steps=10_000)
        smooth = simulate_gate(spec_pi3(theta_schedule="smooth", phi_schedule="smooth"), steps=10_000)
        block_l = logical_block(linear.unitary, 3)
        block_s = logical_block(smooth.unitary, 3)
        assert matrix_distance(block_l, block_s, "exact") < 1e-7

    def test_identity_on_dark_complement(self):
        result = simulate_gate(spec_pi3(), steps=10_000)
        d = np.array([1, -1, 0], dtype=complex) / np.sqrt(2)
        assert np.linalg.norm(result.unitary.matrix @ d - d) < 1e-6

    def test_solid_angle_relation(self):
        # The traced lune between the two meridians subtends solid angle
        # 2 * twist; the acquired phase magnitude is half of that.  Compute
        # the lune area independently from the trajectory geometry: the two
        # rotation stages run along meridians whose azimuths (in the
        # psi/aux working plane's Bloch sphere) differ by exactly the twist.
        spec = spec_pi3()
        traj = stage_trajectory(spec)
        psi, aux = spec.psi, spec.auxiliary

        def azimuth(t):
            b = frame_at(traj, t)[0][0]
            amp_psi = np.vdot(psi, b)
            amp_aux = np.vdot(aux, b)
            return np.angle(amp_psi / amp_aux) if abs(amp_aux) > 1e-9 else None

        az_up = azimuth(0.1)  # stage 1 meridian
        az_down = azimuth(0.9)  # stage 3 meridian
        lune_angle = abs(az_down - az_up)
        solid_angle = 2.0 * lune_angle
        phase = extract_geometric_phase(simulate_gate(spec, steps=4000).unitary, spec.psi)
        assert abs(abs(phase) - solid_angle / 2.0) < 1e-6

    @pytest.mark.parametrize("steps", [100, 10_000])
    def test_linear_schedule_on_grid_is_exact(self, steps):
        # Each stage's generator is constant under linear ramps, and the
        # stage times 0.25, 0.5, 1 fall on the step grid, so the midpoint
        # rule is exact up to rounding at any step count.
        spec = spec_pi3(t1=0.25, t2=0.5, t3=1.0)
        result = simulate_gate(spec, steps=steps)
        ((_, distance_exact, distance_phase, _),) = measure_gate(logical_block(compose_gate(spec), 3), [result])
        assert distance_exact <= 1e-12
        assert distance_phase <= 1e-12

    def test_phase_extraction_floor(self):
        # A unitary whose <0|U|0> = 0.3 is below the 0.5 floor.
        low_modulus = UnitaryOperator([[0.3, -np.sqrt(0.91)], [np.sqrt(0.91), 0.3]])
        with pytest.raises(ValueError):
            extract_geometric_phase(low_modulus, np.array([1.0, 0.0]))


class TestMeasureGate:
    @pytest.mark.parametrize("alpha", [0.3, -2.0, np.pi])
    @pytest.mark.parametrize("levels", ["effective", "full"])
    def test_a_global_phase_moves_only_the_exact_distance(self, alpha, levels):
        # e^{i alpha} times the composed gate, on the n levels of the
        # effective route or with the excited level of the full oracle.
        spec = spec_pi3(n=4)
        gate = compose_gate(spec).matrix
        if levels == "full":
            gate = np.block([[gate, np.zeros((4, 1))], [np.zeros((1, 4)), np.eye(1)]])
        result = PropagationResult(UnitaryOperator(np.exp(1j * alpha) * gate), 1, 0.0, levels)
        geometric = logical_block(compose_gate(spec), spec.n)
        ((block, exact, phase, leak),) = measure_gate(geometric, [result])
        np.testing.assert_allclose(block, np.exp(1j * alpha) * geometric, atol=1e-15)
        assert exact == pytest.approx(abs(np.exp(1j * alpha) - 1.0) * np.linalg.norm(geometric), rel=1e-14)
        assert phase <= 1e-14
        assert leak <= 1e-14


class TestGateCouplingSchedule:
    def test_stage_trajectory_declares_its_breakpoints(self):
        spec = spec_pi3(t1=0.4, t2=0.9, t3=1.7)
        assert stage_trajectory(spec).breakpoints == (0.4, 0.9)
        assert gate_coupling_schedule(spec).breakpoints == (0.4 / 1.7, 0.9 / 1.7)

    def test_schedule_reproduces_trajectory_bright_state(self):
        # The trajectory on progress s is the path at t = t3 s, and its rate
        # is t3 times the one on [0, t3].
        spec = spec_pi3(t1=0.4, t2=0.9, t3=1.7, theta_schedule="smooth", phi_schedule="smooth")
        progress = np.array([0.0, 0.05, 0.3, 0.55, 0.8, 0.99, 1.0])
        schedule_values, schedule_rates = gate_coupling_schedule(spec).sample(progress)
        values, rates = stage_trajectory(spec).sample(progress * spec.t3)
        np.testing.assert_allclose(schedule_values, values, rtol=0, atol=1e-12)
        np.testing.assert_allclose(schedule_rates, spec.t3 * rates, rtol=0, atol=1e-12)


def full_gate_spec(n, psi):
    state = np.zeros(n, dtype=complex)
    state[: len(psi)] = psi
    return GateSpec(n=n, psi=state, phase_twist=0.9, t1=0.3137, t2=0.5711, theta_schedule="smooth", phi_schedule="smooth")


FULL_GATES = {
    "n3": full_gate_spec(3, [0.6, 0.8j]),
    "n4": full_gate_spec(4, np.array([1.0, 1j, -1.0]) / np.sqrt(3)),
    "n5": full_gate_spec(5, [0.5, 0.5, 0.5j, 0.5]),
    "n5-cphase": full_gate_spec(5, [0.0, 0.0, 0.0, 1.0]),
    # t3 != 1: the full route's progress clock rescales the stage times.
    "off-grid": GateSpec(
        n=4,
        psi=np.array([1.0, 1j, -1.0, 0.0]) / np.sqrt(3),
        phase_twist=0.9,
        t1=0.4,
        t2=0.9,
        t3=1.7,
        theta_schedule="smooth",
        phi_schedule="smooth",
    ),
}


class TestSimulateFullGate:
    """The gate's three-level core, embedded in n+1 levels, against the
    (n+1)-level oracle on the reference drive."""

    STEPS = 2 * FULL_BLOCK + 5  # the last block is partial

    def runs(self, omega_Ts=(40.0, 7.5, 130.0)):
        return [AdiabaticRunConfig(omega_T=w, steps=self.STEPS) for w in omega_Ts]

    @pytest.mark.parametrize("name", sorted(FULL_GATES))
    def test_sweep_matches_the_full_oracle(self, name):
        spec = FULL_GATES[name]
        runs = self.runs()
        got = simulate_full_gate(spec, runs)
        want = evolve_full_sweep(reference_gate_drive(spec), runs)
        assert len(got) == len(runs)
        for run, core, full in zip(runs, got, want):
            assert np.linalg.norm(core.unitary.matrix - full.unitary.matrix) <= 1e-12
            assert (core.steps, core.method) == (run.steps, "full")
            assert core.unitarity_error <= 1e-12
            # A sweep of one run is the single run, bit for bit.
            (single,) = simulate_full_gate(spec, [run])
            assert np.array_equal(single.unitary.matrix, core.unitary.matrix)
            assert single.unitarity_error == core.unitarity_error

    def test_core_clock_rescales_the_stage_times(self):
        # t3 != 1: the core runs on progress s = t / t3, the n-level oracle on
        # the reference drive's own rescaled clock.
        spec = GateSpec(
            n=4,
            psi=np.array([1.0, 1j, -1.0, 0.0]) / np.sqrt(3),
            phase_twist=0.9,
            t1=0.4,
            t2=0.9,
            t3=1.7,
            theta_schedule="smooth",
            phi_schedule="smooth",
        )
        runs = self.runs((40.0, 130.0))
        for core, full in zip(simulate_full_gate(spec, runs), evolve_full_sweep(reference_gate_drive(spec), runs)):
            assert np.linalg.norm(core.unitary.matrix - full.unitary.matrix) <= 1e-12

    @pytest.mark.parametrize("name", sorted(FULL_GATES))
    def test_trace_matches_the_full_oracle(self, name, rng):
        # A start state with support outside the core, which must stay put.
        # The sink's coupled states are the n-level bright state on the
        # progress clock and the excited level, lifted out of the core.
        spec = FULL_GATES[name]
        (run,) = self.runs((40.0,))
        start = random_state(rng, spec.n + 1)
        blocks = []
        (traced,) = simulate_full_gate(spec, [run], StateTrace(start, lambda *rows: blocks.append(rows)))
        times, states, coupled = map(np.concatenate, zip(*blocks))
        want_times, want_states = evolve_state_full(reference_gate_drive(spec), run, start)
        assert np.array_equal(times, want_times)
        assert np.max(np.linalg.norm(states - want_states, axis=1)) <= 1e-12
        want_coupled = excited_and(stage_trajectory(spec).values(np.minimum(spec.t3 * times, spec.t3)))
        assert coupled.shape == want_coupled.shape
        assert np.abs(coupled - want_coupled).max() <= 1e-14
        (untraced,) = simulate_full_gate(spec, [run])
        assert np.array_equal(traced.unitary.matrix, untraced.unitary.matrix)

    def test_a_trace_follows_one_run(self):
        start = np.zeros(4, dtype=complex)
        start[0] = 1.0
        with pytest.raises(ValueError, match="one run, got 3"):
            simulate_full_gate(FULL_GATES["n3"], self.runs(), StateTrace(start, lambda *rows: None))

    def test_a_trace_of_the_wrong_length_is_rejected(self):
        rows = []
        with pytest.raises(DimensionMismatch, match=r"shape \(3,\), but the propagation acts on \(4,\)"):
            simulate_full_gate(FULL_GATES["n3"], self.runs((40.0,)), StateTrace(np.eye(3)[0], lambda *block: rows.append(block)))
        assert rows == []

    def test_memory_stays_within_three_blocks_of_planes(self):
        # Each block of steps is built as (3, 3, FULL_BLOCK) entry planes and
        # reduced as it is; a copy of every block into another layout would
        # hold one block more.
        tracemalloc.start()
        try:
            simulate_full_gate(FULL_GATES["n3"], [AdiabaticRunConfig(omega_T=2000.0, steps=16 * FULL_BLOCK)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * (3 * 3 * FULL_BLOCK * 16)


CORE_GATES = {**FULL_GATES, "n16": full_gate_spec(16, np.exp(0.4j * np.arange(15)) / np.sqrt(15))}


class TestSimulateGateCore:
    """The gate's two-level core, embedded in n levels, against the n-level
    effective route on the same clock and steps."""

    STEPS = 2 * FULL_BLOCK + 5  # the last block is partial

    @pytest.mark.parametrize("name", sorted(CORE_GATES))
    def test_unitary_matches_the_n_level_route(self, name):
        spec = CORE_GATES[name]
        result = simulate_gate(spec, self.STEPS)
        want = evolve_time_ordered(frameless(stage_trajectory(spec)), 0.0, spec.t3, self.STEPS)
        assert np.linalg.norm(result.unitary.matrix - want.unitary.matrix) <= 1e-12
        assert (result.steps, result.method) == (self.STEPS, "effective")
        assert result.unitarity_error <= 1e-12

    @pytest.mark.parametrize("name", sorted(CORE_GATES))
    def test_trace_matches_the_n_level_route(self, name, rng):
        # A start state with support outside the core, which must stay put.
        # The sink's coupled states are the n-level bright states, lifted
        # out of the core.
        spec = CORE_GATES[name]
        start = random_state(rng, spec.n)
        blocks = []
        traced = simulate_gate(spec, self.STEPS, StateTrace(start, lambda *rows: blocks.append(rows)))
        times, states, coupled = map(np.concatenate, zip(*blocks))
        want_times, want_states = evolve_state_time_ordered(frameless(stage_trajectory(spec)), 0.0, spec.t3, self.STEPS, start)
        assert np.array_equal(times, want_times)
        assert np.max(np.linalg.norm(states - want_states, axis=1)) <= 1e-12
        want_coupled = stage_trajectory(spec).values(times)
        assert coupled.shape == want_coupled.shape
        assert np.abs(coupled - want_coupled).max() <= 1e-14
        untraced = simulate_gate(spec, self.STEPS)
        assert np.array_equal(traced.unitary.matrix, untraced.unitary.matrix)

    def test_a_trace_of_the_wrong_length_is_rejected(self):
        rows = []
        with pytest.raises(DimensionMismatch, match=r"shape \(4,\), but the propagation acts on \(3,\)"):
            simulate_gate(FULL_GATES["n3"], self.STEPS, StateTrace(np.eye(4)[0], lambda *block: rows.append(block)))
        assert rows == []

    def test_embeds_keep_w_unitary_for_psi_at_the_norm_tolerance(self):
        # |psi|^2 - 1 = 5e-11 passes GateSpec; the frame renormalizes psi's
        # logical part, so each route's embedded U is as unitary as its W.
        psi = np.array([1.0, 1j, -1.0, 0.0]) * np.sqrt((1.0 + 5e-11) / 3.0)
        spec = GateSpec(n=4, psi=psi, phase_twist=0.9)
        (full,) = simulate_full_gate(spec, [AdiabaticRunConfig(omega_T=40.0, steps=self.STEPS)])
        for result in (simulate_gate(spec, self.STEPS), full):
            u = result.unitary.matrix
            assert np.linalg.norm(u.conj().T @ u - np.eye(len(u))) <= 1e-13


class TestStirap:
    def test_full_transfer(self):
        report = stirap_transfer(np.pi / 2, steps=4096)
        np.testing.assert_allclose(report.final_state, [0.0, -1.0], atol=1e-8)
        assert abs(report.transfer_population - 1.0) < 1e-10

    def test_null_ramp(self):
        report = stirap_transfer(0.0, steps=512)
        np.testing.assert_allclose(report.final_state, [1.0, 0.0], atol=0)

    def test_half_transfer(self):
        report = stirap_transfer(np.pi / 4, steps=4096)
        expected = np.array([1.0, -1.0]) / np.sqrt(2)
        np.testing.assert_allclose(report.final_state, expected, atol=1e-8)

    def test_smooth_ramp_same_endpoint(self):
        linear = stirap_transfer(np.pi / 2, steps=4096, ramp="linear")
        smooth = stirap_transfer(np.pi / 2, steps=4096, ramp="smooth")
        assert np.linalg.norm(linear.final_state - smooth.final_state) < 1e-7

    def test_smooth_ramp_observed_order_is_two(self):
        deviations = [stirap_transfer(np.pi / 2, steps=steps, ramp="smooth").deviation for steps in (256, 512, 1024)]
        orders = np.log2(np.array(deviations[:-1]) / deviations[1:])
        assert np.all(np.abs(orders - 2.0) <= 0.05), orders

    @pytest.mark.parametrize("ramp", ["linear", "smooth"])
    @pytest.mark.parametrize("theta_end", [np.pi / 2, 1.3, 7.9])
    def test_sampler_keeps_the_bits_of_the_whole_array_formulas(self, ramp, theta_end, rng):
        # theta = theta_end ramp(t), B = (sin theta, cos theta) and
        # Bdot = (rate cos theta, -rate sin theta), as raw 64-bit words, on
        # the midpoints and ends of a step grid and on uniform random times.
        steps = 4096
        grid = np.arange(steps, dtype=float)
        times = np.concatenate([(grid + 0.5) / steps, (grid + 1.0) / steps, rng.uniform(0.0, 1.0, 1000)])
        theta, rate = theta_end * ramp_value(ramp, times), theta_end * ramp_rate(ramp, times)
        sin, cos = np.sin(theta), np.cos(theta)
        values = np.stack([sin, cos], axis=-1)[:, None, :]
        derivatives = np.stack([rate * cos, -rate * sin], axis=-1)[:, None, :]
        (piece,) = stirap_trajectory(theta_end, ramp).pieces
        for got, want in zip((*piece.sampler(times), piece.values(times)), (values, derivatives, values)):
            assert got.dtype == float and got.shape == want.shape
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("steps", [7, 1024])
    def test_linear_ramp_is_exact(self, steps):
        # A linear ramp has a constant generator: one exponential is exact.
        assert stirap_transfer(np.pi / 2, steps=steps, ramp="linear").deviation <= 1e-14
