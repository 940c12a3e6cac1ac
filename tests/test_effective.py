import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brightpath.berry import _loop_trajectory, rectangle_loop
from brightpath.effective import BrightTrajectory, Piece, _h_eff_stack, h_eff_couplings, h_eff_multi
from brightpath.errors import DerivativeInconsistent, DimensionMismatch, NormalizationDriftError, NotOrthonormal
from brightpath.gates import GateSpec, gate_coupling_schedule, stage_trajectory, stirap_trajectory
from brightpath.lambda_system import CouplingSet, bright_state
from brightpath.propagators import AdiabaticRunConfig, evolve_full_adiabatic, evolve_time_ordered, reparametrize
from brightpath.ramps import ramp_rate, ramp_value
from conftest import frame_at, midpoint_reference, reversed_trajectory, validate_trajectory


def rotating_pair(t):
    value = np.array([np.cos(t), np.sin(t)], dtype=complex)
    rate = np.array([-np.sin(t), np.cos(t)], dtype=complex)
    return value, rate


def rotating(t_start, t_end, rate_factor=1.0):
    """B(t) = (cos, sin)(t) on [t_start, t_end], with its derivative scaled
    by ``rate_factor`` (1 is the exact derivative)."""

    def sampler(times):
        values = np.stack([np.cos(times), np.sin(times)], axis=-1)[:, None, :].astype(complex)
        rates = rate_factor * np.stack([-np.sin(times), np.cos(times)], axis=-1)[:, None, :]
        return values, rates.astype(complex)

    return BrightTrajectory(2, 1, (Piece(t_start, t_end, None, sampler),))


class TestHEffSingle:
    """The one-bright-state generator: ``h_eff_multi`` of a bare state."""

    def test_static_state_gives_zero(self, rng):
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        b /= np.linalg.norm(b)
        h = h_eff_multi(b, np.zeros(4))
        np.testing.assert_allclose(h.matrix, np.zeros((4, 4)), atol=0)

    @pytest.mark.parametrize("t", [0.0, 0.37, 1.2])
    def test_planar_rotation_is_sigma_y(self, t):
        # Hand evaluation: i(|Bdot><B| - |B><Bdot|) for B = (cos t, sin t)
        # collapses to the constant matrix with entries (1,2) = -i, (2,1) = +i.
        b, bdot = rotating_pair(t)
        h = h_eff_multi(b, bdot).matrix
        np.testing.assert_allclose(h, np.array([[0, -1j], [1j, 0]]), atol=1e-14)

    def test_pure_phase_rotation(self, rng):
        # B = e^{i w t} v gives -2w |v><v|: the bright ray's phase rate shows
        # up (only) on the bright projector.
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        v /= np.linalg.norm(v)
        w, t = 1.7, 0.4
        b = np.exp(1j * w * t) * v
        bdot = 1j * w * b
        h = h_eff_multi(b, bdot).matrix
        np.testing.assert_allclose(h, -2 * w * np.outer(v, v.conj()), atol=1e-13)

    def test_rejects_unnormalized(self):
        # A bare state is a one-row frame, held to the same 1e-8 rule.
        for b in (np.array([1.0, 1.0]), np.array([np.nan, 0.0])):
            with pytest.raises(NotOrthonormal):
                h_eff_multi(b, np.zeros(2))

    def test_rejects_radial_derivative(self):
        for bdot in (np.array([1.0, 0.0]), np.array([np.nan, 0.0])):
            with pytest.raises(DerivativeInconsistent):
                h_eff_multi(np.array([1.0, 0.0]), bdot)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("size", [1e155, 1e200, 1e300])
    def test_tangency_scale_does_not_overflow(self, size):
        # Squaring the entries of ||Bdot|| overflows past ~1e154; the
        # tangency test must still reject a radial Bdot of that size and
        # accept a tangent one.
        b = np.array([[[1.0, 0.0]]])
        with pytest.raises(DerivativeInconsistent):
            _h_eff_stack(b, np.array([[[size, 0.0]]]))
        h = _h_eff_stack(b, np.array([[[0.0, size]]]))
        np.testing.assert_array_equal(h, np.array([[[0.0, -1j * size], [1j * size, 0.0]]]))

    @pytest.mark.parametrize("radial, accepted", [(1e-3, True), (1e-1, False)])
    def test_tangency_bound_scales_with_the_derivative(self, radial, accepted):
        # |Re <Bdot|B>| is held to 1e-8 * max(1, ||Bdot||): on a Bdot of norm
        # ~1e6 the bound is ~1e-2, so a radial part of 1e-3 passes, though it
        # exceeds 1e-8, and one of 1e-1 does not.
        b, bdot = np.array([[[1.0, 0.0]]]), np.array([[[radial, 1e6]]])
        if accepted:
            _h_eff_stack(b, bdot)
        else:
            with pytest.raises(DerivativeInconsistent, match=r"Re <Bdot_i\|B_i> = 1\.000e-01 is not ~0$"):
                _h_eff_stack(b, bdot)

    def test_hermitian_and_dark_sandwich(self, rng):
        b = rng.normal(size=5) + 1j * rng.normal(size=5)
        b /= np.linalg.norm(b)
        bdot = rng.normal(size=5) + 1j * rng.normal(size=5)
        bdot -= np.vdot(b, bdot).real * b
        h = h_eff_multi(b, bdot).matrix
        # <d|H|d'> = 0 for dark directions orthogonal to both B and Bdot.
        q, _ = np.linalg.qr(np.stack([b, bdot]).T)
        comp = np.eye(5) - q @ q.conj().T
        assert np.linalg.norm(comp @ h @ comp) < 1e-12

    def test_real_trajectory_has_no_bright_diagonal(self):
        b, bdot = rotating_pair(0.81)
        h = h_eff_multi(b, bdot).matrix
        assert abs(b.conj() @ h @ b) < 1e-14


class TestHEffMulti:
    def test_zero_derivatives(self, rng):
        frame = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0][:, :2].T
        h = h_eff_multi(frame, np.zeros_like(frame))
        np.testing.assert_allclose(h.matrix, np.zeros((4, 4)), atol=0)

    def test_one_state_frame_equals_the_bare_state(self):
        b, bdot = rotating_pair(0.51)
        assert np.array_equal(h_eff_multi([b], [bdot]).matrix, h_eff_multi(b, bdot).matrix)

    def test_additivity_with_embedded_rotation(self):
        # A rotating state in the first plane plus a static one elsewhere
        # reproduces the k=1 generator embedded in dimension 4.
        t = 0.37
        b1 = np.array([np.cos(t), np.sin(t), 0, 0], dtype=complex)
        b1dot = np.array([-np.sin(t), np.cos(t), 0, 0], dtype=complex)
        b2 = np.array([0, 0, 1, 0], dtype=complex)
        h = h_eff_multi([b1, b2], [b1dot, np.zeros(4)]).matrix
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 1], expected[1, 0] = -1j, 1j
        np.testing.assert_allclose(h, expected, atol=1e-14)

    def test_exact_sum_of_singles(self, rng):
        frame = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))[0][:, :3].T
        derivs = []
        for b in frame:
            d = rng.normal(size=5) + 1j * rng.normal(size=5)
            d -= np.vdot(b, d).real * b
            derivs.append(d)
        total = h_eff_multi(frame, derivs).matrix
        summed = sum(h_eff_multi(b, d).matrix for b, d in zip(frame, derivs))
        np.testing.assert_allclose(total, summed, atol=1e-13)

    def test_rejects_nonorthonormal_frame(self):
        for frame in ([np.array([1.0, 0]), np.array([1.0, 0])], [np.array([np.nan, 0]), np.array([0, 1.0])]):
            with pytest.raises(NotOrthonormal):
                h_eff_multi(frame, np.zeros((2, 2)))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_in_place_stack_build_is_bit_identical(self, rng, k):
        # The out-of-place 1j * (cross - cross^dag), as first written.
        z = rng.normal(size=(300, 5, k)) + 1j * rng.normal(size=(300, 5, k))
        values = np.linalg.qr(z)[0].transpose(0, 2, 1)
        derivatives = rng.normal(size=values.shape) + 1j * rng.normal(size=values.shape)
        derivatives -= (derivatives.conj() * values).real.sum(axis=2)[:, :, None] * values
        cross = np.einsum("mki,mkj->mij", derivatives, values.conj())
        assert np.array_equal(_h_eff_stack(values, derivatives), 1j * (cross - cross.conj().transpose(0, 2, 1)))


class TestHEffCouplings:
    def test_static_drive_gives_zero(self):
        c = CouplingSet(omega=1.0, r=np.array([0.6, 0.8]), phi=np.array([0.1, -0.4]))
        h = h_eff_couplings(c, np.zeros(2), np.zeros(2))
        np.testing.assert_allclose(h.matrix, np.zeros((2, 2)), atol=0)

    def test_two_level_rotation_entry(self):
        # Hand evaluation at r = (cos t, sin t): entry (1,2) = i(rdot1 r2 - r1 rdot2) = -i.
        t = 0.93
        c = CouplingSet(omega=1.0, r=np.array([np.cos(t), np.sin(t)]), phi=np.zeros(2))
        h = h_eff_couplings(c, np.array([-np.sin(t), np.cos(t)]), np.zeros(2)).matrix
        np.testing.assert_allclose(h, np.array([[0, -1j], [1j, 0]]), atol=1e-14)

    def test_single_level_phase_rate(self):
        c = CouplingSet(omega=1.0, r=np.array([1.0]), phi=np.array([0.0]))
        h = h_eff_couplings(c, np.zeros(1), np.array([0.9])).matrix
        np.testing.assert_allclose(h, [[-1.8]], atol=1e-15)

    def test_gauge_diagonal(self, rng):
        r = rng.uniform(0.1, 1.0, size=4)
        r /= np.linalg.norm(r)
        phidot = rng.normal(size=4)
        c = CouplingSet(omega=1.0, r=r, phi=rng.uniform(-np.pi, np.pi, size=4))
        h = h_eff_couplings(c, np.zeros(4), phidot).matrix
        np.testing.assert_allclose(np.diag(h), -2 * r**2 * phidot, atol=1e-14)

    def test_normalization_drift_rejected(self):
        c = CouplingSet(omega=1.0, r=np.array([0.6, 0.8]), phi=np.zeros(2))
        for rdot in (np.array([1.0, 1.0]), np.array([np.nan, 0.0])):
            with pytest.raises(NormalizationDriftError):
                h_eff_couplings(c, rdot, np.zeros(2))

    def test_vanishing_amplitude_is_finite(self):
        c = CouplingSet(omega=1.0, r=np.array([0.0, 1.0]), phi=np.array([0.3, 0.0]))
        h = h_eff_couplings(c, np.array([1.3, 0.0]), np.array([0.7, 0.2])).matrix
        assert np.all(np.isfinite(h))
        np.testing.assert_allclose(h[0, 1], 1.3j * np.exp(0.3j), atol=1e-14)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6))
    @settings(max_examples=60, deadline=None)
    def test_form_equivalence_with_bright_state_construction(self, seed, n):
        # Algebraic identity: the coupling-coefficient form equals
        # i(|Bdot><B| - |B><Bdot|) built from the same r, phi and rates.
        rng = np.random.default_rng(seed)
        r = rng.uniform(0.05, 1.0, size=n)
        r /= np.linalg.norm(r)
        phi = rng.uniform(-np.pi, np.pi, size=n)
        rdot = rng.normal(size=n)
        rdot -= np.dot(r, rdot) * r
        phidot = rng.normal(size=n)
        c = CouplingSet(omega=1.0, r=r, phi=phi)
        b = bright_state(c)
        bdot = (rdot + 1j * r * phidot) * np.exp(1j * phi)
        lhs = h_eff_couplings(c, rdot, phidot).matrix
        rhs = h_eff_multi(b, bdot).matrix
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestBrightTrajectory:
    def make_rotating(self):
        return rotating(0.0, np.pi)

    def test_validate_accepts_consistent_trajectory(self):
        validate_trajectory(self.make_rotating())

    def test_validate_probes_miss_the_corners_of_a_loop_path(self):
        # One piece spans all 128 segments, so t = 64, the middle default
        # probe, is a corner where Bdot jumps.
        traj = _loop_trajectory(rectangle_loop("theta1", "theta2", 1.0, 0.8))
        assert (traj.t_end, traj.breakpoints) == (128.0, ())
        validate_trajectory(traj)

    def test_validate_flags_wrong_derivative(self):
        with pytest.raises(AssertionError, match="expected second-order decrease"):
            validate_trajectory(rotating(0.0, np.pi, rate_factor=1.05))

    def test_validate_flags_jump(self):
        def sampler(times):
            values, derivatives = smooth.sample(times)
            jumped, _ = smooth.sample(times + 0.3)
            return np.where((times < 1.5)[:, None, None], values, jumped), derivatives

        smooth = self.make_rotating()
        jumpy = BrightTrajectory(2, 1, (Piece(0.0, np.pi, None, sampler),))
        with pytest.raises(AssertionError, match="expected second-order decrease"):
            validate_trajectory(jumpy, times=[1.5 - 5e-6])


class TestPieces:
    """A trajectory checks its pieces once, when it is built: contiguous,
    each with t_start < t_end, each frame a (dim, r) isometry."""

    @staticmethod
    def piece(t_start, t_end, frame=None):
        return rotating(t_start, t_end).pieces[0]._replace(frame=frame)

    @pytest.mark.parametrize(
        "edges, why",
        [
            (((0.0, 0.4), (0.6, 1.0)), r"contiguous: one ends at 0\.4, the next starts at 0\.6"),
            (((0.0, 0.6), (0.4, 1.0)), r"contiguous: one ends at 0\.6, the next starts at 0\.4"),
            (((0.0, 0.5), (0.5, 0.5)), r"t_start < t_end, got \[0\.5, 0\.5\]"),
            (((0.0, np.nan),), r"t_start < t_end, got \[0, nan\]"),
        ],
        ids=["gap", "overlap", "empty", "nan"],
    )
    def test_pieces_that_do_not_tile_an_interval_raise(self, edges, why):
        with pytest.raises(ValueError, match=why):
            BrightTrajectory(2, 1, tuple(self.piece(lo, hi) for lo, hi in edges))

    @pytest.mark.parametrize(
        "frame, error, why",
        [
            (np.array([[1.0, 1e-7], [0.0, 1.0], [0.0, 0.0]]), NotOrthonormal, "not an isometry: max"),
            (np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]]), NotOrthonormal, "not an isometry: max"),
            (np.array([[np.nan, 0.0], [0.0, 1.0], [0.0, 0.0]]), NotOrthonormal, "not an isometry: max"),
            (np.eye(2), DimensionMismatch, r"\(dim=3, r\) array with r >= k=1, got \(2, 2\)"),
            (np.zeros((3, 0)), DimensionMismatch, r"got \(3, 0\)"),
            (np.ones(3), DimensionMismatch, r"got \(3,\)"),
            ([[1.0], [0.0], [0.0]], DimensionMismatch, r"\(dim=3, r\) array with r >= k=1, got \(3, 1\)"),
        ],
        ids=["skewed", "stretched", "nan", "wrong_rows", "no_columns", "a_vector", "a_list"],
    )
    def test_a_frame_that_is_not_a_dim_row_isometry_raises(self, frame, error, why):
        with pytest.raises(error, match=why):
            BrightTrajectory(3, 1, (self.piece(0.0, 1.0, frame),))

    def test_replacing_the_pieces_checks_them_again(self):
        traj = BrightTrajectory(2, 1, (self.piece(0.0, 0.5), self.piece(0.5, 1.0)))
        with pytest.raises(ValueError, match="contiguous"):
            dataclasses.replace(traj, pieces=(self.piece(0.0, 0.5), self.piece(0.6, 1.0)))
        isometry = np.array([[0.6, 0.0], [0.0, 1j], [0.8, 0.0]])
        framed = BrightTrajectory(3, 1, (self.piece(0.0, 1.0, isometry),))
        values, derivatives = framed.sample(np.array([0.3]))
        np.testing.assert_allclose(values[0, 0], isometry @ [np.cos(0.3), np.sin(0.3)], rtol=0, atol=1e-16)
        np.testing.assert_allclose(derivatives[0, 0], isometry @ [-np.sin(0.3), np.cos(0.3)], rtol=0, atol=1e-16)

    def test_cover_clips_each_piece_an_interval_meets(self):
        # (lo, hi) meets a piece that it overlaps, not one it only touches.
        traj = BrightTrajectory(2, 1, (self.piece(0.0, 0.5), self.piece(0.5, 1.0)))
        parts = traj.cover(0.2, 0.7, "the span")
        assert [(lo, hi) for _, lo, hi in parts] == [(0.2, 0.5), (0.5, 0.7)]
        assert all(piece is own for (piece, _, _), own in zip(parts, traj.pieces))
        assert [piece is traj.pieces[1] for piece, _, _ in traj.cover(0.5, 1.0, "the span")] == [True]
        assert traj.cover(0.5, 0.5, "the span") == []
        for lo, hi in [(0.2, 1.5), (-0.1, 0.5), (0.2, np.nan)]:
            with pytest.raises(ValueError, match=rf"^the span \[{lo:.6g}, {hi:.6g}\], outside the trajectory's \[0, 1\]$"):
                traj.cover(lo, hi, "the span")

    def test_a_missing_frame_is_stored_as_the_identity(self):
        # Built or replaced, a piece given no frame carries np.eye(dim), so a
        # frameless trajectory and the same one given the identity take the
        # same arithmetic on both routes.  The parent stepped the frameless
        # loop's product unembedded: 5e-16 off the identity-framed one.
        traj = BrightTrajectory(2, 1, (self.piece(0.0, 0.5), self.piece(0.5, 1.0)))
        assert all(np.array_equal(piece.frame, np.eye(2)) for piece in traj.pieces)
        assert np.array_equal(dataclasses.replace(traj, pieces=(self.piece(0.0, 1.0),)).pieces[0].frame, np.eye(2))

        def given(trajectory, frame):
            return BrightTrajectory(trajectory.dim, trajectory.k, tuple(p._replace(frame=frame) for p in trajectory.pieces))

        loop = _loop_trajectory(rectangle_loop("theta2", "phi3", 0.6, 1.2))
        stirap = stirap_trajectory(np.pi / 2)
        runs = [
            (loop, lambda traj: evolve_time_ordered(traj, 0.0, traj.t_end, 64 * int(traj.t_end))),
            (stirap, lambda traj: evolve_time_ordered(traj, 0.0, 1.0, 1001)),
            (stirap, lambda traj: evolve_full_adiabatic(traj, AdiabaticRunConfig(omega_T=40.0, steps=1001))),
        ]
        for trajectory, route in runs:
            bare, identity = (route(given(trajectory, frame)).unitary.matrix for frame in (None, np.eye(trajectory.dim)))
            assert np.array_equal(bare.view(np.uint64), identity.view(np.uint64))


def stacked_scalar_calls(traj, times):
    return tuple(map(np.array, zip(*(frame_at(traj, float(t)) for t in times))))


def off_grid_gate(theta_schedule="smooth"):
    psi = np.array([0.6, 0.8j, 0.0])
    return GateSpec(n=3, psi=psi, phase_twist=0.9, t1=0.3137, t2=0.5711, t3=1.0, theta_schedule=theta_schedule)


class TestSample:
    """``sample(times)`` against one one-sample call per time."""

    # The 8-step midpoints put no time on the default stage edges 0.25 and
    # 0.5 or on the off-grid ones; the edges themselves are appended.
    @pytest.mark.parametrize(
        "spec",
        [GateSpec(n=3, psi=np.array([1, 1, 0]) / np.sqrt(2), phase_twist=np.pi / 3), off_grid_gate()],
        ids=["on_grid", "off_grid"],
    )
    def test_stage_trajectory(self, spec):
        traj = stage_trajectory(spec)
        times = np.concatenate([(np.arange(8) + 0.5) / 8 * spec.t3, np.linspace(0.0, spec.t3, 17), [spec.t1, spec.t2]])
        for got, want in zip(traj.sample(times), stacked_scalar_calls(traj, times)):
            assert got.shape == (times.size, 1, 3)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_stage_edges_go_to_the_right_hand_piece(self):
        spec = off_grid_gate("linear")
        _, derivatives = stage_trajectory(spec).sample(np.array([spec.t1, spec.t2]))
        # At t1 the twist stage moves the bright state along i psi; at t2
        # the return rotation moves it towards the auxiliary level, at rate
        # pi / (2 (t3 - t2)).
        twist_rate = 0.9 / (spec.t2 - spec.t1)
        np.testing.assert_allclose(derivatives[0, 0], 1j * twist_rate * spec.psi, rtol=0, atol=1e-12)
        assert abs(derivatives[1, 0, 2]) == pytest.approx(np.pi / (2 * (spec.t3 - spec.t2)))

    @pytest.mark.parametrize("ramp", ["linear", "smooth"])
    def test_stirap_and_reversed(self, ramp):
        times = np.linspace(0.0, 1.0, 33)
        for traj in (stirap_trajectory(1.3, ramp), reversed_trajectory(stirap_trajectory(1.3, ramp))):
            for got, want in zip(traj.sample(times), stacked_scalar_calls(traj, times)):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        forward = stirap_trajectory(1.3, ramp).sample(times)
        backward = reversed_trajectory(stirap_trajectory(1.3, ramp)).sample(times[::-1])
        np.testing.assert_array_equal(backward[0], forward[0])
        np.testing.assert_array_equal(backward[1], -forward[1])

    @pytest.mark.parametrize(
        "times, span",
        [([-0.5, 1.5], r"\[-0.5, 1.5\]"), ([0.5, 1.0 + 1e-12], r"\[0.5, 1\]"), ([np.nan], r"\[nan, nan\]")],
        ids=["both_ends", "past_t_end", "nan"],
    )
    def test_times_off_the_domain_rejected(self, times, span):
        # The stage formulas would otherwise extrapolate (-|aux> at t = -0.5).
        with pytest.raises(ValueError, match=span + r".*outside the trajectory's \[0, 1\]"):
            stage_trajectory(off_grid_gate()).sample(times)


def values_trajectories():
    """One trajectory of every kind that a pipeline reads ``values`` of, or
    may: the stage path and the stirap path (pieces with their own
    ``values``), the stage path on the progress clock, a smooth remap of
    it, and a loop path (one piece that reads its sampler's values)."""
    gate = off_grid_gate()
    linear = GateSpec(n=4, psi=np.array([0.6, 0.0, 0.8j, 0.0]), phase_twist=2.1, t1=0.4, t2=0.9, t3=1.7)
    core = gate_coupling_schedule(linear)
    smooth = lambda s: ramp_value("smooth", s)
    return {
        "stage-smooth": stage_trajectory(gate),
        "stage-linear": stage_trajectory(linear),
        "core": core,
        "reparametrized": reparametrize(core, smooth, lambda s: ramp_rate("smooth", s), 0.0, 1.0),
        "stirap": stirap_trajectory(1.3, "smooth"),
        "loop": _loop_trajectory(rectangle_loop("theta1", "theta2", 1.0, 0.8)),
    }


class TestValues:
    """``values(times)`` is ``sample(times)[0]``, bit for bit, under the
    same checks."""

    @pytest.mark.parametrize("name", sorted(values_trajectories()))
    def test_values_are_the_sampled_values(self, name):
        traj = values_trajectories()[name]
        span = traj.t_end - traj.t_start
        # Midpoints of a ragged grid, both ends and every kink: the piece
        # edges, and the corners of the loop path, whose one piece spans
        # every segment.
        kinks = np.arange(1, traj.t_end) if name == "loop" else traj.breakpoints
        times = np.concatenate([traj.t_start + span * (np.arange(1037) + 0.5) / 1037, [traj.t_start, traj.t_end], kinks])
        got = traj.values(times)
        assert got.shape == (times.size, traj.k, traj.dim)
        np.testing.assert_array_equal(got, traj.sample(times)[0])

    @pytest.mark.parametrize("name", sorted(values_trajectories()))
    @pytest.mark.parametrize("times", [[-0.5, 0.5], [0.5, 1e9], [np.nan]], ids=["before", "after", "nan"])
    def test_times_off_the_domain_raise_as_sample_does(self, name, times):
        traj = values_trajectories()[name]
        with pytest.raises(ValueError) as from_sample:
            traj.sample(times)
        with pytest.raises(ValueError) as from_values:
            traj.values(times)
        assert str(from_values.value) == str(from_sample.value)
        assert "outside the trajectory's" in str(from_values.value)

    @pytest.mark.parametrize("own", [False, True], ids=["through_sample", "own_values"])
    def test_a_sampler_of_the_wrong_shape_raises_as_sample_does(self, own):
        # Two states per time where the trajectory declares one.
        def wrong(times):
            return np.zeros((times.size, 2, 2), dtype=complex)

        traj = BrightTrajectory(2, 1, (Piece(0.0, 1.0, None, lambda times: (wrong(times), wrong(times)), wrong if own else None),))
        with pytest.raises(DimensionMismatch, match=r"sampled values \(3, 2, 2\)"):
            traj.sample(np.linspace(0.0, 1.0, 3))
        with pytest.raises(DimensionMismatch, match=r"sampled values \(3, 2, 2\).* must (both )?be \(3, 1, 2\)"):
            traj.values(np.linspace(0.0, 1.0, 3))

    def test_replacing_the_pieces_moves_sample_values_and_split_together(self):
        # The first two stage pieces with their bright states negated: the
        # trajectory ends at t2, and every reader takes the new pieces.
        spec = off_grid_gate()
        traj = stage_trajectory(spec)
        negated = tuple(
            piece._replace(sampler=lambda t, p=piece: tuple(-a for a in p.sampler(t)), values=lambda t, p=piece: -p.values(t))
            for piece in traj.pieces[:2]
        )
        short = dataclasses.replace(traj, pieces=negated)
        assert (short.t_end, short.breakpoints) == (spec.t2, (spec.t1,))
        # t2 now belongs to the twist, where the derivative differs.
        times = np.concatenate([np.linspace(0.0, spec.t2, 41)[:-1], [spec.t1]])
        for got, want in zip(short.sample(times), traj.sample(times)):
            assert np.array_equal(got, -want)
        assert np.array_equal(short.values(times), -traj.values(times))
        assert [piece for piece, _ in short.split(np.sort(times))] == list(negated)
        with pytest.raises(ValueError, match="outside the trajectory's"):
            short.values([spec.t3])


class TestMultiBrightTransport:
    """Two bright pairs rotating at once, checked against the full drive.

    This is the regime the single-bright-state shortcut cannot reach: the
    dark space of a degenerate two-manifold drive whose ground singular
    frame rotates in time.  The geometric generator built from all four
    bright states must transport the dark states exactly where the brute
    force Schroedinger integration of the drive takes them.
    """

    R_DIM, M_DIM = 4, 2
    DIM = R_DIM + M_DIM

    def setup_method(self):
        from brightpath.linalg import expm_hermitian
        from brightpath.morris_shore import TwoManifoldSystem, morris_shore_transform

        rng = np.random.default_rng(5)
        v0 = rng.normal(size=(self.R_DIM, self.M_DIM)) + 1j * rng.normal(size=(self.R_DIM, self.M_DIM))
        v0 /= np.linalg.svd(v0, compute_uv=False)[-1]
        self.v0 = v0
        gen = np.zeros((self.R_DIM, self.R_DIM))
        gen[0, 1], gen[1, 0] = -1.0, 1.0
        gen[2, 3], gen[3, 2] = -0.7, 0.7
        self.gen = gen
        self._expm = expm_hermitian
        base = morris_shore_transform(TwoManifoldSystem(v0))
        self.u0, self.w0, self.dark0 = base.ground_bright, base.excited_bright, base.dark_ground

    def angle(self, t):
        return 1.1 * np.sin(np.pi * t / 2.0) ** 2

    def angle_rate(self, t):
        return 1.1 * (np.pi / 2.0) * np.sin(np.pi * t)

    def u_ground(self, t):
        return self._expm(1j * self.gen, self.angle(t)).matrix.real

    def trajectory(self):
        def sampler(times):
            values = np.zeros((times.size, 4, self.DIM), dtype=complex)
            derivatives = np.zeros_like(values)
            for frame, rate, t in zip(values, derivatives, times):
                frame[:2, : self.R_DIM] = (self.u_ground(t) @ self.u0.T).T
                frame[2:, self.R_DIM :] = self.w0
                rate[:2, : self.R_DIM] = (self.angle_rate(t) * (self.gen @ self.u_ground(t)) @ self.u0.T).T
            return values, derivatives

        return BrightTrajectory(self.DIM, 4, (Piece(0.0, 1.0, None, sampler),))

    def full_drive(self, omega):
        def h(t):
            v = self.u_ground(t) @ self.v0
            m = np.zeros((self.DIM, self.DIM), dtype=complex)
            m[: self.R_DIM, self.R_DIM :] = omega * v
            m[self.R_DIM :, : self.R_DIM] = omega * v.conj().T
            return m

        return h

    def dark_frames(self):
        start = np.zeros((2, self.DIM), dtype=complex)
        start[:, : self.R_DIM] = self.dark0
        end = np.zeros((2, self.DIM), dtype=complex)
        end[:, : self.R_DIM] = self.dark0 @ self.u_ground(1.0).T
        return start, end

    def test_trajectory_validates(self):
        validate_trajectory(self.trajectory())

    def test_geometric_transport_matches_full_drive(self):
        from brightpath.linalg import UnitaryOperator, matrix_distance
        from brightpath.propagators import dark_block, evolve_time_ordered

        traj = self.trajectory()
        # The batched k >= 2 route against one h_eff call per midpoint.
        geo = evolve_time_ordered(traj, 0.0, 1.0, 4096).unitary
        assert np.linalg.norm(geo.matrix - midpoint_reference(traj.h_eff, 0.0, 1.0, 4096)) < 1e-12
        start, end = self.dark_frames()
        block_geo = dark_block(geo, start, end)
        # Geometric propagation stays exactly on the dark bundle.
        assert np.linalg.norm(block_geo.conj().T @ block_geo - np.eye(2)) < 1e-12
        distances = []
        for omega, steps in ((100.0, 16384), (300.0, 32768)):
            block_full = dark_block(UnitaryOperator(midpoint_reference(self.full_drive(omega), 0.0, 1.0, steps)), start, end)
            distances.append(matrix_distance(block_full, block_geo, "up_to_global_phase"))
        assert distances[0] < 2e-4
        assert distances[1] < distances[0] / 3.0

