import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brightpath import propagators
from brightpath.berry import ParameterPath, _loop_trajectory, rectangle_loop
from brightpath.effective import BrightTrajectory, Piece
from brightpath.errors import DerivativeInconsistent, DimensionMismatch, NonMonotoneMap, NotNormalized, NotOrthonormal
from brightpath.gates import GateSpec, gate_coupling_schedule, simulate_gate, stage_trajectory, stirap_trajectory
from brightpath.lambda_system import CouplingSet, bright_state
from brightpath.linalg import UnitaryOperator, expm_hermitian, matrix_distance
from brightpath.propagators import (
    FULL_BLOCK,
    MAX_STEPS,
    AdiabaticRunConfig,
    StateTrace,
    _LambdaPairs,
    _lambda_step_factors,
    _midpoint_factors,
    _step_grid,
    _traced,
    _unitary_product,
    dark_block,
    evolve_full_adiabatic,
    evolve_full_sweep,
    evolve_state_full,
    evolve_state_time_ordered,
    evolve_time_ordered,
    leakage,
    reparametrize,
)
from brightpath.ramps import ramp_rate, ramp_value
from conftest import excited_and, frameless, random_unitary, matmul_snapshots, midpoint_reference, reference_gate_drive, reversed_trajectory

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


def rotating_sampler(times):
    values = np.stack([np.cos(times), np.sin(times)], axis=-1)[:, None, :].astype(complex)
    derivatives = np.stack([-np.sin(times), np.cos(times)], axis=-1)[:, None, :].astype(complex)
    return values, derivatives


def rotating_trajectory(t_end=np.pi / 2):
    return BrightTrajectory(2, 1, (Piece(0.0, t_end, None, rotating_sampler),))


def planes_trajectory(t_end):
    """Two bright states turning at rates 1 and 0.6 in the planes (1, 2) and
    (3, 4): a constant generator, sigma_y on the first plane plus 0.6 sigma_y
    on the second, on the k >= 2 route."""

    def sampler(times):
        values = np.zeros((times.size, 2, 4), dtype=complex)
        derivatives = np.zeros_like(values)
        for row, (rate, lo) in enumerate(((1.0, 0), (0.6, 2))):
            angle = rate * times
            values[:, row, lo], values[:, row, lo + 1] = np.cos(angle), np.sin(angle)
            derivatives[:, row, lo], derivatives[:, row, lo + 1] = -rate * np.sin(angle), rate * np.cos(angle)
        return values, derivatives

    return BrightTrajectory(4, 2, (Piece(0.0, t_end, None, sampler),))


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


# K for spun_sampler: a Hermitian 4 x 4 matrix with no special structure.
SPIN = np.array(
    [[0.3, 1.0, 0.5j, 0.0], [1.0, -0.2, 0.4, 0.7j], [-0.5j, 0.4, 0.1, 0.6], [0.0, -0.7j, 0.6, -0.4]],
    dtype=complex,
)
SPIN_EVALS, SPIN_EVECS = np.linalg.eigh(SPIN)


def spun_sampler(times):
    """The frame (e_1, e_2) turned by exp(-i K s) with s = t + 0.4 t^2, so
    Bdot_i = -i s' K B_i: a two-bright path on four levels whose generators
    s' U (K P_0 + P_0 K) U^dag do not commute."""
    s, rate = times + 0.4 * times**2, 1.0 + 0.8 * times
    turn = (SPIN_EVECS * np.exp(-1j * np.multiply.outer(s, SPIN_EVALS))[:, None, :]) @ SPIN_EVECS.conj().T
    values = turn[:, :, :2].transpose(0, 2, 1)
    return values, -1j * rate[:, None, None] * (values @ SPIN.T)


def noncommuting_trajectories():
    """The twisted one-bright path (closed-form steps) and the spun
    two-bright frame (H_eff and eigh), both on [0, 1.5]."""
    return BrightTrajectory(3, 1, (Piece(0.0, 1.5, None, twisted_sampler),)), BrightTrajectory(4, 2, (Piece(0.0, 1.5, None, spun_sampler),))


def halving_ratios(propagate):
    """Error ratios of ``propagate(steps)`` at 512 -> 1024 -> 2048 steps
    against a Richardson-extrapolated reference from 8192 and 16384 steps."""
    fine, finer = propagate(8192), propagate(16384)
    reference = finer + (finer - fine) / 3.0
    errors = [np.linalg.norm(propagate(steps) - reference) for steps in (512, 1024, 2048)]
    return [coarse / halved for coarse, halved in zip(errors, errors[1:])]


def drive(sample, dim=3):
    """A drive that carries nothing but the values of its sampler progress
    -> (values, derivatives): one piece on [0, 1] with no frame and no
    derivative sampler, all that the full oracle reads."""
    return BrightTrajectory(dim, 1, (Piece(0.0, 1.0, None, None, lambda progress: sample(progress)[0]),))


def mapped_back(planes):
    """Real-form Lambda steps G as exp(-i H dt) = D G D^-1, D = diag(1, ...,
    1, i): the excited row times i and its column times -i."""
    d = np.append(np.ones(len(planes) - 1), 1j)
    return np.outer(d, d.conj())[:, :, None] * planes


def held(b):
    """The drive that holds the bright state ``b`` at every progress value:
    a constant one-state trajectory, Bdot = 0."""
    return BrightTrajectory(b.size, 1, (Piece(0.0, 1.0, None, lambda s: (np.tile(b, (s.size, 1, 1)), np.zeros((s.size, 1, b.size)))),))


def smoothly(drive):
    """The drive on the smooth progress clock sin^2(pi s / 2)."""
    return reparametrize(drive, lambda s: ramp_value("smooth", s), lambda s: ramp_rate("smooth", s), 0.0, 1.0)


CONSTANT_LAMBDA = CouplingSet(omega=1.0, r=np.array([0.6, 0.8, 0.0]), phi=np.array([0.0, 0.7, 0.0]))


class TestEvolveTimeOrdered:
    def test_zero_hamiltonian(self):
        # A frame at rest carries the zero generator, on both routes.
        for k in (1, 2):
            frame = np.eye(3, dtype=complex)[:k]

            def at_rest(times, frame=frame):
                return np.broadcast_to(frame, (times.size, *frame.shape)), np.zeros((times.size, *frame.shape))

            res = evolve_time_ordered(BrightTrajectory(3, k, (Piece(0.0, 1.0, None, at_rest),)), 0.0, 1.0, 17)
            np.testing.assert_allclose(res.unitary.matrix, np.eye(3), atol=1e-14)

    def test_constant_hamiltonian_any_steps(self):
        # Frames turning at constant rates in fixed planes carry a constant
        # generator, which the midpoint rule integrates exactly.
        for traj in (rotating_trajectory(0.8), planes_trajectory(0.8)):
            exact = expm_hermitian(traj.h_eff(0.0), 0.8).matrix
            for steps in (1, 7, 64):
                res = evolve_time_ordered(traj, 0.0, 0.8, steps)
                assert np.linalg.norm(res.unitary.matrix - exact) < 1e-10

    def test_rotating_bright_state_closed_form(self):
        # The generator of the planar rotation is constant (sigma_y), so the
        # propagated unitary has the closed form exp(-i sigma_y T).
        traj = rotating_trajectory()
        res = evolve_time_ordered(traj, traj.t_start, traj.t_end, 10_000)
        sigma_y = np.array([[0, -1j], [1j, 0]])
        exact = expm_hermitian(sigma_y, np.pi / 2).matrix
        assert np.linalg.norm(res.unitary.matrix - exact) < 1e-10

    def test_rejects_a_callable(self):
        # A generator t -> H(t) is not a bright trajectory: the type error
        # names what was passed, instead of an AttributeError on ``k``.
        for propagate in (
            lambda: evolve_time_ordered(lambda t: SIGMA_X, 0.0, 1.0, 4),
            lambda: evolve_state_time_ordered(lambda t: SIGMA_X, 0.0, 1.0, 4, np.array([1.0, 0.0])),
        ):
            with pytest.raises(TypeError, match="propagates a BrightTrajectory, got function"):
                propagate()

    @pytest.mark.parametrize("steps", [1, 2, 3, 7, 257])
    def test_matches_left_multiplied_loop(self, steps):
        # Pins the factor order (later steps to the left) and the odd-length
        # tail of the tree product against the plain sequential product of
        # one h_eff exponential per midpoint, on both routes.
        for traj in noncommuting_trajectories():
            t0, t1 = traj.t_start, traj.t_end
            dt = (t1 - t0) / steps
            u = np.eye(traj.dim, dtype=complex)
            for j in range(steps):
                u = expm_hermitian(traj.h_eff(t0 + (j + 0.5) * dt), dt).matrix @ u
            res = evolve_time_ordered(traj, t0, t1, steps)
            assert np.linalg.norm(res.unitary.matrix - u) < 1e-12

    @pytest.mark.parametrize("steps", [1, 2, 3, 7, 257, 10_000])
    def test_trajectory_matches_its_scalar_generator(self, steps):
        # The batched build from one sample of all midpoints against one
        # h_eff call per midpoint of the same per-piece grid, on a piecewise
        # gate path.  Fewer steps than its three pieces are refused.
        psi = np.array([0.6, 0.8j, 0.0])
        spec = GateSpec(n=3, psi=psi, phase_twist=0.9, t1=0.3137, t2=0.5711, theta_schedule="smooth")
        traj = stage_trajectory(spec)
        if steps < 3:
            with pytest.raises(ValueError, match=rf"^{steps} steps cannot give each of the 3 pieces in \[0, 1\] a step$"):
                evolve_time_ordered(traj, 0.0, spec.t3, steps)
            return
        batched = evolve_time_ordered(traj, 0.0, spec.t3, steps).unitary.matrix
        scalar = midpoint_reference(traj.h_eff, 0.0, spec.t3, steps, traj.breakpoints)
        assert np.linalg.norm(batched - scalar) < 1e-12

    @pytest.mark.parametrize("dtype", [complex, float])
    def test_rejects_broken_trajectory_sample(self, dtype):
        # A vectorized sampler that breaks one rule at exactly one midpoint
        # of the 4-step grid; the error names that time.  A real sampler's
        # values and derivatives reach the same checks as floats.
        def broken(rule, at):
            def sampler(times):
                values = np.stack([np.cos(times), np.sin(times)], axis=-1)[:, None, :].astype(dtype)
                derivatives = np.stack([-np.sin(times), np.cos(times)], axis=-1)[:, None, :].astype(dtype)
                hit = times == at
                if rule == "scale":
                    values[hit] *= 1.1
                elif rule == "radial":
                    derivatives[hit] += values[hit]
                else:
                    target, bad = rule
                    (values if target == "value" else derivatives)[hit] = bad
                return values, derivatives

            return BrightTrajectory(2, 1, (Piece(0.0, 1.0, None, sampler),))

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

    def test_both_routes_read_a_piece_through_its_shape_check(self):
        # Declared dim = 2, but the piece gives 3 coordinates with no frame:
        # the full oracle would run it as a 4 x 4 drive.  Each route raises
        # as the trajectory's own reader does on the same midpoints: the
        # effective route as ``sample``, the oracle, which reads values
        # only, as ``values``.
        def sampler(times):
            values = np.zeros((times.size, 1, 3))
            values[:, 0, 0] = 1.0
            return values, np.zeros_like(values)

        traj = BrightTrajectory(2, 1, (Piece(0.0, 1.0, None, sampler),))
        mids = (np.arange(64) + 0.5) / 64
        for run, read in (
            (lambda: evolve_time_ordered(traj, 0.0, 1.0, 64), traj.sample),
            (lambda: evolve_full_adiabatic(traj, AdiabaticRunConfig(omega_T=1.0, steps=64)), traj.values),
        ):
            with pytest.raises(DimensionMismatch, match=r"sampled values \(64, 1, 3\).* be \(64, 1, 2\)$") as expected:
                read(mids)
            with pytest.raises(DimensionMismatch) as got:
                run()
            assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize(
        "values_shape, derivatives_shape",
        [((1, 3), (1, 3)), ((2, 2), (2, 2)), ((1, 2), (1, 3)), ((1, 3), (1, 2))],
    )
    @pytest.mark.parametrize("vectorized", [True, False])
    def test_rejects_misshapen_trajectory_sample(self, values_shape, derivatives_shape, vectorized):
        # Declared k = 1, dim = 2; an orthonormal sample of another shape
        # would otherwise be propagated as if it were declared.  The block
        # route samples 4 midpoints at once; ``h_eff`` samples one time and
        # meets the same check.
        frame = np.eye(*values_shape, dtype=complex)

        def sampler(times):
            return np.broadcast_to(frame, (times.size, *values_shape)), np.zeros((times.size, *derivatives_shape))

        traj = BrightTrajectory(2, 1, (Piece(0.0, 1.0, None, sampler),))
        m = 4 if vectorized else 1
        named = "values {} and derivatives {} must both be {}".format(
            *(re.escape(str((m, *shape))) for shape in (values_shape, derivatives_shape, (1, 2)))
        )
        with pytest.raises(DimensionMismatch, match=named):
            if vectorized:
                evolve_time_ordered(traj, 0.0, 1.0, 4)
            else:
                traj.h_eff(0.125)

    def test_composition(self):
        for traj in noncommuting_trajectories():
            full = evolve_time_ordered(traj, 0.0, 1.5, 4096)
            first = evolve_time_ordered(traj, 0.0, 0.75, 2048)
            second = evolve_time_ordered(traj, 0.75, 1.5, 2048)
            glued = second.unitary.matrix @ first.unitary.matrix
            assert np.linalg.norm(full.unitary.matrix - glued) < 1e-9

    def test_second_order_convergence(self):
        # Halving dt should reduce the error by ~4x for the midpoint rule;
        # the two-bright frame takes the H_eff + eigh step (the one-bright
        # closed form is checked below).
        spun = noncommuting_trajectories()[1]

        def unitary(steps):
            return evolve_time_ordered(spun, 0.0, 1.5, steps).unitary.matrix

        for ratio in halving_ratios(unitary):
            assert 3.0 < ratio < 5.0

    @pytest.mark.parametrize(
        "trajectory",
        [stirap_trajectory(1.3, "smooth"), noncommuting_trajectories()[0]],
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
            return np.array([evolve_state_time_ordered(trajectory, t0, t1, steps, e)[1][-1] for e in basis])

        for propagate in (unitary, columns):
            for ratio in halving_ratios(propagate):
                assert 3.0 < ratio < 5.0

    def test_time_reversal_gives_inverse(self):
        traj = rotating_trajectory(1.3)
        forward = evolve_time_ordered(traj, traj.t_start, traj.t_end, 2048).unitary
        backward = evolve_time_ordered(reversed_trajectory(traj), traj.t_start, traj.t_end, 2048).unitary
        assert matrix_distance(backward.matrix, forward.matrix.conj().T, "exact") < 1e-8

    def test_unitarity_error_reported_small(self):
        for traj in noncommuting_trajectories():
            assert evolve_time_ordered(traj, 0.0, 1.5, 4096).unitarity_error < 1e-8


def real_piece(rng, r, dim, complex_frame, speed):
    """One real piece on [0, 1]: B = F Q x(t), x = (cos at, sin at cos ct,
    sin at sin ct, 0, ...) for a = speed and c = speed / 2 (x = (cos at,
    sin at) for r = 2), Q a random r x r rotation and F a random real or
    complex (dim, r) isometry, so ||Bdot|| is speed to 1.12 speed."""
    q = np.linalg.qr(rng.normal(size=(r, r)))[0]
    z = rng.normal(size=(dim, r)) + (1j * rng.normal(size=(dim, r)) if complex_frame else 0.0)
    frame = np.linalg.qr(z)[0]
    a, c = speed, 0.5 * speed if r > 2 else 0.0

    def sampler(times):
        sa, ca, sc, cc = np.sin(a * times), np.cos(a * times), np.sin(c * times), np.cos(c * times)
        x = np.zeros((times.size, r))
        dx = np.zeros_like(x)
        x[:, 0], x[:, 1] = ca, sa * cc
        dx[:, 0], dx[:, 1] = -a * sa, a * ca * cc - c * sa * sc
        if r > 2:
            x[:, 2], dx[:, 2] = sa * sc, a * ca * sc + c * sa * cc
        return (x @ q.T)[:, None], (dx @ q.T)[:, None]

    return BrightTrajectory(dim, 1, (Piece(0.0, 1.0, frame, sampler),))


class TestRealStep:
    """A piece with real coordinates steps and reduces in real arithmetic,
    as its complex copy does in complex arithmetic."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        r=st.integers(2, 5),
        extra=st.integers(0, 2),
        complex_frame=st.booleans(),
        log_scale=st.floats(-10.0, 1.0),
        steps=st.sampled_from([1, 2, 5, 16, 64]),
    )
    @settings(max_examples=60, deadline=None)
    def test_a_real_piece_steps_as_its_complex_copy(self, seed, r, extra, complex_frame, log_scale, steps):
        # ||Bdot|| dt, the angle rho of a step, from 1e-10 to 10 (11.2).
        real = real_piece(np.random.default_rng(seed), r, r + extra, complex_frame, 10.0**log_scale * steps)
        piece = real.pieces[0]
        copy = BrightTrajectory(real.dim, 1, (piece._replace(sampler=lambda times: tuple(a.astype(complex) for a in piece.sampler(times))),))
        ((_, planes, _),) = _midpoint_factors(real, 0.0, 1.0, steps)
        ((_, complex_planes, _),) = _midpoint_factors(copy, 0.0, 1.0, steps)
        assert planes.dtype == np.float64 and complex_planes.dtype == np.complex128
        # Each closed form rounds its entries by up to ~1.7e-15 at rho in
        # [5, 10] (against a 30-digit reference): 1e-15 holds up to rho = 1,
        # and 4 eps (1 + rho) beyond it.
        rho = np.linalg.norm(piece.sampler((np.arange(steps) + 0.5) / steps)[1][:, 0], axis=1) / steps
        gaps = np.abs(planes - complex_planes).max(axis=(0, 1))
        assert (gaps <= np.where(rho <= 1.0, 1e-15, 4 * np.finfo(float).eps * (1.0 + rho))).all()
        # Products of unitaries differ by at most the sum of their factors'
        # differences, r times their largest entry gaps: the steps' rounding
        # adds up over 64 steps of rho ~ 3 to more than 1e-14.
        u, v = (evolve_time_ordered(trajectory, 0.0, 1.0, steps).unitary.matrix for trajectory in (real, copy))
        assert np.abs(u - v).max() <= 1e-14 + r * gaps.sum()

    def test_the_real_pieces_of_each_kind_take_the_real_step(self):
        # The gate's rise and fall, STIRAP and a theta1-theta2 loop (also one
        # at still phases, on its frame diag(1, e^{i phi2}, e^{i phi3})) step
        # in float64; the twist and a theta2-phi3 loop in complex128.  Each
        # unitary is its frameless complex copy's.
        gate = stage_trajectory(GateSpec(n=3, psi=np.array([0.6, 0.8j, 0.0]), phase_twist=0.9, theta_schedule="smooth"))
        rectangle = rectangle_loop("theta1", "theta2", 1.0, 0.8)
        phased = ParameterPath(rectangle.samples + [0.0, 0.0, 0.3, -0.5], closed=True)
        runs = [
            (gate, 300, ["float64", "complex128", "float64"]),
            (stirap_trajectory(1.3, "smooth"), 64, ["float64"]),
            (_loop_trajectory(rectangle), 128 * 64, ["float64"] * 2),
            (_loop_trajectory(phased), 128 * 64, ["float64"] * 2),
            (_loop_trajectory(rectangle_loop("theta2", "phi3", 0.6, 1.2)), 128 * 64, ["complex128"] * 2),
        ]
        for trajectory, steps, dtypes in runs:
            blocks = list(_midpoint_factors(trajectory, 0.0, trajectory.t_end, steps))
            assert [planes.dtype.name for _, planes, _ in blocks] == dtypes
            u, v = (_unitary_product(_midpoint_factors(t, 0.0, trajectory.t_end, steps))[0].matrix for t in (trajectory, frameless(trajectory)))
            assert np.abs(u - v).max() <= 1e-13


def pieces_on(*edges):
    """A one-level trajectory whose pieces have the given edges; the grid
    reads only the edges, so no piece is ever sampled."""
    return BrightTrajectory(1, 1, tuple(Piece(lo, hi, None, None) for lo, hi in zip(edges, edges[1:])))


class TestStepGrid:
    """One grid for every route: equal steps on each piece."""

    @settings(max_examples=200, deadline=None)
    @given(
        gaps=st.lists(st.floats(1e-3, 10.0), min_size=1, max_size=5),
        cut=st.tuples(st.floats(0.0, 0.45), st.floats(0.55, 1.0)) | st.just((0.0, 1.0)),
        extra=st.integers(0, 3 * FULL_BLOCK),
    )
    def test_each_piece_gets_its_share_of_equal_steps(self, gaps, cut, extra):
        edges = np.concatenate([[0.0], np.cumsum(gaps)])
        trajectory = pieces_on(*edges.tolist())
        t0, t1 = (edges[-1] * c for c in cut)
        met = [(max(t0, lo), min(t1, hi)) for lo, hi in zip(edges, edges[1:]) if hi > t0 and lo < t1]
        steps = len(met) + extra
        blocks = list(_step_grid(trajectory, t0, t1, steps))
        counts, widths = {}, {}
        for piece, mids, ends, width in blocks:
            lo, hi = max(t0, piece.t_start), min(t1, piece.t_end)
            assert 1 <= len(mids) == len(ends) <= FULL_BLOCK
            assert ((lo < mids) & (mids < hi)).all()
            counts[piece.t_start] = counts.get(piece.t_start, 0) + len(mids)
            widths.setdefault(piece.t_start, set()).add(width)
        # Every piece met gets one step, and the rest go by length, by
        # largest remainder: within one step of its exact share.  A piece's
        # steps are equal.
        assert sum(counts.values()) == steps
        assert [widths[lo_edge] for lo_edge in counts] == [{(hi - lo) / count} for (lo, hi), count in zip(met, counts.values())]
        quotas = [extra * (hi - lo) / (t1 - t0) for lo, hi in met]
        assert all(abs(count - 1 - quota) < 1 for count, quota in zip(counts.values(), quotas))
        assert len(counts) == len(met)
        times = np.concatenate([[t0], *(ends for _, _, ends, _ in blocks)])
        assert (np.diff(times) > 0).all() and times[-1] == t1
        assert set(lo for lo, _ in met[1:]) <= set(times.tolist())

    def test_one_piece_keeps_the_equal_grid_bit_for_bit(self):
        # The midpoints and ends of an equal grid over [t0, t1], the same
        # expressions as a grid that ignores the pieces.
        ((_, mids, ends, width),) = _step_grid(pieces_on(0.0, 2.0), 0.3, 1.7, 1001)
        assert np.array_equal(mids, 0.3 + 1.4 * (np.arange(1001) + 0.5) / 1001)
        assert np.array_equal(ends[:-1], 0.3 + 1.4 * np.arange(1, 1001) / 1001)
        assert ends[-1] == 1.7 and width == 1.4 / 1001

    @pytest.mark.parametrize("route", ["effective", "full"])
    def test_a_grid_past_the_trajectory_names_both_intervals(self, route):
        # The grid's formulas would sample each piece off its domain.
        if route == "effective":
            run = lambda: evolve_time_ordered(stirap_trajectory(1.0), 0.0, 2.0, 100)
            message = r"^the grid spans \[0, 2\], outside the trajectory's \[0, 1\]$"
        else:
            short = BrightTrajectory(3, 1, (Piece(0.0, 0.5, None, None, held(bright_state(CONSTANT_LAMBDA)).values),))
            run = lambda: evolve_full_adiabatic(short, AdiabaticRunConfig(omega_T=1.0, steps=64))
            message = r"^the grid spans \[0, 1\], outside the trajectory's \[0, 0\.5\]$"
        with pytest.raises(ValueError, match=message):
            run()

    @pytest.mark.parametrize("route", ["effective", "full"])
    def test_fewer_steps_than_pieces_names_both_counts(self, route):
        # Twelve pieces on [0, 1]; the oracle takes at least 10 steps.
        edges = np.linspace(0.0, 1.0, 13).tolist()
        b = bright_state(CONSTANT_LAMBDA)
        turning = lambda times: (np.tile(b, (times.size, 1, 1)), np.zeros((times.size, 1, 3)))
        trajectory = BrightTrajectory(3, 1, tuple(Piece(lo, hi, None, turning) for lo, hi in zip(edges, edges[1:])))
        if route == "effective":
            run = lambda: evolve_time_ordered(trajectory, 0.0, 1.0, 11)
        else:
            run = lambda: evolve_full_adiabatic(trajectory, AdiabaticRunConfig(omega_T=1.0, steps=11))
        with pytest.raises(ValueError, match=r"^11 steps cannot give each of the 12 pieces in \[0, 1\] a step$"):
            run()
        evolve_time_ordered(trajectory, 0.0, 1.0, 12)


class TestEvolveFullAdiabatic:
    def test_constant_drive_matches_rabi_closed_form(self):
        c = CONSTANT_LAMBDA
        omega_T = 2.3
        res = evolve_full_adiabatic(held(bright_state(c)), AdiabaticRunConfig(omega_T=omega_T, steps=64))
        b = np.zeros(4, dtype=complex)
        b[:3] = bright_state(c)
        e = np.zeros(4, dtype=complex)
        e[3] = 1.0
        p_bright = np.outer(b, b.conj()) + np.outer(e, e.conj())
        cross = np.outer(b, e.conj()) + np.outer(e, b.conj())
        exact = np.eye(4) + (np.cos(omega_T) - 1.0) * p_bright - 1j * np.sin(omega_T) * cross
        assert np.linalg.norm(res.unitary.matrix - exact) < 1e-8

    def test_dark_state_is_stationary(self):
        res = evolve_full_adiabatic(held(bright_state(CONSTANT_LAMBDA)), AdiabaticRunConfig(omega_T=5.0, steps=256))
        b = bright_state(CONSTANT_LAMBDA)
        d = np.array([b[1].conj(), -b[0].conj(), 0.0, 0.0])
        np.testing.assert_allclose(res.unitary.matrix @ d, d, atol=1e-12)

    def test_bright_state_rabi_flops_to_excited(self):
        res = evolve_full_adiabatic(held(bright_state(CONSTANT_LAMBDA)), AdiabaticRunConfig(omega_T=np.pi / 2, steps=64))
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

    def test_smooth_ramp_suppresses_diabatic_leakage(self):
        # A bright sweep |3> -> |1> driven at constant speed starts and
        # stops abruptly; the sin^2 progress clock removes the endpoint
        # velocity kinks and cuts the dark-block unitarity defect by orders
        # of magnitude at the same Omega*T.
        from brightpath.lambda_system import SphericalAngles, dark_basis_parametrized

        def sampler(s):
            # The angle couplings at theta1 = (pi/2) s, theta2 = phi2 = phi3 = 0.
            theta1, zero = (np.pi / 2) * s, np.zeros_like(s)
            values = np.stack([np.sin(theta1), zero, np.cos(theta1)], axis=1)
            derivatives = (np.pi / 2) * np.stack([np.cos(theta1), zero, -np.sin(theta1)], axis=1)
            return values[:, None].astype(complex), derivatives[:, None].astype(complex)

        sweep = BrightTrajectory(3, 1, (Piece(0.0, 1.0, None, sampler),))

        start = np.zeros((2, 4), dtype=complex)
        start[0, 0] = start[1, 1] = 1.0
        d1, d2 = dark_basis_parametrized(SphericalAngles(theta1=np.pi / 2))
        end = np.zeros((2, 4), dtype=complex)
        end[0, :3], end[1, :3] = d1, d2
        defects = {}
        for ramp, schedule in (("linear", sweep), ("smooth", smoothly(sweep))):
            res = evolve_full_adiabatic(schedule, AdiabaticRunConfig(omega_T=200.0, steps=16384))
            blk = dark_block(res.unitary, start, end)
            defects[ramp] = np.linalg.norm(blk.conj().T @ blk - np.eye(2))
        assert defects["smooth"] < 1e-6
        assert defects["smooth"] < defects["linear"] / 50.0


def off_grid_gate(n=3):
    psi = np.zeros(n, dtype=complex)
    psi[0], psi[1] = 0.6, 0.8j
    return GateSpec(n=n, psi=psi, phase_twist=0.9, t1=0.3137, t2=0.5711, theta_schedule="smooth")


def gate_schedule(n=3):
    return reference_gate_drive(off_grid_gate(n))


class TestBlockedOracle:
    """The full oracle streams its steps in blocks of FULL_BLOCK."""

    @pytest.mark.parametrize("trajectory", noncommuting_trajectories(), ids=["k1", "k2"])
    def test_a_ragged_midpoint_run_matches_a_sequential_loop(self, trajectory):
        # One full block and a tail of 3, each reduced as entry planes and
        # then the two block products, against every step's exponential
        # multiplied on the left one at a time.
        steps = FULL_BLOCK + 3
        u = np.eye(trajectory.dim, dtype=complex)
        for t in 1.5 * (np.arange(steps) + 0.5) / steps:
            u = expm_hermitian(trajectory.h_eff(t), 1.5 / steps).matrix @ u
        assert np.linalg.norm(evolve_time_ordered(trajectory, 0.0, 1.5, steps).unitary.matrix - u) < 1e-12

    def test_a_yielded_block_holds_no_samples(self):
        # While the consumer reduces a block of closed-form steps, the
        # factor stream keeps its midpoints only, not the block's (M, 1, 3)
        # values and derivatives (196 KB each).
        factors = _midpoint_factors(noncommuting_trajectories()[0], 0.0, 1.5, 2 * FULL_BLOCK)
        tracemalloc.start()
        try:
            block = next(factors)
            held = tracemalloc.get_traced_memory()[0] - block[1].nbytes
        finally:
            tracemalloc.stop()
        assert held < FULL_BLOCK * 3 * 16

    def test_matches_whole_grid_sequential_product(self):
        # Blocks of three pieces, one of them ragged, against every factor
        # of the run's grid built at once and multiplied one by one, later
        # steps to the left.
        schedule = smoothly(gate_schedule())
        config = AdiabaticRunConfig(omega_T=40.0, steps=2 * FULL_BLOCK + 37)
        grid = list(_step_grid(schedule, 0.0, 1.0, config.steps))
        # The real-form steps at each piece's step width, each mapped back
        # to exp(-i H dt).
        factors = np.concatenate(
            [mapped_back(_lambda_step_factors(schedule.sample(mids)[0][:, 0], config.omega_T * width)) for _, mids, _, width in grid], axis=-1
        )
        assert factors.shape[-1] == config.steps
        u = np.eye(4, dtype=complex)
        for factor in factors.transpose(2, 0, 1):
            u = factor @ u
        assert np.linalg.norm(evolve_full_adiabatic(schedule, config).unitary.matrix - u) < 1e-12
        start = np.array([0.0, 0.0, 1.0, 0.0], dtype=complex)
        times, states = evolve_state_full(schedule, config, start)
        np.testing.assert_array_equal(times, np.concatenate([[0.0], *(ends for _, _, ends, _ in grid)]))
        assert np.linalg.norm(states[-1] - u @ start) < 1e-12

    def test_a_bad_step_in_a_later_block_is_rejected(self):
        # One step of the second block leaves the unit sphere.
        base = gate_schedule()
        config = AdiabaticRunConfig(omega_T=10.0, steps=2 * FULL_BLOCK)
        bad = (FULL_BLOCK + 100 + 0.5) / config.steps  # a midpoint
        blocks = []

        def broken(progress):
            blocks.append(progress.size)
            values, derivatives = base.sample(progress)
            values[progress == bad] *= 1.001
            return values, derivatives

        # A trace also samples the drive at the first block's FULL_BLOCK + 1
        # row times, for its coupled states.
        for run, sampled in (
            (evolve_full_adiabatic, [FULL_BLOCK, FULL_BLOCK]),
            (lambda sch, cfg: evolve_state_full(sch, cfg, np.eye(4)[0]), [FULL_BLOCK, FULL_BLOCK + 1, FULL_BLOCK]),
        ):
            blocks.clear()
            with pytest.raises(NotNormalized, match=rf"<B\|B> - 1\| = 2\.001e-03 exceeds 1\.0e-10 at progress={bad:.6g}$"):
                run(drive(broken), config)
            assert blocks == sampled

    @pytest.mark.parametrize("excess, rejected", [(1e-9, True), (5e-11, False)])
    def test_normalization_is_checked_at_the_coupling_tolerance(self, excess, rejected):
        # |B|^2 - 1 = 1e-9 passes the 1e-8 frame check of the trajectory
        # routes; the full oracle keeps the coupling tolerance 1e-10.
        b = np.sqrt(1.0 + excess) * bright_state(CONSTANT_LAMBDA)
        run = lambda: evolve_full_adiabatic(held(b), AdiabaticRunConfig(omega_T=1.0, steps=64))
        if rejected:
            with pytest.raises(NotNormalized, match=r"= 1\.000e-09 exceeds 1\.0e-10 at progress=0\.0078125$"):
                run()
        else:
            run()

    def test_a_drive_of_two_bright_states_is_rejected(self):
        # The Lambda step has one bright state; a two-bright frame on four
        # levels is not silently cut to its first state.
        with pytest.raises(DimensionMismatch, match=r"one bright state per sample, \(M, 1, n\); got \(64, 2, 4\)"):
            evolve_full_adiabatic(planes_trajectory(1.0), AdiabaticRunConfig(omega_T=1.0, steps=64))

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


class TestLambdaPairs:
    """Closed-form products of two Lambda steps from run-shared planes."""

    @pytest.mark.parametrize("phase", [0.0, 1e-7, 0.37, np.pi / 2 - 1e-9], ids=["zero", "small", "mid", "near_half_pi"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("m", [1, 2, 7, 64, 65])
    def test_pairs_are_products_of_single_steps(self, rng, m, n, phase):
        # Complex bright states, so a transposed X, a dropped conj or a
        # wrong coefficient all show; an odd m ends on one single step.
        b = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        b /= np.linalg.norm(b, axis=1)[:, None]
        single = _lambda_step_factors(b, phase)
        half = m // 2
        want = np.einsum("ilk,ljk->ijk", single[:, :, 1 : 2 * half : 2], single[:, :, 0 : 2 * half : 2])
        want = np.concatenate([want, single[:, :, 2 * half :]], axis=2)
        # A buffer made for a longer block, as for a sweep's partial last block.
        pairs = _LambdaPairs(n, 2 * m + 3)
        pairs.load(b)
        got = pairs.factors(phase)
        assert got.shape == (n + 1, n + 1, half + m % 2)
        assert np.abs(got - want).max() <= 1e-15

    def test_one_buffer_serves_every_phase_and_block(self, rng):
        # A run does not change the shared planes, and a block of another
        # length or of real states (the buffer's float view) in between
        # leaves no trace: each result equals the one of a buffer made for
        # it alone, bit for bit.
        blocks = [rng.normal(size=(m, 3)) + 1j * rng.normal(size=(m, 3)) for m in (64, 33, 64)]
        blocks = [rng.normal(size=(64, 3)), *blocks[:2], rng.normal(size=(33, 3)), blocks[2]]
        blocks = [b / np.linalg.norm(b, axis=1)[:, None] for b in blocks]
        pairs = _LambdaPairs(3, 64)
        for b in blocks:
            pairs.load(b)
            alone = _LambdaPairs(3, len(b))
            alone.load(b)
            for phase in (0.3, 0.01, 1.2, 0.3):
                np.testing.assert_array_equal(pairs.factors(phase), alone.factors(phase))

    @pytest.mark.parametrize("steps", [FULL_BLOCK + 1, 2 * FULL_BLOCK + 37], ids=["one_step_tail", "odd_tail"])
    def test_a_traced_unitary_is_the_untraced_one(self, steps):
        # The trace scans single steps; the unitary always comes from the
        # pairs, so the trace does not move it by a bit.
        schedule = smoothly(gate_schedule())
        config = AdiabaticRunConfig(omega_T=40.0, steps=steps)
        traced = evolve_full_adiabatic(schedule, config, StateTrace(np.eye(4)[2], lambda *rows: None))
        untraced = evolve_full_adiabatic(schedule, config)
        assert np.array_equal(traced.unitary.matrix, untraced.unitary.matrix)
        assert traced.unitarity_error == untraced.unitarity_error

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_bright_state_is_not_normalized(self, bad):
        base = gate_schedule()

        def broken(progress):
            values, derivatives = base.sample(progress)
            values[5, 0, 1] = bad
            return values, derivatives

        with pytest.raises(NotNormalized, match=r"at progress=0\.171875$"):
            evolve_full_adiabatic(drive(broken), AdiabaticRunConfig(omega_T=1.0, steps=32))


class TestFullSweep:
    """One sampled drive per block feeds every Omega*T run of a sweep."""

    STEPS = 2 * FULL_BLOCK + 5  # the last block is partial

    @pytest.mark.parametrize("omega_Ts", [(40.0,), (40.0, 7.5, 130.0)], ids=["K1", "K3"])
    def test_equals_separate_runs_bit_for_bit(self, omega_Ts):
        schedule = smoothly(gate_schedule())
        configs = [AdiabaticRunConfig(omega_T=w, steps=self.STEPS) for w in omega_Ts]
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

    def test_runs_on_different_grids_rejected(self):
        configs = [AdiabaticRunConfig(omega_T=40.0, steps=self.STEPS), AdiabaticRunConfig(omega_T=7.5, steps=self.STEPS + 1)]
        with pytest.raises(ValueError, match=rf"must share steps, got \[{self.STEPS}, {self.STEPS + 1}\]"):
            evolve_full_sweep(gate_schedule(), configs)

    def test_memory_does_not_grow_with_the_run_count(self):
        # Each run reduces its factors block by block, so eight runs hold
        # one block of 6 x 6 factors at a time, as one run does.
        schedule = gate_schedule(n=5)

        def peak(runs):
            configs = [AdiabaticRunConfig(omega_T=40.0 + run, steps=4 * FULL_BLOCK) for run in range(runs)]
            tracemalloc.start()
            try:
                evolve_full_sweep(schedule, configs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8) < 1.25 * peak(1)

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="at least one run"):
            evolve_full_sweep(gate_schedule(), [])


def lambda_steps(b, phase):
    """exp(-i H dt) of the Lambda Hamiltonian |B><e| + h.c. for every row of
    the (M, n) bright states ``b``, one dense ``expm_hermitian`` each."""
    m, n = b.shape
    h = np.zeros((m, n + 1, n + 1), dtype=complex)
    h[:, :n, n], h[:, n, :n] = b, b.conj()
    return [expm_hermitian(each, phase).matrix for each in h]


def random_drive(rng, n):
    """The values of a random smooth complex bright path on [0, 1]: the
    normalized quadratic a + s b + s^2 c in C^n."""
    a, b, c = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(3))

    def values(times):
        v = a + times[:, None] * b + times[:, None] ** 2 * c
        return (v / np.linalg.norm(v, axis=1)[:, None])[:, None, :]

    return values


class TestRealForm:
    """The full oracle builds and multiplies its steps in the real form
    D^-1 F D, D = diag(1, ..., 1, i), in each piece's coordinates, and maps
    each product back."""

    def test_a_real_piece_runs_as_its_complex_copy_bit_for_bit(self):
        # The gate's rise and fall are real pieces, the fall's frame with
        # e^{i twist}; cast to complex128 they take the complex path, whose
        # unitaries and trace rows are the same bits after the embedding.
        spec = GateSpec(n=3, psi=np.array([0.6, 0.8, 0.0]), phase_twist=0.7, t1=0.3, t2=0.55, t3=1.0)
        real = stage_trajectory(spec)
        assert real.pieces[0].values(np.array([0.1])).dtype == float
        cast = BrightTrajectory(
            3, 1, [Piece(p.t_start, p.t_end, p.frame, p.sampler, lambda t, p=p: p.values(t).astype(complex)) for p in real.pieces]
        )
        configs = [AdiabaticRunConfig(omega_T=w, steps=2 * FULL_BLOCK + 5) for w in (40.0, 7.5)]
        for got, want in zip(evolve_full_sweep(real, configs), evolve_full_sweep(cast, configs)):
            assert np.array_equal(got.unitary.matrix, want.unitary.matrix)
            assert got.unitarity_error == want.unitarity_error
        start = np.array([0.6, 0.0, 0.8j, 0.0])
        for got, want in zip(evolve_state_full(real, configs[0], start), evolve_state_full(cast, configs[0], start)):
            assert np.array_equal(got, want)
        # The same path as complex pieces on all levels, with no frames and
        # the same edges, moves by rounding only.
        whole = frameless(real)
        for got, want in zip(evolve_full_sweep(real, configs), evolve_full_sweep(whole, configs)):
            assert np.abs(got.unitary.matrix - want.unitary.matrix).max() <= 1e-13

    @pytest.mark.parametrize("pieces", [False, True], ids=["complex", "straddled_edge"])
    def test_matches_dense_lambda_steps(self, rng, pieces):
        # An odd step count; with pieces, the edge at 0.3 lies off an equal
        # grid of [0, 1], so the grid gives the complex and the real piece
        # each its own steps.
        steps = 2 * FULL_BLOCK + 37
        full = random_drive(rng, 3)
        if pieces:
            complex_part = full

            def real_part(times):
                angle = 0.3 + 2.0 * times
                return np.stack([np.sin(angle), 0 * angle, np.cos(angle)], axis=1)[:, None, :]

            drive = BrightTrajectory(3, 1, (Piece(0.0, 0.3, None, None, complex_part), Piece(0.3, 1.0, None, None, real_part)))
            full = lambda times: np.where((times < 0.3)[:, None, None], complex_part(times), real_part(times))
        else:
            drive = BrightTrajectory(3, 1, (Piece(0.0, 1.0, None, None, full),))
        # The dense steps, at each piece's step width, go through the same
        # ordered product (a pairwise tree, then the polar projection); a
        # product taken one step at a time drifts by ~steps * eps.
        grid = list(_step_grid(drive, 0.0, 1.0, steps))
        for omega_T in (40.0, 3.0):
            config = AdiabaticRunConfig(omega_T=omega_T, steps=steps)
            dense = np.concatenate([np.stack(lambda_steps(full(mids)[:, 0], omega_T * width), axis=-1) for _, mids, _, width in grid], axis=-1)
            u = _unitary_product([(np.eye(4), dense, None)])[0].matrix
            assert np.abs(evolve_full_adiabatic(drive, config).unitary.matrix - u).max() <= 1e-13
            start = np.array([0.0, 0.6, 0.0, 0.8j])
            _, states = evolve_state_full(drive, config, start)
            assert np.abs(states - matmul_snapshots([dense], start)).max() <= 1e-12

    def test_a_midpoint_on_an_edge_is_sampled_by_the_piece_on_its_right(self):
        # Ten steps on the edges 0.25 and 0.45 go 3, 2 and 5 to the pieces,
        # so no midpoint lies on an edge; each piece samples its own
        # midpoints.  A trace's rows end each piece's steps on its right
        # edge, and the coupled states there are the next piece's.
        seen = [[], [], []]

        def recorded(index, values):
            return lambda times: seen[index].append(times.copy()) or values(times)

        b = bright_state(CONSTANT_LAMBDA)
        constant = lambda times: np.tile(b, (times.size, 1, 1))
        edges = (0.0, 0.25, 0.45, 1.0)
        pieces = [Piece(lo, hi, None, None, recorded(i, constant)) for i, (lo, hi) in enumerate(zip(edges, edges[1:]))]
        drive = BrightTrajectory(3, 1, pieces)
        config = AdiabaticRunConfig(omega_T=1.0, steps=10)
        evolve_full_adiabatic(drive, config)
        got = [np.concatenate(times) for times in seen]
        np.testing.assert_allclose(got[0], 0.25 * (np.arange(3) + 0.5) / 3, rtol=0, atol=1e-16)
        np.testing.assert_allclose(got[1], 0.25 + 0.2 * (np.arange(2) + 0.5) / 2, rtol=0, atol=1e-16)
        np.testing.assert_allclose(got[2], 0.45 + 0.55 * (np.arange(5) + 0.5) / 5, rtol=0, atol=1e-16)
        for lists in seen:
            lists.clear()
        times, _ = evolve_state_full(drive, config, np.eye(4)[0])
        assert 0.25 in times and 0.45 in times
        for (lo, hi), lists in zip(zip(edges, edges[1:]), seen):
            sampled = np.concatenate(lists)
            assert lo == sampled.min() and (sampled.max() < hi or hi == edges[-1])
        # ``values`` assigns a time on an edge the same way, in any order.
        for lists in seen:
            lists.clear()
        drive.values(np.array([0.45, 0.25, 0.1]))
        assert [np.concatenate(times).tolist() if times else [] for times in seen] == [[0.1], [0.25], [0.45]]
        # So does the gate: t1 and t2 are in the twist and the fall.
        spec = GateSpec(n=3, psi=np.array([0.6, 0.8, 0.0]), phase_twist=0.7, t1=0.25, t2=0.45, t3=1.0)
        gate = stage_trajectory(spec)
        parts = gate.split(np.array([0.05, 0.25, 0.35, 0.45]))
        assert [(piece.t_start, part.tolist()) for piece, part in parts] == [(0.0, [0.05]), (0.25, [0.25, 0.35]), (0.45, [0.45])]

    @pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
    def test_the_norm_check_rejects_a_deviation_at_the_bound(self, monkeypatch, dtype):
        # No float s near 1 has |s - 1| = 1e-10 exactly (every such s - 1 is
        # a multiple of 2^-53), so the bound moves to a deviation a state
        # reaches: |1 + 2^-34|^2 rounds to 1 + 2^-33.
        b = np.zeros((1, 1, 3), dtype=dtype)
        b[0, 0, 1] = (1.0 + 2.0**-34) * (1j if dtype is complex else 1.0)
        deviation, progress = 2.0**-33, np.array([0.5])
        monkeypatch.setattr(propagators, "COUPLING_NORM_TOL", deviation)
        with pytest.raises(NotNormalized, match=r"= 1\.164e-10 exceeds 1\.2e-10 at progress=0\.5$"):
            propagators._bright_states(b, progress)
        monkeypatch.setattr(propagators, "COUPLING_NORM_TOL", np.nextafter(deviation, 1.0))
        assert propagators._bright_states(b, progress).dtype == dtype


class TestStatePropagation:
    def full(self):
        schedule = held(bright_state(CONSTANT_LAMBDA))
        config = AdiabaticRunConfig(omega_T=1.9, steps=128)
        start = np.array([0.0, 0.0, 1.0, 0.0], dtype=complex)
        unitary = evolve_full_adiabatic(schedule, config).unitary
        _, states = evolve_state_full(schedule, config, start)
        return unitary, start, states, 1e-10

    def time_ordered(self):
        twisted = noncommuting_trajectories()[0]
        start = np.array([0.6, 0.8j, 0.0], dtype=complex)
        unitary = evolve_time_ordered(twisted, 0.0, 1.5, 257).unitary
        _, states = evolve_state_time_ordered(twisted, 0.0, 1.5, 257, start)
        return unitary, start, states, 1e-12

    @pytest.mark.parametrize("route", ["full", "time_ordered"])
    def test_state_propagation_matches_unitary(self, route):
        unitary, start, states, bound = getattr(self, route)()
        np.testing.assert_allclose(states[-1], unitary.matrix @ start, rtol=0, atol=bound)

    @pytest.mark.parametrize("steps", [0, -3])
    def test_time_ordered_rejects_empty_grid(self, steps):
        with pytest.raises(ValueError, match="steps"):
            evolve_state_time_ordered(noncommuting_trajectories()[0], 0.0, 1.0, steps, np.eye(3)[0])

    @pytest.mark.parametrize("t0, t1", [(1.0, 1.0), (1.0, 0.0)])
    def test_time_ordered_rejects_reversed_interval(self, t0, t1):
        with pytest.raises(ValueError, match="t1 > t0"):
            evolve_state_time_ordered(noncommuting_trajectories()[0], t0, t1, 8, np.eye(3)[0])


class TestOnePass:
    """One pass over the factor stream gives the unitary and the states."""

    DIMS = {"stirap-linear": 2, "stirap-smooth": 2, "gate-effective": 3, "gate-full": 4}

    def run(self, route, sink, start):
        trace = StateTrace(start, sink)
        if route.startswith("stirap"):
            trajectory = stirap_trajectory(np.pi / 2, route.split("-")[1])
            return evolve_time_ordered(trajectory, 0.0, 1.0, 4096, trace)
        spec = off_grid_gate()
        if route == "gate-effective":
            return simulate_gate(spec, 10_000, trace)
        return evolve_full_adiabatic(reference_gate_drive(spec), AdiabaticRunConfig(omega_T=2000.0, steps=65536), trace)

    def grid(self, route):
        """The step grid ``run`` lays for a route: the three-piece gates get
        blocks of one piece each."""
        if route.startswith("stirap"):
            return _step_grid(stirap_trajectory(np.pi / 2, route.split("-")[1]), 0.0, 1.0, 4096)
        spec = off_grid_gate()
        if route == "gate-effective":
            return _step_grid(stage_trajectory(spec), 0.0, spec.t3, 10_000)
        return _step_grid(reference_gate_drive(spec), 0.0, 1.0, 65536)

    @pytest.mark.parametrize("route", sorted(DIMS))
    def test_last_state_is_the_unitary_applied_to_the_start(self, route):
        # The state is never projected; the unitary is, through _polar, whose
        # drift unitarity_error reports.  A step that is unitary only to low
        # order moves both apart.
        start = np.zeros(self.DIMS[route], dtype=complex)
        start[:2] = 0.6, 0.8j
        blocks = []
        result = self.run(route, lambda times, states, coupled: blocks.append((times, states)), start)
        steps = result.steps
        assert [len(times) for times, _ in blocks] == [len(ends) + (i == 0) for i, (_, _, ends, _) in enumerate(self.grid(route))]
        assert sum(len(times) for times, _ in blocks) == steps + 1
        assert np.array_equal(blocks[0][1][0], start)
        assert np.linalg.norm(blocks[-1][1][-1] - result.unitary.matrix @ start) <= 1e-12
        assert result.unitarity_error <= 1e-12

    @pytest.mark.parametrize("route", ["time_ordered", "full"])
    def test_a_state_of_the_wrong_length_is_rejected_before_the_first_step(self, route):
        # The routes act on 2 (time-ordered) or 4 (full) levels; the state has 3.
        rows = []
        trace = StateTrace(np.ones(3, dtype=complex) / np.sqrt(3), lambda *block: rows.append(block))
        if route == "time_ordered":
            shapes = r"shape \(3,\), but the propagation acts on \(2,\)"
            run = lambda: evolve_time_ordered(rotating_trajectory(), 0.0, np.pi / 2, 64, trace)
        else:
            shapes = r"shape \(3,\), but the propagation acts on \(4,\)"
            run = lambda: evolve_full_adiabatic(held(bright_state(CONSTANT_LAMBDA)), AdiabaticRunConfig(omega_T=1.9, steps=64), trace)
        with pytest.raises(DimensionMismatch, match=shapes):
            run()
        assert rows == []

    @pytest.mark.parametrize("route", ["time_ordered", "full"])
    def test_the_sink_gets_the_states_the_drive_couples(self, route):
        # At every row's time: the bright states of the midpoint route's
        # trajectory; the bright state in n+1 levels, then the excited
        # level, for the full oracle.  Bit for bit, on a ragged run (a
        # ragged one-piece run, and three pieces for the oracle).
        steps = FULL_BLOCK + 3
        if route == "time_ordered":
            trajectory, (t0, t1) = noncommuting_trajectories()[1], (0.2, 1.5)
            start = np.array([0.6, 0.8j, 0.0, 0.0], dtype=complex)
            propagate = lambda trace: evolve_time_ordered(trajectory, t0, t1, steps, trace)
            want = trajectory.values
        else:
            trajectory, (t0, t1) = smoothly(gate_schedule()), (0.0, 1.0)
            start = np.array([0.6, 0.0, 0.8j, 0.0], dtype=complex)
            propagate = lambda trace: evolve_full_adiabatic(trajectory, AdiabaticRunConfig(omega_T=40.0, steps=steps), trace)
            want = lambda times: excited_and(trajectory.values(times))

        blocks = []
        propagate(StateTrace(start, lambda *block: blocks.append(block)))
        assert len(blocks) == len(list(_step_grid(trajectory, t0, t1, steps))) == (2 if route == "time_ordered" else 3)
        for times, states, coupled in blocks:
            assert coupled.shape == (len(times),) + want(times).shape[1:]
            assert np.array_equal(coupled, want(times))

    @pytest.mark.parametrize("route", ["time_ordered", "full"])
    def test_a_ragged_run_hands_the_sink_every_step_once(self, route):
        # One piece in two full blocks and a tail of 3, or the oracle's
        # three pieces: the sink gets the start row with the first block,
        # then each step's state once and in order, at its step's end on
        # the grid, ending on t1 and on every piece edge; the states are
        # those of a `factor @ psi` loop over the same factor stream, to
        # rounding: the scan reassociates the products (under 1e-14 apart
        # here).
        steps = 2 * FULL_BLOCK + 3
        if route == "time_ordered":
            trajectory, (t0, t1) = noncommuting_trajectories()[0], (0.2, 1.5)
            start = np.array([0.6, 0.8j, 0.0], dtype=complex)
            propagate = lambda trace: evolve_time_ordered(trajectory, t0, t1, steps, trace)
            factors = (planes for _, planes, _ in _midpoint_factors(trajectory, t0, t1, steps))
        else:
            trajectory, (t0, t1) = smoothly(gate_schedule()), (0.0, 1.0)
            config = AdiabaticRunConfig(omega_T=40.0, steps=steps)
            start = np.array([0.6, 0.0, 0.8j, 0.0], dtype=complex)
            propagate = lambda trace: evolve_full_adiabatic(trajectory, config, trace)
            factors = (
                mapped_back(_lambda_step_factors(trajectory.sample(mids)[0][:, 0], config.omega_T * width))
                for _, mids, _, width in _step_grid(trajectory, t0, t1, steps)
            )
        grid = list(_step_grid(trajectory, t0, t1, steps))
        blocks = []
        propagate(StateTrace(start, lambda *block: blocks.append(block)))
        assert [len(times) for times, _, _ in blocks] == [len(ends) + (i == 0) for i, (_, _, ends, _) in enumerate(grid)]
        if route == "time_ordered":
            assert [len(times) for times, _, _ in blocks] == [FULL_BLOCK + 1, FULL_BLOCK, 3]
        times, states, _ = map(np.concatenate, zip(*blocks))
        np.testing.assert_array_equal(times, np.concatenate([[t0], *(ends for _, _, ends, _ in grid)]))
        assert times[0] == t0 and times[-1] == t1 and (np.diff(times) > 0).all()
        assert set(trajectory.breakpoints) <= set(times.tolist())
        assert np.abs(states - matmul_snapshots(factors, start)).max() <= 1e-13


class TestBlockedScan:
    """The trace's blocked scan over blocks of every chunk shape."""

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("m", [1, 2, 63, 64, 65, FULL_BLOCK, FULL_BLOCK + 3])
    def test_rows_are_the_step_by_step_states(self, rng, m, dim):
        # Two blocks of m random unitary steps.  m = 65 and FULL_BLOCK + 3
        # leave a ragged last chunk; d = 4 hands the scan the strided view
        # of an (m, d, d) stack that the k >= 2 route makes.
        def block():
            z = rng.normal(size=(m, dim, dim)) + 1j * rng.normal(size=(m, dim, dim))
            stack = np.linalg.qr(z)[0]
            return stack.transpose(1, 2, 0) if dim == 4 else np.ascontiguousarray(stack.transpose(1, 2, 0))

        blocks = [block(), block()]
        start = np.exp(0.3j * np.arange(dim)) / np.sqrt(dim)
        handed = []
        clock = lambda times: times[:, None, None]  # coupled states that name their own times
        step = _traced(StateTrace(start, lambda *rows: handed.append(rows)), 0.5, dim, clock)
        ends = 0.5 + 1.5 * np.arange(1, 2 * m + 1) / (2 * m)
        for planes, block_ends in zip(blocks, (ends[:m], ends[m:])):
            block = (np.eye(dim), planes, block_ends)
            assert step(block) is block
        assert [len(times) for times, _, _ in handed] == [m + 1, m]
        times, states, coupled = map(np.concatenate, zip(*handed))
        assert np.array_equal(coupled, clock(times))
        assert np.array_equal(times, np.append(0.5, ends))
        assert np.array_equal(states[0], start)
        assert np.abs(states - matmul_snapshots(blocks, start)).max() <= 1e-13


class TestDarkBlockAndLeakage:
    def test_identity_block(self):
        frame = np.eye(4)[:2]
        np.testing.assert_allclose(dark_block(UnitaryOperator(np.eye(4)), frame, frame), np.eye(2), atol=0)

    def test_block_entries_are_matrix_elements(self, rng):
        u = random_unitary(rng, 4)
        frame = np.eye(4)[:2]
        blk = dark_block(UnitaryOperator(u), frame, frame)
        np.testing.assert_allclose(blk, u[:2, :2], atol=1e-15)

    def test_subunitarity_measures_leakage(self):
        # A rotation that mixes the dark frame with outside levels makes the
        # block strictly sub-unitary.
        theta = 0.3
        u = np.eye(3, dtype=complex)
        u[1, 1] = u[2, 2] = np.cos(theta)
        u[1, 2], u[2, 1] = -np.sin(theta), np.sin(theta)
        frame = np.eye(3)[:2]
        blk = dark_block(UnitaryOperator(u), frame, frame)
        defect = np.linalg.norm(blk.conj().T @ blk - np.eye(2))
        assert abs(defect - np.sin(theta) ** 2) < 1e-12

    def test_a_larger_end_frame_gives_a_rectangular_block(self):
        # U takes |0> to cos 0.7 |1> + sin 0.7 |2>: it leaks nothing out of
        # span{|1>, |2>}, and sin^2 0.7 of its population out of span{|1>}.
        swap = UnitaryOperator(np.eye(3)[[1, 0, 2]])
        u = expm_hermitian(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1j], [0.0, 1j, 0.0]]), 0.7) @ swap
        start, end = np.eye(3)[:1], np.eye(3)[1:]
        block = dark_block(u, start, end)
        np.testing.assert_allclose(block, [[np.cos(0.7)], [np.sin(0.7)]], atol=1e-15)
        assert leakage(block) == pytest.approx(0.0, abs=1e-15)
        assert leakage(dark_block(u, start, end[:1])) == pytest.approx(np.sin(0.7) ** 2, abs=1e-15)
        with pytest.raises(ValueError):
            dark_block(u, start, np.eye(4)[:2])

    def test_leakage_zero_for_geometric_propagation(self):
        traj = rotating_trajectory(0.9)
        res = evolve_time_ordered(traj, traj.t_start, traj.t_end, 512)
        # The dark ray follows (-sin t, cos t); the full 2-dim space splits
        # into bright + dark, so transporting the dark start must land in
        # the dark end ray.
        dark_start = np.atleast_2d([0.0, 1.0]).astype(complex)
        end = np.array([-np.sin(0.9), np.cos(0.9)], dtype=complex)
        assert leakage(dark_block(res.unitary, dark_start, [end])) < 1e-10

    def test_leakage_is_the_worst_dark_input(self):
        # Dark inputs |0> and |1> leak 0.3 and 0.1 of their population into
        # |2> and |3>: the worst case is 0.3, not the best or the mean.
        u = np.eye(4, dtype=complex)
        for dark, bright, lost in ((0, 2, 0.3), (1, 3, 0.1)):
            keep, leak = np.sqrt(1.0 - lost), np.sqrt(lost)
            u[[dark, bright, dark, bright], [dark, bright, bright, dark]] = keep, keep, -leak, leak
        frame = np.eye(4)[:2]
        assert leakage(dark_block(UnitaryOperator(u), frame, frame)) == pytest.approx(0.3, abs=1e-15)

    def test_leakage_does_not_depend_on_the_dark_basis(self):
        # A rotation by 0.4 between v = (|0> + |1>)/sqrt 2 and |2> leaks
        # sin^2 0.4 of v and half that of |0> and of |1>.  The worst dark
        # input is v, whichever basis of span{|0>, |1>} the frame lists:
        # (|0>, |1>) and its 45-degree rotation (v, w) read the same.
        v, w = np.array([1.0, 1.0, 0.0]) / np.sqrt(2), np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
        coupling = np.outer(v, np.eye(3)[2])
        u = expm_hermitian(coupling + coupling.T, 0.4)
        frame = np.eye(3)[:2]
        for listed in (frame, np.array([v, w])):
            assert leakage(dark_block(u, listed, frame)) == pytest.approx(np.sin(0.4) ** 2, abs=1e-15)

    def test_leakage_constant_full_hamiltonian(self):
        c = CouplingSet(omega=1.0, r=np.array([0.6, 0.8]), phi=np.zeros(2))
        res = evolve_full_adiabatic(held(bright_state(c)), AdiabaticRunConfig(omega_T=7.7, steps=512))
        d = np.array([0.8, -0.6, 0.0], dtype=complex)
        assert leakage(dark_block(res.unitary, [d], [d])) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(3, 6),
        sizes=st.tuples(st.integers(1, 6), st.integers(0, 5)),
        same_span=st.booleans(),
    )
    def test_leakage_is_the_projector_formula(self, seed, dim, sizes, same_span):
        # The block's 1 - lambda_min(B^dag B) against the n x n projector
        # formula it replaces, 1 - lambda_min(S U^dag P_E U S^dag), on a
        # random unitary, for an end frame that spans the start frame's
        # span in another basis or a different, at least as large, subspace.
        rng = np.random.default_rng(seed)
        u = random_unitary(rng, dim)
        k_start = min(sizes[0], dim)
        k_end = k_start if same_span else min(k_start + sizes[1], dim)
        start = random_unitary(rng, dim)[:k_start]
        end = random_unitary(rng, k_start) @ start if same_span else random_unitary(rng, dim)[:k_end]

        def projector_formula(start, end):
            p_end = end.T @ end.conj()
            p_end = (p_end + p_end.conj().T) / 2.0
            images = start @ u.T
            return 1.0 - np.linalg.eigvalsh(images.conj() @ p_end @ images.T)[0]

        value = leakage(dark_block(UnitaryOperator(u), start, end))
        assert value == pytest.approx(projector_formula(start, end), abs=1e-13)
        # The gate's logical frame: identity rows.
        rows = np.eye(dim)[:k_start], np.eye(dim)[:k_end]
        assert leakage(dark_block(UnitaryOperator(u), *rows)) == pytest.approx(projector_formula(*rows), abs=1e-15)
        # Any orthonormal basis of either span reads the same value.
        turned_start, turned_end = random_unitary(rng, k_start) @ start, random_unitary(rng, k_end) @ end
        for frames in ((turned_start, end), (start, turned_end)):
            assert leakage(dark_block(UnitaryOperator(u), *frames)) == pytest.approx(value, abs=1e-13)


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
        # Each piece scales its own coordinates' derivatives by f', bit for
        # bit, before its frame maps them: within a rounding of each entry.
        for (piece, part), base in zip(remapped.split(times), traj.pieces):
            got, want = piece.sampler(part)[1], base.sampler(part * part)[1]
            assert np.array_equal(got, (2.0 * part)[:, None, None] * want)
        want = (2.0 * times)[:, None, None] * base_derivatives
        assert np.all(np.abs(derivatives - want) <= 1e-15 * np.abs(want))

    def test_pieces_keep_their_frames_and_real_coordinates(self):
        # The gate's path on the progress clock: a real rise, a complex
        # twist and a real fall whose frame carries e^{i twist}, remapped
        # onto the smooth clock.
        spec = GateSpec(n=4, psi=np.array([0.6, 0.0, 0.8j, 0.0]), phase_twist=2.1, t1=0.4, t2=0.9, t3=1.7)
        core = gate_coupling_schedule(spec)
        smooth = lambda s: ramp_value("smooth", s)
        remapped = reparametrize(core, smooth, lambda s: ramp_rate("smooth", s), 0.0, 1.0)
        assert len(remapped.pieces) == 3
        for piece, base in zip(remapped.pieces, core.pieces):
            assert piece.frame is base.frame
        for index in (0, 2):
            piece = remapped.pieces[index]
            part = np.linspace(piece.t_start, piece.t_end, 9)
            assert piece.values(part).dtype == np.float64
            assert piece.sampler(part)[1].dtype == np.float64
        assert not np.array_equal(remapped.pieces[2].frame, remapped.pieces[0].frame)
        # Midpoints of a ragged grid, both ends and the moved edges.
        times = np.concatenate([(np.arange(1037) + 0.5) / 1037, [0.0, 1.0], remapped.breakpoints])
        assert np.array_equal(remapped.values(times), core.values(smooth(times)))

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

    @pytest.mark.parametrize("t0, t1", [(0.5, 0.5), (0.8, 0.2), (0.0, np.nan)], ids=["empty", "reversed", "nan"])
    def test_a_new_clock_that_does_not_run_forward_raises_before_f_is_called(self, t0, t1):
        # The identity map increases; the fault is the clock, which the step
        # grid's message names.  The parent blamed f with NonMonotoneMap on
        # the empty and reversed clocks.
        calls = []
        identity = lambda t: calls.append(t) or t
        with pytest.raises(ValueError, match=rf"^need t1 > t0, got \[{t0}, {t1}\]$"):
            reparametrize(stirap_trajectory(np.pi / 2), identity, lambda t: 1.0 + 0.0 * t, t0, t1)
        assert calls == []

    def test_map_leaving_the_base_domain_names_both_intervals(self):
        # f = 2t on [0, 1]: the message gives the image's two ends, f(0) and f(1).
        traj = stage_trajectory(off_grid_gate())
        with pytest.raises(ValueError) as caught:
            reparametrize(traj, lambda t: 2.0 * t, lambda t: 2.0 + 0.0 * t, 0.0, 1.0)
        assert str(caught.value) == "f maps [0, 1] onto [0, 2], outside the trajectory's [0, 1]"

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
