import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brightpath.berry import (
    CLOSURE_TOL,
    COORDINATES,
    GAUSS_NODES,
    MAX_EDGE_POINTS,
    SIGMA_Y,
    ConnectionMatrices,
    ParameterPath,
    _connections,
    _loop_trajectory,
    connection_at,
    effective_dark_block,
    holonomy,
    rectangle_loop,
    u_y_analytic,
    u_z_analytic,
)
from brightpath.effective import h_eff_couplings
from brightpath.errors import PathVariesFixedCoordinates, SegmentTooCoarse
from brightpath.lambda_system import (
    SphericalAngles,
    _angle_couplings,
    bright_state,
    coupling_rates_from_angles,
    couplings_from_angles,
    dark_basis_parametrized,
)
from brightpath.linalg import UnitaryOperator, _expm_hermitian_stack, _ordered_product, expm_hermitian
from brightpath.propagators import FULL_BLOCK, dark_block
from conftest import midpoint_reference, reversed_path


def finite_difference_connection(angles: np.ndarray, h: float = 1e-5) -> list[np.ndarray]:
    """Independent oracle: A_k[i, j] = <d_i | (d_j(l + h e_k) - d_j(l - h e_k)) / 2h>."""
    base = dark_basis_parametrized(SphericalAngles(*angles))
    out = []
    for k in range(4):
        up = angles.copy()
        dn = angles.copy()
        up[k] += h
        dn[k] -= h
        dp = dark_basis_parametrized(SphericalAngles(*up))
        dm = dark_basis_parametrized(SphericalAngles(*dn))
        a_k = np.empty((2, 2), dtype=complex)
        for i in range(2):
            for j in range(2):
                a_k[i, j] = np.vdot(base[i], (dp[j] - dm[j]) / (2 * h))
        out.append(a_k)
    return out


def per_point_holonomy(path: ParameterPath) -> np.ndarray:
    """Reference holonomy built from one ``connection_at`` call per Gauss point."""
    deltas = np.diff(path.samples, axis=0)

    def exponents_at(node: float) -> np.ndarray:
        points = path.samples[:-1] + node * deltas
        connections = np.array([connection_at(SphericalAngles(*p)).as_list() for p in points], dtype=complex)
        return np.sum(connections.reshape(-1, 4, 2, 2) * deltas[:, :, None, None], axis=1)

    e1, e2 = (exponents_at(node) for node in GAUSS_NODES)
    exponents = 0.5 * (e1 + e2) - (np.sqrt(3.0) / 12.0) * (e2 @ e1 - e1 @ e2)
    return _ordered_product(_expm_hermitian_stack(-1j * exponents, 1.0).transpose(1, 2, 0))


def per_segment_dark_block(path: ParameterPath, steps_per_segment: int) -> np.ndarray:
    """Reference effective route: one scalar midpoint run of h_eff_couplings
    per segment, in local time [0, 1], skipping segments of zero length."""
    u = np.eye(3, dtype=complex)
    for start, end in zip(path.samples[:-1], path.samples[1:]):
        delta = end - start
        if np.max(np.abs(delta)) == 0.0:
            continue

        def generator(t, start=start, delta=delta):
            angles = SphericalAngles(*(start + t * delta))
            rdot, phidot = coupling_rates_from_angles(angles, delta)
            return h_eff_couplings(couplings_from_angles(angles), rdot, phidot)

        u = midpoint_reference(generator, 0.0, 1.0, steps_per_segment) @ u
    start, end = (dark_basis_parametrized(SphericalAngles(*path.samples[i])) for i in (0, -1))
    return dark_block(UnitaryOperator(u), start, end)


def circle_path(c1: float, c2: float, radius: float, segments: int) -> ParameterPath:
    """Closed polyline around (theta1, theta2) = (c1, c2) with a phi2/phi3 wobble."""
    s = np.linspace(0.0, 2 * np.pi, segments + 1)
    samples = np.stack([c1 + radius * np.cos(s), c2 + radius * np.sin(s), 0.1 * np.sin(2 * s), 0.3 * np.sin(s)], axis=1)
    samples[-1] = samples[0]
    return ParameterPath(samples, closed=True)


def repeated_samples() -> ParameterPath:
    """A closed polyline with every fifth sample taken three times, so it has
    segments of zero length (its first and last samples among them)."""
    rows = circle_path(0.6, 0.7, 0.15, 30).samples
    return ParameterPath(np.repeat(rows, np.where(np.arange(len(rows)) % 5 == 0, 3, 1), axis=0), closed=True)


def triangle_loop(plane: tuple[str, str], points_per_edge: int) -> ParameterPath:
    """Closed triangle with corners (0.2, 0.1), (1.1, 0.4), (0.5, 1.2) in the
    plane of two coordinates: every edge moves both."""
    corners = np.array([(0.2, 0.1), (1.1, 0.4), (0.5, 1.2)])
    fracs = np.linspace(0.0, 1.0, points_per_edge + 1)[1:, None]
    edges = [a + fracs * (b - a) for a, b in zip(corners, np.roll(corners, -1, axis=0))]
    samples = np.zeros((3 * points_per_edge + 1, 4))
    samples[:, [COORDINATES.index(name) for name in plane]] = np.concatenate([corners[:1], *edges])
    return ParameterPath(samples, closed=True)


def bits(a: np.ndarray) -> np.ndarray:
    """The raw 64-bit words of a float or complex array, so that -0 and +0 differ."""
    return np.ascontiguousarray(a).view(np.uint64)


def stacked_loop_sample(path: ParameterPath, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The loop path's bright states and their derivatives, (M, 3) each, by
    the stacked formulas B = r e^{i phi} and Bdot = (rdot + i r phidot)
    e^{i phi} on all three levels at once: the sampler's reference."""
    deltas = np.diff(path.samples, axis=0)
    moving = np.max(np.abs(deltas), axis=1) > 0.0
    starts, deltas = path.samples[:-1][moving], deltas[moving]
    segment = np.minimum(times.astype(int), len(deltas) - 1)
    rates = deltas[segment]
    angles = starts[segment] + (times - segment)[:, None] * rates
    r, phi, rdot, phidot = (x.T for x in _angle_couplings(angles.T, rates.T))
    phase = np.exp(1j * phi)
    return r * phase, (rdot + 1j * r * phidot) * phase


class TestParameterPath:
    def test_closure_enforced(self):
        with pytest.raises(ValueError):
            ParameterPath(np.array([[0.0, 0, 0, 0], [0.05, 0, 0, 0]]), closed=True)

    def test_closure_tolerance_is_exclusive(self):
        # Ends that differ by exactly CLOSURE_TOL are refused; by one float
        # less, the path is closed.
        def loop(last_theta1):
            return ParameterPath(np.array([[0.0, 0.3, 0, 0], [0.05, 0.3, 0, 0], [last_theta1, 0.3, 0, 0]]), closed=True)

        with pytest.raises(ValueError, match="closed path endpoints differ by 1.000e-12"):
            loop(1e-12)
        assert loop(np.nextafter(CLOSURE_TOL, 0)).closed

    def test_coarse_segment_flagged_by_integrators(self):
        path = ParameterPath(np.array([[0.0, 0, 0, 0], [0.5, 0, 0, 0], [0.0, 0, 0, 0]]), closed=True)
        with pytest.raises(SegmentTooCoarse):
            holonomy(path)

    def test_rectangle_helper_is_closed_and_fine(self):
        path = rectangle_loop("theta1", "theta2", 1.0, 0.8)
        assert path.closed
        path.check_resolution()

    @pytest.mark.parametrize(
        "side_a, points_per_edge, named",
        [
            (np.nan, 32, "side_a"),
            (np.inf, 32, "side_a"),
            (1e7, 32, "side_a"),
            (1e300, 32, "side_a"),
            (1.0, 10**12, "points_per_edge"),
        ],
    )
    def test_rectangle_rejects_unbounded_edges_before_building(self, side_a, points_per_edge, named):
        with pytest.raises(ValueError, match=f"^{named} must"):
            rectangle_loop("theta1", "theta2", side_a, 0.8, points_per_edge)

    def test_rectangle_edge_limit_is_inclusive(self):
        side = 0.05 * (MAX_EDGE_POINTS - 1)
        path = rectangle_loop("theta2", "phi3", side, 0.1)
        assert path.samples.shape[0] == 1 + 2 * (MAX_EDGE_POINTS + 32)


class TestConnectionAt:
    def test_theta1_component_vanishes(self, rng):
        for _ in range(5):
            c = connection_at(SphericalAngles(*rng.uniform(-2, 2, size=4)))
            assert np.max(np.abs(c.a_theta1)) == 0.0

    def test_axis_theta1_zero(self):
        c = connection_at(SphericalAngles(theta1=0.0, theta2=0.77))
        np.testing.assert_allclose(c.a_theta2, np.zeros((2, 2)), atol=1e-15)
        np.testing.assert_allclose(c.a_phi2, 1j * np.diag([0.0, np.cos(0.77) ** 2]), atol=1e-15)

    def test_first_pole_phi2(self):
        c = connection_at(SphericalAngles(theta1=np.pi / 2, theta2=0.0))
        np.testing.assert_allclose(c.a_phi2, 1j * np.diag([0.0, 1.0]), atol=1e-15)

    def test_anti_hermitian(self, rng):
        for _ in range(10):
            c = connection_at(SphericalAngles(*rng.uniform(-2, 2, size=4)))
            for a_k in c.as_list():
                assert np.max(np.abs(a_k + a_k.conj().T)) < 1e-12

    def test_matches_finite_difference_oracle(self, rng):
        worst = 0.0
        for _ in range(100):
            angles = rng.uniform(-1.4, 1.4, size=4)
            closed = connection_at(SphericalAngles(*angles)).as_list()
            oracle = finite_difference_connection(angles)
            for a_c, a_o in zip(closed, oracle):
                worst = max(worst, float(np.max(np.abs(a_c - a_o))))
        assert worst < 1e-6

    def test_constructor_rejects_nan(self):
        nan = np.array([[0.0, np.nan], [0.0, 0.0]])
        with pytest.raises(ValueError, match="a_theta2 is not anti-Hermitian"):
            ConnectionMatrices(np.zeros((2, 2)), nan, np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="not anti-Hermitian"):
            connection_at(SphericalAngles(0.1, np.nan))

    def test_scalar_is_the_stacked_row(self, rng):
        points = np.vstack([rng.uniform(-2, 2, size=(61, 4)), [[0.0, 0.0, 0.0, 0.0], [np.pi / 2, -np.pi / 2, 1.0, -1.0]]])
        stacked = _connections(points)
        for point, row in zip(points, stacked):
            assert np.array_equal(np.array(connection_at(SphericalAngles(*point)).as_list()), row)

    def test_constructor_rejects_nonzero_theta1_component(self):
        with pytest.raises(ValueError):
            ConnectionMatrices(
                np.array([[0, 1e-3], [-1e-3, 0]]),
                np.zeros((2, 2)),
                np.zeros((2, 2)),
                np.zeros((2, 2)),
            )


class TestHolonomy:
    def test_point_path_is_identity(self):
        path = ParameterPath(np.zeros((1, 4)), closed=True)
        np.testing.assert_allclose(holonomy(path).matrix, np.eye(2), atol=0)

    def test_theta_rectangle_closed_form(self):
        a, b = 1.0, 0.8
        path = rectangle_loop("theta1", "theta2", a, b)
        expected = expm_hermitian(SIGMA_Y * b * np.sin(a), 1.0).matrix
        assert np.linalg.norm(holonomy(path).matrix - expected) < 1e-8

    def test_phi3_rectangle_closed_form(self):
        b, c = 0.9, 1.1
        path = rectangle_loop("theta2", "phi3", b, c)
        expected = np.diag([1.0, np.exp(-1j * c * np.sin(b) ** 2)])
        assert np.linalg.norm(holonomy(path).matrix - expected) < 1e-8

    def test_concatenation_is_ordered_product(self):
        first = rectangle_loop("theta1", "theta2", 0.8, 0.5)
        second = rectangle_loop("theta2", "phi3", 0.7, 0.9)
        joined = ParameterPath(np.vstack([first.samples, second.samples[1:]]), closed=True)
        product = holonomy(second).matrix @ holonomy(first).matrix
        assert np.linalg.norm(holonomy(joined).matrix - product) < 1e-12

    def test_fourth_order_in_the_segment_length(self):
        # Each halving of every segment of a smooth loop that moves all four
        # coordinates cuts the error against a fine reference about 16x.
        t = np.linspace(0.0, 2 * np.pi, 21)
        corners = np.stack(
            [0.7 + 0.3 * np.cos(t), 0.6 + 0.3 * np.sin(t), 0.2 + 0.15 * np.sin(2 * t), 0.4 + 0.3 * np.sin(t + 0.5)], axis=1
        )
        corners[-1] = corners[0]

        def subdivided(k):
            fractions = np.arange(k) / k
            inner = corners[:-1, None, :] + fractions[None, :, None] * np.diff(corners, axis=0)[:, None, :]
            return ParameterPath(np.vstack([inner.reshape(-1, 4), corners[-1:]]), closed=True)

        reference = holonomy(subdivided(64)).matrix
        errors = [np.linalg.norm(holonomy(subdivided(k)).matrix - reference) for k in (2, 4, 8)]
        for coarse, halved in zip(errors, errors[1:]):
            assert 12.0 < coarse / halved < 20.0

    @pytest.mark.parametrize(
        "path",
        [rectangle_loop("theta1", "theta2", 1.0, 0.8), rectangle_loop("theta2", "phi3", 0.9, 1.1), circle_path(0.7, 0.6, 0.2, 67)],
        ids=["theta-rectangle", "phi3-rectangle", "polyline"],
    )
    def test_matches_per_point_connections(self, path):
        assert np.array_equal(holonomy(path).matrix, per_point_holonomy(path))

    def test_reversed_loop_is_inverse(self):
        path = rectangle_loop("theta1", "theta2", 1.0, 0.8)
        u = holonomy(path).matrix
        u_back = holonomy(reversed_path(path)).matrix
        np.testing.assert_allclose(u_back @ u, np.eye(2), atol=1e-12)


class TestAnalyticLoopFormulas:
    def test_u_y_rectangle(self):
        a, b = 1.0, 0.8
        path = rectangle_loop("theta1", "theta2", a, b)
        expected = expm_hermitian(SIGMA_Y * b * np.sin(a), 1.0).matrix
        np.testing.assert_allclose(u_y_analytic(path).matrix, expected, atol=1e-12)

    def test_u_y_retraced_loop_is_identity(self):
        out = np.linspace(0.0, 0.9, 12)
        samples = np.zeros((23, 4))
        samples[:12, 0] = out
        samples[12:, 0] = out[::-1][1:]
        path = ParameterPath(samples, closed=True)
        np.testing.assert_allclose(u_y_analytic(path).matrix, np.eye(2), atol=1e-12)

    def test_u_y_agrees_with_holonomy(self):
        path = rectangle_loop("theta1", "theta2", 0.7, 1.1)
        assert np.linalg.norm(u_y_analytic(path).matrix - holonomy(path).matrix) < 1e-8

    def test_u_y_rejects_moving_phases(self):
        path = rectangle_loop("theta1", "phi3", 0.5, 0.5)
        with pytest.raises(PathVariesFixedCoordinates):
            u_y_analytic(path)

    def test_u_z_pi_integral_gives_z_gate(self):
        # Loop reaching theta2 = pi/2 with a phi3 sweep of pi: the integral
        # is exactly pi only on the sweep edge, where sin(theta2) = 1; the
        # return edge at theta2 = 0 contributes nothing.
        path = rectangle_loop("theta2", "phi3", np.pi / 2, np.pi)
        np.testing.assert_allclose(u_z_analytic(path).matrix, np.diag([1.0, -1.0]), atol=1e-12)

    def test_u_z_agrees_with_holonomy(self):
        path = rectangle_loop("theta2", "phi3", 0.8, 1.3)
        assert np.linalg.norm(u_z_analytic(path).matrix - holonomy(path).matrix) < 1e-8

    @pytest.mark.parametrize("analytic, plane", [(u_y_analytic, ("theta1", "theta2")), (u_z_analytic, ("theta2", "phi3"))])
    def test_second_order_on_a_diagonal_triangle(self, analytic, plane):
        # On a rectangle the moving coordinate's weight is constant on every
        # edge that moves it, so any quadrature rule is exact there.  A
        # triangle's edges move both: the trapezoid's distance from the
        # holonomy falls fourfold per doubling of the points, a left rule's
        # only twofold.
        paths = [triangle_loop(plane, points) for points in (16, 32, 64)]
        errors = [np.linalg.norm(analytic(path).matrix - holonomy(path).matrix) for path in paths]
        orders = np.log2(np.array(errors[:-1]) / errors[1:])
        assert np.all(np.abs(orders - 2.0) <= 0.02), (errors, orders)

    def test_u_z_checks_the_pin_before_the_resolution(self):
        # theta1 constant but not 0, on a loop too coarse for the resolution check.
        samples = [[0.3, 0.0, 0.0, 0.0], [0.3, 0.5, 0.0, 0.0], [0.3, 0.5, 0.0, 0.5], [0.3, 0.0, 0.0, 0.0]]
        with pytest.raises(PathVariesFixedCoordinates, match="theta1 must be pinned to 0"):
            u_z_analytic(ParameterPath(samples, closed=True))

    def test_u_z_requires_theta1_pinned(self):
        path = rectangle_loop("theta1", "phi3", 0.5, 0.5)
        with pytest.raises(PathVariesFixedCoordinates):
            u_z_analytic(path)


class TestCrossMethod:
    def test_universality_witness_commutator(self):
        # Two loop families generating rotations about different axes: with
        # both line integrals equal to pi/4 the holonomies must not commute.
        a = 1.0
        path_y = rectangle_loop("theta1", "theta2", a, (np.pi / 4) / np.sin(a))
        b = 1.0
        path_z = rectangle_loop("theta2", "phi3", b, (np.pi / 4) / np.sin(b) ** 2)
        u_y = holonomy(path_y).matrix
        u_z = holonomy(path_z).matrix
        assert np.linalg.norm(u_y @ u_z - u_z @ u_y) > 0.1

    def test_master_property_theta_rectangle(self):
        path = rectangle_loop("theta1", "theta2", 1.0, 0.8)
        assert np.linalg.norm(holonomy(path).matrix - effective_dark_block(path)) < 1e-6

    def test_master_property_phi3_rectangle(self):
        path = rectangle_loop("theta2", "phi3", 1.0, 0.9)
        assert np.linalg.norm(holonomy(path).matrix - effective_dark_block(path)) < 1e-6

    def test_master_property_generic_four_coordinate_loop(self):
        # A smooth loop moving all four parameters at once; this is the
        # sign-sensitive case for the phi2/phi3 connection off-diagonals.
        t = np.linspace(0.0, 1.0, 400)
        bump = np.sin(np.pi * t) ** 2
        samples = np.stack([0.6 * bump, 0.5 * np.sin(2 * np.pi * t) ** 2, 0.8 * bump, 1.1 * bump], axis=1)
        path = ParameterPath(samples, closed=True)
        assert np.linalg.norm(holonomy(path).matrix - effective_dark_block(path, steps_per_segment=8)) < 1e-6

    @staticmethod
    def off_origin_loop():
        # All four coordinates move on a loop whose first sample is not the
        # parameter origin, so the dark frames at its ends are not unit vectors.
        t = np.linspace(0.0, 2 * np.pi, 201)
        samples = np.stack(
            [0.7 + 0.15 * np.cos(t), 0.6 + 0.15 * np.sin(t), 0.2 + 0.075 * np.sin(2 * t), 0.4 + 0.15 * np.sin(t + 0.5)],
            axis=1,
        )
        samples[-1] = samples[0]
        return samples

    def test_master_property_closed_loop_off_the_origin(self):
        path = ParameterPath(self.off_origin_loop(), closed=True)
        assert np.linalg.norm(holonomy(path).matrix - effective_dark_block(path, steps_per_segment=8)) < 1e-6

    def test_master_property_open_path(self):
        # An open path ends in a different dark frame than it starts in.
        path = ParameterPath(self.off_origin_loop()[:100])
        assert np.linalg.norm(holonomy(path).matrix - effective_dark_block(path, steps_per_segment=8)) < 1e-6


class TestBatchedEffectiveRoute:
    """The one streamed run over the whole path against the per-segment route."""

    @pytest.mark.parametrize("steps", [1, 8, 64])
    @pytest.mark.parametrize(
        "path",
        [
            rectangle_loop("theta1", "theta2", 0.3, 0.2, points_per_edge=4),
            rectangle_loop("theta2", "phi3", 0.25, 0.4, points_per_edge=5),
            circle_path(0.7, 0.6, 0.15, 24),
            ParameterPath(circle_path(0.5, 0.9, 0.15, 24).samples[:15]),
            repeated_samples(),
        ],
        ids=["theta-rectangle", "phi3-rectangle", "polyline", "open-polyline", "repeated-samples"],
    )
    def test_matches_per_segment_route(self, path, steps):
        assert np.max(np.abs(effective_dark_block(path, steps) - per_segment_dark_block(path, steps))) <= 1e-12

    def test_step_count_crossing_a_block_at_a_non_multiple(self):
        path = circle_path(0.7, 0.6, 0.2, 67)
        assert 67 * 64 > FULL_BLOCK and (67 * 64) % FULL_BLOCK
        assert np.max(np.abs(effective_dark_block(path, 64) - per_segment_dark_block(path, 64))) <= 1e-12

    def test_point_path_is_identity(self):
        for samples in (np.zeros((1, 4)), np.full((3, 4), 0.3)):
            block = effective_dark_block(ParameterPath(samples, closed=True))
            np.testing.assert_allclose(block, np.eye(2), atol=1e-15)

    @pytest.mark.parametrize("centre", [(-0.2, 0.8), (1.5, 1.6)])
    def test_negative_amplitudes_rejected(self, centre):
        with pytest.raises(ValueError, match="amplitude fractions r_i must be non-negative"):
            effective_dark_block(circle_path(*centre, 0.15, 64))


class TestLoopSampler:
    """The loop path's sampler writes the formulas of the angle-parametrized
    drive column by column; it must give their stacked values bit for bit,
    and ``sample``, which lifts them through the piece's identity frame
    (where -0.0 may come out as +0.0), must give them by value."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        segments=st.integers(1, 200),
        repeats=st.floats(0.0, 0.5),
        steps=st.sampled_from([1, 7, 64]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_the_stacked_formulas_bit_for_bit(self, seed, segments, repeats, steps):
        # A random walk off the origin, some of whose steps hold some
        # coordinates fixed, with (theta1, theta2) kept in a box where every
        # r_i >= 0: [0, pi/2]^2, or [pi/2, pi] x [pi, 3 pi/2], where
        # cos(theta1) < 0.  phi2 and phi3 are free (the last step moves phi2,
        # so some segment moves), and some samples are repeated, so that the
        # path has segments of zero length.
        rng = np.random.default_rng(seed)
        moves = rng.uniform(-0.09, 0.09, size=(segments + 1, 4))
        moves[rng.uniform(size=moves.shape) < 0.3] = 0.0
        moves[-1, 2] = 0.05
        corner = np.array([0.0, 0.0]) if rng.uniform() < 0.5 else np.array([np.pi / 2, np.pi])
        walk = np.cumsum(moves, axis=0) + np.concatenate([corner + rng.uniform(0.1, 1.4, 2), rng.uniform(-3.0, 3.0, 2)])
        walk[:, :2] = np.clip(walk[:, :2], corner, corner + np.pi / 2)
        samples = np.repeat(walk, np.where(rng.uniform(size=len(walk)) < repeats, 2, 1), axis=0)
        path = ParameterPath(samples)
        traj = _loop_trajectory(path)
        total = int(traj.t_end) * steps
        # The midpoint grid, in blocks as the propagator samples it, then the
        # ends of the domain and every corner.
        grid = traj.t_end * (np.arange(total) + 0.5) / total
        blocks = [grid[lo : lo + FULL_BLOCK] for lo in range(0, total, FULL_BLOCK)]
        for times in blocks + [np.array([traj.t_start, traj.t_end]), np.arange(1, traj.t_end)]:
            want = stacked_loop_sample(path, times)
            for got, stacked in zip(traj.coordinates(traj.pieces[0], times), want):
                assert np.array_equal(bits(got[:, 0]), bits(stacked))
            for got, stacked in zip(traj.sample(times), want):
                assert np.array_equal(got[:, 0], stacked)

    @pytest.mark.parametrize(
        "path",
        [
            rectangle_loop("theta2", "phi3", 0.25, 0.4),
            circle_path(0.7, 0.6, 0.15, 24),
            repeated_samples(),
            ParameterPath(rectangle_loop("theta1", "theta2", 0.25, 0.4).samples + [0.0, 0.0, 0.3, -0.5], closed=True),
        ],
        ids=["phi3-rectangle", "polyline", "repeated-samples", "theta-rectangle-at-still-phases"],
    )
    def test_ends_at_the_last_sample(self, path):
        # t_end lies on the domain's closed end; it closes the last moving
        # segment, whose end is the path's last sample.
        traj = _loop_trajectory(path)
        values, _ = traj.sample([traj.t_start, traj.t_end])
        for got, sample in zip(values[:, 0], path.samples[[0, -1]]):
            want = bright_state(couplings_from_angles(SphericalAngles(*sample)))
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)
