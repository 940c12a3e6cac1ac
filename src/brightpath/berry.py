"""Non-Abelian Berry connection on the spherical drive parameters.

Closed-form connection matrices for the angle-parametrized dark frame,
path-ordered holonomies of polyline parameter loops, and the analytic
single-axis loop formulas used as oracles.  The companion
:func:`effective_dark_block` propagates the effective Hamiltonian of the
angle-parametrized bright state along the same path so both methods can be
compared directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .effective import BrightTrajectory, Piece
from .errors import PathVariesFixedCoordinates, SegmentTooCoarse
from .lambda_system import SphericalAngles, _angle_couplings, _angle_row, _check_drive, dark_basis_parametrized
from .linalg import UnitaryOperator, _expm_hermitian_stack, _ordered_product, expm_hermitian
from .propagators import _midpoint_factors, _unitary_product, dark_block

COORDINATES = ("theta1", "theta2", "phi2", "phi3")
SEGMENT_BOUND = 0.1
CLOSURE_TOL = 1e-12
MAX_EDGE_POINTS = 10_000
# Gauss-Legendre nodes of a segment, as fractions of its length.
GAUSS_NODES = 0.5 + np.array([-1.0, 1.0]) * np.sqrt(3.0) / 6.0

SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])


@dataclass(frozen=True)
class ParameterPath:
    """Polyline of drive-parameter samples (theta1, theta2, phi2, phi3).

    Holonomy is independent of any timestamps, so the path carries none.
    A closed path must return to its first sample within 1e-12; segments
    are expected to stay below 0.1 rad per coordinate (checked where the
    bound matters, by the path-ordered integrators).
    """

    samples: np.ndarray
    closed: bool = False

    def __post_init__(self):
        pts = np.asarray(self.samples, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        if pts.ndim != 2 or pts.shape[1] != 4 or pts.shape[0] < 1:
            raise ValueError(f"samples must be an (m, 4) array, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("samples must be finite")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "samples", pts)
        if self.closed:
            gap = float(np.max(np.abs(pts[0] - pts[-1])))
            if not gap < CLOSURE_TOL:
                raise ValueError(f"closed path endpoints differ by {gap:.3e}")

    def check_resolution(self) -> None:
        if len(self.samples) == 1:
            return
        worst = float(np.max(np.abs(np.diff(self.samples, axis=0))))
        if worst >= SEGMENT_BOUND:
            raise SegmentTooCoarse(f"a segment moves {worst:.3f} rad; bound is {SEGMENT_BOUND} rad")


def rectangle_loop(coord_a: str, coord_b: str, side_a: float, side_b: float, points_per_edge: int = 32) -> ParameterPath:
    """Closed rectangular loop from the parameter origin.

    Runs coord_a from 0 to ``side_a``, then coord_b to ``side_b``, then both
    back, sampling each edge densely enough for the discretization bound.
    Edges of more than ``MAX_EDGE_POINTS`` points are refused up front.
    """
    ia, ib = COORDINATES.index(coord_a), COORDINATES.index(coord_b)
    if ia == ib:
        raise ValueError("rectangle needs two distinct coordinates")
    if points_per_edge > MAX_EDGE_POINTS:
        raise ValueError(f"points_per_edge must be <= {MAX_EDGE_POINTS}, got {points_per_edge}")
    side_pts = []
    for name, side in (("side_a", side_a), ("side_b", side_b)):
        spacings = abs(side) / 0.05
        if not spacings + 1 <= MAX_EDGE_POINTS:  # NaN and inf fail too
            raise ValueError(f"{name} must be finite and need at most {MAX_EDGE_POINTS} points per edge, got {side}")
        side_pts.append(max(points_per_edge, int(np.ceil(spacings)) + 1))
    corners = [(0.0, 0.0), (side_a, 0.0), (side_a, side_b), (0.0, side_b), (0.0, 0.0)]
    rows = [np.zeros(4)]
    for (xa, ya), (xb, yb), pts in zip(corners, corners[1:], 2 * side_pts):
        for frac in np.linspace(0.0, 1.0, pts + 1)[1:]:
            row = np.zeros(4)
            row[ia] = xa + (xb - xa) * frac
            row[ib] = ya + (yb - ya) * frac
            rows.append(row)
    return ParameterPath(np.asarray(rows), closed=True)


@dataclass(frozen=True)
class ConnectionMatrices:
    """The four 2x2 connection components <d_i| d/d(lambda_k) |d_j>.

    Each component is anti-Hermitian (the frame stays orthonormal), and the
    theta1 component vanishes identically.
    """

    a_theta1: np.ndarray
    a_theta2: np.ndarray
    a_phi2: np.ndarray
    a_phi3: np.ndarray

    def __post_init__(self):
        for name in ("a_theta1", "a_theta2", "a_phi2", "a_phi3"):
            m = np.asarray(getattr(self, name), dtype=complex)
            if m.shape != (2, 2):
                raise ValueError(f"{name} must be 2x2, got {m.shape}")
            if not np.max(np.abs(m + m.conj().T)) < 1e-12:
                raise ValueError(f"{name} is not anti-Hermitian")
            m.setflags(write=False)
            object.__setattr__(self, name, m)
        if np.max(np.abs(self.a_theta1)) != 0.0:
            raise ValueError("a_theta1 must vanish identically")

    def as_list(self) -> list[np.ndarray]:
        return [self.a_theta1, self.a_theta2, self.a_phi2, self.a_phi3]


def _connections(points: np.ndarray) -> np.ndarray:
    """The connection components (A_theta1, A_theta2, A_phi2, A_phi3) at every
    row of an (M, 4) stack of parameter points, as (M, 4, 2, 2)."""
    s1 = np.sin(points[:, 0])
    s2, c2 = np.sin(points[:, 1]), np.cos(points[:, 1])
    out = np.zeros((points.shape[0], 4, 2, 2), dtype=complex)
    out[:, 1, 0, 1] = s1
    out[:, 1, 1, 0] = -s1
    mixed = -s1 * s2 * c2
    out[:, 2] = 1j * np.array([[s1 * s1 * s2 * s2, mixed], [mixed, c2 * c2]], dtype=complex).transpose(2, 0, 1)
    out[:, 3] = 1j * np.array([[s1 * s1 * c2 * c2, -mixed], [-mixed, s2 * s2]], dtype=complex).transpose(2, 0, 1)
    return out


def connection_at(a: SphericalAngles) -> ConnectionMatrices:
    """Closed-form connection components at one parameter point (the one-row
    case of the stacked formulas).

    Obtained by differentiating the parametrized dark frame; every entry is
    cross-checked against central differences in the test suite.
    """
    return ConnectionMatrices(*_connections(_angle_row(a))[0])


def holonomy(path: ParameterPath) -> UnitaryOperator:
    """Path-ordered product of connection exponentials along a polyline.

    Each straight segment contributes its fourth-order Magnus exponential
    exp(-(E_1 + E_2) / 2 + sqrt(3)/12 [E_2, E_1]), with E_g = sum_k
    A_k(lambda_g) dlambda_k at the segment's two Gauss-Legendre points;
    segments are applied in path order (later segments to the left).  Where
    the connection is constant along a segment this is exp(-E) exactly.
    The exponent is anti-Hermitian, so the result is unitary by construction.
    """
    path.check_resolution()
    deltas = np.diff(path.samples, axis=0)
    e1, e2 = (
        np.sum(_connections(path.samples[:-1] + node * deltas) * deltas[:, :, None, None], axis=1) for node in GAUSS_NODES
    )
    exponents = 0.5 * (e1 + e2) - (np.sqrt(3.0) / 12.0) * (e2 @ e1 - e1 @ e2)
    # exp(-exponent) with anti-Hermitian exponent == exp(-i (-i exponent))
    return UnitaryOperator(_ordered_product(_expm_hermitian_stack(-1j * exponents, 1.0).transpose(1, 2, 0)))


def _require_constant(path: ParameterPath, coords: Sequence[str]) -> None:
    for name in coords:
        column = path.samples[:, COORDINATES.index(name)]
        if np.max(np.abs(column - column[0])) >= 1e-12:
            raise PathVariesFixedCoordinates(f"{name} must stay constant along this loop")


def u_y_analytic(path: ParameterPath) -> UnitaryOperator:
    """Closed-form holonomy exp(-i sigma_y * loop integral of sin(theta1) d theta2)
    for closed loops moving only theta1 and theta2."""
    if not path.closed:
        raise ValueError("the analytic loop formula needs a closed path")
    _require_constant(path, ("phi2", "phi3"))
    path.check_resolution()
    integral = float(
        np.sum(
            0.5
            * (np.sin(path.samples[1:, 0]) + np.sin(path.samples[:-1, 0]))
            * np.diff(path.samples[:, 1])
        )
    )
    return expm_hermitian(SIGMA_Y * integral, 1.0)


def u_z_analytic(path: ParameterPath) -> UnitaryOperator:
    """Closed-form holonomy exp(-i diag(0, loop integral of sin^2(theta2) d phi3))
    for closed loops at theta1 = 0 moving only theta2 and phi3."""
    if not path.closed:
        raise ValueError("the analytic loop formula needs a closed path")
    _require_constant(path, ("theta1", "phi2"))
    if np.max(np.abs(path.samples[:, 0])) >= 1e-12:
        raise PathVariesFixedCoordinates("theta1 must be pinned to 0 for this loop family")
    path.check_resolution()
    integral = float(
        np.sum(
            0.5
            * (np.sin(path.samples[1:, 1]) ** 2 + np.sin(path.samples[:-1, 1]) ** 2)
            * np.diff(path.samples[:, 3])
        )
    )
    return expm_hermitian(np.diag([0.0, integral]), 1.0)


def _loop_trajectory(path: ParameterPath) -> BrightTrajectory | None:
    """The path's bright state B = r e^{i phi} (the angle-parametrized
    drive), segment i traversed linearly in local time [i, i+1], with
    segments of zero length skipped; None when no segment moves.  One
    piece: the step grid of ``effective_dark_block`` already puts a step
    edge on every corner.  Every sampled block must satisfy the
    coupling-set rules (r_i >= 0)."""
    deltas = np.diff(path.samples, axis=0)
    moving = np.max(np.abs(deltas), axis=1) > 0.0
    # One row per coordinate, so that a block gathers each as a length-M row.
    starts, deltas = path.samples[:-1][moving].T.copy(), deltas[moving].T.copy()
    segments = deltas.shape[1]
    if not segments:
        return None

    def couplings(times: np.ndarray) -> tuple[np.ndarray, ...]:
        # Its own function, so that the (4, M) angle rows are freed before the
        # sampler fills its outputs.  t_end closes the last segment; every
        # other time lies inside its own.
        segment = np.minimum(times.astype(int), segments - 1)
        rates = np.take(deltas, segment, axis=1)
        angles = np.take(starts, segment, axis=1)
        angles += (times - segment) * rates
        return _angle_couplings(angles, rates)

    def sampler(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        r, phi, rdot, phidot = couplings(times)
        _check_drive(1.0, r.T)
        values = np.empty((times.size, 1, 3), dtype=complex)
        derivatives = np.empty_like(values)
        # phi and phidot vanish on level 0, where e^{i phi} = 1 and
        # Bdot = rdot; + 0.0 turns -0 into +0, as the complex product does.
        values[:, 0, 0] = r[0]
        derivatives[:, 0, 0] = rdot[0] + 0.0
        for level in (1, 2):
            phase = np.exp(1j * phi[level])
            values[:, 0, level] = r[level] * phase
            derivatives[:, 0, level] = (rdot[level] + 1j * r[level] * phidot[level]) * phase
        return values, derivatives

    return BrightTrajectory(3, 1, (Piece(0.0, float(segments), None, sampler),))


def effective_dark_block(path: ParameterPath, steps_per_segment: int = 64) -> np.ndarray:
    """Dark-space action of the effective Hamiltonian along a polyline.

    The path's bright state (``_loop_trajectory``) has the generator
    i(|Bdot><B| - |B><Bdot|), which equals h_eff_couplings entry by entry;
    it is propagated by the midpoint rule with ``steps_per_segment`` steps
    per moving segment (aligned to the corners), one streamed run over the
    whole path.  The propagated unitary is restricted to the parametrized
    dark frames at the path's ends, d(end)^* U d(start)^T: the frame
    :func:`holonomy` is written in.
    """
    path.check_resolution()
    trajectory = _loop_trajectory(path)
    u = np.eye(3, dtype=complex)
    if trajectory is not None:
        t_end = trajectory.t_end
        unitary, _ = _unitary_product(_midpoint_factors(trajectory, 0.0, t_end, int(t_end) * steps_per_segment))
        u = unitary.matrix
    start, end = (dark_basis_parametrized(SphericalAngles(*path.samples[i])) for i in (0, -1))
    return dark_block(u, start, end)
