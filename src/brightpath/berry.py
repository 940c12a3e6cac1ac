"""Non-Abelian Berry connection on the spherical drive parameters.

Closed-form connection matrices for the angle-parametrized dark frame,
path-ordered holonomies of polyline parameter loops, and the analytic
single-axis loop formulas used as oracles.  The companion
:func:`effective_dark_block` integrates the coupling-coefficient effective
Hamiltonian along the same path so both methods can be compared directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import PathVariesFixedCoordinates, SegmentTooCoarse
from .lambda_system import (
    SphericalAngles,
    coupling_rates_from_angles,
    couplings_from_angles,
)
from .effective import h_eff_couplings
from .linalg import UnitaryOperator, _expm_hermitian_stack, _ordered_product, expm_hermitian
from .propagators import evolve_time_ordered

COORDINATES = ("theta1", "theta2", "phi2", "phi3")
SEGMENT_BOUND = 0.1
CLOSURE_TOL = 1e-12

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
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "samples", pts)
        if self.closed:
            gap = float(np.max(np.abs(pts[0] - pts[-1])))
            if gap >= CLOSURE_TOL:
                raise ValueError(f"closed path endpoints differ by {gap:.3e}")

    @property
    def segment_count(self) -> int:
        return self.samples.shape[0] - 1

    def check_resolution(self, bound: float = SEGMENT_BOUND) -> None:
        if self.segment_count == 0:
            return
        jumps = np.max(np.abs(np.diff(self.samples, axis=0)), axis=1)
        worst = float(np.max(jumps))
        if worst >= bound:
            raise SegmentTooCoarse(f"a segment moves {worst:.3f} rad; bound is {bound} rad")

    def reversed(self) -> "ParameterPath":
        return ParameterPath(self.samples[::-1].copy(), closed=self.closed)


def rectangle_loop(coord_a: str, coord_b: str, side_a: float, side_b: float, points_per_edge: int = 32) -> ParameterPath:
    """Closed rectangular loop from the parameter origin.

    Runs coord_a from 0 to ``side_a``, then coord_b to ``side_b``, then both
    back, sampling each edge densely enough for the discretization bound.
    """
    ia, ib = COORDINATES.index(coord_a), COORDINATES.index(coord_b)
    if ia == ib:
        raise ValueError("rectangle needs two distinct coordinates")
    pts_a = max(points_per_edge, int(np.ceil(abs(side_a) / 0.05)) + 1)
    pts_b = max(points_per_edge, int(np.ceil(abs(side_b) / 0.05)) + 1)
    corners = [(0.0, 0.0), (side_a, 0.0), (side_a, side_b), (0.0, side_b), (0.0, 0.0)]
    edge_pts = [pts_a, pts_b, pts_a, pts_b]
    rows = [np.zeros(4)]
    for (xa, ya), (xb, yb), pts in zip(corners, corners[1:], edge_pts):
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
            if np.max(np.abs(m + m.conj().T)) >= 1e-12:
                raise ValueError(f"{name} is not anti-Hermitian")
            m.setflags(write=False)
            object.__setattr__(self, name, m)
        if np.max(np.abs(self.a_theta1)) != 0.0:
            raise ValueError("a_theta1 must vanish identically")

    def as_list(self) -> list[np.ndarray]:
        return [self.a_theta1, self.a_theta2, self.a_phi2, self.a_phi3]


def connection_at(a: SphericalAngles) -> ConnectionMatrices:
    """Closed-form connection components at one parameter point.

    Obtained by differentiating the parametrized dark frame; every entry is
    cross-checked against central differences in the test suite.
    """
    s1, c1 = np.sin(a.theta1), np.cos(a.theta1)
    s2, c2 = np.sin(a.theta2), np.cos(a.theta2)
    a_theta1 = np.zeros((2, 2), dtype=complex)
    a_theta2 = np.array([[0.0, s1], [-s1, 0.0]], dtype=complex)
    a_phi2 = 1j * np.array(
        [[s1 * s1 * s2 * s2, -s1 * s2 * c2], [-s1 * s2 * c2, c2 * c2]], dtype=complex
    )
    a_phi3 = 1j * np.array(
        [[s1 * s1 * c2 * c2, s1 * s2 * c2], [s1 * s2 * c2, s2 * s2]], dtype=complex
    )
    return ConnectionMatrices(a_theta1, a_theta2, a_phi2, a_phi3)


def holonomy(path: ParameterPath) -> UnitaryOperator:
    """Path-ordered product of connection exponentials along a polyline.

    Each segment contributes exp(-sum_k A_k(midpoint) dlambda_k), applied in
    path order (later segments to the left).  The exponent is anti-Hermitian,
    so the result is unitary by construction.
    """
    path.check_resolution()
    mids = 0.5 * (path.samples[:-1] + path.samples[1:])
    deltas = np.diff(path.samples, axis=0)
    connections = np.array([connection_at(SphericalAngles(*m)).as_list() for m in mids], dtype=complex)
    exponents = np.sum(connections.reshape(-1, 4, 2, 2) * deltas[:, :, None, None], axis=1)
    # exp(-exponent) with anti-Hermitian exponent == exp(-i (-i exponent))
    return UnitaryOperator(_ordered_product(_expm_hermitian_stack(-1j * exponents, 1.0)))


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


def effective_generator_on_segment(start: np.ndarray, end: np.ndarray):
    """Effective Hamiltonian along one linearly traversed parameter segment,
    as a function of local time in [0, 1]."""
    delta = end - start

    def generator(t: float):
        angles = SphericalAngles(*(start + t * delta))
        c = couplings_from_angles(angles)
        rdot, phidot = coupling_rates_from_angles(angles, delta)
        return h_eff_couplings(c, rdot, phidot)

    return generator


def effective_dark_block(path: ParameterPath, steps_per_segment: int = 64) -> np.ndarray:
    """Dark-space action of the coupling-built effective Hamiltonian.

    Integrates h_eff_couplings along the polyline (midpoint rule, steps
    aligned to the segment corners) and restricts the propagated unitary to
    the {|1>, |2>} dark frame of the parameter origin.
    """
    path.check_resolution()
    u = np.eye(3, dtype=complex)
    for i in range(path.segment_count):
        start, end = path.samples[i], path.samples[i + 1]
        if np.max(np.abs(end - start)) == 0.0:
            continue
        generator = effective_generator_on_segment(start, end)
        result = evolve_time_ordered(generator, 0.0, 1.0, steps_per_segment)
        u = result.unitary.matrix @ u
    return u[:2, :2].copy()
