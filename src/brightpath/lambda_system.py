"""Generalized Lambda systems: drive parameters, bright state, dark space.

A Lambda system couples ``n`` ground levels resonantly to one excited level.
In the rotating frame the drive is fully described by a mean Rabi frequency
and per-level amplitude fractions and phases; the single superposition of
ground levels that actually couples to the excited state is the bright
state, and its orthogonal complement within the ground space is dark.

Level ordering convention: ground levels occupy indices 0..n-1, the excited
level is index n.  This keeps the ground-space restriction of any operator a
leading principal block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import HermitianOperator, as_state

COUPLING_NORM_TOL = 1e-10


@dataclass(frozen=True)
class CouplingSet:
    """Drive parameters of a Lambda system at one instant.

    Attributes
    ----------
    omega:
        Mean Rabi frequency (angular frequency units, hbar = 1).
    r:
        Non-negative amplitude fractions, one per ground level,
        with sum(r_i^2) = 1.
    phi:
        Drive phases in radians, one per ground level.
    """

    omega: float
    r: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        phi = np.asarray(self.phi, dtype=float)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "phi", phi)
        if r.ndim != 1 or phi.shape != r.shape or r.size < 1:
            raise ValueError(f"r and phi must be equal-length 1-D arrays, got {r.shape}, {phi.shape}")
        _check_drive(self.omega, r)

    @property
    def n(self) -> int:
        """Number of ground levels."""
        return self.r.size


def _check_drive(omega, r: np.ndarray) -> None:
    """The coupling-set invariants Omega > 0, r_i >= 0 and sum(r_i^2) = 1,
    for one set (``r`` of shape (n,)) or per step (``omega`` (M,), ``r``
    (M, n)).  Written so that non-finite values fail."""
    omega = np.asarray(omega, dtype=float)
    if not (omega > 0).all():
        raise ValueError(f"omega must be positive, got {np.min(omega)}")
    if (r < -1e-12).any():
        raise ValueError("amplitude fractions r_i must be non-negative")
    deviation = abs((r * r).sum(axis=-1) - 1.0)
    if not (deviation < COUPLING_NORM_TOL).all():
        raise ValueError(f"|sum(r_i^2) - 1| = {np.max(deviation):.3e} exceeds {COUPLING_NORM_TOL:.1e}")


@dataclass(frozen=True)
class SphericalAngles:
    """Spherical parametrization of a three-level coupling set.

    All real values are admissible; the trigonometric construction in
    :func:`couplings_from_angles` guarantees the amplitude normalization.
    """

    theta1: float = 0.0
    theta2: float = 0.0
    phi2: float = 0.0
    phi3: float = 0.0


def bright_state(c: CouplingSet) -> np.ndarray:
    """The normalized ground-space superposition coupled to the excited level,
    B = sum_i r_i e^{i phi_i} |i>."""
    return c.r * np.exp(1j * c.phi)


def lambda_hamiltonian(c: CouplingSet) -> HermitianOperator:
    """Rotating-frame Hamiltonian Omega (|B><e| + |e><B|) on n+1 levels.

    Annihilates every ground-space vector orthogonal to the bright state;
    the spectrum is {+Omega, -Omega, 0 x (n-1)}.
    """
    n = c.n
    b = bright_state(c)
    h = np.zeros((n + 1, n + 1), dtype=complex)
    h[:n, n] = c.omega * b
    h[n, :n] = c.omega * b.conj()
    return HermitianOperator(h)


def dark_projector(b: np.ndarray) -> HermitianOperator:
    """Projector 1 - |B><B| onto the dark complement of a bright state."""
    b = as_state(b, require_normalized=True)
    proj = np.eye(b.size, dtype=complex) - np.outer(b, b.conj())
    return HermitianOperator((proj + proj.conj().T) / 2.0)


def _angle_couplings(angles: np.ndarray, rates: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Amplitudes, phases and their chain-rule rates (r, phi, rdot, phidot),
    each (M, 3), for (M, 4) stacks of angles (theta1, theta2, phi2, phi3)
    and of their time derivatives.

    r = (sin(theta1), cos(theta1) sin(theta2), cos(theta1) cos(theta2)) and
    phi = (0, phi2, phi3); rdot and phidot follow by the chain rule.
    """
    t1d, t2d, p2d, p3d = rates.T
    s1, c1 = np.sin(angles[:, 0]), np.cos(angles[:, 0])
    s2, c2 = np.sin(angles[:, 1]), np.cos(angles[:, 1])
    zero = np.zeros_like(s1)
    r = np.stack([s1, c1 * s2, c1 * c2], axis=1)
    phi = np.stack([zero, angles[:, 2], angles[:, 3]], axis=1)
    rdot = np.stack([c1 * t1d, -s1 * s2 * t1d + c1 * c2 * t2d, -s1 * c2 * t1d - c1 * s2 * t2d], axis=1)
    phidot = np.stack([zero, p2d, p3d], axis=1)
    return r, phi, rdot, phidot


def _angle_row(a: SphericalAngles) -> np.ndarray:
    """The angles as the one row of a (1, 4) stack."""
    return np.array([[a.theta1, a.theta2, a.phi2, a.phi3]], dtype=float)


def couplings_from_angles(a: SphericalAngles, omega: float = 1.0) -> CouplingSet:
    """Three-level coupling set from spherical angles (the one-row case of
    the stacked angle formulas).

    r = (sin(theta1), cos(theta1) sin(theta2), cos(theta1) cos(theta2)) and
    phi = (0, phi2, phi3).  The first drive phase is fixed to zero: the
    parametrization carries no phi1, and the global phase of the bright
    state does not affect the dark subspace.
    """
    r, phi, _, _ = _angle_couplings(_angle_row(a), np.zeros((1, 4)))
    return CouplingSet(omega=omega, r=r[0], phi=phi[0])


def coupling_rates_from_angles(a: SphericalAngles, rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chain-rule time derivatives (rdot, phidot) of the angle parametrization.

    ``rates`` holds (theta1_dot, theta2_dot, phi2_dot, phi3_dot).
    """
    _, _, rdot, phidot = _angle_couplings(_angle_row(a), np.asarray(rates, dtype=float).reshape(1, 4))
    return rdot[0], phidot[0]


def dark_basis_parametrized(a: SphericalAngles) -> tuple[np.ndarray, np.ndarray]:
    """The two orthonormal dark states of the angle-parametrized drive.

    d1 = cos(t1)|1> - sin(t1)(e^{i p2} sin(t2)|2> + e^{i p3} cos(t2)|3>)
    d2 = e^{i p2} cos(t2)|2> - e^{i p3} sin(t2)|3>

    Both are orthogonal to the bright state of
    ``couplings_from_angles(a)`` for every choice of angles.
    """
    s1, c1 = np.sin(a.theta1), np.cos(a.theta1)
    s2, c2 = np.sin(a.theta2), np.cos(a.theta2)
    e2 = np.exp(1j * a.phi2)
    e3 = np.exp(1j * a.phi3)
    d1 = np.array([c1, -s1 * e2 * s2, -s1 * e3 * c2])
    d2 = np.array([0.0, e2 * c2, -e3 * s2])
    return d1, d2
