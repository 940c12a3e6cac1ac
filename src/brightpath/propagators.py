"""Unitary propagation of time-dependent Hamiltonians.

Every propagator is one pipeline: step grid -> factors -> reducer.  The grid
splits [t0, t1] into equal steps.  A factor builder turns it into an
(M, d, d) array of one-step exponentials: the exponential midpoint rule
(second order, unitary by construction) for a caller's generator, or the
closed-form Lambda step of the full (n+1)-level drive, the brute-force
oracle the geometric methods are checked against.  A reducer then forms the
ordered product (a unitary) or applies the factors to one state (snapshots).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from .errors import DimensionMismatch, NonHermitianSample, NonMonotoneMap
from .lambda_system import CouplingSet, _check_drive
from .linalg import (
    HermitianOperator,
    UnitaryOperator,
    _expm_hermitian_stack,
    _hermiticity_failure,
    _ordered_product,
    as_frame,
    expm_hermitian,  # noqa: F401 -- kept importable as brightpath.propagators.expm_hermitian
)
from .ramps import ramp_value

DEFAULT_GEOMETRIC_STEPS = 4096
DEFAULT_FULL_STEPS = 65536


@dataclass(frozen=True)
class PropagationResult:
    """A propagated unitary with its discretization diagnostics."""

    unitary: UnitaryOperator
    steps: int
    unitarity_error: float
    method: Literal["effective", "full", "berry"]


@dataclass(frozen=True)
class AdiabaticRunConfig:
    """Settings for a full-dynamics adiabatic run.

    ``omega_T`` is the dimensionless product of the Rabi frequency and the
    total duration; the schedule itself is expressed over normalized
    progress s in [0, 1], optionally reshaped by the ramp profile.
    """

    omega_T: float
    steps: int = DEFAULT_FULL_STEPS
    ramp: Literal["linear", "smooth"] = "linear"

    def __post_init__(self):
        if self.omega_T <= 0:
            raise ValueError(f"omega_T must be positive, got {self.omega_T}")
        if self.steps < 10:
            raise ValueError(f"steps must be >= 10, got {self.steps}")


def _step_grid(t0: float, t1: float, steps: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Midpoints (M,), edges (M+1,) and width of ``steps`` equal subintervals
    of [t0, t1]."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    span = t1 - t0
    k = np.arange(steps + 1)
    return t0 + span * (k[:-1] + 0.5) / steps, t0 + span * k / steps, span / steps


def _midpoint_factors(
    hamiltonian: Callable[[float], HermitianOperator | np.ndarray], mids: np.ndarray, dt: float
) -> np.ndarray:
    """exp(-i H(m_j) dt) for every midpoint m_j; every sample must pass the
    hermiticity check, and the first that fails is named."""
    samples = [hamiltonian(float(m)) for m in mids]
    stack = np.array([h.matrix if isinstance(h, HermitianOperator) else h for h in samples], dtype=complex)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise DimensionMismatch(f"H(t) must be square matrices of one size, got stack shape {stack.shape}")
    failure = _hermiticity_failure(stack)
    if failure is not None:
        j, why = failure
        raise NonHermitianSample(f"H({mids[j]:.6g}) failed the hermiticity check: {why}")
    return _expm_hermitian_stack(stack, dt)


def _sample_drive(
    schedule: Callable[[float], CouplingSet], config: AdiabaticRunConfig, mids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Bright states (M, n) and step phases Omega * dt (M,) of a drive read at
    the ramped progress midpoints, through ``schedule.sample`` when it has
    one.  Every step must satisfy the ``CouplingSet`` invariants."""
    shaped = ramp_value(config.ramp, mids)
    if hasattr(schedule, "sample"):
        r, phi, omega = schedule.sample(shaped)
    else:
        sets = [schedule(float(s)) for s in shaped]
        r = [c.r for c in sets]
        phi = [c.phi for c in sets]
        omega = [c.omega for c in sets]
    r, phi = np.asarray(r, dtype=float), np.asarray(phi, dtype=float)
    omega = np.broadcast_to(np.asarray(omega, dtype=float), (config.steps,))
    _check_drive(omega, r)
    duration = config.omega_T / omega[0]
    return r * np.exp(1j * phi), omega * (duration / config.steps)


def _lambda_step_factors(b: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """Exact one-step propagators exp(-i H dt) for Lambda Hamiltonians.

    ``b``: (M, n) bright states per step, ``phase``: (M,) values of
    Omega * dt.  Each factor acts on n+1 levels and is assembled from the
    closed form  1 + (cos p - 1)(P_B + P_e) - i sin p (|B><e| + |e><B|).
    """
    m, n = b.shape
    dim = n + 1
    factors = np.zeros((m, dim, dim), dtype=complex)
    factors[:, range(dim), range(dim)] = 1.0
    cosem = np.cos(phase) - 1.0
    sine = 1j * np.sin(phase)
    factors[:, :n, :n] += cosem[:, None, None] * np.einsum("mi,mj->mij", b, b.conj())
    factors[:, n, n] += cosem
    factors[:, :n, n] -= sine[:, None] * b
    factors[:, n, :n] -= sine[:, None] * b.conj()
    return factors


def _unitary_product(factors: np.ndarray) -> tuple[UnitaryOperator, float]:
    """Ordered product of the factors, projected back onto the unitary group
    (polar decomposition), with the pre-projection drift."""
    u = _ordered_product(factors)
    w, _, vh = np.linalg.svd(u)
    clean = w @ vh
    drift = float(np.linalg.norm(clean.conj().T @ u - np.eye(u.shape[0])))
    return UnitaryOperator(clean), drift


def _snapshots(
    factors: np.ndarray, state: np.ndarray, edges: np.ndarray, record_every: int
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the factors to ``state`` in order, keeping the initial state,
    every ``record_every``-th step and the last step, with their edge times."""
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    psi = np.asarray(state, dtype=complex)
    marks, rows = [0], [psi]
    for j, factor in enumerate(factors, 1):
        psi = factor @ psi
        if j % record_every == 0 or j == len(factors):
            marks.append(j)
            rows.append(psi)
    return edges[marks], np.array(rows)


def evolve_time_ordered(
    hamiltonian: Callable[[float], HermitianOperator | np.ndarray],
    t0: float,
    t1: float,
    steps: int = DEFAULT_GEOMETRIC_STEPS,
) -> PropagationResult:
    """Time-ordered product of midpoint-rule exponentials.

    U = exp(-i H(m_M) dt) ... exp(-i H(m_1) dt) with m_j the midpoint of the
    j-th subinterval; later factors multiply from the left.
    """
    mids, _, dt = _step_grid(t0, t1, steps)
    unitary, drift = _unitary_product(_midpoint_factors(hamiltonian, mids, dt))
    return PropagationResult(unitary=unitary, steps=steps, unitarity_error=drift, method="effective")


def evolve_trajectory(trajectory, t0=None, t1=None, steps: int = DEFAULT_GEOMETRIC_STEPS) -> PropagationResult:
    """Propagate the geometric generator carried by a bright trajectory."""
    t0 = trajectory.t_start if t0 is None else t0
    t1 = trajectory.t_end if t1 is None else t1
    return evolve_time_ordered(trajectory.h_eff, t0, t1, steps)


def evolve_full_adiabatic(
    schedule: Callable[[float], CouplingSet],
    config: AdiabaticRunConfig,
) -> PropagationResult:
    """Integrate the full (n+1)-level Schroedinger equation for a drive.

    The coupling schedule is sampled at subinterval midpoints of the
    normalized progress axis (reshaped by ``config.ramp``) and each step is
    the exact exponential of the sampled Lambda Hamiltonian.  This is the
    ground-truth oracle the geometric methods are compared against.
    """
    mids, _, _ = _step_grid(0.0, 1.0, config.steps)
    unitary, drift = _unitary_product(_lambda_step_factors(*_sample_drive(schedule, config, mids)))
    return PropagationResult(unitary=unitary, steps=config.steps, unitarity_error=drift, method="full")


def evolve_state_full(
    schedule: Callable[[float], CouplingSet],
    config: AdiabaticRunConfig,
    state: np.ndarray,
    record_every: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate one state through the full dynamics, recording snapshots.

    Returns (times, states) with ``times`` in normalized progress units and
    ``states`` of shape (len(times), n+1); row 0 is the initial state.
    """
    mids, edges, _ = _step_grid(0.0, 1.0, config.steps)
    factors = _lambda_step_factors(*_sample_drive(schedule, config, mids))
    return _snapshots(factors, state, edges, record_every)


def evolve_state_time_ordered(
    hamiltonian: Callable[[float], HermitianOperator | np.ndarray],
    t0: float,
    t1: float,
    steps: int,
    state: np.ndarray,
    record_every: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint-rule propagation of one state, with snapshots.

    Returns (times, states); row 0 is the initial state at t0.
    """
    mids, edges, dt = _step_grid(t0, t1, steps)
    return _snapshots(_midpoint_factors(hamiltonian, mids, dt), state, edges, record_every)


def dark_block(u: UnitaryOperator | np.ndarray, frame_start, frame_end) -> np.ndarray:
    """Matrix elements M_ab = <end_a| U |start_b> between dark frames."""
    matrix = u.matrix if isinstance(u, UnitaryOperator) else np.asarray(u, dtype=complex)
    start = as_frame(frame_start)
    end = as_frame(frame_end)
    if start.shape != end.shape:
        raise ValueError(f"frames must have matching shapes, got {start.shape} vs {end.shape}")
    return end.conj() @ matrix @ start.T


def leakage(u: UnitaryOperator | np.ndarray, dark_start, p_dark_end: HermitianOperator) -> float:
    """Worst-case population lost from the dark subspace.

    max over input dark basis states d of 1 - <Ud| P_dark_end |Ud>.
    """
    matrix = u.matrix if isinstance(u, UnitaryOperator) else np.asarray(u, dtype=complex)
    start = as_frame(dark_start)
    proj = p_dark_end.matrix
    worst = 0.0
    for d in start:
        image = matrix @ d
        retained = float((image.conj() @ proj @ image).real)
        worst = max(worst, 1.0 - retained)
    return worst


def reparametrize(
    hamiltonian: Callable[[float], HermitianOperator],
    f: Callable[[float], float],
    t0: float,
    t1: float,
    fprime: Callable[[float], float] | None = None,
    check_points: int = 65,
) -> Callable[[float], HermitianOperator]:
    """Rewrite a geometric generator under the time substitution tau = f(t).

    The returned schedule t -> H(f(t)) * f'(t) over [t0, t1] propagates to
    the same unitary as the original (geometric evolution depends on the
    path, not on its parametrization).  ``f`` must be strictly increasing.
    """
    grid = np.linspace(t0, t1, check_points)
    values = np.array([f(float(t)) for t in grid])
    if np.any(np.diff(values) <= 0):
        raise NonMonotoneMap("f must be strictly increasing on the new domain")

    def rate(t: float) -> float:
        if fprime is not None:
            return fprime(t)
        h = 1e-6 * max(1.0, abs(t))
        lo, hi = max(t - h, t0), min(t + h, t1)
        return (f(hi) - f(lo)) / (hi - lo)

    def remapped(t: float) -> HermitianOperator:
        base = hamiltonian(f(t))
        if not isinstance(base, HermitianOperator):
            base = HermitianOperator(base)
        return HermitianOperator(base.matrix * rate(t))

    return remapped
