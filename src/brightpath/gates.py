"""Three-stage holonomic phase gates and dark-state population transfer.

The gate drags the bright state of an n-ground-level Lambda system along a
closed three-piece path: from the auxiliary level |n> into a chosen logical
superposition psi and back, with a phase twist in between.  The dark
(logical) space returns to itself having acquired a relative phase on psi;
the whole construction needs only the bright trajectory, never a dark
basis.

Stage boundaries (times t1 < t2 < t3) and ramp profiles are configurable;
the geometric result depends only on the traced path, not on the schedule,
which the tests exercise directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .effective import BrightTrajectory
from .errors import NotNormalized
from .lambda_system import CouplingSet
from .linalg import UnitaryOperator, matrix_distance
from .propagators import (
    DEFAULT_GEOMETRIC_STEPS,
    PropagationResult,
    evolve_time_ordered,
)
from .ramps import check_ramp, ramp_rate, ramp_value

PHASE_EXTRACTION_FLOOR = 0.5
MIN_GATE_STEPS = 100


@dataclass(frozen=True)
class GateSpec:
    """Parameters of the three-stage holonomic gate.

    ``psi`` is a normalized state supported on the logical levels 0..n-2
    (its component on the auxiliary level n-1 must vanish); ``phase_twist``
    is the angle applied during the middle stage.
    """

    n: int
    psi: np.ndarray
    phase_twist: float
    t1: float = 0.25
    t2: float = 0.5
    t3: float = 1.0
    theta_schedule: Literal["linear", "smooth"] = "linear"
    phi_schedule: Literal["linear", "smooth"] = "linear"

    def __post_init__(self):
        if not self.n >= 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        psi = np.asarray(self.psi, dtype=complex)
        if psi.shape != (self.n,):
            raise ValueError(f"psi must have shape ({self.n},), got {psi.shape}")
        deviation = abs(np.vdot(psi, psi).real - 1.0)
        if not deviation < 1e-10:
            raise NotNormalized(f"psi is not normalized: |<psi|psi> - 1| = {deviation:.3e}")
        if not abs(psi[self.n - 1]) < 1e-12:
            raise ValueError("psi must have no component on the auxiliary level")
        if not np.isfinite(self.phase_twist):
            raise ValueError(f"phase_twist must be finite, got {self.phase_twist}")
        times = (self.t1, self.t2, self.t3)
        if not (np.all(np.isfinite(times)) and 0.0 < self.t1 < self.t2 < self.t3):
            raise ValueError(f"t1, t2, t3 must be finite with 0 < t1 < t2 < t3, got {times}")
        check_ramp(self.theta_schedule, "theta_schedule")
        check_ramp(self.phi_schedule, "phi_schedule")
        psi = psi.copy()
        psi.setflags(write=False)
        object.__setattr__(self, "psi", psi)

    @property
    def auxiliary(self) -> np.ndarray:
        aux = np.zeros(self.n, dtype=complex)
        aux[self.n - 1] = 1.0
        return aux


def stage_trajectory(spec: GateSpec) -> BrightTrajectory:
    """The gate's bright path: |n> -> psi -> (phase twist) -> back to |n>.

    Piece 1 rotates the bright state from the auxiliary level into psi
    (mixing angle 0 -> pi), piece 2 multiplies it by e^{i phi(t)} up to the
    twist angle, piece 3 rotates back.  The concatenation is continuous
    with analytic derivatives inside each piece.
    """
    psi, aux, twist = spec.psi, spec.auxiliary, spec.phase_twist

    def rotation_piece(t_lo: float, t_hi: float, theta_of, theta_rate, phase: complex) -> BrightTrajectory:
        def sampler(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            th, rate = theta_of(times)[:, None], theta_rate(times)[:, None]
            values = phase * np.sin(th / 2) * psi + np.cos(th / 2) * aux
            derivatives = (rate / 2) * (phase * np.cos(th / 2) * psi - np.sin(th / 2) * aux)
            return values[:, None, :], derivatives[:, None, :]

        return BrightTrajectory(spec.n, 1, t_lo, t_hi, sampler)

    span1 = spec.t1
    stage1 = rotation_piece(
        0.0,
        spec.t1,
        lambda t: np.pi * ramp_value(spec.theta_schedule, t / span1),
        lambda t: np.pi * ramp_rate(spec.theta_schedule, t / span1) / span1,
        1.0 + 0.0j,
    )

    span2 = spec.t2 - spec.t1

    def twist_sampler(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        progress = (times - spec.t1) / span2
        phi = twist * ramp_value(spec.phi_schedule, progress)
        rate = twist * ramp_rate(spec.phi_schedule, progress) / span2
        values = np.exp(1j * phi)[:, None] * psi
        derivatives = (1j * rate * np.exp(1j * phi))[:, None] * psi
        return values[:, None, :], derivatives[:, None, :]

    stage2 = BrightTrajectory(spec.n, 1, spec.t1, spec.t2, twist_sampler)

    span3 = spec.t3 - spec.t2
    stage3 = rotation_piece(
        spec.t2,
        spec.t3,
        lambda t: np.pi * (1.0 - ramp_value(spec.theta_schedule, (t - spec.t2) / span3)),
        lambda t: -np.pi * ramp_rate(spec.theta_schedule, (t - spec.t2) / span3) / span3,
        np.exp(1j * twist),
    )

    return BrightTrajectory.concatenate([stage1, stage2, stage3])


def analytic_stage_unitaries(spec: GateSpec) -> tuple[UnitaryOperator, UnitaryOperator, UnitaryOperator]:
    """Closed-form per-stage unitaries, extended by the identity outside
    span{psi, |n>} (the effective generator has no support there)."""
    psi, aux, twist = spec.psi, spec.auxiliary, spec.phase_twist
    eye = np.eye(spec.n, dtype=complex)
    p_psi = np.outer(psi, psi.conj())
    p_aux = np.outer(aux, aux.conj())
    swap = np.outer(psi, aux.conj()) - np.outer(aux, psi.conj())
    cross = np.outer(psi, aux.conj()) + np.outer(aux, psi.conj())
    u1 = eye - p_psi - p_aux + swap
    u2 = eye + (np.exp(2j * twist) - 1.0) * p_psi
    u3 = eye - p_psi - p_aux - np.cos(twist) * swap - 1j * np.sin(twist) * cross
    return UnitaryOperator(u1), UnitaryOperator(u2), UnitaryOperator(u3)


def compose_gate(spec: GateSpec) -> UnitaryOperator:
    """The full gate U3 U2 U1.

    On span{psi, |n>} the product applies the phase e^{i twist} to both psi
    and the auxiliary level, and acts as the identity on the dark
    complement; the logical content is the relative phase picked up by psi.
    (Only the dark-space action is meaningful: the generator transports
    dark vectors exactly, while the bright ray carries a gauge choice.)
    """
    u1, u2, u3 = analytic_stage_unitaries(spec)
    return u3 @ u2 @ u1


def gate_coupling_schedule(spec: GateSpec, omega: float = 1.0):
    """The gate's bright path expressed as Lambda drive couplings.

    Returns a callable progress -> CouplingSet whose ``sample`` attribute,
    the form the full-dynamics oracle reads, evaluates whole progress arrays
    at once as (r, phi, omega).  Amplitude fractions are |psi_i| scaled by
    the mixing angle (always non-negative); the drive phases carry
    arg(psi_i) plus the accumulated twist.
    """
    psi, twist = spec.psi, spec.phase_twist
    amp = np.abs(psi)
    arg = np.angle(psi)
    t3 = spec.t3

    def arrays(progress) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        t = np.atleast_1d(np.asarray(progress, dtype=float)) * t3
        theta = np.empty_like(t)
        twist_now = np.empty_like(t)
        in1 = t <= spec.t1
        in2 = (t > spec.t1) & (t <= spec.t2)
        in3 = t > spec.t2
        theta[in1] = np.pi * ramp_value(spec.theta_schedule, t[in1] / spec.t1)
        twist_now[in1] = 0.0
        theta[in2] = np.pi
        twist_now[in2] = twist * ramp_value(spec.phi_schedule, (t[in2] - spec.t1) / (spec.t2 - spec.t1))
        theta[in3] = np.pi * (1.0 - ramp_value(spec.theta_schedule, (t[in3] - spec.t2) / (spec.t3 - spec.t2)))
        twist_now[in3] = twist
        s, cpart = np.sin(theta / 2), np.cos(theta / 2)
        r = np.empty((t.size, spec.n))
        phi = np.empty((t.size, spec.n))
        r[:, : spec.n - 1] = s[:, None] * amp[None, : spec.n - 1]
        r[:, spec.n - 1] = cpart
        phi[:, : spec.n - 1] = arg[None, : spec.n - 1] + twist_now[:, None]
        phi[:, spec.n - 1] = 0.0
        return r, phi, np.full(t.size, float(omega))

    def schedule(progress: float) -> CouplingSet:
        r, phi, om = arrays(progress)
        return CouplingSet(omega=float(om[0]), r=r[0], phi=phi[0])

    schedule.sample = arrays
    return schedule


@dataclass(frozen=True)
class GateReport:
    """Analytic vs simulated gate, compared on the logical dark block."""

    analytic_unitary: UnitaryOperator
    simulated_unitary: UnitaryOperator
    distance_exact: float
    distance_phase: float
    geometric_phase: float
    propagation: PropagationResult


def logical_block(u: UnitaryOperator | np.ndarray, n: int) -> np.ndarray:
    """Restriction of an n x n gate to the logical levels 0..n-2 (the dark
    space at the start and end of the gate)."""
    matrix = u.matrix if isinstance(u, UnitaryOperator) else np.asarray(u, dtype=complex)
    return matrix[: n - 1, : n - 1].copy()


def extract_geometric_phase(u: UnitaryOperator | np.ndarray, psi: np.ndarray) -> float:
    """The reported phase, -arg <psi| U |psi>.

    For the ideal gate the diagonal element has unit modulus; a modulus
    below 0.5 means the block is too noisy for a meaningful phase.
    """
    matrix = u.matrix if isinstance(u, UnitaryOperator) else np.asarray(u, dtype=complex)
    element = complex(psi.conj() @ matrix @ psi)
    if abs(element) <= PHASE_EXTRACTION_FLOOR:
        raise ValueError(f"|<psi|U|psi>| = {abs(element):.3f} too small to extract a phase")
    return float(-np.angle(element))


def simulate_gate(spec: GateSpec, steps: int = 10_000) -> GateReport:
    """Propagate the gate's effective generator and compare to the analytic
    composed gate on the logical dark block (exact-mode distance)."""
    if steps < MIN_GATE_STEPS:
        raise ValueError(f"steps must be >= {MIN_GATE_STEPS}, got {steps}")
    trajectory = stage_trajectory(spec)
    propagation = evolve_time_ordered(trajectory, 0.0, spec.t3, steps)
    analytic = compose_gate(spec)
    sim_block = logical_block(propagation.unitary, spec.n)
    ana_block = logical_block(analytic, spec.n)
    return GateReport(
        analytic_unitary=analytic,
        simulated_unitary=propagation.unitary,
        distance_exact=matrix_distance(sim_block, ana_block, "exact"),
        distance_phase=matrix_distance(sim_block, ana_block, "up_to_global_phase"),
        geometric_phase=extract_geometric_phase(propagation.unitary, spec.psi),
        propagation=propagation,
    )


@dataclass(frozen=True)
class StirapReport:
    """Dark-state population transfer along an open bright path."""

    final_state: np.ndarray
    expected_state: np.ndarray
    deviation: float
    transfer_population: float


def stirap_trajectory(theta_end: float, ramp: str = "linear") -> BrightTrajectory:
    """Two-level bright path B = sin(theta)|1> + cos(theta)|2>, theta 0 -> end."""
    check_ramp(ramp)

    def sampler(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        theta = theta_end * ramp_value(ramp, times)
        rate = theta_end * ramp_rate(ramp, times)
        values = np.stack([np.sin(theta), np.cos(theta)], axis=-1)
        derivatives = np.stack([rate * np.cos(theta), -rate * np.sin(theta)], axis=-1)
        return values[:, None, :].astype(complex), derivatives[:, None, :].astype(complex)

    return BrightTrajectory(2, 1, 0.0, 1.0, sampler)


def stirap_transfer(theta_end: float = np.pi / 2, steps: int = DEFAULT_GEOMETRIC_STEPS, ramp: str = "linear") -> StirapReport:
    """Adiabatic population transfer by dragging the dark state.

    The system starts in |1>, the instantaneous dark state at theta = 0,
    and follows cos(theta)|1> - sin(theta)|2> as theta ramps up; at
    theta = pi/2 the population has moved entirely to level 2 (with the
    transported state equal to -|2>).
    """
    if theta_end == 0.0:
        start = np.array([1.0, 0.0], dtype=complex)
        return StirapReport(start, start.copy(), 0.0, 0.0)
    trajectory = stirap_trajectory(theta_end, ramp)
    result = evolve_time_ordered(trajectory, 0.0, 1.0, steps)
    start = np.array([1.0, 0.0], dtype=complex)
    final = result.unitary.matrix @ start
    expected = np.array([np.cos(theta_end), -np.sin(theta_end)], dtype=complex)
    return StirapReport(
        final_state=final,
        expected_state=expected,
        deviation=float(np.linalg.norm(final - expected)),
        transfer_population=float(abs(final[1]) ** 2),
    )
