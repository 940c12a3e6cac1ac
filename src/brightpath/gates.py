"""Three-stage holonomic phase gates and dark-state population transfer.

The gate drags the bright state of an n-ground-level Lambda system along a
closed three-piece path: from the auxiliary level |n> into a chosen logical
superposition psi and back, with a phase twist in between.  The dark
(logical) space returns to itself having acquired a relative phase on psi;
the whole construction needs only the bright trajectory, never a dark
basis.  The stage formulas are written once, in ``stage_trajectory``,
whose pieces move in span{psi, |n-1>}: both routes (``simulate_gate``,
``simulate_full_gate``) run each piece on its two coordinates, so neither's
cost grows with n, and ``measure_gate`` compares a result with the
composed gate on its logical dark block, the corner of its unitary, off
which it also reads the leakage.  One ``_rotation_piece`` builds the
gate's rise and fall and all of STIRAP.

Stage boundaries (times t1 < t2 < t3) and ramp profiles are configurable;
the geometric result depends only on the traced path, not on the schedule,
which the tests exercise directly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal, Sequence

import numpy as np

from .effective import BrightTrajectory, Piece
from .errors import NotNormalized
from .linalg import UnitaryOperator, matrix_distance
from .propagators import (
    DEFAULT_GEOMETRIC_STEPS,
    AdiabaticRunConfig,
    PropagationResult,
    StateTrace,
    evolve_full_sweep,
    evolve_time_ordered,
    leakage,
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


def _coordinates(along, across) -> np.ndarray:
    """(along, across) as (M, 1, 2), either one a scalar or an array."""
    out = np.empty((len(along), 1, 2), dtype=np.result_type(along, across))
    out[:, 0, 0], out[:, 0, 1] = along, across
    return out


def _rotation_piece(lo: float, hi: float, start: float, change: float, ramp: str, frame: np.ndarray | None) -> Piece:
    """The real rotation (sin(theta/2), cos(theta/2)) and its rate on [lo, hi],
    theta = start + change * ramp(s) at progress s: gate rise, fall, STIRAP."""

    def angles(times: np.ndarray) -> tuple[np.ndarray, ...]:
        s = (times - lo) / (hi - lo)
        half = (start + change * ramp_value(ramp, s)) / 2
        return s, np.sin(half), np.cos(half)

    def sampler(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s, sin, cos = angles(times)
        rate = change * ramp_rate(ramp, s) / (hi - lo)
        return _coordinates(sin, cos), _coordinates(0.5 * rate * cos, -(0.5 * rate * sin))

    return Piece(lo, hi, frame, sampler, lambda times: _coordinates(*angles(times)[1:]))


def stage_trajectory(spec: GateSpec) -> BrightTrajectory:
    """The gate's bright path on [0, t3]: |n-1> -> psi -> (phase twist) -> back.

    B = e^{i phi} sin(theta/2) p + cos(theta/2) a on p = psi (renormalized
    on the logical levels) and a = |n-1>, with Bdot by the chain rule, in
    three pieces that each evaluate only the angle they move: the rise
    turns theta 0 -> pi on [0, t1], the twist phi 0 -> twist on [t1, t2],
    the fall theta back to 0 on [t2, t3].  Each samples its coordinates on
    (p, a) through the frame Q = [p, a]; rise and fall are
    ``_rotation_piece``s, the fall through Q diag(e^{i twist}, 1).
    Bdot jumps at t1 and t2, each in the piece on its right.
    """
    psi, n, twist = spec.psi, spec.n, spec.phase_twist
    t1, t2, t3 = spec.t1, spec.t2, spec.t3
    frame = np.zeros((n, 2), dtype=complex)
    frame[: n - 1, 0] = psi[: n - 1] / np.linalg.norm(psi[: n - 1])
    frame[n - 1, 1] = 1.0
    # The still angles: theta/2 = pi/2 on the twist, phi = twist on the
    # fall.  Each constant comes from the numpy call a whole array of that
    # angle makes, so every sample keeps the bits its own angles would give.
    top = np.array([np.pi]) / 2
    (sin_top,), (cos_top,) = np.sin(top), np.cos(top)

    def turned(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s = (times - t1) / (t2 - t1)
        # phi starts from 0.0, which turns a -0.0 product into 0.0
        return s, np.exp(1j * (0.0 + twist * ramp_value(spec.phi_schedule, s)))

    def twist_sampler(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s, turn = turned(times)
        across = np.zeros(times.shape, dtype=complex)
        across.imag = twist * ramp_rate(spec.phi_schedule, s) / (t2 - t1) * sin_top
        return _coordinates(turn * sin_top, cos_top), _coordinates(turn * across, 0.0)

    rise = _rotation_piece(0.0, t1, 0.0, np.pi, spec.theta_schedule, frame)
    middle = Piece(t1, t2, frame, twist_sampler, lambda times: _coordinates(turned(times)[1] * sin_top, cos_top))
    fall = _rotation_piece(t2, t3, np.pi, -np.pi, spec.theta_schedule, frame * np.exp(1j * np.array([twist, 0.0])))
    return BrightTrajectory(n, 1, (rise, middle, fall))


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


def gate_coupling_schedule(spec: GateSpec) -> BrightTrajectory:
    """The gate's bright trajectory on progress [0, 1]: the
    ``stage_trajectory`` with the stage times divided by t3, the drive
    ``simulate_full_gate`` builds and reads at Omega = 1."""
    return stage_trajectory(replace(spec, t1=spec.t1 / spec.t3, t2=spec.t2 / spec.t3, t3=1.0))


def simulate_full_gate(
    spec: GateSpec,
    runs: Sequence[AdiabaticRunConfig],
    trace: StateTrace | None = None,
) -> list[PropagationResult]:
    """The full Schroedinger oracle of the gate, once per Omega*T run:
    ``evolve_full_sweep`` of the ``gate_coupling_schedule`` drive, each piece
    on its three levels (every ground state outside span{psi, |n-1>} is
    dark at all times).  A ``trace`` (one run only) carries an (n+1)-level
    state, with times in normalized progress units.
    """
    # Built here, not through gate_coupling_schedule, a name a tracer may wrap.
    drive = stage_trajectory(replace(spec, t1=spec.t1 / spec.t3, t2=spec.t2 / spec.t3, t3=1.0))
    return evolve_full_sweep(drive, runs, trace)


def measure_gate(geometric: np.ndarray, results: Sequence[PropagationResult]) -> list[tuple[np.ndarray, float, float, float]]:
    """Each gate result of either route (``simulate_gate`` on n levels,
    ``simulate_full_gate`` on n+1) on its logical levels 0..n-2: the dark
    block, that block's exact and phase-mode distances from ``geometric``
    (the caller's ``logical_block`` of ``compose_gate``), and its ``leakage``,
    read off the same block."""
    measures = []
    for result in results:
        block = logical_block(result.unitary, len(geometric) + 1)
        exact, phase = (matrix_distance(block, geometric, mode) for mode in ("exact", "up_to_global_phase"))
        measures.append((block, exact, phase, leakage(block)))
    return measures


def logical_block(u: UnitaryOperator, n: int) -> np.ndarray:
    """Restriction of an n x n gate to the logical levels 0..n-2 (the dark
    space at the start and end of the gate)."""
    return u.matrix[: n - 1, : n - 1].copy()


def extract_geometric_phase(u: UnitaryOperator, psi: np.ndarray) -> float:
    """The reported phase, -arg <psi| U |psi>.

    For the ideal gate the diagonal element has unit modulus; a modulus
    below 0.5 means the block is too noisy for a meaningful phase.
    """
    element = complex(psi.conj() @ u.matrix @ psi)
    if abs(element) <= PHASE_EXTRACTION_FLOOR:
        raise ValueError(f"|<psi|U|psi>| = {abs(element):.3f} too small to extract a phase")
    return float(-np.angle(element))


def simulate_gate(spec: GateSpec, steps: int = 10_000, trace: StateTrace | None = None) -> PropagationResult:
    """Propagate the gate's effective generator; ``measure_gate`` compares
    the result with the composed gate.

    ``evolve_time_ordered`` of the ``stage_trajectory`` over [0, t3], each
    piece on its two coordinates.  A ``trace`` carries an n-level state.
    """
    if steps < MIN_GATE_STEPS:
        raise ValueError(f"steps must be >= {MIN_GATE_STEPS}, got {steps}")
    return evolve_time_ordered(stage_trajectory(spec), 0.0, spec.t3, steps, trace)


@dataclass(frozen=True)
class StirapReport:
    """Dark-state population transfer along an open bright path."""

    final_state: np.ndarray
    expected_state: np.ndarray
    deviation: float
    transfer_population: float


def stirap_trajectory(theta_end: float, ramp: str = "linear") -> BrightTrajectory:
    """Two-level bright path B = sin(theta)|1> + cos(theta)|2>, theta 0 -> end:
    one real ``_rotation_piece`` of 2 theta, with no frame."""
    check_ramp(ramp)
    return BrightTrajectory(2, 1, (_rotation_piece(0.0, 1.0, 0.0, 2 * theta_end, ramp, None),))


def stirap_transfer(
    theta_end: float = np.pi / 2,
    steps: int = DEFAULT_GEOMETRIC_STEPS,
    ramp: str = "linear",
    trace: StateTrace | None = None,
) -> StirapReport:
    """Adiabatic population transfer by dragging the dark state.

    The system starts in |1>, the instantaneous dark state at theta = 0,
    and follows cos(theta)|1> - sin(theta)|2> as theta ramps up; at
    theta = pi/2 the population has moved entirely to level 2 (with the
    transported state equal to -|2>).  A ``trace`` carries its state along
    the same steps.
    """
    result = evolve_time_ordered(stirap_trajectory(theta_end, ramp), 0.0, 1.0, steps, trace)
    final = result.unitary.matrix @ np.array([1.0, 0.0], dtype=complex)
    expected = np.array([np.cos(theta_end), -np.sin(theta_end)], dtype=complex)
    return StirapReport(
        final_state=final,
        expected_state=expected,
        deviation=float(np.linalg.norm(final - expected)),
        transfer_population=float(abs(final[1]) ** 2),
    )
