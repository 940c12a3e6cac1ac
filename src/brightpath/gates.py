"""Three-stage holonomic phase gates and dark-state population transfer.

The gate drags the bright state of an n-ground-level Lambda system along a
closed three-piece path: from the auxiliary level |n> into a chosen logical
superposition psi and back, with a phase twist in between.  The dark
(logical) space returns to itself having acquired a relative phase on psi;
the whole construction needs only the bright trajectory, never a dark
basis.  The stage formulas are written once, in ``stage_trajectory``.  The
path stays in span{psi, |n-1>}, so both routes run on the gate's core:
the effective route propagates the two-level path on the ground directions
psi and |n-1> (``simulate_gate``), the full Schroedinger oracle the same
path with the excited level on three levels (``simulate_full_gate``).
Each embeds its core unitary with the identity on the dark complement
through one frame (``_core_frame``), so neither's cost grows with n, and
``measure_gate`` compares a result of either route with the composed gate.

Stage boundaries (times t1 < t2 < t3) and ramp profiles are configurable;
the geometric result depends only on the traced path, not on the schedule,
which the tests exercise directly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Literal, Sequence

import numpy as np

from .effective import BrightTrajectory, Piece
from .errors import DimensionMismatch, NotNormalized
from .linalg import UnitaryOperator, matrix_distance, projector_from_frame
from .propagators import (
    DEFAULT_GEOMETRIC_STEPS,
    AdiabaticRunConfig,
    PropagationResult,
    StateTrace,
    dark_block,
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


def stage_trajectory(spec: GateSpec) -> BrightTrajectory:
    """The gate's bright path on [0, t3]: |n-1> -> psi -> (phase twist) -> back.

    B = e^{i phi} sin(theta/2) psi + cos(theta/2) |n-1>, with Bdot by the
    chain rule, in three pieces that each evaluate only the angle they move
    along its ramp: the rise turns theta 0 -> pi on [0, t1], the twist phi
    0 -> twist on [t1, t2], the fall theta back to 0 on [t2, t3].  Rise and
    fall sample sin(theta/2) psi + cos(theta/2) |n-1>, real for a real psi,
    the fall with the phases e^{i twist} on the levels of psi.  B is
    continuous; Bdot jumps at t1 and t2, each in the piece on its right.
    ``values`` keep the bits of ``sample``'s values without the rates.
    """
    psi, n, twist = spec.psi, spec.n, spec.phase_twist
    t1, t2, t3 = spec.t1, spec.t2, spec.t3
    ground = psi if psi.imag.any() else psi.real
    # The still angles: theta/2 = pi/2 on the twist, phi = twist on the
    # fall.  Each constant comes from the numpy call a whole array of that
    # angle makes, so every sample keeps the bits its own angles would give.
    top = np.array([np.pi]) / 2
    (sin_top,), (cos_top,) = np.sin(top), np.cos(top)

    def bright(along: np.ndarray, cos) -> np.ndarray:
        """along psi + cos |n-1> as (M, 1, n), column by column: a broadcast
        product costs several times more, and |n-1> needs none."""
        out = np.empty((along.size, 1, n), dtype=np.result_type(along, ground))
        for level, amplitude in enumerate(ground):
            np.multiply(along, amplitude, out=out[:, 0, level])
        out[:, 0, n - 1] += cos
        return out

    def theta_piece(lo: float, hi: float, start: float, change: float, phases) -> Piece:
        def angles(times: np.ndarray) -> tuple[np.ndarray, ...]:
            s = (times - lo) / (hi - lo)
            half = (start + change * ramp_value(spec.theta_schedule, s)) / 2
            return s, np.sin(half), np.cos(half)

        def sampler(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            s, sin, cos = angles(times)
            rate = change * ramp_rate(spec.theta_schedule, s) / (hi - lo)
            return bright(sin, cos), bright(0.5 * rate * cos, -(0.5 * rate * sin))

        return Piece(lo, hi, phases, sampler, lambda times: bright(*angles(times)[1:]))

    def turned(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s = (times - t1) / (t2 - t1)
        # phi starts from 0.0, which turns a -0.0 product into 0.0
        return s, np.exp(1j * (0.0 + twist * ramp_value(spec.phi_schedule, s)))

    def twist_sampler(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s, turn = turned(times)
        across = np.zeros(times.shape, dtype=complex)
        across.imag = twist * ramp_rate(spec.phi_schedule, s) / (t2 - t1) * sin_top
        # Adding -0j (both parts -0.0) to the auxiliary rate changes no bit.
        return bright(turn * sin_top, cos_top), bright(turn * across, -0j)

    rise = theta_piece(0.0, t1, 0.0, np.pi, None)
    middle = Piece(t1, t2, None, twist_sampler, lambda times: bright(turned(times)[1] * sin_top, cos_top))
    fall = theta_piece(t2, t3, np.pi, -np.pi, np.where(np.arange(n) < n - 1, np.exp(1j * np.array([twist])), 1.0))
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


def _core_spec(spec: GateSpec, scale: float = 1.0) -> GateSpec:
    """The gate on its two ground directions p = psi and a = |n-1> (the
    first columns of ``_core_frame``), with the stage times divided by
    ``scale``."""
    t1, t2, t3 = spec.t1 / scale, spec.t2 / scale, spec.t3 / scale
    return replace(spec, n=2, psi=np.array([1.0, 0.0]), t1=t1, t2=t2, t3=t3)


def gate_coupling_schedule(spec: GateSpec) -> BrightTrajectory:
    """The bright trajectory of the gate's core on progress [0, 1]: the
    ``stage_trajectory`` of ``_core_spec`` with the stage times divided by
    t3, the drive ``simulate_full_gate`` builds and reads at Omega = 1."""
    return stage_trajectory(_core_spec(spec, spec.t3))


def _core_frame(spec: GateSpec) -> np.ndarray:
    """Pi, the (n+1, 3) isometry onto the gate's coupled core: the ground
    directions p = psi (renormalized, so the embed keeps W's unitarity) and
    a = |n-1> of ``_core_spec``, then the excited level |n>.  Its first n
    rows and two columns span the effective route's core."""
    frame = np.zeros((spec.n + 1, 3), dtype=complex)
    frame[: spec.n - 1, 0] = spec.psi[: spec.n - 1] / np.linalg.norm(spec.psi[: spec.n - 1])
    frame[spec.n - 1, 1] = 1.0
    frame[spec.n, 2] = 1.0
    return frame


def _core_trace(trace: StateTrace, frame: np.ndarray) -> StateTrace:
    """A trace of the core that carries Pi^dag psi0 and hands the trace's
    sink psi_perp + rows Pi^T, the part of psi0 outside the core never
    moving, and the core's coupled states lifted through the same Pi."""
    state = np.asarray(trace.state, dtype=complex)
    if state.shape != frame.shape[:1]:
        raise DimensionMismatch(f"trace state has shape {state.shape}, but the gate acts on {frame.shape[:1]}")
    core = frame.conj().T @ state
    outside = state - frame @ core

    def sink(times: np.ndarray, rows: np.ndarray, coupled: np.ndarray) -> None:
        # Broadcast, not a matmul: BLAS may spread a (rows, k) @ (k, dim)
        # product over threads, which costs more CPU than it saves.
        states = np.broadcast_to(outside, (len(rows), outside.size)).copy()
        for column, amplitudes in zip(frame.T, rows.T):
            states += amplitudes[:, None] * column
        trace.sink(times, states, np.einsum("mkc,dc->mkd", coupled, frame))

    return StateTrace(core, sink)


def _embedded(core: PropagationResult, frame: np.ndarray) -> PropagationResult:
    """The core run with its polar-projected W embedded through the frame Pi
    as U = 1 - Pi Pi^dag + Pi W Pi^dag; ``unitarity_error`` stays W's drift."""
    outside = np.eye(len(frame)) - frame @ frame.conj().T
    return replace(core, unitary=UnitaryOperator(outside + frame @ core.unitary.matrix @ frame.conj().T))


def simulate_full_gate(
    spec: GateSpec,
    runs: Sequence[AdiabaticRunConfig],
    trace: StateTrace | None = None,
) -> list[PropagationResult]:
    """The full Schroedinger oracle of the gate, once per Omega*T run.

    The drive couples only span{psi, |n-1>} to the excited level (every
    other ground state is dark at all times), so ``evolve_full_sweep``
    propagates the three-level core driven by the ``stage_trajectory`` of
    ``_core_spec`` on progress [0, 1] (``gate_coupling_schedule``), whose
    values alone it reads, and each run's W is embedded on the n+1 levels
    through the whole ``_core_frame``.  A ``trace`` (one run only) carries
    an (n+1)-level state, with times in normalized progress units.
    """
    frame = _core_frame(spec)
    trace = None if trace is None else _core_trace(trace, frame)
    drive = stage_trajectory(_core_spec(spec, spec.t3))
    return [_embedded(core, frame) for core in evolve_full_sweep(drive, runs, trace)]


def measure_gate(geometric: np.ndarray, results: Sequence[PropagationResult]) -> list[tuple[np.ndarray, float, float, float]]:
    """Each gate result of either route (``simulate_gate`` on n levels,
    ``simulate_full_gate`` on n+1) on its logical levels 0..n-2: the dark
    block, that block's exact and phase-mode distances from ``geometric``
    (the caller's ``logical_block`` of ``compose_gate``), and its ``leakage``."""
    measures = []
    for result in results:
        logical = np.eye(len(geometric), len(result.unitary.matrix), dtype=complex)
        block = dark_block(result.unitary, logical, logical)
        exact, phase = (matrix_distance(block, geometric, mode) for mode in ("exact", "up_to_global_phase"))
        measures.append((block, exact, phase, leakage(result.unitary, logical, projector_from_frame(logical))))
    return measures


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


def simulate_gate(spec: GateSpec, steps: int = 10_000, trace: StateTrace | None = None) -> PropagationResult:
    """Propagate the gate's effective generator; ``measure_gate`` compares
    the result with the composed gate.

    H_eff acts only on span{psi, |n-1>}, so the two-level ``_core_spec``
    path is propagated on the same clock [0, t3] and steps, and its W is
    embedded on the n levels through the ground columns of ``_core_frame``;
    ``unitarity_error`` is W's drift.  A ``trace`` carries an n-level
    state along the same steps, over [0, t3].
    """
    if steps < MIN_GATE_STEPS:
        raise ValueError(f"steps must be >= {MIN_GATE_STEPS}, got {steps}")
    frame = _core_frame(spec)[: spec.n, :2]
    trace = None if trace is None else _core_trace(trace, frame)
    return _embedded(evolve_time_ordered(stage_trajectory(_core_spec(spec)), 0.0, spec.t3, steps, trace), frame)


@dataclass(frozen=True)
class StirapReport:
    """Dark-state population transfer along an open bright path."""

    final_state: np.ndarray
    expected_state: np.ndarray
    deviation: float
    transfer_population: float


def stirap_trajectory(theta_end: float, ramp: str = "linear") -> BrightTrajectory:
    """Two-level bright path B = sin(theta)|1> + cos(theta)|2>, theta 0 -> end:
    one real piece."""
    check_ramp(ramp)

    def pairs(first: np.ndarray, second: np.ndarray) -> np.ndarray:
        return np.stack([first, second], axis=-1)[:, None, :]

    def values(times: np.ndarray) -> np.ndarray:
        theta = theta_end * ramp_value(ramp, times)
        return pairs(np.sin(theta), np.cos(theta))

    def sampler(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        theta = theta_end * ramp_value(ramp, times)
        rate = theta_end * ramp_rate(ramp, times)
        sin, cos = np.sin(theta), np.cos(theta)
        return pairs(sin, cos), pairs(rate * cos, -rate * sin)

    return BrightTrajectory(2, 1, (Piece(0.0, 1.0, None, sampler, values),))


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
