"""Unitary propagation of time-dependent Hamiltonians.

Every propagator is one pipeline: step grid -> factors -> reducer, streamed
in blocks of ``FULL_BLOCK`` steps.  The grid splits [t0, t1] into equal
steps and hands out their midpoints one block at a time.  A factor builder
samples and checks each block and turns it into an (m, d, d) array of
one-step exponentials: the exponential midpoint rule (second order, unitary
by construction) for a caller's generator, in closed form for a
one-bright-state trajectory, or the closed-form Lambda step of the full
(n+1)-level drive, the brute-force oracle the geometric methods are checked
against.  A reducer consumes the blocks in order: it forms the ordered
product (each block by a pairwise tree, then the block products by the same
tree) or applies the factors to one state (snapshots).  No array longer
than one block is built, so memory stays flat in the step count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Literal

import numpy as np

from .effective import BrightTrajectory, _h_eff_stack
from .errors import DimensionMismatch, NonHermitianSample, NonMonotoneMap
from .lambda_system import CouplingSet, _check_drive
from .linalg import (
    HermitianOperator,
    UnitaryOperator,
    _expm_hermitian_stack,
    _expm_rank2_stack,
    _hermiticity_failure,
    _ordered_product,
    as_frame,
    expm_hermitian,  # noqa: F401 -- kept importable as brightpath.propagators.expm_hermitian
)
from .ramps import check_ramp, ramp_value

DEFAULT_GEOMETRIC_STEPS = 4096
DEFAULT_FULL_STEPS = 65536
# Steps per block: every propagator samples, checks, builds and reduces its
# factors FULL_BLOCK steps at a time, so its memory does not grow with the
# step count.
FULL_BLOCK = 4096
# The most steps a full run (or a CLI step count) may ask for.
MAX_STEPS = 2**24

# What the midpoint rule propagates: a bright trajectory (its geometric
# generator) or any callable t -> H(t).
Hamiltonian = BrightTrajectory | Callable[[float], HermitianOperator | np.ndarray]


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
        if not (self.omega_T > 0 and np.isfinite(self.omega_T)):
            raise ValueError(f"omega_T must be positive and finite, got {self.omega_T}")
        if not 10 <= self.steps <= MAX_STEPS:
            raise ValueError(f"steps must be in [10, {MAX_STEPS}], got {self.steps}")
        check_ramp(self.ramp)


def _step_grid(t0: float, t1: float, steps: int) -> tuple[Iterator[np.ndarray], float]:
    """Midpoints of ``steps`` equal subintervals of [t0, t1], as a stream of
    blocks of at most ``FULL_BLOCK``, and the subinterval width."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    span = t1 - t0
    blocks = (
        t0 + span * (np.arange(lo, min(lo + FULL_BLOCK, steps)) + 0.5) / steps
        for lo in range(0, steps, FULL_BLOCK)
    )
    return blocks, span / steps


def _midpoint_factors(hamiltonian: Hamiltonian, t0: float, t1: float, steps: int) -> Iterator[np.ndarray]:
    """exp(-i H(m_j) dt) for every midpoint m_j of the grid, one block at a
    time.  A trajectory's generators are built from one ``sample`` of each
    block (Hermitian by construction); with one bright state they have rank
    <= 2 and take the closed-form exponential.  A callable's samples must
    pass the hermiticity check, and the first that fails is named."""
    blocks, dt = _step_grid(t0, t1, steps)
    if isinstance(hamiltonian, BrightTrajectory):
        expm = _expm_rank2_stack if hamiltonian.k == 1 else _expm_hermitian_stack
        for mids in blocks:
            yield expm(_h_eff_stack(*hamiltonian.sample(mids), times=mids), dt)
        return
    for mids in blocks:
        samples = [hamiltonian(float(m)) for m in mids]
        stack = np.array([h.matrix if isinstance(h, HermitianOperator) else h for h in samples], dtype=complex)
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise DimensionMismatch(f"H(t) must be square matrices of one size, got stack shape {stack.shape}")
        failure = _hermiticity_failure(stack)
        if failure is not None:
            j, why = failure
            raise NonHermitianSample(f"H({mids[j]:.6g}) failed the hermiticity check: {why}")
        yield _expm_hermitian_stack(stack, dt)


def _sample_drive(schedule: Callable[[float], CouplingSet], ramp: str, mids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bright states (M, n) and Rabi frequencies (M,) of a drive read at the
    ramped progress midpoints of one block, through ``schedule.sample`` when
    it has one.  Every step must satisfy the ``CouplingSet`` invariants."""
    shaped = ramp_value(ramp, mids)
    if hasattr(schedule, "sample"):
        r, phi, omega = schedule.sample(shaped)
    else:
        sets = [schedule(float(s)) for s in shaped]
        r = [c.r for c in sets]
        phi = [c.phi for c in sets]
        omega = [c.omega for c in sets]
    r, phi = np.asarray(r, dtype=float), np.asarray(phi, dtype=float)
    omega = np.broadcast_to(np.asarray(omega, dtype=float), mids.shape)
    _check_drive(omega, r)
    return r * np.exp(1j * phi), omega


def _drive_factors(schedule: Callable[[float], CouplingSet], config: AdiabaticRunConfig) -> Iterator[np.ndarray]:
    """Exact step factors of the full drive, one block at a time.  The step
    phase is Omega * dt with the run's duration omega_T / Omega fixed by its
    first sample."""
    blocks, _ = _step_grid(0.0, 1.0, config.steps)
    dt = None
    for mids in blocks:
        b, omega = _sample_drive(schedule, config.ramp, mids)
        if dt is None:
            dt = config.omega_T / omega[0] / config.steps
        yield _lambda_step_factors(b, omega * dt)


def _lambda_step_factors(b: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """Exact one-step propagators exp(-i H dt) for Lambda Hamiltonians.

    ``b``: (M, n) bright states per step, ``phase``: (M,) values of
    Omega * dt.  Each factor acts on n+1 levels and is the closed form
    1 + (cos p - 1)(P_B + P_e) - i sin p (|B><e| + |e><B|), written block by
    block into one uninitialized stack.
    """
    m, n = b.shape
    factors = np.empty((m, n + 1, n + 1), dtype=complex)
    cosem = np.cos(phase) - 1.0
    sine = -1j * np.sin(phase)
    np.multiply((cosem[:, None] * b)[:, :, None], b.conj()[:, None, :], out=factors[:, :n, :n])
    factors.reshape(m, -1)[:, : n * (n + 2) : n + 2] += 1.0  # the diagonal of the ground block
    np.multiply(sine[:, None], b, out=factors[:, :n, n])
    np.multiply(sine[:, None], b.conj(), out=factors[:, n, :n])
    factors[:, n, n] = cosem + 1.0
    return factors


def _unitary_product(blocks: Iterable[np.ndarray]) -> tuple[UnitaryOperator, float]:
    """Ordered product of a stream of factor blocks (each block by the tree
    product, then the block products the same way), projected back onto the
    unitary group (polar decomposition), with the pre-projection drift."""
    u = _ordered_product(np.array([_ordered_product(block) for block in blocks]))
    w, _, vh = np.linalg.svd(u)
    clean = w @ vh
    drift = float(np.linalg.norm(clean.conj().T @ u - np.eye(u.shape[0])))
    return UnitaryOperator(clean), drift


def _snapshots(
    blocks: Iterable[np.ndarray], state: np.ndarray, t0: float, t1: float, steps: int, record_every: int
) -> tuple[np.ndarray, np.ndarray]:
    """Apply a stream of factor blocks to ``state`` in order, keeping the
    initial state, every ``record_every``-th step and the last of ``steps``,
    with their grid times in [t0, t1]."""
    if record_every < 1:
        raise ValueError(f"record_every must be >= 1, got {record_every}")
    psi = np.asarray(state, dtype=complex)
    marks, rows = [0], [psi]
    j = 0
    for block in blocks:
        for factor in block:
            psi = factor.dot(psi)
            j += 1
            if j % record_every == 0 or j == steps:
                marks.append(j)
                rows.append(psi)
    return t0 + (t1 - t0) * np.array(marks) / steps, np.array(rows)


def evolve_time_ordered(
    hamiltonian: Hamiltonian,
    t0: float,
    t1: float,
    steps: int = DEFAULT_GEOMETRIC_STEPS,
) -> PropagationResult:
    """Time-ordered product of midpoint-rule exponentials.

    U = exp(-i H(m_M) dt) ... exp(-i H(m_1) dt) with m_j the midpoint of the
    j-th subinterval; later factors multiply from the left.  ``hamiltonian``
    is a :class:`BrightTrajectory`, whose generator H_eff is built for a
    whole block of midpoints at once, or a callable t -> H(t).
    """
    unitary, drift = _unitary_product(_midpoint_factors(hamiltonian, t0, t1, steps))
    return PropagationResult(unitary=unitary, steps=steps, unitarity_error=drift, method="effective")


def evolve_trajectory(trajectory, t0=None, t1=None, steps: int = DEFAULT_GEOMETRIC_STEPS) -> PropagationResult:
    """Propagate the geometric generator carried by a bright trajectory."""
    t0 = trajectory.t_start if t0 is None else t0
    t1 = trajectory.t_end if t1 is None else t1
    return evolve_time_ordered(trajectory, t0, t1, steps)


def evolve_full_adiabatic(
    schedule: Callable[[float], CouplingSet],
    config: AdiabaticRunConfig,
) -> PropagationResult:
    """Integrate the full (n+1)-level Schroedinger equation for a drive.

    The coupling schedule is sampled at subinterval midpoints of the
    normalized progress axis (reshaped by ``config.ramp``) and each step is
    the exact exponential of the sampled Lambda Hamiltonian, built and
    multiplied ``FULL_BLOCK`` steps at a time.  This is the ground-truth
    oracle the geometric methods are compared against.
    """
    unitary, drift = _unitary_product(_drive_factors(schedule, config))
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
    return _snapshots(_drive_factors(schedule, config), state, 0.0, 1.0, config.steps, record_every)


def evolve_state_time_ordered(
    hamiltonian: Hamiltonian,
    t0: float,
    t1: float,
    steps: int,
    state: np.ndarray,
    record_every: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint-rule propagation of one state, with snapshots;
    ``hamiltonian`` as for :func:`evolve_time_ordered`.

    Returns (times, states); row 0 is the initial state at t0.
    """
    return _snapshots(_midpoint_factors(hamiltonian, t0, t1, steps), state, t0, t1, steps, record_every)


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
) -> Callable[[float], np.ndarray]:
    """Rewrite a geometric generator under the time substitution tau = f(t).

    The returned schedule t -> H(f(t)) * f'(t) over [t0, t1] propagates to
    the same unitary as the original (geometric evolution depends on the
    path, not on its parametrization).  ``f`` must be strictly increasing.
    The samples are plain matrices: the propagator that steps through them
    checks their hermiticity, a block of midpoints at once.
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

    def remapped(t: float) -> np.ndarray:
        base = hamiltonian(f(t))
        return (base.matrix if isinstance(base, HermitianOperator) else np.asarray(base, dtype=complex)) * rate(t)

    return remapped
