"""Unitary propagation of time-dependent Hamiltonians.

Every propagator is one pipeline: step grid -> factors -> reducer, streamed
in blocks of ``FULL_BLOCK`` steps.  The grid splits [t0, t1] into equal
steps and hands out their midpoints one block at a time.  A factor builder
samples and checks each block and turns it into an (m, d, d) array of
one-step exponentials: the exponential midpoint rule (second order, unitary
by construction) for a caller's generator, in closed form from the Gram
matrix of (B, dt Bdot) for a one-bright-state trajectory (no d x d H_eff
is formed), or the closed-form Lambda step of the full (n+1)-level drive,
the brute-force oracle the geometric methods are checked against.  A
reducer consumes the blocks in order: it forms the ordered product (each
block by a pairwise tree, then the block products by the same tree) or
applies the factors to one state (snapshots).  No array longer than one
block is built, so memory stays flat in the step count.  A sweep of full
runs that differ only in Omega*T shares one step grid, so one sampled and
checked drive per block feeds every run's factors; a single full run is the
sweep of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Literal, Protocol, Sequence

import numpy as np

from .effective import BrightTrajectory, _checked_frames, _h_eff_stack
from .errors import DimensionMismatch, NonHermitianSample, NonMonotoneMap
from .lambda_system import _check_drive
from .linalg import (
    HermitianOperator,
    UnitaryOperator,
    _expm_bright_stack,
    _expm_hermitian_stack,
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

# Points of [t0, t1] at which reparametrize checks that a time map increases.
MONOTONICITY_CHECK_POINTS = 65

# What the midpoint rule propagates: a bright trajectory (its geometric
# generator) or any callable t -> H(t).
Hamiltonian = BrightTrajectory | Callable[[float], HermitianOperator | np.ndarray]


class DriveSchedule(Protocol):
    """A Lambda drive over normalized progress: ``sample(progress)`` returns
    the amplitude fractions r (M, n), phases phi (M, n) and Rabi frequencies
    omega (M,) at a 1-D array of progress values in [0, 1]."""

    def sample(self, progress: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]: ...


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
    time.  A trajectory is sampled once per block and its frames checked
    (``_checked_frames``); one bright state takes the closed-form step of
    ``_expm_bright_stack``, k >= 2 the ``eigh`` of the H_eff stack.  A
    callable's samples must pass the hermiticity check, and the first that
    fails is named."""
    blocks, dt = _step_grid(t0, t1, steps)
    if isinstance(hamiltonian, BrightTrajectory):
        for mids in blocks:
            if hamiltonian.k == 1:
                values, derivatives = _checked_frames(*hamiltonian.sample(mids), times=mids)
                yield _expm_bright_stack(values[:, 0], derivatives[:, 0], dt)
            else:
                yield _expm_hermitian_stack(_h_eff_stack(*hamiltonian.sample(mids), times=mids), dt)
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


def _sample_drive(schedule: DriveSchedule, ramp: str, mids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bright states (M, n) and Rabi frequencies (M,) of a drive read at the
    ramped progress midpoints of one block, through ``schedule.sample``.
    Every step must satisfy the ``CouplingSet`` invariants."""
    r, phi, omega = schedule.sample(ramp_value(ramp, mids))
    r, phi = np.asarray(r, dtype=float), np.asarray(phi, dtype=float)
    omega = np.broadcast_to(np.asarray(omega, dtype=float), mids.shape)
    _check_drive(omega, r)
    return r * np.exp(1j * phi), omega


def _drive_phases(schedule: DriveSchedule, runs: Sequence[AdiabaticRunConfig]) -> Iterator[tuple[np.ndarray, list]]:
    """The full drive of runs that share one step grid and ramp, sampled and
    checked once per block: the block's bright states (M, n) and each run's
    step phases Omega * dt (M,), with the run's duration omega_T / Omega
    fixed by the first sample."""
    steps, ramp = runs[0].steps, runs[0].ramp
    blocks, _ = _step_grid(0.0, 1.0, steps)
    dts = None
    for mids in blocks:
        b, omega = _sample_drive(schedule, ramp, mids)
        if dts is None:
            dts = [run.omega_T / omega[0] / steps for run in runs]
        yield b, [omega * dt for dt in dts]


def _drive_factors(schedule: DriveSchedule, config: AdiabaticRunConfig) -> Iterator[np.ndarray]:
    """Exact step factors of one full run, one block at a time."""
    for b, (phase,) in _drive_phases(schedule, [config]):
        yield _lambda_step_factors(b, phase)


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


def _polar(u: np.ndarray) -> tuple[UnitaryOperator, float]:
    """``u`` projected back onto the unitary group (polar decomposition),
    with the pre-projection drift."""
    w, _, vh = np.linalg.svd(u)
    clean = w @ vh
    drift = float(np.linalg.norm(clean.conj().T @ u - np.eye(u.shape[0])))
    return UnitaryOperator(clean), drift


def _unitary_product(blocks: Iterable[np.ndarray]) -> tuple[UnitaryOperator, float]:
    """Ordered product of a stream of factor blocks (each block by the tree
    product, then the block products the same way), through ``_polar``."""
    # map() holds no block, so each is released before the next is built.
    return _polar(_ordered_product(np.array(list(map(_ordered_product, blocks)))))


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
    # The last mark is t1 itself; the grid formula can round one ulp past it.
    return np.minimum(t0 + (t1 - t0) * np.array(marks) / steps, t1), np.array(rows)


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


def evolve_full_sweep(schedule: DriveSchedule, configs: Sequence[AdiabaticRunConfig]) -> list[PropagationResult]:
    """Integrate the full (n+1)-level Schroedinger equation for a drive, once
    per run of a sweep over Omega*T.

    The runs must share ``steps`` and ``ramp`` (else ``ValueError``), so the
    drive is sampled and checked once per block for all of them; each run
    builds that block's exact Lambda step factors at its own Omega * dt and
    reduces them at once to its block product.  Every run carries the same
    bits as its own :func:`evolve_full_adiabatic`.
    """
    if not configs:
        raise ValueError("a sweep needs at least one run")
    grids = sorted({(run.steps, run.ramp) for run in configs})
    if len(grids) > 1:
        raise ValueError(f"the runs of a sweep must share steps and ramp, got (steps, ramp) = {grids}")
    products = [[] for _ in configs]
    for b, phases in _drive_phases(schedule, configs):
        for run_products, phase in zip(products, phases):
            run_products.append(_ordered_product(_lambda_step_factors(b, phase)))
    results = []
    for run, run_products in zip(configs, products):
        unitary, drift = _polar(_ordered_product(np.array(run_products)))
        results.append(PropagationResult(unitary=unitary, steps=run.steps, unitarity_error=drift, method="full"))
    return results


def evolve_full_adiabatic(
    schedule: DriveSchedule,
    config: AdiabaticRunConfig,
) -> PropagationResult:
    """Integrate the full (n+1)-level Schroedinger equation for a drive.

    The coupling schedule is sampled at subinterval midpoints of the
    normalized progress axis (reshaped by ``config.ramp``) and each step is
    the exact exponential of the sampled Lambda Hamiltonian, built and
    multiplied ``FULL_BLOCK`` steps at a time.  This is the ground-truth
    oracle the geometric methods are compared against; it is the one-run
    case of :func:`evolve_full_sweep`.
    """
    (result,) = evolve_full_sweep(schedule, [config])
    return result


def evolve_state_full(
    schedule: DriveSchedule,
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
    trajectory: BrightTrajectory,
    f: Callable[[np.ndarray], np.ndarray],
    fprime: Callable[[np.ndarray], np.ndarray],
    t0: float,
    t1: float,
) -> BrightTrajectory:
    """The same bright path traversed on the new clock tau = f(t), t in [t0, t1].

    The remapped trajectory samples (B(f(t)), f'(t) Bdot(f(t))); H_eff is
    linear in Bdot, so its generator is f'(t) H_eff(f(t)) and it propagates
    to the same unitary (geometric evolution depends on the path, not on its
    parametrization).  ``f`` and ``fprime`` act on arrays of times; ``f``
    must be strictly increasing (else ``NonMonotoneMap``) and map [t0, t1]
    into the base's [t_start, t_end] (else ``ValueError`` naming both
    intervals).  The base breakpoints inside (f(t0), f(t1)) move to their
    preimages, found by bisection.
    """
    mapped = np.asarray(f(np.linspace(t0, t1, MONOTONICITY_CHECK_POINTS)), dtype=float)
    if np.any(np.diff(mapped) <= 0):
        raise NonMonotoneMap("f must be strictly increasing on the new domain")
    if not (trajectory.t_start <= mapped[0] and mapped[-1] <= trajectory.t_end):  # NaN fails too
        raise ValueError(
            f"f maps [{t0:.6g}, {t1:.6g}] onto [{mapped[0]:.6g}, {mapped[-1]:.6g}], "
            f"outside the trajectory's [{trajectory.t_start:.6g}, {trajectory.t_end:.6g}]"
        )

    def sampler(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values, derivatives = trajectory.sample(f(times))
        rate = np.broadcast_to(np.asarray(fprime(times), dtype=float), times.shape)
        return values, rate[:, None, None] * derivatives

    targets = np.array([b for b in trajectory.breakpoints if mapped[0] < b < mapped[-1]])
    lo, hi = np.full(targets.shape, float(t0)), np.full(targets.shape, float(t1))
    while True:  # each pass halves every bracket until it is one float wide
        mid = 0.5 * (lo + hi)
        wide = (lo < mid) & (mid < hi)
        if not wide.any():
            break
        below = np.asarray(f(mid), dtype=float) < targets
        lo, hi = np.where(wide & below, mid, lo), np.where(wide & ~below, mid, hi)
    return BrightTrajectory(trajectory.dim, trajectory.k, t0, t1, sampler, tuple(map(float, hi)))
