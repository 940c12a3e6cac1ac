"""Unitary propagation of time-dependent Hamiltonians.

Every propagator is one pipeline: step grid -> factors -> reducer, streamed
in blocks of ``FULL_BLOCK`` steps.  The grid splits [t0, t1] into equal
steps and hands out their midpoints one block at a time.  A factor builder
samples and checks each block and turns it into the one-step exponentials
of its m steps, as (d, d, m) entry planes (entry (i, j) of every step in
one contiguous row): the exponential midpoint rule (second order, unitary
by construction) for the generator H_eff of a bright trajectory, in closed
form from the Gram matrix of (B, dt Bdot) for one bright state (no d x d
H_eff is formed), or the closed-form step of the full (n+1)-level Lambda
Hamiltonian Omega (|B><e| + h.c.), the brute-force oracle the geometric
methods are checked against.  Its drive is one bright trajectory B on
progress [0, 1] at Omega = 1, so B and Omega*T fix a run, and the oracle
reads only the values of its pieces (no Bdot), each part of a block in
its piece's coordinates: the Lambda steps are built and multiplied in the
real form D^-1 F D, D = diag(1, ..., 1, i), real for real coordinates,
and each product is mapped back (``_lift``).  A reducer consumes the
blocks in order: it forms the ordered product (each block by a pairwise
tree, then the block products by the same tree) and, given a
``StateTrace``, applies the same factors to one state by a blocked scan
and hands each block's states, and the states its drive couples then, to
the trace's sink, so a run's unitary and its state trajectory come from
one pass.  No array longer than one block is built, so memory stays flat
in the step count.  The full runs of a sweep over Omega*T share one step
grid, one sampled, checked drive per block, and the run-independent
planes of the block's step pairs; each run hands the tree the closed-form
products of two consecutive Lambda steps (``_LambdaPairs``), so its tree
starts at half the steps.  A trace scans the single steps, and the
unitary comes from the pairs either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Literal, Sequence

import numpy as np

from .effective import BrightTrajectory, Piece, _checked_frames, _h_eff_stack
from .errors import DimensionMismatch, NonMonotoneMap, NotNormalized
from .lambda_system import COUPLING_NORM_TOL
from .linalg import (
    HermitianOperator,
    UnitaryOperator,
    _expm_bright_stack,
    _expm_hermitian_stack,
    _ordered_product,
    as_frame,
    expm_hermitian,  # noqa: F401 -- kept importable as brightpath.propagators.expm_hermitian
)

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
    total duration; the drive itself is a bright trajectory over normalized
    progress s in [0, 1].  A run on another clock propagates
    ``reparametrize(drive, f, fprime, 0, 1)``.
    """

    omega_T: float
    steps: int = DEFAULT_FULL_STEPS

    def __post_init__(self):
        if not (self.omega_T > 0 and np.isfinite(self.omega_T)):
            raise ValueError(f"omega_T must be positive and finite, got {self.omega_T}")
        if not 10 <= self.steps <= MAX_STEPS:
            raise ValueError(f"steps must be in [10, {MAX_STEPS}], got {self.steps}")


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


def _midpoint_factors(trajectory: BrightTrajectory, t0: float, t1: float, steps: int) -> Iterator[np.ndarray]:
    """exp(-i H_eff(m_j) dt) for every midpoint m_j of the grid, one block at
    a time.  The trajectory is sampled once per block and its frames checked
    (``_checked_frames``); one bright state takes the closed-form step of
    ``_expm_bright_stack``, k >= 2 the ``eigh`` of the H_eff stack.  Any
    other input raises ``TypeError`` naming its type."""
    if not isinstance(trajectory, BrightTrajectory):
        raise TypeError(f"the midpoint route propagates a BrightTrajectory, got {type(trajectory).__name__}")
    blocks, dt = _step_grid(t0, t1, steps)
    for mids in blocks:
        if trajectory.k == 1:
            # One expression: the block's samples are freed before the yield,
            # not held while the consumer reduces the block.
            yield _expm_bright_stack(*(side[:, 0] for side in _checked_frames(*trajectory.sample(mids), times=mids)), dt)
        else:
            yield _expm_hermitian_stack(_h_eff_stack(*trajectory.sample(mids), times=mids), dt).transpose(1, 2, 0)


def _bright_states(values, progress: np.ndarray) -> np.ndarray:
    """The (M, n) bright states of a drive sampled at ``progress``, real or
    complex as sampled: one per sample (else ``DimensionMismatch``), each
    normalized within ``COUPLING_NORM_TOL`` (else ``NotNormalized`` names
    the first failing progress; non-finite entries fail too).  The norms
    are one pass over the float view of the states."""
    values = np.asarray(values, dtype=float if np.isrealobj(values) else complex)
    if values.ndim != 3 or values.shape[:2] != (progress.size, 1):
        raise DimensionMismatch(f"the full oracle needs one bright state per sample, (M, 1, n); got {values.shape}")
    b = np.ascontiguousarray(values[:, 0])
    parts = b.view(float)
    deviation = abs(np.einsum("mi,mi->m", parts, parts) - 1.0)
    passed = deviation < COUPLING_NORM_TOL
    if not passed.all():
        j = int(np.argmin(passed))
        raise NotNormalized(f"|<B|B> - 1| = {deviation[j]:.3e} exceeds {COUPLING_NORM_TOL:.1e} at progress={progress[j]:.6g}")
    return b


def _with_excited(values: np.ndarray) -> np.ndarray:
    """The (M, k+1, n+1) states a Lambda drive couples: (M, k, n) bright states, then |n>."""
    m, k, n = values.shape
    coupled = np.zeros((m, k + 1, n + 1), dtype=complex)
    coupled[:, :k, :n] = values
    coupled[:, k, n] = 1.0
    return coupled


def _lambda_rotation(phase: float) -> tuple[float, float]:
    """c = cos p - 1 and s = sin p, the coefficients of the Lambda step
    exp(-i p (|B><e| + |e><B|)) in real form: 1 + c (P_B + P_e) + s (|B><e| - |e><B|)."""
    return np.cos(phase) - 1.0, np.sin(phase)


def _lambda_step_factors(b: np.ndarray, phase: float, out: np.ndarray | None = None) -> np.ndarray:
    """Exact one-step propagators exp(-i H dt) for Lambda Hamiltonians, in
    the real form G = D^-1 F D, D = diag(1, ..., 1, i).

    ``b``: (M, n) bright states per step, ``phase``: the step's Omega * dt.
    Each factor acts on n+1 levels and is the closed form
    1 + (cos p - 1)(P_B + P_e) + sin p (|B><e| - |e><B|), written row by row
    into uninitialized (n+1, n+1, M) entry planes of b's dtype (``out`` when
    given): real for a real B.  ``_lift`` maps a product of them back.
    """
    m, n = b.shape
    planes = np.empty((n + 1, n + 1, m), dtype=b.dtype) if out is None else out
    cosem, sine = _lambda_rotation(phase)
    ket = np.ascontiguousarray(b.T)
    bra = ket.conj()
    for i in range(n):
        np.multiply(cosem * ket[i], bra, out=planes[i, :n])
        planes[i, i] += 1.0
    np.multiply(sine, ket, out=planes[:n, n])
    np.multiply(-sine, bra, out=planes[n, :n])
    planes[n, n] = cosem + 1.0
    return planes


def _lift(phases: np.ndarray | None, n: int) -> np.ndarray:
    """The entrywise factors of W = Phi G Phi^dag, Phi = diag(phases, i),
    which map a real-form product G of a piece's Lambda steps back to the
    propagator W of its bright states ``phases * b``: with no phases, the
    excited row times i and its column times -i, bit for bit."""
    phi = np.append(np.ones(n) if phases is None else phases, 1j)
    return np.outer(phi, phi.conj())


class _LambdaPairs:
    """The products G_{2j+1} G_{2j} of consecutive Lambda steps of a block
    of bright states, in the real form of ``_lambda_step_factors`` and of
    its dtype, in closed form, for any step phase.

    With b0 = B_{2j}, b1 = B_{2j+1}, omega = <b1|b0>, c = cos p - 1 and
    s = sin p, the pair is
    [[1 + c S + kappa X, s (|b0> + mu |b1>)], [-s (<b1| + mu <b0|), cos^2 p - s^2 omega]]
    with S = |b1><b1| + |b0><b0|, X = |b1><b0|, kappa = c^2 omega - s^2 and
    mu = c omega + cos p.  omega, S and X do not depend on the phase, so
    ``load`` builds them once per block for every run of a sweep; a run's
    ``factors`` writes only its pair planes, half as many as its steps, and
    an odd last step is its own ``_lambda_step_factors`` plane.

    The shared planes (kets and bras of the first and second steps, omega,
    S and X) are rows of one complex buffer (or of its float view), made
    for ``size`` steps once per sweep and refilled by each ``load``; a
    trace's single steps of a block (``steps``) are written into the same
    buffer before ``load`` refills it.  Built afresh per block, they cost
    54 000 minor faults, a fifth of a two-run 2^20-step sweep, in some heap
    layouts: the heap top went back to the system at every block's end.
    """

    def __init__(self, n: int, size: int):
        self.buffer = np.empty(max((2 * n * n + 4 * n + 1) * (size // 2), (n + 1) ** 2 * size), dtype=complex)

    def steps(self, b: np.ndarray, phase: float) -> np.ndarray:
        """The single steps exp(-i H dt) of ``b``: its real-form planes
        (``_lambda_step_factors``) mapped back in place, the excited row
        times i and its column times -i, in the buffer until ``load``."""
        m, n = b.shape
        planes = _lambda_step_factors(b, phase, self.buffer[: (n + 1) ** 2 * m].reshape(n + 1, n + 1, m))
        planes[:n, n] *= -1j
        planes[n, :n] *= 1j
        return planes

    def load(self, b: np.ndarray) -> None:
        """Build the shared planes of the (m, n) bright states ``b``."""
        m, n = b.shape
        half = m // 2
        self.tail = b[2 * half :]
        count = 2 * n * n + 4 * n + 1
        rows = self.buffer.view(b.dtype)[: count * half].reshape(count, half)
        kets, bras = rows[: 2 * n].reshape(2, n, half), rows[2 * n : 4 * n].reshape(2, n, half)
        np.copyto(kets, b[: 2 * half].reshape(half, 2, n).transpose(1, 2, 0))
        np.conjugate(kets, out=bras)
        self.ket0, self.ket1 = kets
        self.bra0, self.bra1 = bras
        self.omega = np.einsum("ih,ih->h", self.bra1, self.ket0, out=rows[4 * n])
        self.both, self.cross = rows[4 * n + 1 :].reshape(2, n, n, half)
        for i in range(n):
            np.multiply(self.ket1[i], self.bra1, out=self.both[i])
            self.both[i] += self.ket0[i] * self.bra0
            np.multiply(self.ket1[i], self.bra0, out=self.cross[i])

    def factors(self, phase: float) -> np.ndarray:
        """(n+1, n+1, ceil(m/2)) entry planes: every pair's product at step
        phase ``phase``, then the odd last step if there is one."""
        n, _, half = self.both.shape
        c, s = _lambda_rotation(phase)
        cos = c + 1.0
        kappa = c * c * self.omega - s * s
        mu = c * self.omega + cos
        planes = np.empty((n + 1, n + 1, half + len(self.tail)), dtype=self.omega.dtype)
        pairs = planes[:, :, :half]
        for i in range(n):
            np.multiply(kappa, self.cross[i], out=pairs[i, :n])
            pairs[i, :n] += c * self.both[i]
            pairs[i, i] += 1.0
        np.multiply(s, self.ket0 + mu * self.ket1, out=pairs[:n, n])
        np.multiply(-s, self.bra1 + mu * self.bra0, out=pairs[n, :n])
        np.multiply(-s * s, self.omega, out=pairs[n, n])
        pairs[n, n] += cos * cos
        if len(self.tail):
            _lambda_step_factors(self.tail, phase, planes[:, :, half:])
        return planes


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
    return _polar(_ordered_product(np.stack(list(map(_ordered_product, blocks)), axis=-1)))


@dataclass(frozen=True)
class StateTrace:
    """A start state for a propagation to carry along its factor stream.

    ``sink(times, states, coupled)`` receives each block's rows before the
    next block is built: the start state (with the first block), then the
    state after every step, at its grid time, and the (rows, k, d) states
    the drive couples then.  So one pass gives both the unitary and the
    state trajectory, and at most one block of states is held.
    """

    state: np.ndarray
    sink: Callable[[np.ndarray, np.ndarray, np.ndarray], None]


def _scanned_states(planes: np.ndarray, psi: np.ndarray, out: np.ndarray) -> None:
    """Write F_j ... F_0 psi, the state after every step j of (d, d, m)
    entry planes, into the m rows of ``out`` by a blocked scan.

    The m steps split into chunks of w = ceil(sqrt(m)) steps (the last may
    be shorter), and position p of every chunk is the strided slice
    ``planes[:, :, p::w]``.  One running product per position, batched over
    the chunks, gives every chunk's product; a chunk's start state is the
    previous chunk's product applied to the previous start; and one batched
    matvec per position steps every chunk's state at once.  So a block
    takes O(sqrt(m)) numpy calls, and the only arrays it holds besides the
    rows are (d, d) and (d,) per chunk.  The scan reassociates the
    products, so a row differs from the step-by-step product F_j (... (F_0
    psi)) by rounding only, of the same O(j eps) order.
    """
    d, _, m = planes.shape
    width = math.isqrt(m - 1) + 1
    chunks = -(-m // width)
    total = planes[:, :, ::width].copy()
    for p in range(1, width):
        at = planes[:, :, p::width]
        n = at.shape[-1]
        total[:, :, :n] = np.einsum("ilc,ljc->ijc", at, total[:, :, :n])
    starts = np.empty((d, chunks), dtype=complex)
    starts[:, 0] = psi
    for c in range(1, chunks):
        starts[:, c] = total[:, :, c - 1] @ starts[:, c - 1]
    state = starts
    for p in range(width):
        at = planes[:, :, p::width]
        state = np.einsum("ijc,jc->ic", at, state[:, : at.shape[-1]])
        out[p::width] = state.T


def _traced(trace: StateTrace, t0: float, t1: float, steps: int, coupled) -> Callable[[np.ndarray], np.ndarray]:
    """A per-block step: it carries the trace's state through the block's
    factors, hands the block's rows to the trace's sink as one (rows, d)
    array, with ``coupled(times)`` of their times, and returns the block.
    The rows come from the blocked scan of ``_scanned_states`` (64 chunks
    of 64 steps for a ``FULL_BLOCK``), with no loop over steps; they differ
    from those of a step-by-step ``factor @ psi`` loop by rounding only,
    under 1e-14 over 8 195 steps on the suite's drives.  A state whose
    length is not the factors' dimension raises ``DimensionMismatch``
    before the first step."""
    psi = np.asarray(trace.state, dtype=complex)
    done = 0

    def step(block: np.ndarray) -> np.ndarray:
        nonlocal psi, done
        if psi.shape != block.shape[:1]:
            raise DimensionMismatch(f"trace state has shape {psi.shape}, but the step factors are {block.shape[:2]}")
        first = int(done == 0)
        rows = np.empty((first + block.shape[-1], psi.size), dtype=complex)
        rows[:first] = psi
        _scanned_states(block, psi, rows[first:])
        psi = rows[-1].copy()
        done += block.shape[-1]
        marks = np.arange(done + 1 - len(rows), done + 1)
        # The last mark is t1 itself; the grid formula can round one ulp past it.
        times = np.minimum(t0 + (t1 - t0) * marks / steps, t1)
        trace.sink(times, rows, coupled(times))
        return block

    return step


def _recorded(propagate, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All rows that ``propagate(trace)`` hands a trace of ``state``, as
    (times, states)."""
    blocks = []
    propagate(StateTrace(state, lambda times, states, coupled: blocks.append((times, states))))
    times, states = zip(*blocks)
    return np.concatenate(times), np.concatenate(states)


def evolve_time_ordered(
    trajectory: BrightTrajectory,
    t0: float,
    t1: float,
    steps: int = DEFAULT_GEOMETRIC_STEPS,
    trace: StateTrace | None = None,
) -> PropagationResult:
    """Time-ordered product of midpoint-rule exponentials.

    U = exp(-i H(m_M) dt) ... exp(-i H(m_1) dt) with m_j the midpoint of the
    j-th subinterval; later factors multiply from the left, and H is the
    generator H_eff of the bright ``trajectory``, sampled a whole block of
    midpoints at once.  A ``trace`` carries its state along the same
    factors, with times in [t0, t1], and the bright states at those times.
    """
    blocks = _midpoint_factors(trajectory, t0, t1, steps)
    # A lambda: a trajectory of the wrong type is refused by _midpoint_factors.
    scan = None if trace is None else _traced(trace, t0, t1, steps, lambda times: trajectory.values(times))
    unitary, drift = _unitary_product(blocks if scan is None else map(scan, blocks))
    return PropagationResult(unitary=unitary, steps=steps, unitarity_error=drift, method="effective")


def evolve_full_sweep(
    drive: BrightTrajectory,
    configs: Sequence[AdiabaticRunConfig],
    trace: StateTrace | None = None,
) -> list[PropagationResult]:
    """Integrate the full (n+1)-level Schroedinger equation, once per run of
    a sweep over Omega*T: the ground-truth oracle of the geometric methods.

    The drive is one bright state B on progress [0, 1] at Omega = 1, and
    only values are read.  Each block is split at the drive's piece edges
    (``BrightTrajectory.split``), and each part runs in its piece's
    coordinates and dtype.  The runs must share ``steps`` (else
    ``ValueError``), so each part is sampled and checked once for all of
    them, and the run-independent parts of its step pairs
    (``_LambdaPairs``) are built once; each run then reduces its closed-form
    pair products of phase omega_T / steps, half as many factors as steps,
    and maps the product back (``_lift``), so memory does not grow with
    the number of runs.  A ``trace`` (one run only) carries its state
    along the single steps of the same run, with times in progress units,
    and its sink is handed the bright state and the excited level at those
    times; the unitary comes from the pairs either way, so a traced run's
    unitary is the untraced one, bit for bit.
    """
    if not configs:
        raise ValueError("a sweep needs at least one run")
    steps = configs[0].steps
    if any(run.steps != steps for run in configs):
        raise ValueError(f"the runs of a sweep must share steps, got {sorted({run.steps for run in configs})}")
    if trace is not None and len(configs) != 1:
        raise ValueError(f"a trace follows one run, got {len(configs)}")
    scan = None if trace is None else _traced(trace, 0.0, 1.0, steps, lambda times: _with_excited(drive.values(times)))
    blocks, _ = _step_grid(0.0, 1.0, steps)
    products = [[] for _ in configs]
    pairs = None
    for mids in blocks:
        parts = [(piece, _bright_states(piece.values_at(part), part)) for piece, part in drive.split(mids)]
        if pairs is None:
            pairs = _LambdaPairs(parts[0][1].shape[1], min(steps, FULL_BLOCK))
        if scan is not None:
            # The steps of the bright states themselves: a trace's rows do
            # not depend on how a path is cut into pieces.
            bright = np.concatenate([b if piece.phases is None else b * piece.phases for piece, b in parts])
            scan(pairs.steps(bright, configs[0].omega_T / steps))
        for piece, b in parts:
            pairs.load(b)
            lift = _lift(piece.phases, b.shape[1])
            for run, run_products in zip(configs, products):
                run_products.append(lift * _ordered_product(pairs.factors(run.omega_T / steps)))
    results = []
    for run_products in products:
        unitary, drift = _polar(_ordered_product(np.stack(run_products, axis=-1)))
        results.append(PropagationResult(unitary=unitary, steps=steps, unitarity_error=drift, method="full"))
    return results


def evolve_full_adiabatic(
    drive: BrightTrajectory,
    config: AdiabaticRunConfig,
    trace: StateTrace | None = None,
) -> PropagationResult:
    """One run of :func:`evolve_full_sweep`."""
    return evolve_full_sweep(drive, [config], trace)[0]


def evolve_state_full(
    drive: BrightTrajectory,
    config: AdiabaticRunConfig,
    state: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate one state through the full dynamics, recording snapshots.

    Returns (times, states) with ``times`` in normalized progress units and
    ``states`` of shape (len(times), n+1); row 0 is the initial state.  The
    rows a :class:`StateTrace` of :func:`evolve_full_adiabatic` receives.
    """
    return _recorded(lambda trace: evolve_full_adiabatic(drive, config, trace), state)


def evolve_state_time_ordered(
    trajectory: BrightTrajectory,
    t0: float,
    t1: float,
    steps: int,
    state: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint-rule propagation of one state along a bright ``trajectory``,
    with snapshots.

    Returns (times, states); row 0 is the initial state at t0.  The rows a
    :class:`StateTrace` of :func:`evolve_time_ordered` receives.
    """
    return _recorded(lambda trace: evolve_time_ordered(trajectory, t0, t1, steps, trace), state)


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

    The maximum of 1 - <Ud| P_dark_end |Ud> over unit vectors d in the span
    of the ``dark_start`` frame D: 1 - lambda_min of the retained Gram
    matrix D U^dag P U D^dag (k x k for k frame vectors), so the value does
    not depend on which basis of the span D lists.  0 for an empty frame.
    """
    matrix = u.matrix if isinstance(u, UnitaryOperator) else np.asarray(u, dtype=complex)
    start = as_frame(dark_start)
    proj = p_dark_end.matrix
    images = start @ matrix.T
    retained = np.linalg.eigvalsh(images.conj() @ proj @ images.T)
    return float(1.0 - retained[0]) if retained.size else 0.0


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
    intervals).  The pieces that f's image meets keep their phases and
    coordinates (a real piece stays real), and the base's piece edges
    inside (f(t0), f(t1)) move to their preimages, found by bisection.
    """
    mapped = np.asarray(f(np.linspace(t0, t1, MONOTONICITY_CHECK_POINTS)), dtype=float)
    if np.any(np.diff(mapped) <= 0):
        raise NonMonotoneMap("f must be strictly increasing on the new domain")
    if not (trajectory.t_start <= mapped[0] and mapped[-1] <= trajectory.t_end):  # NaN fails too
        raise ValueError(
            f"f maps [{t0:.6g}, {t1:.6g}] onto [{mapped[0]:.6g}, {mapped[-1]:.6g}], "
            f"outside the trajectory's [{trajectory.t_start:.6g}, {trajectory.t_end:.6g}]"
        )

    # The pieces that f's image meets, as sampling assigns an edge, and the
    # edges inside the image.
    kept = [piece for piece in trajectory.pieces if piece.t_end > mapped[0] and piece.t_start < mapped[-1]]
    targets = np.array([piece.t_start for piece in kept[1:]])
    lo, hi = np.full(targets.shape, float(t0)), np.full(targets.shape, float(t1))
    while True:  # each pass halves every bracket until it is one float wide
        mid = 0.5 * (lo + hi)
        wide = (lo < mid) & (mid < hi)
        if not wide.any():
            break
        below = np.asarray(f(mid), dtype=float) < targets
        lo, hi = np.where(wide & below, mid, lo), np.where(wide & ~below, mid, hi)

    def remapped(piece: Piece, start: float, end: float) -> Piece:
        def sampler(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            values, derivatives = piece.sampler(f(times))
            rate = np.broadcast_to(np.asarray(fprime(times), dtype=float), times.shape)
            return values, rate[:, None, None] * derivatives

        return Piece(start, end, piece.phases, sampler, lambda times: piece.values_at(f(times)))

    edges = (float(t0), *map(float, hi), float(t1))
    return BrightTrajectory(trajectory.dim, trajectory.k, tuple(map(remapped, kept, edges, edges[1:])))
