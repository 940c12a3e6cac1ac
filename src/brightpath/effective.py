"""Geometric effective Hamiltonians built from bright-state trajectories.

The central object is :class:`BrightTrajectory`: a time-dependent orthonormal
set of bright states with first-class derivative access.  From a trajectory
(or from laser coupling coefficients and their rates) these routines build
the Hermitian generator

    H_eff = sum_i  i (|Bdot_i><B_i| - |B_i><Bdot_i|),

whose Schroedinger evolution transports the instantaneous dark subspace
without ever constructing a dark basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DerivativeInconsistent,
    DimensionMismatch,
    NormalizationDriftError,
    NotNormalized,
    NotOrthonormal,
)
from .lambda_system import CouplingSet
from .linalg import (
    INPUT_ORTHONORMALITY_TOL,
    HermitianOperator,
    _orthonormality_failure,
    check_orthonormal,
)

DERIVATIVE_TANGENCY_TOL = 1e-8
NORMALIZATION_DRIFT_TOL = 1e-8


def _checked_frames(values, derivatives, *, times: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """An (M, k, dim) stack of bright frames and their derivatives, as complex
    arrays, once every frame is orthonormal (``INPUT_ORTHONORMALITY_TOL``)
    and every derivative tangent, |Re <Bdot_i|B_i>| <
    DERIVATIVE_TANGENCY_TOL * max(1, ||Bdot_i||).  The first failing sample
    is named, by its time when ``times`` is given.  Written so that
    non-finite entries fail."""
    values = np.asarray(values, dtype=complex)
    derivatives = np.asarray(derivatives, dtype=complex)
    if values.shape != derivatives.shape or values.ndim != 3:
        raise DimensionMismatch(f"values {values.shape} and derivatives {derivatives.shape} must share an (M, k, dim) shape")

    def at(j: int) -> str:
        return "" if times is None else f" at t={times[j]:.6g}"

    failure = _orthonormality_failure(values)
    if failure is not None:
        j, why = failure
        raise NotOrthonormal(why + at(j))
    tangency = np.abs((derivatives.conj() * values).real.sum(axis=2))
    # ||Bdot_i|| as a hypot reduction, which does not overflow for huge Bdot.
    scale = np.maximum(1.0, np.hypot.reduce(np.abs(derivatives), axis=2))
    passed = (tangency < DERIVATIVE_TANGENCY_TOL * scale).all(axis=1)
    if not passed.all():
        j = int(np.argmin(passed))
        raise DerivativeInconsistent(f"Re <Bdot_i|B_i> = {tangency[j].max():.3e} is not ~0{at(j)}")
    return values, derivatives


def _h_eff_stack(values: np.ndarray, derivatives: np.ndarray, *, times: np.ndarray | None = None) -> np.ndarray:
    """H_eff = sum_i i(|Bdot_i><B_i| - |B_i><Bdot_i|) for every sample of an
    (M, k, dim) stack that passes ``_checked_frames``, as (M, dim, dim)."""
    values, derivatives = _checked_frames(values, derivatives, times=times)
    cross = np.einsum("mki,mkj->mij", derivatives, values.conj())
    # In place, one (M, dim, dim) temporary fewer: conj() copies, so the
    # subtraction reads no entry it has written, and 1j stays the left
    # operand, as in 1j * (cross - cross^dag).
    cross -= cross.conj().transpose(0, 2, 1)
    return np.multiply(1j, cross, out=cross)


def h_eff_single(b: np.ndarray, bdot: np.ndarray) -> HermitianOperator:
    """Effective generator i(|Bdot><B| - |B><Bdot|) for one bright state.

    ``b`` must be normalized and ``Re <Bdot|B>`` must vanish (any derivative
    of a normalized trajectory is tangent to the unit sphere).
    """
    b = np.asarray(b, dtype=complex)
    bdot = np.asarray(bdot, dtype=complex)
    if b.shape != bdot.shape or b.ndim != 1:
        raise DimensionMismatch(f"state and derivative shapes differ: {b.shape} vs {bdot.shape}")
    deviation = abs(np.vdot(b, b).real - 1.0)
    if not deviation < 1e-8:
        raise NotNormalized(f"|<B|B> - 1| = {deviation:.3e}")
    return HermitianOperator(_h_eff_stack(b[None, None], bdot[None, None])[0])


def h_eff_multi(values: Sequence[np.ndarray] | np.ndarray, derivatives: Sequence[np.ndarray] | np.ndarray) -> HermitianOperator:
    """Sum of single-bright-state generators for an orthonormal bright set
    (the one-sample case of the batched build)."""
    frame = np.atleast_2d(np.asarray(values, dtype=complex))
    dframe = np.atleast_2d(np.asarray(derivatives, dtype=complex))
    return HermitianOperator(_h_eff_stack(frame[None], dframe[None])[0])


def h_eff_couplings(c: CouplingSet, rdot, phidot) -> HermitianOperator:
    """Effective generator directly from laser coupling coefficients.

    Entry (i, j) is  r_i r_j [-(phidot_i + phidot_j) + i d/dt ln(r_i/r_j)]
    e^{i(phi_i - phi_j)}, with the logarithmic-derivative term evaluated as
    i (rdot_i r_j - r_i rdot_j), which stays finite when amplitudes vanish.
    """
    rdot = np.asarray(rdot, dtype=float)
    phidot = np.asarray(phidot, dtype=float)
    if rdot.shape != c.r.shape or phidot.shape != c.r.shape:
        raise DimensionMismatch("rdot/phidot must match the coupling set size")
    drift = abs(float(np.sum(c.r * rdot)))
    if not drift < NORMALIZATION_DRIFT_TOL * max(1.0, float(np.linalg.norm(rdot))):
        raise NormalizationDriftError(f"sum(r_i rdot_i) = {drift:.3e} is not ~0")
    gauge = -np.add.outer(phidot, phidot) * np.outer(c.r, c.r)
    twist = 1j * (np.outer(rdot, c.r) - np.outer(c.r, rdot))
    phase = np.exp(1j * np.subtract.outer(c.phi, c.phi))
    return HermitianOperator((gauge + twist) * phase)


@dataclass(frozen=True)
class BrightTrajectory:
    """Time-dependent orthonormal bright frame with analytic derivatives.

    ``sampler(times)`` evaluates a 1-D array of times at once as (values,
    derivatives), each (M, k, dim): the bright states and their time
    derivatives.  ``value(t)`` and ``derivative(t)`` are its one-element
    case.  ``breakpoints`` lists interior times where the derivative may
    jump (piecewise schedules); value stays continuous there.  Evaluation
    must be pure: the same t always yields the same output.
    """

    dim: int
    k: int
    t_start: float
    t_end: float
    sampler: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] = field(repr=False)
    breakpoints: tuple[float, ...] = ()

    def sample(self, times) -> tuple[np.ndarray, np.ndarray]:
        """Values and derivatives at every time of a 1-D array, each (M, k, dim);
        ``DimensionMismatch`` names both shapes when either is not.  Every
        time must lie in [t_start, t_end] (else ``ValueError`` naming both
        intervals): a sampler's formulas do not hold off the domain."""
        times = np.asarray(times, dtype=float)
        if times.size and not (self.t_start <= times.min() and times.max() <= self.t_end):  # NaN fails too
            raise ValueError(
                f"sample times span [{times.min():.6g}, {times.max():.6g}], "
                f"outside the trajectory's [{self.t_start:.6g}, {self.t_end:.6g}]"
            )
        values, derivatives = self.sampler(times)
        expected = (times.size, self.k, self.dim)
        if np.shape(values) != expected or np.shape(derivatives) != expected:
            raise DimensionMismatch(
                f"sampled values {np.shape(values)} and derivatives {np.shape(derivatives)} must both be {expected}"
            )
        return values, derivatives

    def value(self, t: float) -> np.ndarray:
        """The (k, dim) bright frame at time ``t``."""
        return self.sample(np.array([t], dtype=float))[0][0]

    def derivative(self, t: float) -> np.ndarray:
        """The (k, dim) time derivative of the bright frame at ``t``."""
        return self.sample(np.array([t], dtype=float))[1][0]

    def h_eff(self, t: float) -> HermitianOperator:
        """The geometric generator carried by this trajectory at time ``t``."""
        values, derivatives = self.sample(np.array([t], dtype=float))
        return h_eff_multi(values[0], derivatives[0])

    def reversed(self) -> "BrightTrajectory":
        """The same bright path traversed backwards in time."""
        t0, t1 = self.t_start, self.t_end

        def sampler(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            # t0 + t1 - t can round one ulp past an end; the clip keeps it in.
            values, derivatives = self.sample(np.clip(t0 + t1 - times, t0, t1))
            return values, -derivatives

        return BrightTrajectory(self.dim, self.k, t0, t1, sampler, tuple(sorted(t0 + t1 - b for b in self.breakpoints)))

    def validate(self, times: Sequence[float] | None = None, steps_h: tuple[float, float] = (1e-4, 1e-5)) -> None:
        """Check orthonormality and derivative consistency at probe times.

        The derivative check requires the central-difference error to fall
        at second order between the two probe steps (a jump in the frame
        shows up as a stagnating error and is flagged).
        """
        if times is None:
            times = self._default_probe_times()
        h_big, h_small = steps_h
        for t in times:
            check_orthonormal(self.value(t), tol=INPUT_ORTHONORMALITY_TOL)
            if t - h_big < self.t_start or t + h_big > self.t_end:
                continue
            if any(abs(t - b) < 2 * h_big for b in self.breakpoints):
                continue
            deriv = self.derivative(t)
            err = []
            for h in (h_big, h_small):
                fd = (self.value(t + h) - self.value(t - h)) / (2 * h)
                err.append(float(np.linalg.norm(fd - deriv)))
            # Second-order decrease, with an absolute floor for trajectories
            # whose finite-difference error already sits at roundoff.
            if err[1] > 1e-9 and err[1] > 0.05 * err[0]:
                raise DerivativeInconsistent(
                    f"central-difference error at t={t:.6g} fell from {err[0]:.3e} "
                    f"to {err[1]:.3e} only; expected second-order decrease"
                )

    def _default_probe_times(self, count: int = 9) -> list[float]:
        span = self.t_end - self.t_start
        raw = [self.t_start + span * (i + 0.5) / count for i in range(count)]
        # Nudge probes off derivative breakpoints.
        return [t + 1e-3 * span if any(abs(t - b) < 1e-6 * span for b in self.breakpoints) else t for t in raw]

    @staticmethod
    def concatenate(pieces: Sequence["BrightTrajectory"], continuity_tol: float = 1e-12) -> "BrightTrajectory":
        """Join consecutive trajectory pieces into one piecewise trajectory.

        Adjacent pieces must agree in dimensions and meet continuously
        (values at the shared boundary equal within ``continuity_tol``).
        """
        if not pieces:
            raise ValueError("need at least one piece")
        dim, k = pieces[0].dim, pieces[0].k
        for left, right in zip(pieces, pieces[1:]):
            if (right.dim, right.k) != (dim, k):
                raise DimensionMismatch("pieces act on different spaces")
            if abs(right.t_start - left.t_end) > 1e-12:
                raise ValueError("pieces must tile the time axis contiguously")
            mismatch = float(np.linalg.norm(left.value(left.t_end) - right.value(right.t_start)))
            if mismatch > continuity_tol:
                raise ValueError(f"discontinuity {mismatch:.3e} at t={left.t_end!r}")
        edges = [p.t_start for p in pieces[1:]]
        interior = tuple(sorted(set(edges).union(b for p in pieces for b in p.breakpoints)))

        def sampler(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            # A time on a shared edge belongs to the piece on its right.
            which = np.searchsorted(edges, times, side="right")
            values = np.empty((times.size, k, dim), dtype=complex)
            derivatives = np.empty_like(values)
            for i, piece in enumerate(pieces):
                mine = which == i
                if mine.any():
                    values[mine], derivatives[mine] = piece.sample(times[mine])
            return values, derivatives

        return BrightTrajectory(dim, k, pieces[0].t_start, pieces[-1].t_end, sampler, interior)


def finite_difference_adapter(
    value_only: Callable[[float], np.ndarray],
    t_start: float,
    t_end: float,
    dim: int,
    k: int = 1,
    h: float | None = None,
) -> BrightTrajectory:
    """Wrap a value-only frame schedule with numerical derivatives.

    Central differences in the interior, one-sided second-order stencils at
    the domain endpoints.  Values are passed through unchanged (no
    re-orthonormalization) and are orthonormality-checked at every
    evaluation; the default step is 1e-6 * max(1, |t|).  This is the one
    place a scalar frame function enters: the sampler calls it time by time.
    """

    def step(t: float) -> float:
        return h if h is not None else 1e-6 * max(1.0, abs(t))

    def value(t: float) -> np.ndarray:
        frame = np.atleast_2d(np.asarray(value_only(t), dtype=complex))
        check_orthonormal(frame)
        return frame

    def derivative(t: float) -> np.ndarray:
        dt = step(t)
        if t - dt >= t_start and t + dt <= t_end:
            return (value(t + dt) - value(t - dt)) / (2 * dt)
        if t + dt > t_end:
            return (3 * value(t) - 4 * value(t - dt) + value(t - 2 * dt)) / (2 * dt)
        return (-3 * value(t) + 4 * value(t + dt) - value(t + 2 * dt)) / (2 * dt)

    def sampler(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values = np.array([value(float(t)) for t in times], dtype=complex)
        return values, np.array([derivative(float(t)) for t in times], dtype=complex)

    return BrightTrajectory(dim, k, t_start, t_end, sampler)
