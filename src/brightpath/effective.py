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

import functools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DerivativeInconsistent, DimensionMismatch, NormalizationDriftError, NotOrthonormal
from .lambda_system import CouplingSet
from .linalg import HermitianOperator, _orthonormality_failure

DERIVATIVE_TANGENCY_TOL = 1e-8
NORMALIZATION_DRIFT_TOL = 1e-8


def _floats(a: np.ndarray) -> np.ndarray:
    """An (M, k, dim) complex array as (M, k, 2 dim) floats, each entry's
    real and imaginary parts side by side (a view where the layout allows)."""
    return np.ascontiguousarray(a).view(float)


def _checked_frames(values, derivatives, *, times: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """An (M, k, dim) stack of bright frames and their derivatives, as float
    arrays if both are real, else complex, once every frame is orthonormal
    (``INPUT_ORTHONORMALITY_TOL``) and every derivative tangent,
    |Re <Bdot_i|B_i>| < DERIVATIVE_TANGENCY_TOL * max(1, ||Bdot_i||).  The
    first failing sample is named, by its time when ``times`` is given.
    Written so that non-finite entries fail."""
    dtype = float if np.isrealobj(values) and np.isrealobj(derivatives) else complex
    values, derivatives = np.asarray(values, dtype=dtype), np.asarray(derivatives, dtype=dtype)
    if values.shape != derivatives.shape or values.ndim != 3:
        raise DimensionMismatch(f"values {values.shape} and derivatives {derivatives.shape} must share an (M, k, dim) shape")

    def at(j: int) -> str:
        return "" if times is None else f" at t={times[j]:.6g}"

    failure = _orthonormality_failure(values)
    if failure is not None:
        j, why = failure
        raise NotOrthonormal(why + at(j))
    # Re <Bdot_i|B_i> as a real dot product of the real entries, or of the interleaved (re, im) parts.
    tangency = np.abs(np.einsum("mkx,mkx->mk", _floats(derivatives), _floats(values)))
    # The bound is at least DERIVATIVE_TANGENCY_TOL, so ||Bdot_i|| is read
    # only once some sample exceeds that.
    passed = tangency < DERIVATIVE_TANGENCY_TOL
    if not passed.all():
        # ||Bdot_i|| as a left fold of hypot over the dim columns, which does
        # not overflow for huge Bdot; it adds in the order of np.hypot.reduce,
        # at whole-column speed.
        scale = np.maximum(1.0, functools.reduce(np.hypot, np.moveaxis(np.abs(derivatives), 2, 0)))
        passed = tangency < DERIVATIVE_TANGENCY_TOL * scale
    passed = passed.all(axis=1)
    if not passed.all():
        j = int(np.argmin(passed))
        raise DerivativeInconsistent(f"Re <Bdot_i|B_i> = {tangency[j].max():.3e} is not ~0{at(j)}")
    return values, derivatives


def _h_eff_stack(values: np.ndarray, derivatives: np.ndarray, *, times: np.ndarray | None = None) -> np.ndarray:
    """H_eff = sum_i i(|Bdot_i><B_i| - |B_i><Bdot_i|) for every sample of an
    (M, k, dim) stack that passes ``_checked_frames``, as complex (M, dim, dim)."""
    values, derivatives = (np.asarray(side, dtype=complex) for side in _checked_frames(values, derivatives, times=times))
    cross = np.einsum("mki,mkj->mij", derivatives, values.conj())
    # In place, one (M, dim, dim) temporary fewer: conj() copies, so the
    # subtraction reads no entry it has written, and 1j stays the left
    # operand, as in 1j * (cross - cross^dag).
    cross -= cross.conj().transpose(0, 2, 1)
    return np.multiply(1j, cross, out=cross)


def h_eff_multi(values: Sequence[np.ndarray] | np.ndarray, derivatives: Sequence[np.ndarray] | np.ndarray) -> HermitianOperator:
    """Sum of single-bright-state generators for an orthonormal bright set:
    a (k, dim) frame, or one bright state as a 1-D array (the one-sample
    case of the batched build)."""
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


class Piece(NamedTuple):
    """One piece of a bright trajectory, on [t_start, t_end]: its bright
    states are ``frame @ v``, for a (dim, r) isometry ``frame`` and the r
    coordinates v that ``sampler`` (values and derivatives) and ``values``
    give (None: ``sampler``'s values).  v may be real, and then so is a
    route's arithmetic on the piece's r levels."""

    t_start: float
    t_end: float
    frame: np.ndarray | None
    sampler: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    values: Callable[[np.ndarray], np.ndarray] | None = None


def _lifted(frame: np.ndarray, coordinates) -> np.ndarray:
    """(..., r) coordinates v as the complex states ``frame @ v``, by one
    broadcast product per column: BLAS may spread a matmul over rows across
    threads, at more CPU than it saves."""
    states = np.multiply(coordinates[..., 0, None], frame[:, 0], dtype=complex)
    for j in range(1, frame.shape[1]):
        states += coordinates[..., j, None] * frame[:, j]
    return states


@dataclass(frozen=True)
class BrightTrajectory:
    """Time-dependent orthonormal bright frame with analytic derivatives.

    The frame runs through ``pieces``, each with t_start < t_end and
    starting where the last ends, and each frame a (dim, r) isometry within
    ``INPUT_ORTHONORMALITY_TOL``, all checked when the trajectory is built;
    a piece given no frame is stored with the identity, r = dim.
    The inner edges are its ``breakpoints``, where the derivative may jump
    (the value stays continuous); a time on an edge belongs to the piece on
    its right.  ``sample(times)`` evaluates a 1-D array of times at once as
    complex (values, derivatives), each (M, k, dim).  Evaluation must be
    pure: the same t always yields the same output.
    """

    dim: int
    k: int
    pieces: tuple[Piece, ...] = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(piece._replace(frame=np.eye(self.dim)) if piece.frame is None else piece for piece in self.pieces))
        for before, piece in zip((None, *self.pieces), self.pieces):
            if not piece.t_start < piece.t_end:  # NaN fails too
                raise ValueError(f"a piece needs t_start < t_end, got [{piece.t_start:.6g}, {piece.t_end:.6g}]")
            if before is not None and piece.t_start != before.t_end:
                raise ValueError(f"pieces must be contiguous: one ends at {before.t_end:.6g}, the next starts at {piece.t_start:.6g}")
            shape = np.shape(piece.frame)
            if not isinstance(piece.frame, np.ndarray) or len(shape) != 2 or shape[0] != self.dim or shape[1] < self.k:
                raise DimensionMismatch(f"a piece's frame must be a (dim={self.dim}, r) array with r >= k={self.k}, got {shape}")
            failure = _orthonormality_failure(np.asarray(piece.frame, dtype=complex).T[None])
            if failure is not None:
                raise NotOrthonormal(f"a piece's frame is not an isometry: {failure[1]}")

    @property
    def t_start(self) -> float:
        return self.pieces[0].t_start

    @property
    def t_end(self) -> float:
        return self.pieces[-1].t_end

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return tuple(piece.t_start for piece in self.pieces[1:])

    def cover(self, lo: float, hi: float, lead: str) -> list[tuple[Piece, float, float]]:
        """Each piece that (lo, hi) meets, with its part [max(lo, t_start),
        min(hi, t_end)], once [lo, hi] lies in [t_start, t_end] (else
        ``ValueError``, led by ``lead``; NaN fails too): no formula holds off
        it.  The one domain rule of the step grid, ``split`` and ``reparametrize``."""
        if not (self.t_start <= lo and hi <= self.t_end):
            raise ValueError(f"{lead} [{lo:.6g}, {hi:.6g}], outside the trajectory's [{self.t_start:.6g}, {self.t_end:.6g}]")
        return [(piece, max(lo, piece.t_start), min(hi, piece.t_end)) for piece in self.pieces if piece.t_end > lo and piece.t_start < hi]

    def split(self, times: np.ndarray) -> list[tuple[Piece, np.ndarray]]:
        """Each piece with its part of the sorted ``times``, for ``sample``
        and ``values`` (an edge goes to the piece on its right; empty parts
        are dropped), once ``cover`` takes their span."""
        times = np.asarray(times, dtype=float)
        if times.size:
            self.cover(times.min(), times.max(), "sample times span")
        bounds = (0, *times.searchsorted(self.breakpoints), times.size)
        return [(piece, times[lo:hi]) for piece, lo, hi in zip(self.pieces, bounds, bounds[1:]) if hi > lo]

    def coordinates(self, piece: Piece, times: np.ndarray, rates: bool = True) -> tuple[np.ndarray, ...]:
        """``piece``'s sampled values and derivatives at ``times`` (its values
        alone with no ``rates``), each (M, k, r) for the r columns of its
        frame, else ``DimensionMismatch`` names each shape:
        the one reader of a piece, for ``sample``, ``values`` and the routes."""
        if rates:
            arrays = piece.sampler(times)
        else:
            arrays = (piece.sampler(times)[0] if piece.values is None else piece.values(times),)
        expected = (times.size, self.k, piece.frame.shape[1])
        if any(np.shape(array) != expected for array in arrays):
            shapes = " and ".join(f"{name} {np.shape(array)}" for name, array in zip(("values", "derivatives"), arrays))
            raise DimensionMismatch(f"sampled {shapes} must {'both ' * (len(arrays) > 1)}be {expected}")
        return arrays

    def _states(self, times, rates: bool) -> tuple[np.ndarray, ...]:
        """Each piece's ``coordinates`` on its part of ``times`` (cut by
        ``split``; other orders are sorted and put back), through its frame."""
        times = np.asarray(times, dtype=float)
        if len(self.pieces) > 1 and (times[:-1] > times[1:]).any():  # NaN is left to split's check
            order = np.argsort(times, kind="stable")
            return tuple(array[np.argsort(order)] for array in self._states(times[order], rates))
        spans = self.split(times) or [(self.pieces[0], times)]
        parts = [tuple(_lifted(piece.frame, a) for a in self.coordinates(piece, part, rates)) for piece, part in spans]
        return parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))

    def sample(self, times) -> tuple[np.ndarray, np.ndarray]:
        """Values and derivatives at every time of a 1-D array, each (M, k, dim).
        Every time must lie in [t_start, t_end] (else ``ValueError`` naming
        both intervals)."""
        return self._states(times, True)

    def values(self, times) -> np.ndarray:
        """The values of ``sample`` alone, (M, k, dim), bit for bit, under the
        same checks, without the derivatives of a piece with ``values``."""
        return self._states(times, False)[0]

    def h_eff(self, t: float) -> HermitianOperator:
        """The geometric generator carried by this trajectory at time ``t``."""
        values, derivatives = self.sample(np.array([t], dtype=float))
        return h_eff_multi(values[0], derivatives[0])
