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
    # Re <Bdot_i|B_i> as a real dot product of the interleaved (re, im) parts.
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
    (M, k, dim) stack that passes ``_checked_frames``, as (M, dim, dim)."""
    values, derivatives = _checked_frames(values, derivatives, times=times)
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
    states are ``phases * v``, one unit phase per level (None: all 1), for
    the coordinates v that ``sampler`` (values and derivatives) and
    ``values`` give (None: ``sampler``'s values, see ``values_at``).  v may
    be real, and then so is a route's arithmetic."""

    t_start: float
    t_end: float
    phases: np.ndarray | None
    sampler: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    values: Callable[[np.ndarray], np.ndarray] | None = None

    def values_at(self, times: np.ndarray) -> np.ndarray:
        """v alone at ``times``: ``values``, or else the values of ``sampler``."""
        return self.sampler(times)[0] if self.values is None else self.values(times)


@dataclass(frozen=True)
class BrightTrajectory:
    """Time-dependent orthonormal bright frame with analytic derivatives.

    The frame runs through ``pieces``, each starting where the last ends;
    their inner edges are its ``breakpoints``, where the derivative may
    jump (the value stays continuous), and a time on an edge belongs to
    the piece on its right.  ``sample(times)`` evaluates a 1-D array of
    times at once as (values, derivatives), each (M, k, dim), taking each
    time from its piece, times the piece's phases, as complex arrays.
    Evaluation must be pure: the same t always yields the same output.
    """

    dim: int
    k: int
    pieces: tuple[Piece, ...] = field(repr=False)

    @property
    def t_start(self) -> float:
        return self.pieces[0].t_start

    @property
    def t_end(self) -> float:
        return self.pieces[-1].t_end

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return tuple(piece.t_start for piece in self.pieces[1:])

    def split(self, times: np.ndarray) -> list[tuple[Piece, np.ndarray]]:
        """Each piece with its part of the sorted ``times`` (an edge goes to
        the piece on its right; empty parts are dropped), once every time
        lies in [t_start, t_end] (else ``ValueError`` naming both intervals):
        a sampler's formulas do not hold off the domain."""
        times = np.asarray(times, dtype=float)
        if times.size and not (self.t_start <= times.min() and times.max() <= self.t_end):  # NaN fails too
            raise ValueError(
                f"sample times span [{times.min():.6g}, {times.max():.6g}], "
                f"outside the trajectory's [{self.t_start:.6g}, {self.t_end:.6g}]"
            )
        bounds = (0, *times.searchsorted(self.breakpoints), times.size)
        return [(piece, times[lo:hi]) for piece, lo, hi in zip(self.pieces, bounds, bounds[1:]) if hi > lo]

    def _read(self, times, read) -> tuple[np.ndarray, ...]:
        """``read(piece, part)`` on each piece's part of ``times`` (cut by
        ``split``, under its domain check; other orders are sorted and put
        back), times the piece's phases, as complex arrays that must each be
        (M, k, dim) (else ``DimensionMismatch`` naming each shape)."""
        times = np.asarray(times, dtype=float)
        if len(self.pieces) > 1 and (times[:-1] > times[1:]).any():  # NaN is left to split's check
            order = np.argsort(times, kind="stable")
            return tuple(array[np.argsort(order)] for array in self._read(times[order], read))
        spans = self.split(times) or [(self.pieces[0], times)]
        parts = [tuple(np.asarray(a, complex) if p.phases is None else a * p.phases for a in read(p, part)) for p, part in spans]
        arrays = parts[0] if len(parts) == 1 else tuple(map(np.concatenate, zip(*parts)))
        expected = (times.size, self.k, self.dim)
        if any(np.shape(array) != expected for array in arrays):
            shapes = " and ".join(f"{name} {np.shape(array)}" for name, array in zip(("values", "derivatives"), arrays))
            raise DimensionMismatch(f"sampled {shapes} must {'both ' * (len(arrays) > 1)}be {expected}")
        return arrays

    def sample(self, times) -> tuple[np.ndarray, np.ndarray]:
        """Values and derivatives at every time of a 1-D array, each (M, k, dim);
        ``DimensionMismatch`` names both shapes when either is not.  Every
        time must lie in [t_start, t_end] (else ``ValueError`` naming both
        intervals)."""
        return self._read(times, lambda piece, part: piece.sampler(part))

    def values(self, times) -> np.ndarray:
        """The values of ``sample`` alone, (M, k, dim), bit for bit, under the
        same domain and shape checks: each piece's ``values_at``, which
        reads its ``values`` when it has them and skips the derivatives."""
        return self._read(times, lambda piece, part: (piece.values_at(part),))[0]

    def h_eff(self, t: float) -> HermitianOperator:
        """The geometric generator carried by this trajectory at time ``t``."""
        values, derivatives = self.sample(np.array([t], dtype=float))
        return h_eff_multi(values[0], derivatives[0])
