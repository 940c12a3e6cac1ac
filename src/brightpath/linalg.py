"""Dense complex linear-algebra primitives with checked structure.

States are plain 1-D complex ``numpy`` arrays.  Operators that carry a
structural guarantee (hermiticity, unitarity) are wrapped in thin immutable
classes that validate on construction, so every Hamiltonian and every
evolution result in the package is checked the moment it is produced.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from .errors import DimensionMismatch, NotHermitian, NotOrthonormal, NotUnitary

# Input frames come from callers: a trajectory's sampler, or the dark frames
# handed to dark_block.  The check catches a frame that is wrong,
# not one whose formulas round: every midpoint step is unitary for any frame
# (H_eff is Hermitian by construction), and a drift this small moves a result
# by about as much.  So input frames get a looser tolerance than anything
# this package produces itself.
INPUT_ORTHONORMALITY_TOL = 1e-8
HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-9


def as_frame(vectors) -> np.ndarray:
    """Stack vectors into a (k, n) array and check pairwise orthonormality.
    A frame of no vectors is a (0, n) array; an empty list, which has no n,
    raises ``DimensionMismatch``."""
    frame = np.atleast_2d(np.asarray(vectors, dtype=complex))
    if frame.ndim != 2:
        raise DimensionMismatch(f"expected a set of vectors, got shape {frame.shape}")
    if frame.shape[1] == 0:
        raise DimensionMismatch(f"vectors need at least one component, got shape {frame.shape}; pass an empty frame as a (0, n) array")
    check_orthonormal(frame)
    return frame


def check_orthonormal(frame: np.ndarray, tol: float = INPUT_ORTHONORMALITY_TOL) -> None:
    """Raise ``NotOrthonormal`` unless ``frame`` rows satisfy <v_i|v_j> = delta_ij."""
    failure = _orthonormality_failure(np.asarray(frame)[None], tol)
    if failure is not None:
        raise NotOrthonormal(failure[1])


def _orthonormality_failure(frames: np.ndarray, tol: float = INPUT_ORTHONORMALITY_TOL) -> tuple[int, str] | None:
    """Index and description of the first (k, n) frame of an (M, k, n) stack
    whose rows fail max |<v_i|v_j> - delta_ij| < tol, or None if all pass.
    Written so that non-finite entries fail."""
    gram = np.einsum("mki,mli->mkl", frames.conj(), frames)
    deviation = np.abs(gram - np.eye(frames.shape[1])).max(axis=(1, 2), initial=0.0)
    passed = deviation < tol
    if passed.all():
        return None
    j = int(np.argmin(passed))
    return j, f"max |<v_i|v_j> - delta_ij| = {deviation[j]:.3e} exceeds {tol:.1e}"


class HermitianOperator:
    """A square complex matrix verified to be Hermitian at construction.

    The hermiticity check is relative:
    ||M - M^dag||_F < HERMITICITY_TOL * max(1, ||M||_F).
    Entries are frozen (read-only view) after construction.
    """

    __slots__ = ("_matrix",)

    def __init__(self, matrix):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
        # Frobenius norms as hypot reductions of |entries|, which do not
        # overflow for entries past 1e154 the way a sum of squares does.
        # Written so that non-finite entries fail.
        deviation = np.hypot.reduce(np.abs(m - m.conj().T), axis=(0, 1))
        scale = np.maximum(1.0, np.hypot.reduce(np.abs(m), axis=(0, 1)))
        if not deviation < HERMITICITY_TOL * scale:
            raise NotHermitian(f"||M - M^dag||_F = {deviation:.3e} exceeds {HERMITICITY_TOL:.1e} * {scale:.3e}")
        m.setflags(write=False)
        self._matrix = m

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.dim})"


class UnitaryOperator:
    """A square complex matrix verified to be unitary at construction,
    ||U^dag U - 1||_F < UNITARITY_TOL."""

    __slots__ = ("_matrix",)

    def __init__(self, matrix):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
        deviation = float(np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0])))
        if not deviation < UNITARITY_TOL:
            raise NotUnitary(f"||U^dag U - 1||_F = {deviation:.3e} exceeds {UNITARITY_TOL:.1e}")
        m.setflags(write=False)
        self._matrix = m

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def __matmul__(self, other: "UnitaryOperator") -> "UnitaryOperator":
        if self.dim != other.dim:
            raise DimensionMismatch(f"dims {self.dim} and {other.dim} differ")
        return UnitaryOperator(self._matrix @ other.matrix)

    def __repr__(self) -> str:
        return f"UnitaryOperator(dim={self.dim})"


def expm_hermitian(hamiltonian: HermitianOperator | np.ndarray, t: float) -> UnitaryOperator:
    """exp(-i H t) for Hermitian H, via full eigendecomposition.

    Dimensions in this package are tiny, so the eigendecomposition route is
    both exact to floating point and exactly unitary.
    """
    if not isinstance(hamiltonian, HermitianOperator):
        hamiltonian = HermitianOperator(hamiltonian)
    return UnitaryOperator(_expm_hermitian_stack(hamiltonian.matrix[None], t)[0])


def _expm_hermitian_stack(stack: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H_j t) for every matrix of a (k, d, d) Hermitian stack, from one
    stacked eigendecomposition.  The caller has checked hermiticity."""
    evals, evecs = np.linalg.eigh(stack)
    phases = np.exp(-1j * evals * t)
    return (evecs * phases[:, None, :]) @ evecs.conj().transpose(0, 2, 1)


def _expm_bright_stack(b: np.ndarray, bdot: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t H_j) for the one-bright-state generator
    H_j = i(|Bdot_j><B_j| - |B_j><Bdot_j|) of every row of (m, d) stacks of
    bright states and their derivatives, in closed form, without forming H,
    as (d, d, m) entry planes: entry (i, j) of every step in one row.

    With e = t Bdot and X = [B, e], t H = X J X^dag for J = [[0, -i], [i, 0]],
    so t H is fixed by the Gram entries g = <B|B>, beta = <B|e> and
    gamma = <e|e>.  Its nonzero eigenvalues are
    lam_1,2 = -Im beta +- sqrt(gamma g - (Re beta)^2), and
    exp(-i t H) = 1 + c1 t H + c2 (t H)^2 interpolates e^{-ix} at
    {0, lam_1, lam_2}: c2 = (phi(lam_1) - phi(lam_2)) / (lam_1 - lam_2)
    (-1/2 for lam_1 = lam_2 = 0), c1 = phi(lam_1) - c2 lam_1 and
    phi(x) = (e^{-ix} - 1) / x.  In X form that is 1 + |y1><B| + |y2><e|,
    y1 = c2 gamma B + (i c1 - c2 beta) e, y2 = (-i c1 - c2 conj(beta)) B + c2 g e.
    Bdot is scaled by t before any product, so it may be as large as t is small.
    The caller has checked the frames (``effective._checked_frames``).
    """
    return _bright_planes(b, bdot * t, _bright_step_kets)


def _expm_rotation_stack(b: np.ndarray, bdot: np.ndarray, t: float) -> np.ndarray:
    """The step of ``_expm_bright_stack`` for real (m, d) stacks, in real
    arithmetic, as float (d, d, m) entry planes.  For real B, -i t H =
    A = |e><B| - |B><e| is a real antisymmetric rank-2 generator, so
    exp(A) = 1 + (sin rho / rho) A + ((1 - cos rho) / rho^2) A^2 for
    rho^2 = g gamma - beta^2 (Rodrigues' formula): 1 + |y1><B| + |y2><e| with
    y1 = (s + c beta) e - c gamma B, y2 = (c beta - s) B - c g e for the two
    coefficients s and c."""
    return _bright_planes(b, bdot * t, _rotation_step_kets)


def _rotation_step_kets(g: np.ndarray, beta: np.ndarray, gamma: np.ndarray) -> tuple[np.ndarray, ...]:
    """(-c gamma, s + c beta, c beta - s, -c g), the coefficients of y1 and
    y2 of ``_expm_rotation_stack``, from real rows of the Gram entries."""
    rho = np.sqrt(np.maximum(0.0, g * gamma - beta * beta))
    # s and c finite at rho = 0: np.sinc(y) = sin(pi y) / (pi y), and 1 - cos rho = 2 sin^2(rho / 2).
    s, c = np.sinc(rho / np.pi), 0.5 * np.sinc(rho / (2 * np.pi)) ** 2
    return -c * gamma, s + c * beta, c * beta - s, -c * g


def _bright_planes(b: np.ndarray, e: np.ndarray, kets) -> np.ndarray:
    """1 + |y1><B| + |y2><e| for every row of (m, d) stacks B and e, as (d, d, m)
    entry planes, with (y1, y2) = (y1_b B + y1_e e, y2_b B + y2_e e) for the
    rows (y1_b, y1_e, y2_b, y2_e) = kets(g, beta, gamma) of the Gram entries;
    each plane is filled from length-m rows, real if they all are."""
    m, d = b.shape
    y1_b, y1_e, y2_b, y2_e = kets(
        np.einsum("mi,mi->m", b.conj(), b).real,
        np.einsum("mi,mi->m", b.conj(), e),
        np.einsum("mi,mi->m", e.conj(), e).real,
    )
    planes = np.empty((d, d, m), dtype=np.result_type(b, y1_e))
    for i, row in enumerate(planes):
        y1 = y1_b * b[:, i] + y1_e * e[:, i]
        y2 = y2_b * b[:, i] + y2_e * e[:, i]
        for j, entry in enumerate(row):
            np.multiply(y1, b[:, j].conj(), out=entry)
            entry += y2 * e[:, j].conj()
        row[i] += 1.0
    return planes


def _bright_step_kets(g: np.ndarray, beta: np.ndarray, gamma: np.ndarray) -> tuple[np.ndarray, ...]:
    """The coefficients of y1 = c2 gamma B + (i c1 - c2 beta) e and
    y2 = (-i c1 - c2 conj(beta)) B + c2 g e (see ``_expm_bright_stack``) from
    length-m rows of the Gram entries, as (c2 gamma, i c1 - c2 beta,
    -i c1 - c2 conj(beta), c2 g).  Its own function, so that the rows it
    passes through are freed before the planes are filled."""
    root = np.sqrt(np.maximum(0.0, gamma * g - beta.real * beta.real))
    lam1, lam2 = root - beta.imag, -root - beta.imag
    # phi(x) = -i e^{-ix/2} sinc(x/2), finite at x = 0; np.sinc(y) = sin(pi y) / (pi y).
    phi1, phi2 = (-1j * np.exp(-0.5j * lam) * np.sinc(lam / (2 * np.pi)) for lam in (lam1, lam2))
    split = root > 0
    c2 = np.where(split, (phi1 - phi2) / np.where(split, 2.0 * root, 1.0), -0.5)
    c1 = phi1 - c2 * lam1
    return c2 * gamma, 1j * c1 - c2 * beta, -1j * c1 - c2 * beta.conj(), c2 * g


def _ordered_product(planes: np.ndarray) -> np.ndarray:
    """Product F_{m-1} @ ... @ F_0 of (d, d, m) entry planes (later factors to
    the left; the identity for m = 0) by a pairwise tree: each level is one
    batched contraction, and an odd tail is carried up unchanged."""
    if planes.shape[-1] == 0:
        return np.eye(planes.shape[0], dtype=complex)
    while planes.shape[-1] > 1:
        m = planes.shape[-1]
        merged = np.einsum("ilk,ljk->ijk", planes[:, :, 1:m:2], planes[:, :, 0 : m - m % 2 : 2])
        if m % 2:
            merged = np.concatenate([merged, planes[:, :, -1:]], axis=2)
        planes = merged
    return planes[:, :, 0]


DistanceMode = Literal["exact", "up_to_global_phase"]


def matrix_distance(a: np.ndarray, b: np.ndarray, mode: DistanceMode = "exact") -> float:
    """Frobenius distance between two matrices, optionally minimized over a
    global phase (minimizer gamma = arg tr(B^dag A))."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes {a.shape} and {b.shape} differ")
    if mode == "exact":
        return float(np.linalg.norm(a - b))
    if mode == "up_to_global_phase":
        overlap = np.trace(b.conj().T @ a)
        gamma = np.angle(overlap) if overlap != 0 else 0.0
        return float(np.linalg.norm(a - np.exp(1j * gamma) * b))
    raise ValueError(f"unknown mode {mode!r}")
