"""Dense complex linear-algebra primitives with checked structure.

States are plain 1-D complex ``numpy`` arrays.  Operators that carry a
structural guarantee (hermiticity, unitarity) are wrapped in thin immutable
classes that validate on construction, so every Hamiltonian and every
evolution result in the package is checked the moment it is produced.
"""

from __future__ import annotations

from typing import Iterable, Literal

import numpy as np

from .errors import DimensionMismatch, NotHermitian, NotOrthonormal, NotUnitary

# Input frames may come out of finite-difference pipelines, so they get a
# looser tolerance than anything this package produces itself.
INPUT_ORTHONORMALITY_TOL = 1e-8
HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-9


def as_frame(vectors, *, tol: float = INPUT_ORTHONORMALITY_TOL) -> np.ndarray:
    """Stack vectors into a (k, n) array and check pairwise orthonormality."""
    frame = np.atleast_2d(np.asarray(vectors, dtype=complex))
    if frame.size and frame.ndim != 2:
        raise DimensionMismatch(f"expected a set of vectors, got shape {frame.shape}")
    check_orthonormal(frame, tol=tol)
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
    gram = frames.conj() @ frames.transpose(0, 2, 1)
    deviation = np.abs(gram - np.eye(frames.shape[1])).max(axis=(1, 2), initial=0.0)
    passed = deviation < tol
    if passed.all():
        return None
    j = int(np.argmin(passed))
    return j, f"max |<v_i|v_j> - delta_ij| = {deviation[j]:.3e} exceeds {tol:.1e}"


def _hermiticity_failure(stack: np.ndarray, tol: float = HERMITICITY_TOL) -> tuple[int, str] | None:
    """Index and description of the first matrix in a (k, d, d) stack that
    fails the relative check ||M - M^dag||_F < tol * max(1, ||M||_F), or
    None if all pass.  Written so that non-finite entries fail."""
    skew = stack - stack.conj().transpose(0, 2, 1)
    # Frobenius norms as hypot reductions of |entries|, which do not overflow
    # for entries past 1e154 the way a sum of squares does.
    deviation = np.hypot.reduce(np.abs(skew), axis=(1, 2))
    scale = np.maximum(1.0, np.hypot.reduce(np.abs(stack), axis=(1, 2)))
    passed = deviation < tol * scale
    if passed.all():
        return None
    j = int(np.argmin(passed))
    return j, f"||M - M^dag||_F = {deviation[j]:.3e} exceeds {tol:.1e} * {scale[j]:.3e}"


class HermitianOperator:
    """A square complex matrix verified to be Hermitian at construction.

    The hermiticity check is relative: ||M - M^dag||_F < tol * max(1, ||M||_F).
    Entries are frozen (read-only view) after construction.
    """

    __slots__ = ("_matrix",)

    def __init__(self, matrix, *, tol: float = HERMITICITY_TOL):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
        failure = _hermiticity_failure(m[None], tol)
        if failure is not None:
            raise NotHermitian(failure[1])
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
    """A square complex matrix verified to be unitary at construction."""

    __slots__ = ("_matrix",)

    def __init__(self, matrix, *, tol: float = UNITARITY_TOL):
        m = np.array(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
        deviation = float(np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0])))
        if not deviation < tol:
            raise NotUnitary(f"||U^dag U - 1||_F = {deviation:.3e} exceeds {tol:.1e}")
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


def projector_from_frame(vectors: Iterable[np.ndarray], dim: int | None = None) -> HermitianOperator:
    """Projector sum_i |v_i><v_i| onto the span of an orthonormal frame.

    ``dim`` is required when ``vectors`` is empty (zero projector).
    """
    frame = list(vectors)
    if not frame:
        if dim is None:
            raise DimensionMismatch("dim is required for an empty frame")
        return HermitianOperator(np.zeros((dim, dim), dtype=complex))
    stacked = as_frame(frame)
    if dim is not None and stacked.shape[1] != dim:
        raise DimensionMismatch(f"frame dimension {stacked.shape[1]} != requested {dim}")
    proj = stacked.T @ stacked.conj()
    # Symmetrize away the last bits of rounding noise.
    return HermitianOperator((proj + proj.conj().T) / 2.0)


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
    bright states and their derivatives, in closed form, without forming H.

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
    m, d = b.shape
    e = bdot * t
    g = np.einsum("mi,mi->m", b.conj(), b).real
    beta = np.einsum("mi,mi->m", b.conj(), e)
    gamma = np.einsum("mi,mi->m", e.conj(), e).real
    root = np.sqrt(np.maximum(0.0, gamma * g - beta.real * beta.real))
    lam1, lam2 = root - beta.imag, -root - beta.imag
    # phi(x) = -i e^{-ix/2} sinc(x/2), finite at x = 0; np.sinc(y) = sin(pi y) / (pi y).
    phi1, phi2 = (-1j * np.exp(-0.5j * lam) * np.sinc(lam / (2 * np.pi)) for lam in (lam1, lam2))
    split = root > 0
    c2 = np.where(split, (phi1 - phi2) / np.where(split, 2.0 * root, 1.0), -0.5)
    c1 = phi1 - c2 * lam1
    y1 = (c2 * gamma)[:, None] * b + (1j * c1 - c2 * beta)[:, None] * e
    y2 = (-1j * c1 - c2 * beta.conj())[:, None] * b + (c2 * g)[:, None] * e
    out = np.multiply(y1[:, :, None], b.conj()[:, None, :], out=np.empty((m, d, d), dtype=complex))
    out += y2[:, :, None] * e.conj()[:, None, :]
    out.reshape(m, -1)[:, :: d + 1] += 1.0
    return out


def _ordered_product(factors: np.ndarray) -> np.ndarray:
    """Product F_{k-1} @ ... @ F_0 of a (k, d, d) stack (later factors to the
    left) via pairwise tree reduction; the identity for an empty stack."""
    if factors.shape[0] == 0:
        return np.eye(factors.shape[-1], dtype=complex)
    while factors.shape[0] > 1:
        m = factors.shape[0]
        even = factors[0 : m - m % 2 : 2]
        odd = factors[1 : m : 2]
        merged = odd @ even
        if m % 2:
            merged = np.concatenate([merged, factors[-1:]], axis=0)
        factors = merged
    return factors[0]


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
