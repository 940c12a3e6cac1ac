"""Dense complex linear-algebra primitives with checked structure.

States are plain 1-D complex ``numpy`` arrays.  Operators that carry a
structural guarantee (hermiticity, unitarity) are wrapped in thin immutable
classes that validate on construction, so every Hamiltonian and every
evolution result in the package is checked the moment it is produced.
"""

from __future__ import annotations

from typing import Iterable, Literal, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    LinearlyDependentInput,
    NotHermitian,
    NotNormalized,
    NotOrthonormal,
    NotUnitary,
)

# Input frames may come out of finite-difference pipelines, so they get a
# looser tolerance than anything this package produces itself.
INPUT_ORTHONORMALITY_TOL = 1e-8
OUTPUT_ORTHONORMALITY_TOL = 1e-10
NORMALIZATION_TOL = 1e-10
HERMITICITY_TOL = 1e-10
UNITARITY_TOL = 1e-9


def as_state(v, *, require_normalized: bool = False, tol: float = NORMALIZATION_TOL) -> np.ndarray:
    """Coerce ``v`` to a 1-D complex vector, optionally checking its norm."""
    vec = np.asarray(v, dtype=complex)
    if vec.ndim != 1 or vec.size < 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {vec.shape}")
    if require_normalized:
        deviation = abs(np.vdot(vec, vec).real - 1.0)
        if deviation >= tol:
            raise NotNormalized(f"|<v|v> - 1| = {deviation:.3e} exceeds {tol:.1e}")
    return vec


def as_frame(vectors, *, tol: float = INPUT_ORTHONORMALITY_TOL) -> np.ndarray:
    """Stack vectors into a (k, n) array and check pairwise orthonormality."""
    frame = np.atleast_2d(np.asarray(vectors, dtype=complex))
    if frame.size and frame.ndim != 2:
        raise DimensionMismatch(f"expected a set of vectors, got shape {frame.shape}")
    check_orthonormal(frame, tol=tol)
    return frame


def check_orthonormal(frame: np.ndarray, tol: float = INPUT_ORTHONORMALITY_TOL) -> None:
    """Raise ``NotOrthonormal`` unless ``frame`` rows satisfy <v_i|v_j> = delta_ij."""
    if len(frame) == 0:
        return
    gram = frame.conj() @ frame.T
    deviation = np.max(np.abs(gram - np.eye(len(frame))))
    if deviation >= tol:
        raise NotOrthonormal(f"max |<v_i|v_j> - delta_ij| = {deviation:.3e} exceeds {tol:.1e}")


def _hermiticity_failure(stack: np.ndarray, tol: float = HERMITICITY_TOL) -> tuple[int, str] | None:
    """Index and description of the first matrix in a (k, d, d) stack that
    fails the relative check ||M - M^dag||_F < tol * max(1, ||M||_F), or
    None if all pass.  Written so that non-finite entries fail."""
    skew = stack - stack.conj().transpose(0, 2, 1)
    deviation2 = (skew.conj() * skew).real.sum(axis=(1, 2))  # squared Frobenius norms
    scale2 = np.maximum(1.0, (stack.conj() * stack).real.sum(axis=(1, 2)))
    passed = deviation2 < tol * tol * scale2
    if passed.all():
        return None
    j = int(np.argmin(passed))
    return j, f"||M - M^dag||_F = {np.sqrt(deviation2[j]):.3e} exceeds {tol:.1e} * {np.sqrt(scale2[j]):.3e}"


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

    def dagger(self) -> "UnitaryOperator":
        return UnitaryOperator(self._matrix.conj().T)

    def __matmul__(self, other: "UnitaryOperator") -> "UnitaryOperator":
        if self.dim != other.dim:
            raise DimensionMismatch(f"dims {self.dim} and {other.dim} differ")
        return UnitaryOperator(self._matrix @ other.matrix)

    def __repr__(self) -> str:
        return f"UnitaryOperator(dim={self.dim})"


def gram_schmidt(vectors: Sequence[np.ndarray], *, independence_tol: float = 1e-10) -> list[np.ndarray]:
    """Orthonormalize a linearly independent set of vectors.

    The first output vector is the normalized first input; the returned set
    spans the same space as the inputs.  Raises ``LinearlyDependentInput``
    when the smallest singular value of the stacked inputs falls below
    ``independence_tol`` relative to the largest.
    """
    stacked = np.atleast_2d(np.asarray(list(vectors), dtype=complex))
    if stacked.size == 0:
        return []
    dims = {v.shape for v in stacked}
    if len(dims) != 1:
        raise DimensionMismatch("input vectors have mixed dimensions")
    singular = np.linalg.svd(stacked, compute_uv=False)
    if singular[-1] <= independence_tol * singular[0]:
        raise LinearlyDependentInput(
            f"smallest relative singular value {singular[-1] / singular[0]:.3e} "
            f"below {independence_tol:.1e}"
        )
    # Modified Gram-Schmidt with a second orthogonalization pass per vector
    # keeps the output at the 1e-10 self-consistency tolerance.
    basis: list[np.ndarray] = []
    for v in stacked:
        w = v.copy()
        for _ in range(2):
            for b in basis:
                w = w - np.vdot(b, w) * b
        norm = np.linalg.norm(w)
        basis.append(w / norm)
    check_orthonormal(np.asarray(basis), tol=OUTPUT_ORTHONORMALITY_TOL)
    return basis


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


def _ordered_product(factors: np.ndarray) -> np.ndarray:
    """Product F_{k-1} @ ... @ F_0 of a (k, d, d) stack (later factors to the
    left) via pairwise tree reduction; the identity for an empty stack."""
    if factors.shape[0] == 0:
        return np.eye(factors.shape[-1], dtype=complex)
    while factors.shape[0] > 1:
        m = factors.shape[0]
        even = factors[0 : m - m % 2 : 2]
        odd = factors[1 : m : 2]
        merged = np.einsum("mij,mjk->mik", odd, even)
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


def unitary_distance(u: UnitaryOperator, v: UnitaryOperator, mode: DistanceMode = "exact") -> float:
    """Frobenius distance between unitaries, exact or up to a global phase."""
    if u.dim != v.dim:
        raise DimensionMismatch(f"dims {u.dim} and {v.dim} differ")
    return matrix_distance(u.matrix, v.matrix, mode)
