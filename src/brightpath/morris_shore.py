"""Reduction of degenerate two-manifold drives to bright pairs plus darks.

A system whose r-fold degenerate ground manifold couples resonantly to an
m-fold degenerate excited manifold is reduced, via the singular value
decomposition of its coupling matrix, to independent driven two-level pairs
and decoupled dark states.  The pairs reproduce the coupling matrix
exactly (``reconstruct``), so the drive rebuilt from them is the original
one, and its dark space is the kernel of V^dag in the ground manifold.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import ZeroCoupling
from .linalg import check_orthonormal

RANK_TOL_DEFAULT = 1e-12


@dataclass(frozen=True)
class TwoManifoldSystem:
    """An r x m complex coupling matrix between degenerate manifolds.

    ``v[g, a]`` couples ground state g to excited state a.  The drive is
    resonant (zero detuning), which keeps the dark space an exact kernel.
    When built from a matrix with fewer rows than columns the constructor
    transposes it, so the ground manifold is always the larger one.
    """

    v: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=complex)
        if v.ndim != 2:
            raise ValueError(f"coupling matrix must be 2-D, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("coupling matrix contains non-finite entries")
        v = v.T.copy() if v.shape[0] < v.shape[1] else v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "v", v)

    @property
    def r(self) -> int:
        return self.v.shape[0]

    @property
    def m(self) -> int:
        return self.v.shape[1]

    def drive_hamiltonian(self) -> np.ndarray:
        """Full (r+m)-dimensional drive: sum_ga V_ga |g><a| + h.c.

        Ground states occupy indices 0..r-1, excited states r..r+m-1.
        """
        dim = self.r + self.m
        h = np.zeros((dim, dim), dtype=complex)
        h[: self.r, self.r :] = self.v
        h[self.r :, : self.r] = self.v.conj().T
        return h


@dataclass(frozen=True)
class MorrisShoreDecomposition:
    """Bright pairs and dark states of a two-manifold drive.

    ``ground_bright``/``excited_bright`` hold one orthonormal vector per
    retained pair (rows), ``couplings`` the matching strengths g_a > 0, and
    ``dark_ground`` the orthonormal kernel of V^dag within the ground
    manifold.
    """

    ground_bright: np.ndarray
    excited_bright: np.ndarray
    couplings: np.ndarray
    dark_ground: np.ndarray
    rank: int

    def __post_init__(self):
        check_orthonormal(self.ground_bright, tol=1e-10)
        check_orthonormal(self.excited_bright, tol=1e-10)
        if len(self.dark_ground):
            check_orthonormal(self.dark_ground, tol=1e-10)

    def reconstruct(self) -> np.ndarray:
        """sum_a g_a |B_a^g><B_a^e|, which must reproduce V."""
        return (self.ground_bright.T * self.couplings) @ self.excited_bright.conj()


def _fix_phase(vector: np.ndarray) -> complex:
    """Phase that rotates the largest-magnitude entry to the positive reals."""
    pivot = int(np.argmax(np.abs(vector)))
    entry = vector[pivot]
    if entry == 0:
        return 1.0 + 0.0j
    return np.exp(-1j * np.angle(entry))


def _lexicographic_order(vectors: np.ndarray) -> np.ndarray:
    keys = [tuple(np.round(np.concatenate([v.real, v.imag]), 12)) for v in vectors]
    return np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=int)


def morris_shore_transform(sys: TwoManifoldSystem, rank_tol: float = RANK_TOL_DEFAULT) -> MorrisShoreDecomposition:
    """Singular value decomposition of the coupling matrix into bright pairs.

    Singular values above ``rank_tol`` relative to the largest become
    coupled pairs; the orthogonal complement of the retained ground singular
    vectors is the dark space.  The decomposition is deterministic: each
    pair is phase-rotated so the ground vector's largest entry is real
    positive, and exactly degenerate pairs are ordered lexicographically.
    """
    u, sigma, wh = np.linalg.svd(sys.v, full_matrices=True)
    if sigma.size == 0 or sigma[0] <= 0.0:
        raise ZeroCoupling("all couplings vanish")
    keep = sigma > rank_tol * sigma[0]
    rank = int(np.count_nonzero(keep))
    if rank == 0:
        raise ZeroCoupling(f"no singular value above {rank_tol:.1e} relative threshold")
    ground = u[:, :rank].T.copy()
    excited = wh[:rank].conj()
    strengths = sigma[:rank].copy()
    for a in range(rank):
        phase = _fix_phase(ground[a])
        ground[a] = ground[a] * phase
        excited[a] = excited[a] * phase
    # Exactly degenerate singular values leave an arbitrary rotation within
    # their block; a lexicographic order of the rotated vectors pins it.
    start = 0
    while start < rank:
        stop = start + 1
        while stop < rank and abs(strengths[stop] - strengths[start]) <= 1e-10 * strengths[0]:
            stop += 1
        if stop - start > 1:
            order = start + _lexicographic_order(ground[start:stop])
            ground[start:stop] = ground[order]
            excited[start:stop] = excited[order]
        start = stop
    dark = u[:, rank:].T.copy()
    for i in range(dark.shape[0]):
        dark[i] = dark[i] * _fix_phase(dark[i])
    if dark.shape[0] > 1:
        dark = dark[_lexicographic_order(dark)]
    return MorrisShoreDecomposition(
        ground_bright=ground,
        excited_bright=excited,
        couplings=strengths,
        dark_ground=dark,
        rank=rank,
    )
