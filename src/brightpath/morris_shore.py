"""Reduction of degenerate two-manifold drives to bright pairs plus darks.

A system whose r-fold degenerate ground manifold couples resonantly to an
m-fold degenerate excited manifold is reduced, via the singular value
decomposition of its coupling matrix, to independent driven two-level pairs
and decoupled dark states.  The retained pairs assemble into a
:class:`~brightpath.effective.GeneralBrightHamiltonian` whose dark subspace
evolves geometrically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .effective import BrightTrajectory, GeneralBrightHamiltonian
from .errors import ZeroCoupling
from .linalg import check_orthonormal

RANK_TOL_DEFAULT = 1e-12
RECONSTRUCTION_TOL = 1e-10


@dataclass(frozen=True)
class TwoManifoldSystem:
    """An r x m complex coupling matrix between degenerate manifolds.

    ``v[g, a]`` couples ground state g to excited state a; the resonant
    (zero-detuning) case is the only one supported, which keeps the dark
    space an exact kernel.  When built from a matrix with fewer rows than
    columns the constructor transposes it and flags ``swapped``.
    """

    v: np.ndarray
    detuning: float = 0.0
    swapped: bool = False

    def __post_init__(self):
        v = np.asarray(self.v, dtype=complex)
        if v.ndim != 2:
            raise ValueError(f"coupling matrix must be 2-D, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("coupling matrix contains non-finite entries")
        if self.detuning != 0.0:
            raise ValueError("only resonant (zero-detuning) drives are supported")
        swapped = self.swapped
        if v.shape[0] < v.shape[1]:
            v = v.T.copy()
            swapped = True
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "swapped", swapped)

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

    @property
    def pairs(self) -> list[tuple[np.ndarray, np.ndarray, float]]:
        """(ground vector, excited vector, coupling strength) per pair."""
        return [
            (g, e, float(s))
            for g, e, s in zip(self.ground_bright, self.excited_bright, self.couplings)
        ]

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


def to_general_hamiltonian(d: MorrisShoreDecomposition, r: int | None = None, m: int | None = None) -> GeneralBrightHamiltonian:
    """Embed the retained pairs as a bright-set Hamiltonian on r+m levels.

    The bright set is {ground brights} + {excited brights}; the coupling
    matrix g carries each pair strength in its ground-excited block, so the
    assembled operator reproduces the original drive Hamiltonian exactly.
    """
    pairs = d.rank
    r = d.ground_bright.shape[1] if r is None else r
    m = d.excited_bright.shape[1] if m is None else m
    dim = r + m
    k = 2 * pairs
    frame = np.zeros((k, dim), dtype=complex)
    frame[:pairs, :r] = d.ground_bright
    frame[pairs:, r:] = d.excited_bright
    g = np.zeros((k, k), dtype=complex)
    for a in range(pairs):
        g[a, pairs + a] = d.couplings[a]

    def sampler(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values = np.broadcast_to(frame, (times.size, k, dim))
        return values, np.zeros_like(values)

    return GeneralBrightHamiltonian(frames=BrightTrajectory(dim, k, 0.0, 1.0, sampler), g=lambda t: g)


def align_to_previous(previous: MorrisShoreDecomposition, current: MorrisShoreDecomposition) -> MorrisShoreDecomposition:
    """Re-phase (and re-order) pairs so frames vary continuously in time.

    Each current pair is matched to the previous pair of largest ground
    overlap and rotated so <B_prev | B_curr> is real positive, preventing
    spurious derivative spikes when decompositions are strung into a
    trajectory.
    """
    if current.rank != previous.rank:
        return current
    overlap = np.abs(previous.ground_bright.conj() @ current.ground_bright.T)
    order: list[int] = []
    free = list(range(current.rank))
    for row in overlap:
        pick = max(free, key=lambda j: row[j])
        order.append(pick)
        free.remove(pick)
    ground = current.ground_bright[order].copy()
    excited = current.excited_bright[order].copy()
    strengths = current.couplings[order].copy()
    for a in range(current.rank):
        inner = np.vdot(previous.ground_bright[a], ground[a])
        if inner != 0:
            phase = np.exp(-1j * np.angle(inner))
            ground[a] = ground[a] * phase
            excited[a] = excited[a] * phase
    dark = current.dark_ground.copy()
    if len(dark) and len(previous.dark_ground) == len(dark):
        for i in range(len(dark)):
            inner = np.vdot(previous.dark_ground[i], dark[i])
            if inner != 0:
                dark[i] = dark[i] * np.exp(-1j * np.angle(inner))
    return MorrisShoreDecomposition(
        ground_bright=ground,
        excited_bright=excited,
        couplings=strengths,
        dark_ground=dark,
        rank=current.rank,
    )


@dataclass(frozen=True)
class AdiabaticityReport:
    """Slowness diagnostics for a scheduled two-manifold drive."""

    g_min: float
    slowness_ratio: float
    pair_count_constant: bool
    pair_counts: tuple[int, ...]


def adiabaticity_report(
    schedule: Callable[[float], TwoManifoldSystem],
    samples: int,
    t0: float = 0.0,
    t1: float = 1.0,
    rank_tol: float = RANK_TOL_DEFAULT,
) -> AdiabaticityReport:
    """Scan a schedule for the two adiabaticity criteria of the reduction.

    Reports the smallest retained coupling over the scan, the worst
    dimensionless rate ||dV/dt|| / g_min(t)^2, and whether the number of
    retained pairs stays constant (a pair whose coupling crosses zero breaks
    the reduction).
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    times = np.linspace(t0, t1, samples)
    matrices = [np.asarray(schedule(float(t)).v, dtype=complex) for t in times]
    g_min = np.inf
    counts = []
    ratios = [0.0]
    sig_max_global = 0.0
    for v in matrices:
        sigma = np.linalg.svd(v, compute_uv=False)
        sig_max_global = max(sig_max_global, float(sigma[0]) if sigma.size else 0.0)
    for idx, v in enumerate(matrices):
        sigma = np.linalg.svd(v, compute_uv=False)
        retained = sigma[sigma > rank_tol * sig_max_global]
        counts.append(int(retained.size))
        if retained.size:
            local_min = float(retained[-1])
            g_min = min(g_min, local_min)
            if 0 < idx < samples - 1:
                rate = np.linalg.norm(matrices[idx + 1] - matrices[idx - 1]) / (times[idx + 1] - times[idx - 1])
                ratios.append(float(rate) / local_min**2)
    return AdiabaticityReport(
        g_min=float(g_min) if np.isfinite(g_min) else 0.0,
        slowness_ratio=float(max(ratios)),
        pair_count_constant=len(set(counts)) == 1,
        pair_counts=tuple(counts),
    )
