"""Self-contained acceptance checks for the whole engine.

Each criterion is a callable returning a :class:`CriterionResult`; the CLI
``selftest`` subcommand and the pytest acceptance module both run this list.
Every tolerance is fixed here, and every expected value is either a closed
form or produced by an independent oracle (finite differences, the full
Schroedinger integrator, analytic loop integrals).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .berry import (
    SIGMA_Y,
    connection_at,
    effective_dark_block,
    holonomy,
    rectangle_loop,
)
from .effective import h_eff_couplings, h_eff_single
from .gates import (
    GateSpec,
    compose_gate,
    gate_coupling_schedule,
    logical_block,
    simulate_gate,
    stage_trajectory,
    stirap_transfer,
)
from .lambda_system import (
    CouplingSet,
    SphericalAngles,
    bright_state,
    dark_basis_parametrized,
    lambda_hamiltonian,
)
from .linalg import expm_hermitian, matrix_distance, projector_from_frame
from .morris_shore import TwoManifoldSystem, morris_shore_transform, to_general_hamiltonian
from .propagators import (
    AdiabaticRunConfig,
    dark_block,
    evolve_full_adiabatic,
    evolve_time_ordered,
    leakage,
    reparametrize,
)

DEFAULT_SEED = 7


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


def _reference_gate(**kwargs) -> GateSpec:
    psi = np.array([1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    return GateSpec(n=3, psi=psi, phase_twist=np.pi / 3, **kwargs)


def criterion_1_gate_reproduction(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Effective propagation reproduces the composed analytic gate."""
    report = simulate_gate(_reference_gate(), steps=10_000)
    phase_err = abs(report.geometric_phase - (-np.pi / 3))
    passed = report.distance_exact < 1e-6 and phase_err < 1e-7
    return CriterionResult(
        1,
        "gate reproduction",
        passed,
        f"dark-block distance {report.distance_exact:.3e} (tol 1e-6), "
        f"|geometric phase + pi/3| = {phase_err:.3e} (tol 1e-7)",
    )


def criterion_2_cphase(seed: int = DEFAULT_SEED) -> CriterionResult:
    """n=5 gate on psi=|4> with a pi twist acts as CPHASE on two qubits."""
    psi = np.zeros(5, dtype=complex)
    psi[3] = 1.0
    spec = GateSpec(n=5, psi=psi, phase_twist=np.pi)
    report = simulate_gate(spec, steps=10_000)
    block = logical_block(report.simulated_unitary, 5)
    distance = float(np.linalg.norm(block - np.diag([1.0, 1.0, 1.0, -1.0])))
    return CriterionResult(
        2,
        "CPHASE specialization",
        distance < 1e-6,
        f"|logical block - diag(1,1,1,-1)| = {distance:.3e} (tol 1e-6)",
    )


def criterion_3_cross_method(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Holonomy, analytic loop formulas and effective propagation coincide."""
    a, b = 1.0, 0.8
    path_y = rectangle_loop("theta1", "theta2", a, b)
    hol_y = holonomy(path_y).matrix
    ref_y = expm_hermitian(SIGMA_Y * b * np.sin(a), 1.0).matrix
    d_y_closed = float(np.linalg.norm(hol_y - ref_y))
    d_y_eff = float(np.linalg.norm(hol_y - effective_dark_block(path_y)))

    b2, c2 = 1.0, 0.9
    path_z = rectangle_loop("theta2", "phi3", b2, c2)
    hol_z = holonomy(path_z).matrix
    ref_z = np.diag([1.0, np.exp(-1j * c2 * np.sin(b2) ** 2)])
    d_z_closed = float(np.linalg.norm(hol_z - ref_z))
    d_z_eff = float(np.linalg.norm(hol_z - effective_dark_block(path_z)))

    passed = d_y_closed < 1e-8 and d_z_closed < 1e-8 and d_y_eff < 1e-6 and d_z_eff < 1e-6
    return CriterionResult(
        3,
        "cross-method coincidence",
        passed,
        f"theta loop: closed-form {d_y_closed:.3e} (tol 1e-8), effective {d_y_eff:.3e} (tol 1e-6); "
        f"phi3 loop: closed-form {d_z_closed:.3e}, effective {d_z_eff:.3e}",
    )


def criterion_4_connection_oracle(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Closed-form connection equals central differences of the dark frame."""
    rng = np.random.default_rng(seed)
    h = 1e-5
    worst_fd = 0.0
    worst_anti = 0.0
    worst_theta1 = 0.0
    for _ in range(100):
        angles = rng.uniform(-1.4, 1.4, size=4)
        matrices = connection_at(SphericalAngles(*angles)).as_list()
        worst_theta1 = max(worst_theta1, float(np.max(np.abs(matrices[0]))))
        base = dark_basis_parametrized(SphericalAngles(*angles))
        for k, a_k in enumerate(matrices):
            worst_anti = max(worst_anti, float(np.max(np.abs(a_k + a_k.conj().T))))
            up, dn = angles.copy(), angles.copy()
            up[k] += h
            dn[k] -= h
            dp = dark_basis_parametrized(SphericalAngles(*up))
            dm = dark_basis_parametrized(SphericalAngles(*dn))
            fd = np.array(
                [[np.vdot(base[i], (dp[j] - dm[j]) / (2 * h)) for j in range(2)] for i in range(2)]
            )
            worst_fd = max(worst_fd, float(np.max(np.abs(fd - a_k))))
    passed = worst_fd < 1e-6 and worst_anti < 1e-12 and worst_theta1 == 0.0
    return CriterionResult(
        4,
        "connection finite-difference oracle",
        passed,
        f"worst |A_k - FD| = {worst_fd:.3e} (tol 1e-6), worst anti-hermiticity defect "
        f"{worst_anti:.3e} (tol 1e-12), max |A_theta1| = {worst_theta1:.1e}",
    )


def criterion_5_full_dynamics(seed: int = DEFAULT_SEED) -> CriterionResult:
    """The full Schroedinger oracle converges to the geometric prediction."""
    spec = _reference_gate(theta_schedule="smooth", phi_schedule="smooth")
    schedule = gate_coupling_schedule(spec)
    geometric = logical_block(compose_gate(spec), spec.n)
    logical = np.zeros((2, 4), dtype=complex)
    logical[0, 0] = logical[1, 1] = 1.0
    p_logical = projector_from_frame(logical)

    def run(omega_T):
        result = evolve_full_adiabatic(schedule, AdiabaticRunConfig(omega_T=omega_T, steps=65536))
        block = dark_block(result.unitary, logical, logical)
        distance = matrix_distance(block, geometric, "up_to_global_phase")
        return distance, leakage(result.unitary, logical, p_logical)

    dist_2000, leak_2000 = run(2000)
    sweep = [run(omega_T)[0] for omega_T in (250, 1000, 4000)]
    decreasing = sweep[0] > sweep[1] > sweep[2]
    passed = leak_2000 < 1e-3 and dist_2000 < 1e-2 and decreasing
    return CriterionResult(
        5,
        "full-dynamics adiabatic oracle",
        passed,
        f"at OmegaT=2000: leakage {leak_2000:.3e} (tol 1e-3), phase-mode distance "
        f"{dist_2000:.3e} (tol 1e-2); distances over OmegaT (250, 1000, 4000) = "
        f"({sweep[0]:.3e}, {sweep[1]:.3e}, {sweep[2]:.3e}) strictly decreasing: {decreasing}",
    )


def criterion_6_form_equivalence(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Coupling-coefficient and bright-state effective Hamiltonians agree."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        r = rng.uniform(0.05, 1.0, size=n)
        r /= np.linalg.norm(r)
        phi = rng.uniform(-np.pi, np.pi, size=n)
        rdot = rng.normal(size=n)
        rdot -= np.dot(r, rdot) * r
        phidot = rng.normal(size=n)
        c = CouplingSet(omega=1.0, r=r, phi=phi)
        b = bright_state(c)
        bdot = (rdot + 1j * r * phidot) * np.exp(1j * phi)
        lhs = h_eff_couplings(c, rdot, phidot).matrix
        rhs = h_eff_single(b, bdot).matrix
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return CriterionResult(
        6,
        "coupling-form equivalence",
        worst < 1e-10,
        f"worst entrywise deviation over 1000 samples = {worst:.3e} (tol 1e-10)",
    )


def criterion_7_reparametrization(seed: int = DEFAULT_SEED) -> CriterionResult:
    """A t -> t^2 time remap leaves the propagated gate unchanged."""
    spec = _reference_gate(theta_schedule="smooth", phi_schedule="smooth")
    trajectory = stage_trajectory(spec)
    base = evolve_time_ordered(trajectory, 0.0, spec.t3, 10_000).unitary
    remapped = reparametrize(trajectory, lambda t: t * t, lambda t: 2.0 * t, 0.0, 1.0)
    warped = evolve_time_ordered(remapped, 0.0, 1.0, 10_000).unitary
    distance = float(np.linalg.norm(base.matrix - warped.matrix))
    return CriterionResult(
        7,
        "reparametrization invariance",
        distance < 1e-6,
        f"|U(t) - U(t^2 remap)| = {distance:.3e} (tol 1e-6)",
    )


def criterion_8_morris_shore(seed: int = DEFAULT_SEED) -> CriterionResult:
    """SVD reduction: pair/dark counts, reconstruction, kernel, Lambda case."""
    rng = np.random.default_rng(seed)
    worst_recon = 0.0
    worst_kernel = 0.0
    counts_ok = True
    for _ in range(50):
        v = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
        sys = TwoManifoldSystem(v)
        d = morris_shore_transform(sys)
        counts_ok = counts_ok and d.rank == 2 and d.dark_ground.shape[0] == 3
        scale = float(np.linalg.norm(v))
        worst_recon = max(worst_recon, float(np.linalg.norm(d.reconstruct() - v)) / scale)
        h = to_general_hamiltonian(d).hamiltonian(0.0).matrix
        for dark in d.dark_ground:
            embedded = np.concatenate([dark, np.zeros(2)])
            worst_kernel = max(worst_kernel, float(np.linalg.norm(h @ embedded)) / scale)
    c = CouplingSet(
        omega=1.4,
        r=np.array([0.7, 0.5, np.sqrt(1.0 - 0.49 - 0.25)]),
        phi=np.array([0.0, 0.9, -1.2]),
    )
    column = (1.4 * bright_state(c))[:, None]
    rebuilt = to_general_hamiltonian(morris_shore_transform(TwoManifoldSystem(column)))
    lambda_err = float(np.max(np.abs(rebuilt.hamiltonian(0.0).matrix - lambda_hamiltonian(c).matrix)))
    passed = counts_ok and worst_recon < 1e-12 and worst_kernel < 1e-10 and lambda_err < 1e-12
    return CriterionResult(
        8,
        "Morris-Shore reduction",
        passed,
        f"pair/dark counts correct: {counts_ok}; worst relative reconstruction "
        f"{worst_recon:.3e} (tol 1e-12); worst kernel defect {worst_kernel:.3e} (tol 1e-10); "
        f"Lambda-Hamiltonian reproduction {lambda_err:.3e} (tol 1e-12)",
    )


def criterion_9_stirap(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Dark-state dragging transfers |1> to -|2> with full population."""
    report = stirap_transfer(np.pi / 2, steps=4096)
    pop_err = abs(report.transfer_population - 1.0)
    state_err = float(np.linalg.norm(report.final_state - np.array([0.0, -1.0])))
    passed = pop_err < 1e-10 and state_err < 1e-8
    return CriterionResult(
        9,
        "STIRAP transfer",
        passed,
        f"population error {pop_err:.3e} (tol 1e-10), |final + |2>| = {state_err:.3e} (tol 1e-8)",
    )


def criterion_10_universality(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Y-type and Z-type loop holonomies with pi/4 integrals do not commute."""
    a = 1.0
    path_y = rectangle_loop("theta1", "theta2", a, (np.pi / 4) / np.sin(a))
    b = 1.0
    path_z = rectangle_loop("theta2", "phi3", b, (np.pi / 4) / np.sin(b) ** 2)
    u_y = holonomy(path_y).matrix
    u_z = holonomy(path_z).matrix
    norm = float(np.linalg.norm(u_y @ u_z - u_z @ u_y))
    return CriterionResult(
        10,
        "universality witness",
        norm > 0.1,
        f"commutator norm {norm:.3f} (must exceed 0.1)",
    )


CRITERIA: tuple[Callable[[int], CriterionResult], ...] = (
    criterion_1_gate_reproduction,
    criterion_2_cphase,
    criterion_3_cross_method,
    criterion_4_connection_oracle,
    criterion_5_full_dynamics,
    criterion_6_form_equivalence,
    criterion_7_reparametrization,
    criterion_8_morris_shore,
    criterion_9_stirap,
    criterion_10_universality,
)


def run_all(seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    return [criterion(seed) for criterion in CRITERIA]
