"""brightpath: holonomic evolution of dark subspaces from bright-state paths.

The package computes the geometric (holonomic) evolution of quantum systems
confined to the dark subspace of a time-dependent drive, by three mutually
cross-checking routes: effective-Hamiltonian propagation, Berry-connection
holonomy, and full Schroedinger integration.
"""

from .effective import BrightTrajectory, Piece, h_eff_couplings, h_eff_multi
from .berry import (
    ConnectionMatrices,
    ParameterPath,
    connection_at,
    effective_dark_block,
    holonomy,
    rectangle_loop,
    u_y_analytic,
    u_z_analytic,
)
from .gates import (
    GateSpec,
    StirapReport,
    analytic_stage_unitaries,
    compose_gate,
    extract_geometric_phase,
    gate_coupling_schedule,
    measure_gate,
    simulate_full_gate,
    simulate_gate,
    stage_trajectory,
    stirap_transfer,
)
from .lambda_system import (
    CouplingSet,
    SphericalAngles,
    bright_state,
    couplings_from_angles,
    dark_basis_parametrized,
    lambda_hamiltonian,
)
from .linalg import (
    HermitianOperator,
    UnitaryOperator,
    expm_hermitian,
    matrix_distance,
)
from .morris_shore import (
    MorrisShoreDecomposition,
    TwoManifoldSystem,
    morris_shore_transform,
)
from .propagators import (
    AdiabaticRunConfig,
    PropagationResult,
    dark_block,
    evolve_full_adiabatic,
    evolve_full_sweep,
    evolve_time_ordered,
    leakage,
    reparametrize,
)

__version__ = "0.1.0"

__all__ = [
    "AdiabaticRunConfig",
    "BrightTrajectory",
    "ConnectionMatrices",
    "CouplingSet",
    "GateSpec",
    "HermitianOperator",
    "MorrisShoreDecomposition",
    "ParameterPath",
    "Piece",
    "PropagationResult",
    "SphericalAngles",
    "StirapReport",
    "TwoManifoldSystem",
    "UnitaryOperator",
    "analytic_stage_unitaries",
    "bright_state",
    "compose_gate",
    "connection_at",
    "couplings_from_angles",
    "dark_basis_parametrized",
    "dark_block",
    "effective_dark_block",
    "evolve_full_adiabatic",
    "evolve_full_sweep",
    "evolve_time_ordered",
    "expm_hermitian",
    "extract_geometric_phase",
    "gate_coupling_schedule",
    "h_eff_couplings",
    "h_eff_multi",
    "holonomy",
    "lambda_hamiltonian",
    "leakage",
    "matrix_distance",
    "measure_gate",
    "morris_shore_transform",
    "rectangle_loop",
    "reparametrize",
    "simulate_full_gate",
    "simulate_gate",
    "stage_trajectory",
    "stirap_transfer",
    "u_y_analytic",
    "u_z_analytic",
    "__version__",
]
