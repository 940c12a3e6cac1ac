"""brightpath: holonomic evolution of dark subspaces from bright-state paths.

The package computes the geometric (holonomic) evolution of quantum systems
confined to the dark subspace of a time-dependent drive, by three mutually
cross-checking routes: effective-Hamiltonian propagation, Berry-connection
holonomy, and full Schroedinger integration.
"""

from .effective import (
    BrightTrajectory,
    GeneralBrightHamiltonian,
    finite_difference_adapter,
    h_eff_couplings,
    h_eff_multi,
    h_eff_single,
)
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
    GateReport,
    GateSpec,
    StirapReport,
    analytic_stage_unitaries,
    compose_gate,
    extract_geometric_phase,
    gate_coupling_schedule,
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
    dark_projector,
    lambda_hamiltonian,
)
from .linalg import (
    HermitianOperator,
    UnitaryOperator,
    expm_hermitian,
    gram_schmidt,
    matrix_distance,
    projector_from_frame,
    unitary_distance,
)
from .morris_shore import (
    AdiabaticityReport,
    MorrisShoreDecomposition,
    TwoManifoldSystem,
    adiabaticity_report,
    morris_shore_transform,
    to_general_hamiltonian,
)
from .propagators import (
    AdiabaticRunConfig,
    PropagationResult,
    dark_block,
    evolve_full_adiabatic,
    evolve_time_ordered,
    leakage,
    reparametrize,
)

__version__ = "0.1.0"

__all__ = [
    "AdiabaticRunConfig",
    "AdiabaticityReport",
    "BrightTrajectory",
    "ConnectionMatrices",
    "CouplingSet",
    "GateReport",
    "GateSpec",
    "GeneralBrightHamiltonian",
    "HermitianOperator",
    "MorrisShoreDecomposition",
    "ParameterPath",
    "PropagationResult",
    "SphericalAngles",
    "StirapReport",
    "TwoManifoldSystem",
    "UnitaryOperator",
    "adiabaticity_report",
    "analytic_stage_unitaries",
    "bright_state",
    "compose_gate",
    "connection_at",
    "couplings_from_angles",
    "dark_basis_parametrized",
    "dark_block",
    "dark_projector",
    "effective_dark_block",
    "evolve_full_adiabatic",
    "evolve_time_ordered",
    "expm_hermitian",
    "extract_geometric_phase",
    "finite_difference_adapter",
    "gate_coupling_schedule",
    "gram_schmidt",
    "h_eff_couplings",
    "h_eff_multi",
    "h_eff_single",
    "holonomy",
    "lambda_hamiltonian",
    "leakage",
    "matrix_distance",
    "morris_shore_transform",
    "projector_from_frame",
    "rectangle_loop",
    "reparametrize",
    "simulate_gate",
    "stage_trajectory",
    "stirap_transfer",
    "to_general_hamiltonian",
    "unitary_distance",
    "u_y_analytic",
    "u_z_analytic",
    "__version__",
]
