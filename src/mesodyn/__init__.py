"""Solvers and diagnostics for i*hbar*dK/dt = -K H - B^2 (K*)^-1."""

__version__ = "0.1.0"

from .diagnostics import (
    CriticalPointSpec,
    DiagnosticsReport,
    FluxInput,
    critical_point,
    differential_check,
    flux_distribution,
    invariant_report,
    special_diagonal_solution,
    total_hamiltonian,
)
from .errors import (
    ConfigInvalidError,
    ConvergenceWarning,
    InsufficientSamplesError,
    MesodynError,
    NearSingularError,
    NonFiniteError,
    NonSquareError,
    NotDiagonalError,
    NotHermitianGaugeError,
    NotOrthonormalError,
    NuDoesNotDominateError,
    OutOfDomainError,
    RankDeficientError,
    RequiresConstantCoefficientsError,
    ShapeMismatchError,
    TruncationDominatesError,
    UsageError,
    ZeroImageError,
)
from .fixed_domain import (
    Trajectory,
    evolve_direct,
    evolve_direct_many,
    evolve_factorized,
    evolve_series,
    polar_init,
)
from .linalg import (
    Pairing,
    adjoint_inverse,
    hermitian_eigendecompose,
    matrix_from_json,
    matrix_to_json,
    pairing,
    unitary_exponential,
    unitary_exponentials,
)
from .moving_domain import (
    coefficient_matrix_evolution,
    gauge_equivalence_checks,
    gauge_propagators,
    moving_report,
    moving_solution,
)
from .scenario import (
    FieldProfile,
    HamiltonianProfile,
    ScenarioConfig,
    ValidationReport,
    integrate_b_squared,
    scenario_from_json,
    scenario_to_json,
    validate_scenario,
)
