"""Numerical laboratory for ground states of indefinite coupled cubic
Schrodinger systems with Dirichlet boundary conditions."""

from .config import RunConfig, SweepSpec, load_config, parse_config
from .errors import (
    ConfigError,
    ConvergedToTilde,
    DegenerateDenominator,
    DegenerateWeight,
    EmptyPositiveSubspace,
    NlssError,
    NoConvergence,
    NoCriticalPointFound,
    NoSynchronizedPair,
)
from .fiber import (
    in_nehari,
    in_nehari_prime,
)
from .functional import (
    SystemParams,
    energy,
    hessian_apply,
    hessian_quadform,
    j_form,
    jacobian,
    nonlinearity,
    residual,
)
from .grids import DomainSpec, Grid, build_grid, laplacian_apply
from .levels import (
    EnergyReport,
    assemble_report,
    h_aux,
    h_inf,
    synchronized_hessian_value,
)
from .options import SolverOptions
from .scalar import (
    PairGrounds,
    ScalarGround,
    least_quotient,
    pair_grounds,
    solve_scalar_ground,
)
from .spectral import Spectrum, eigendecompose, get_spectrum
from .system import (
    CriticalPoint,
    GroundCandidate,
    ReducedResult,
    find_critical_set,
    minimize_reduced,
    newton_refine,
    semitrivial_solutions,
    synchronized_solution,
)
from .thresholds import (
    RegimeReport,
    Thresholds,
    beta_hat,
    classify_regime,
    compute_thresholds,
    pencil_smallest,
)

__version__ = "0.1.0"

__all__ = [
    "RunConfig",
    "SweepSpec",
    "load_config",
    "parse_config",
    "ConfigError",
    "ConvergedToTilde",
    "DegenerateDenominator",
    "DegenerateWeight",
    "EmptyPositiveSubspace",
    "NlssError",
    "NoConvergence",
    "NoCriticalPointFound",
    "NoSynchronizedPair",
    "in_nehari",
    "in_nehari_prime",
    "SystemParams",
    "energy",
    "hessian_apply",
    "hessian_quadform",
    "j_form",
    "jacobian",
    "nonlinearity",
    "residual",
    "DomainSpec",
    "Grid",
    "build_grid",
    "laplacian_apply",
    "EnergyReport",
    "assemble_report",
    "h_aux",
    "h_inf",
    "synchronized_hessian_value",
    "SolverOptions",
    "PairGrounds",
    "ScalarGround",
    "least_quotient",
    "pair_grounds",
    "solve_scalar_ground",
    "Spectrum",
    "eigendecompose",
    "get_spectrum",
    "CriticalPoint",
    "GroundCandidate",
    "ReducedResult",
    "find_critical_set",
    "minimize_reduced",
    "newton_refine",
    "semitrivial_solutions",
    "synchronized_solution",
    "RegimeReport",
    "Thresholds",
    "beta_hat",
    "classify_regime",
    "compute_thresholds",
    "pencil_smallest",
]
