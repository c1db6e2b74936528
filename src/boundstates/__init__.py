"""Bound states of 1D attractive wells.

A Green's-kernel fixed-point solver that maps binding energy to coupling
strength (and back, by curve inversion), a grid Lanczos eigensolver with a
residual-variance gauge that separates genuine bound pairs from the
spurious ones the discretized continuum produces, and independent oracles
(outward shooting, closed-form levels) to arbitrate between them.
"""

from .errors import (
    ConfigError,
    GridMismatchError,
    NoBoundStateError,
    SolverError,
)
from .grid import Grid, SampledFunction, make_grid
from .lanczos import (
    Hamiltonian,
    RitzPair,
    classify_pairs,
    delta_check,
    hamiltonian_apply,
    lanczos_run,
    ritz_history,
    start_vector,
    tridiagonal_eigen,
    write_trace_csv,
)
from .potentials import (
    PotentialSpec,
    potential_pieces,
    sample_potential,
)
from .shooting import (
    ShootingConfig,
    analytic_level,
    shoot_mismatch,
    shooting_eigenvalue,
)
from .waxman import (
    GreensKernel,
    LambdaEpsilonCurve,
    WaxmanConfig,
    apply_kernel,
    bound_state_residual,
    curve_from_results,
    invert_curve,
    sweep_results,
    threshold_lambda,
    waxman_fixed_point,
    waxman_step,
    write_sweep_csv,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "GridMismatchError",
    "NoBoundStateError",
    "SolverError",
    "Grid",
    "SampledFunction",
    "make_grid",
    "PotentialSpec",
    "sample_potential",
    "potential_pieces",
    "GreensKernel",
    "WaxmanConfig",
    "LambdaEpsilonCurve",
    "apply_kernel",
    "waxman_step",
    "waxman_fixed_point",
    "sweep_results",
    "curve_from_results",
    "invert_curve",
    "threshold_lambda",
    "bound_state_residual",
    "write_sweep_csv",
    "Hamiltonian",
    "RitzPair",
    "hamiltonian_apply",
    "start_vector",
    "lanczos_run",
    "tridiagonal_eigen",
    "ritz_history",
    "delta_check",
    "classify_pairs",
    "write_trace_csv",
    "ShootingConfig",
    "shoot_mismatch",
    "shooting_eigenvalue",
    "analytic_level",
]
