"""Structure-preserving simulation of a stochastically forced clamped-free beam.

The package is organised bottom-up:

- ``grid``       discrete beam geometry, Gram matrices, norms, membership checks
- ``operators``  drift generator blocks, adjoints, stability constants
- ``propagator`` Cayley time stepping, evolution-family diagnostics, Picard iteration
- ``noise``      spectral noise model, increment projection, Ito isometry diagnostics
- ``solver``     scenes, mild-solution paths, weak-form residuals, ensembles
- ``config``     flat key=value run configuration
- ``verify``     named self-checks used by the CLI
- ``cli``        command line front end
"""

from .errors import (
    StobeamError,
    InvalidArgumentError,
    ShapeError,
    PreconditionError,
    AssemblyError,
    NonConvergenceError,
    BlowupError,
    ConfigError,
)
from .grid import (
    BeamGrid,
    BeamState,
    GramSet,
    build_grid,
    build_grams,
    h_inner,
    h_norm,
)
from .operators import (
    BlockOperator,
    TractiveForce,
    StabilityConstants,
    build_L,
    build_L0,
    build_L1,
    adjoint_H,
    estimate_constants,
)
from .propagator import (
    PropagatorFactorization,
    build_propagator,
    picard_evolution,
    generator_residual,
)
from .noise import (
    NoiseModel,
    build_noise_model,
    project_increments,
    trace_condition,
    ito_variance,
)
from .config import SimulationConfig, parse_config, serialize_config
from .solver import (
    Trajectory,
    EnsembleStats,
    build_scene,
    solve_homogeneous,
    solve_nonhomogeneous,
    weak_residual,
    ensemble_run,
)
from .verify import CheckResult, run_checks

__version__ = "0.1.0"

__all__ = [
    "StobeamError",
    "InvalidArgumentError",
    "ShapeError",
    "PreconditionError",
    "AssemblyError",
    "NonConvergenceError",
    "BlowupError",
    "ConfigError",
    "BeamGrid",
    "BeamState",
    "GramSet",
    "build_grid",
    "build_grams",
    "h_inner",
    "h_norm",
    "BlockOperator",
    "TractiveForce",
    "StabilityConstants",
    "build_L",
    "build_L0",
    "build_L1",
    "adjoint_H",
    "estimate_constants",
    "PropagatorFactorization",
    "build_propagator",
    "picard_evolution",
    "generator_residual",
    "NoiseModel",
    "build_noise_model",
    "project_increments",
    "trace_condition",
    "ito_variance",
    "SimulationConfig",
    "parse_config",
    "serialize_config",
    "Trajectory",
    "EnsembleStats",
    "build_scene",
    "solve_homogeneous",
    "solve_nonhomogeneous",
    "weak_residual",
    "ensemble_run",
    "CheckResult",
    "run_checks",
    "__version__",
]
