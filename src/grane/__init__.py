"""Distributed Nash-equilibrium seeking via gradient play on graphs.

The package is organized as:

* :mod:`grane.games` -- convex games on boxes and the quadratic benchmark
  family with exactly computable constants;
* :mod:`grane.network` -- communication graphs and doubly stochastic mixing
  matrices with their spectral quantities;
* :mod:`grane.augmented` -- the augmented mapping over estimate matrices,
  its Lipschitz/monotonicity constants and the equilibrium certificate;
* :mod:`grane.solvers` -- distributed gradient play, its accelerated
  variant, the centralized reference solver and convergence traces;
* :mod:`grane.experiment` -- the JSON-config experiment harness behind the
  ``grane`` command line.
"""

from .augmented import (
    AugmentedConfig,
    ConditionReport,
    EquilibriumCertificate,
    StrongMonotonicityUnavailableError,
    augmented_mapping,
    condition_report,
    consensual_matrix,
    consensus_gap,
    lipschitz_constant,
    make_augmented_config,
    ne_certificate,
    project_estimates,
    strong_monotonicity_constant,
)
from .games import (
    BoxSet,
    Game,
    GameConstants,
    QuadraticGame,
    make_quadratic_game,
    quadratic_constants,
)
from .network import (
    Graph,
    MixingMatrix,
    complete_graph,
    mixing_from_laplacian,
    mixing_metropolis,
    path_graph,
    random_tree,
    validate_mixing,
)
from .solvers import (
    ConvergenceTrace,
    DivergenceError,
    SolverConfig,
    acc_grane_run,
    centralized_gradient_play,
    grane_run,
    residual_metrics,
)
from .experiment import (
    ConfigError,
    bundled_config,
    constants_report,
    run_experiment,
    validate_config,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentedConfig",
    "BoxSet",
    "ConditionReport",
    "ConfigError",
    "ConvergenceTrace",
    "DivergenceError",
    "EquilibriumCertificate",
    "Game",
    "GameConstants",
    "Graph",
    "MixingMatrix",
    "QuadraticGame",
    "SolverConfig",
    "StrongMonotonicityUnavailableError",
    "acc_grane_run",
    "augmented_mapping",
    "bundled_config",
    "centralized_gradient_play",
    "complete_graph",
    "condition_report",
    "consensual_matrix",
    "consensus_gap",
    "constants_report",
    "grane_run",
    "lipschitz_constant",
    "make_augmented_config",
    "make_quadratic_game",
    "mixing_from_laplacian",
    "mixing_metropolis",
    "ne_certificate",
    "path_graph",
    "project_estimates",
    "quadratic_constants",
    "random_tree",
    "residual_metrics",
    "run_experiment",
    "strong_monotonicity_constant",
    "validate_config",
    "validate_mixing",
]
