"""Second-order quantile methods for expert advice and combinatorial games.

Library layout:

- ``squint.numerics``: the stable learning-rate integrals (erfc-based closed
  forms), batched adaptive Simpson quadrature, log-domain helpers.
- ``squint.experts``: the expert-advice game state, the learning-rate priors
  (closed-form conjugate and improper, quadrature-backed CV, discrete grid),
  each with its weight rule, potential and theorem, plus product-form
  weights and Hedge.
- ``squint.regret_bounds``: exact calculators for every regret guarantee and
  the subset/comparator aggregation they consume.
- ``squint.polytopes``: concept classes over {0,1}^K with entropy projection,
  convex decomposition, and vertex enumeration.
- ``squint.component_iprod``: the learning-rate-aggregated combinatorial
  algorithm built from per-rate mix-loss learners.
- ``squint.harness_cli``: deterministic experiment driver and CLI
  (``squint run|audit|enumerate|grid``).
"""

from .experts import (
    ConjugatePrior,
    CVPrior,
    DiscreteGridPrior,
    ExpertGameState,
    ImproperPrior,
    hedge_weights,
    iprod_log_factors,
    iprod_weights_grid,
    update,
    weights_for_prior,
)
from .component_iprod import (
    CombGameState,
    learning_rate_grid,
    make_game,
    observe,
    play,
)
from .polytopes import DagPaths, Decomposition, ExplicitVertices, KSubsets
from .regret_bounds import (
    bound_theorem1,
    bound_theorem2,
    bound_theorem3,
    bound_theorem4,
    binary_relative_entropy,
)

__version__ = "0.1.0"

__all__ = [
    "ConjugatePrior",
    "CVPrior",
    "DiscreteGridPrior",
    "ExpertGameState",
    "ImproperPrior",
    "hedge_weights",
    "iprod_log_factors",
    "iprod_weights_grid",
    "update",
    "weights_for_prior",
    "CombGameState",
    "learning_rate_grid",
    "make_game",
    "observe",
    "play",
    "DagPaths",
    "Decomposition",
    "ExplicitVertices",
    "KSubsets",
    "bound_theorem1",
    "bound_theorem2",
    "bound_theorem3",
    "bound_theorem4",
    "binary_relative_entropy",
    "__version__",
]
