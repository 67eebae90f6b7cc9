"""Two-level nested logit demand toolkit.

Shares, Berry inversion, analytic Jacobians, sequential-choice Monte
Carlo, and synthetic-market estimation for a market -> group -> subgroup
-> product choice tree with an outside option.
"""

from .errors import (
    BadDimensionsError,
    DegenerateShareError,
    DuplicateProductError,
    EmptyInputError,
    HierLogitError,
    MarketFileError,
    NoConvergenceError,
    OutOfDomainError,
    SingularDesignError,
)
from .hierarchy import (
    OUTSIDE_ID,
    ChoiceHierarchy,
    NestingParams,
    UtilityVector,
    build_hierarchy,
)
from .hierarchy import NestingParams as validate_params  # the former name, not in __all__
from .inversion import berry_invert, numeric_invert, regression_rows
from .jacobian import (
    ShareJacobian,
    fd_jacobian,
    full_jacobian,
    log_share_jacobian,
    max_relative_error,
)
from .montecarlo import (
    ChoiceCounts,
    SimConfig,
    empirical_shares,
    simulate_choices,
)
from .shares import (
    InclusiveValues,
    ShareTable,
    compute_shares,
)
from .synth import EstimationResult, SynthConfig, estimate_linear, generate_market

__version__ = "0.1.0"

__all__ = [
    "OUTSIDE_ID",
    "__version__",
    "BadDimensionsError",
    "ChoiceCounts",
    "ChoiceHierarchy",
    "DegenerateShareError",
    "DuplicateProductError",
    "EmptyInputError",
    "EstimationResult",
    "HierLogitError",
    "InclusiveValues",
    "MarketFileError",
    "NestingParams",
    "NoConvergenceError",
    "OutOfDomainError",
    "ShareJacobian",
    "ShareTable",
    "SimConfig",
    "SingularDesignError",
    "SynthConfig",
    "UtilityVector",
    "berry_invert",
    "build_hierarchy",
    "compute_shares",
    "empirical_shares",
    "estimate_linear",
    "fd_jacobian",
    "full_jacobian",
    "generate_market",
    "log_share_jacobian",
    "max_relative_error",
    "numeric_invert",
    "regression_rows",
    "simulate_choices",
]
