"""Synthetic markets and the linear estimating equation.

``generate_market`` builds a balanced tree with mean utilities
delta = X beta + xi, and ``estimate_linear`` fits the inverted share
identity y = X beta + sigma1 x1 + sigma2 x2 by least squares. With
xi_scale = 0 and exact model shares the identity holds without error, so
the fit is interpolation and recovers (beta, sigma1, sigma2) to machine
precision. With xi_scale > 0 the identity still holds in delta, but x1
and x2 are correlated with xi, so plain least squares is biased; fixing
that needs instruments and is out of scope here.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomainError, SingularDesignError
from .hierarchy import ChoiceHierarchy, NestingParams, UtilityVector, _instance, _number, _real_array, _sequence

__all__ = ["SynthConfig", "EstimationResult", "generate_market", "estimate_linear"]

# singular-value ratio below which the design is declared rank deficient
_PIVOT_RTOL = 1e-10
# largest synthetic market built; 1e6 products with three covariates peak near 0.5 GB
_MAX_PRODUCTS = 10**7


@dataclass(frozen=True)
class SynthConfig:
    """Balanced-tree market dimensions and data-generating parameters.

    Checked when built; ``beta`` and ``x_range`` are kept as tuples of floats.

    Raises
    ------
    OutOfDomainError
        On a field that is not a finite number (a bool is not one), a
        dimension or seed that is not an integer, nonpositive tree
        dimensions, more than 10**7 products, an empty beta, an x_range
        that is not ``[lo, hi]`` with lo <= hi or whose width overflows, a
        negative xi_scale or seed, or a sigma outside [0, 1).
    """

    n_groups: int
    n_subgroups_per_group: int
    n_products_per_subgroup: int
    beta: tuple
    x_range: tuple = (0.0, 1.0)
    xi_scale: float = 0.0
    sigma1: float = 0.0
    sigma2: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("n_groups", "n_subgroups_per_group", "n_products_per_subgroup", "seed"):
            object.__setattr__(self, name, _number(name, getattr(self, name), integral=True))
        for name in ("xi_scale", "sigma1", "sigma2"):
            object.__setattr__(self, name, _number(name, getattr(self, name)))
        for name in ("beta", "x_range"):
            object.__setattr__(self, name, tuple(_number(name, v) for v in _sequence(name, getattr(self, name))))

        shape = (self.n_groups, self.n_subgroups_per_group, self.n_products_per_subgroup)
        if min(shape) < 1 or math.prod(shape) > _MAX_PRODUCTS:
            raise OutOfDomainError(f"tree dimensions {shape} must be >= 1, with <= {_MAX_PRODUCTS} products")
        if not self.beta:
            raise OutOfDomainError("beta must be a nonempty vector")
        if len(self.x_range) != 2 or not self.x_range[0] <= self.x_range[1]:
            raise OutOfDomainError(f"x_range {self.x_range!r} must be [lo, hi] with lo <= hi")
        if not math.isfinite(self.x_range[1] - self.x_range[0]):
            raise OutOfDomainError(f"x_range {self.x_range!r} must have a finite width hi - lo")
        for name in ("xi_scale", "seed"):
            if getattr(self, name) < 0:
                raise OutOfDomainError(f"{name}={getattr(self, name)!r} must be nonnegative")
        NestingParams(self.sigma1, self.sigma2)  # raises for a sigma outside [0, 1)


@dataclass(frozen=True)
class EstimationResult:
    """Least-squares fit of the share identity."""

    beta_hat: np.ndarray
    sigma1_hat: float
    sigma2_hat: float
    residual_norm: float


def generate_market(config: SynthConfig):
    """Balanced synthetic market: hierarchy, utilities, and covariates.

    Returns ``(hierarchy, UtilityVector, X)`` with X of shape
    (n_products, len(beta)) drawn uniformly on ``x_range``, xi drawn
    normal(0, xi_scale), and delta = X beta + xi. Reproducible by seed.
    """
    config = _instance("config", config, SynthConfig)
    shape = (config.n_groups, config.n_subgroups_per_group, config.n_products_per_subgroup)
    groups, subgroups, numbers = ([f"{level}{i}" for i in range(1, n + 1)] for level, n in zip("ghp", shape))
    # product p of subgroup h of group g is g{g}h{h}p{p}; subgroup ids repeat across groups
    products = [f"{g}{h}{p}" for g in groups for h in subgroups for p in numbers]
    # the nodes of each level by parent, n children to each node of the level above
    parents = [np.repeat(np.arange(math.prod(shape[:level])), n) for level, n in enumerate(shape)]
    hierarchy = ChoiceHierarchy((["synthetic"], groups, subgroups * config.n_groups, products), parents)

    rng = np.random.default_rng(config.seed)
    covariates = rng.uniform(*config.x_range, size=(hierarchy.n_products, len(config.beta)))
    xi = rng.normal(0.0, config.xi_scale, size=hierarchy.n_products)
    with np.errstate(over="ignore", invalid="ignore"):  # UtilityVector refuses what is not finite
        delta = covariates @ config.beta + xi
    return hierarchy, UtilityVector(delta), covariates


def estimate_linear(rows, covariates) -> EstimationResult:
    """Least squares of y on (X, x1, x2) over the supplied regression rows.

    ``rows`` is the ``(y, x1, x2)`` triple from ``regression_rows``; each is 1-D
    and aligned product for product with the 2-D covariate matrix. Solved by
    SVD-based least squares; a smallest singular value at or below 1e-10
    of the largest signals collinear regressors, e.g. x2 identically zero
    when every group has a single subgroup.

    Raises
    ------
    OutOfDomainError
        On regressors or regressand that are not finite real numbers, rows that are not three or not 1-D,
        rows and covariates that disagree in length, or a residual norm past the largest double.
    SingularDesignError
        On rank-deficient designs or too few rows to identify all
        coefficients.
    """
    rows = [_real_array("regression rows", row, -1, "regression rows must lie in one dimension, got shape {shape}",
                        finite=True) for row in _sequence("rows", rows)]
    covariates = np.atleast_2d(_real_array("covariates", covariates, finite=True))
    if len(rows) != 3 or covariates.ndim != 2 or {len(row) for row in rows} != {len(covariates)}:
        raise OutOfDomainError(f"rows of shapes {[row.shape for row in rows]} but covariates {covariates.shape}")
    (y, x1, x2), n = rows, len(covariates)
    if n < (n_coef := covariates.shape[1] + 2):
        raise SingularDesignError(f"{n} rows cannot identify {n_coef} coefficients")

    design = np.column_stack([covariates, x1, x2])
    coef, _, _, singular = np.linalg.lstsq(design, y, rcond=None)
    if singular.min() <= _PIVOT_RTOL * singular.max():
        raise SingularDesignError("design matrix is rank deficient (collinear regressors)")

    with np.errstate(over="ignore", invalid="ignore"):  # the norm's x.dot(x) overflows past residuals of 1.3e154
        norm = np.linalg.norm(residual := y - design @ coef)
        norm = norm if np.isfinite(norm) else np.hypot.reduce(residual)
    if not np.isfinite(norm):
        raise OutOfDomainError(f"the residual norm of the fit, {norm}, is not finite")
    return EstimationResult(beta_hat=coef[:-2], sigma1_hat=float(coef[-2]), sigma2_hat=float(coef[-1]),
                            residual_norm=float(norm))
