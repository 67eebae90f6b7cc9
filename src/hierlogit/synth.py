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

from .errors import BadDimensionsError, OutOfDomainError, SingularDesignError
from .hierarchy import ChoiceHierarchy, NestingParams, UtilityVector, _number

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
    BadDimensionsError
        On nonpositive tree dimensions, more than 10**7 products, an
        empty beta, or an x_range that is not ``[lo, hi]`` with lo <= hi.
    OutOfDomainError
        On a field that is not a finite number (a bool is not one), a
        dimension or seed that is not an integer, a negative xi_scale or
        seed, a sigma outside [0, 1), or an x_range whose width overflows.
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
            try:
                values = tuple(getattr(self, name))
            except TypeError:
                raise OutOfDomainError(f"{name} must be a sequence of numbers") from None
            object.__setattr__(self, name, tuple(_number(name, v) for v in values))

        shape = (self.n_groups, self.n_subgroups_per_group, self.n_products_per_subgroup)
        if min(shape) < 1 or math.prod(shape) > _MAX_PRODUCTS:
            raise BadDimensionsError(f"tree dimensions {shape} must be >= 1, with <= {_MAX_PRODUCTS} products")
        if not self.beta:
            raise BadDimensionsError("beta must be a nonempty vector")
        if len(self.x_range) != 2 or not self.x_range[0] <= self.x_range[1]:
            raise BadDimensionsError(f"x_range {self.x_range!r} must be [lo, hi] with lo <= hi")
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

    ``rows`` is the ``(y, x1, x2)`` triple from ``regression_rows``; it and
    the covariate matrix must be aligned product for product. Solved by
    SVD-based least squares; a smallest singular value at or below 1e-10
    of the largest signals collinear regressors, e.g. x2 identically zero
    when every group has a single subgroup.

    Raises
    ------
    BadDimensionsError
        When the three row arrays and the covariates disagree in length.
    OutOfDomainError
        On non-finite regressors or regressand.
    SingularDesignError
        On rank-deficient designs or too few rows to identify all
        coefficients.
    """
    y, x1, x2 = (np.asarray(column, dtype=float) for column in rows)
    covariates = np.atleast_2d(np.asarray(covariates, dtype=float))
    n = y.shape[0]
    if x1.shape != y.shape or x2.shape != y.shape or covariates.shape[0] != n:
        raise BadDimensionsError(
            f"regression rows of shapes {y.shape}, {x1.shape}, {x2.shape} "
            f"but {covariates.shape[0]} covariate rows"
        )
    n_coef = covariates.shape[1] + 2
    if n < n_coef:
        raise SingularDesignError(
            f"{n} rows cannot identify {n_coef} coefficients"
        )

    design = np.column_stack([covariates, x1, x2])
    if not (np.all(np.isfinite(design)) and np.all(np.isfinite(y))):
        raise OutOfDomainError("regression rows and covariates must all be finite")
    coef, _, _, singular = np.linalg.lstsq(design, y, rcond=None)
    if singular.min() <= _PIVOT_RTOL * singular.max():
        raise SingularDesignError("design matrix is rank deficient (collinear regressors)")

    residual_norm = float(np.linalg.norm(y - design @ coef))
    return EstimationResult(
        beta_hat=coef[:-2],
        sigma1_hat=float(coef[-2]),
        sigma2_hat=float(coef[-1]),
        residual_norm=residual_norm,
    )
