"""Exception types raised across the package."""


class HierLogitError(Exception):
    """Base class for all package errors.

    ``market`` is the position, in its tree, of the first market found at
    fault, or None when the error is not about one market.
    """

    def __init__(self, *args, market=None):
        super().__init__(*args)
        self.market = market


class EmptyInputError(HierLogitError):
    """No rows were supplied when building a choice hierarchy."""


class DuplicateProductError(HierLogitError):
    """A product id appeared more than once in one market."""


class OutOfDomainError(HierLogitError):
    """A parameter or utility value lies outside its valid domain."""


class DegenerateShareError(HierLogitError):
    """A share is zero, negative, or otherwise unusable for inversion."""


class NoConvergenceError(HierLogitError):
    """The iterative inverter did not reach the requested tolerance."""

    def __init__(self, message, residual=None, market=None):
        super().__init__(message, market=market)
        self.residual = residual


class BadDimensionsError(HierLogitError):
    """A synthetic-market configuration has inconsistent or invalid dimensions."""


class SingularDesignError(HierLogitError):
    """The regression design matrix is rank deficient (collinear regressors)."""


class MarketFileError(HierLogitError):
    """A market CSV or params JSON file could not be parsed."""
