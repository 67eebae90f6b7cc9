"""Exception types raised across the package."""


class HierLogitError(Exception):
    """Base class for all package errors."""


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

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class BadDimensionsError(HierLogitError):
    """A synthetic-market configuration has inconsistent or invalid dimensions."""


class SingularDesignError(HierLogitError):
    """The regression design matrix is rank deficient (collinear regressors)."""


class MarketFileError(HierLogitError):
    """A market CSV or params JSON file could not be parsed."""
