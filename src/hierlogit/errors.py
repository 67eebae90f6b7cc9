"""Exception types raised across the package."""


class HierLogitError(Exception):
    """Base class for all package errors."""


class OutOfDomainError(HierLogitError):
    """An argument outside its domain: of the wrong type or shape, not finite, or outside the model's
    domain, as a sigma outside [0, 1), an empty tree, a repeated product or a share not inside (0, 1)."""


class NoConvergenceError(HierLogitError):
    """The iterative inverter did not reach the requested tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class SingularDesignError(HierLogitError):
    """The regression design matrix is rank deficient (collinear regressors)."""


class MarketFileError(HierLogitError):
    """A market CSV or params JSON file could not be parsed."""
