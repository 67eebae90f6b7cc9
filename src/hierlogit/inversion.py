"""Recovery of mean utilities from market shares.

The closed form follows from taking logs of the share factorization:

    log(s_jhg / s_0) = delta_j + sigma1 * log s_{j|hg} + sigma2 * log s_{h|g}

so delta is a direct linear combination of observed log shares
(``berry_invert``), and the same identity read as a regression equation
gives the rows assembled by ``regression_rows``. ``numeric_invert`` solves
the forward model by damped Newton instead and exists purely as a
cross-check: it exercises the analytic Jacobian end to end and must agree
with the closed form to tight tolerance.
"""

import numpy as np

from .errors import DegenerateShareError, NoConvergenceError, OutOfDomainError
from .hierarchy import ChoiceHierarchy, NestingParams, UtilityVector
from .jacobian import log_share_jacobian
from .shares import ShareTable, compute_shares

__all__ = ["berry_invert", "regression_rows", "numeric_invert"]


def _require_interior(table: ShareTable) -> None:
    logs = np.concatenate(
        [table.log_joint, table.log_cond_product, table.log_cond_subgroup, [table.log_outside]]
    )
    if not np.all(np.isfinite(logs)):
        raise DegenerateShareError("inversion needs strictly positive shares everywhere")


def berry_invert(table: ShareTable, params: NestingParams) -> UtilityVector:
    """Closed-form mean utilities from a share table.

    Works on the table's log fields, so round trips stay accurate even
    when the joint shares themselves underflow.
    """
    y, x1, x2 = regression_rows(table)
    return UtilityVector(y - params.sigma1 * x1 - params.sigma2 * x2)


def regression_rows(table: ShareTable) -> tuple:
    """Regressand and regressors of the share identity as arrays ``(y, x1, x2)``.

    y = log(s_jhg/s_0), x1 = log s_{j|hg}, x2 = log s_{h|g}, each aligned to
    ``hierarchy.products``; the identity y = delta_j + sigma1*x1 + sigma2*x2
    holds exactly for model shares.
    """
    _require_interior(table)
    y = table.log_joint - table.log_outside
    return y, table.log_cond_product, table.log_cond_subgroup[table.hierarchy.product_subgroup]


def numeric_invert(
    hierarchy: ChoiceHierarchy,
    target: ShareTable,
    params: NestingParams,
    tol: float = 1e-12,
    max_iter: int = 50,
) -> UtilityVector:
    """Damped Newton inversion of the forward share map.

    Solves s(delta) = target starting from the plain-logit inversion
    delta0 = log(s_jhg/s_0). The iteration runs on the log-share residual
    log target - log s(delta), whose exact Jacobian is the log-share
    Jacobian: the linear system stays well scaled however small individual
    shares are, and the residual cannot overflow even when the starting
    point is dozens of log units off. Steps are halved until the residual
    decreases. Convergence at max |log t - log s| <= log1p(tol) implies
    both max |(t - s)/s| <= tol and max |s(delta) - target| <= tol.

    Raises
    ------
    NoConvergenceError
        After ``max_iter`` Newton steps, or on a stalled line search; the
        exception carries the final absolute share residual.
    """
    if not tol > 0.0:
        raise OutOfDomainError(f"tol={tol!r} must be positive")
    _require_interior(target)
    stop = np.log1p(tol)

    delta = target.log_joint - target.log_outside
    table, _ = compute_shares(hierarchy, delta, params)
    resid = target.log_joint - table.log_joint
    err = float(np.max(np.abs(resid)))

    for _ in range(max_iter):
        if err <= stop:
            return UtilityVector(delta)
        jac = log_share_jacobian(table, params)
        try:
            step = np.linalg.solve(jac, resid)
        except np.linalg.LinAlgError:
            raise NoConvergenceError(
                "Newton step failed: singular Jacobian",
                residual=float(np.max(np.abs(table.joint - target.joint))),
            ) from None
        scale = 1.0
        while True:
            candidate = delta + scale * step
            cand_table, _ = compute_shares(hierarchy, candidate, params)
            cand_resid = target.log_joint - cand_table.log_joint
            cand_err = float(np.max(np.abs(cand_resid)))
            if cand_err < err or scale < 2.0**-40:
                break
            scale *= 0.5
        if cand_err >= err:
            raise NoConvergenceError(
                f"line search stalled at log-share residual {err:.3e}",
                residual=float(np.max(np.abs(table.joint - target.joint))),
            )
        delta, table, resid, err = candidate, cand_table, cand_resid, cand_err

    if err <= stop:
        return UtilityVector(delta)
    raise NoConvergenceError(
        f"no convergence after {max_iter} iterations (residual {err:.3e})",
        residual=float(np.max(np.abs(table.joint - target.joint))),
    )
