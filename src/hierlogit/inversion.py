"""Recovery of mean utilities from market shares.

The closed form follows from taking logs of the share factorization:

    log(s_jhg / s_0) = delta_j + sigma1 * log s_{j|hg} + sigma2 * log s_{h|g}

so delta is a direct linear combination of observed log shares. Since
log s_jhg = log s_{j|hg} + log s_{h|g} + log s_g, ``berry_invert`` evaluates
the equal form

    delta_j = (1 - sigma1) * log s_{j|hg} + (1 - sigma2) * log s_{h|g} + log s_g - log s_0

whose terms do not cancel as sigma -> 1 (the log conditional shares grow
like delta / (1 - sigma)). The identity read as a regression equation
gives the rows assembled by ``regression_rows``. ``numeric_invert`` solves
the identity's left side, log(s_j/s_0), by damped Newton on the forward
model instead and exists purely as a cross-check: it exercises the analytic
Jacobian end to end and must agree with the closed form to tight tolerance.
"""

import numpy as np

from .errors import NoConvergenceError, OutOfDomainError
from .hierarchy import ChoiceHierarchy, NestingParams, UtilityVector, _instance, _number
from .shares import ShareTable, compute_shares

__all__ = ["berry_invert", "regression_rows", "numeric_invert"]


def _require_interior(table: ShareTable) -> None:
    table = _instance("table", table, ShareTable)
    logs = (table.log_joint, table.log_cond_product, table.log_cond_subgroup, table.log_group, table.log_outside)
    if not all(np.all(np.isfinite(a)) for a in logs):
        raise OutOfDomainError("inversion needs strictly positive shares everywhere")


def berry_invert(table: ShareTable, params: NestingParams) -> UtilityVector:
    """Closed-form mean utilities from a share table of any number of markets.

    Works on the table's log fields, so round trips stay accurate even
    when the joint shares themselves underflow.
    """
    _require_interior(table)
    h, params = table.hierarchy, _instance("params", params, NestingParams)
    return UtilityVector(
        (1.0 - params.sigma1) * table.log_cond_product
        + (1.0 - params.sigma2) * table.log_cond_subgroup[h.product_subgroup]
        + table.log_group[h.product_group]
        - table.log_outside[h.product_market]
    )


def regression_rows(table: ShareTable) -> tuple:
    """Regressand and regressors of the share identity as arrays ``(y, x1, x2)``.

    y = log(s_jhg/s_0), x1 = log s_{j|hg}, x2 = log s_{h|g}, each aligned to
    ``hierarchy.products``; the identity y = delta_j + sigma1*x1 + sigma2*x2
    holds exactly for model shares.
    """
    _require_interior(table)
    h = table.hierarchy
    y = table.log_joint - table.log_outside[h.product_market]
    return y, table.log_cond_product, table.log_cond_subgroup[h.product_subgroup]


def _check_tol(tol) -> None:
    """``numeric_invert``'s check of ``tol``, which the CLI makes before computing any market."""
    if not 0.0 < _number("tol", tol) < 1.0:
        raise OutOfDomainError(f"tol={tol!r} must be {'positive' if tol <= 0.0 else 'below 1'}")


def numeric_invert(
    hierarchy: ChoiceHierarchy,
    target: ShareTable,
    params: NestingParams,
    tol: float = 1e-12,
    max_iter: int = 50,
) -> UtilityVector:
    """Damped Newton inversion of the forward share map, for every market of a tree.

    Works on the share identity's left side: the residual is log(t_j/t_0) -
    log(s_j/s_0) at delta, whose target log ratios are the plain-logit start
    delta0. Its Jacobian has no market-level term, so it stays well scaled
    however small the shares, the outside share included, and the target's
    shares need not sum to 1. Each iteration evaluates the tree once and
    solves every market's Jacobian system in O(N); step halving is per
    market, so a market's utilities are those it gets when inverted alone.

    Stop rule, per market: max |log(t_j/t_0) - log(s_j/s_0)| <= max(log1p(tol),
    16 eps max(1, max |delta|) / (1 - max(sigma1, sigma2))). The first term puts
    each ratio s_j/s_0 within a factor 1 + tol of its target; the second is the
    residual a double can reach, as log shares carry delta / (1 - sigma). A
    market that passes takes one more full Newton step, to rounding level, and
    then stops moving. OutOfDomainError for a ``tol`` outside (0, 1) (from 1 on,
    log1p(tol) >= log 2 would pass ratios of half or twice their targets), a
    ``max_iter`` that is not a nonnegative integer, or a ``target`` of another tree.

    Raises
    ------
    NoConvergenceError
        When a market has not passed after ``max_iter`` steps, or 40 step
        halvings do not lower its residual; the error carries the largest
        final absolute share residual of the tree.
    """
    from .jacobian import _solve_log_ratio_jacobian  # on first use, so that the closed form compiles no more

    _check_tol(tol)
    if (max_iter := _number("max_iter", max_iter, integral=True)) < 0:
        raise OutOfDomainError(f"max_iter={max_iter!r} must not be negative")
    h, t = _instance("hierarchy", hierarchy, ChoiceHierarchy), _instance("target", target, ShareTable).hierarchy
    if t is not h and (t.ids != h.ids or not all(map(np.array_equal, t.parent, h.parent))):
        raise OutOfDomainError(f"target holds the shares of another tree than hierarchy: {t!r}")
    _require_interior(target)
    params, starts, owner = _instance("params", params, NestingParams), h.bounds[2, :-1], h.product_market
    floor = 16.0 * np.finfo(float).eps / (1.0 - max(params.sigma1, params.sigma2))

    def evaluate(delta):
        table, _ = compute_shares(h, delta, params)
        resid = ratio - (table.log_joint - table.log_outside[owner])
        err = np.maximum.reduceat(np.abs(resid), starts)
        reachable = floor * np.maximum(1.0, np.maximum.reduceat(np.abs(delta), starts))
        return table, resid, err, err <= np.maximum(np.log1p(tol), reachable)

    def failure(message):
        return NoConvergenceError(message, residual=float(np.max(np.abs(table.joint - target.joint))))

    delta = ratio = target.log_joint - target.log_outside[owner]
    table, resid, err, passed = evaluate(delta)
    done = np.zeros_like(passed)
    for _ in range(max_iter):
        if done.all():
            break
        moving = ~done
        step = _solve_log_ratio_jacobian(table, params, resid)
        if not np.all(np.isfinite(step[moving[owner]])):
            raise failure("Newton step failed: residual not finite")
        scale = moving.astype(float)
        while True:
            candidate = np.where(moving[owner], delta + scale[owner] * step, delta)
            cand_table, cand_resid, cand_err, cand_passes = evaluate(candidate)
            halve = moving & ~passed & ~(cand_err < err) & (scale >= 2.0**-40)
            if not halve.any():
                break
            scale[halve] *= 0.5
        stalled = moving & ~passed & ~(cand_err < err)
        if stalled.any():
            raise failure(f"line search stalled at log-ratio residual {err[stalled].max():.3e}")
        done |= passed
        delta, table, resid, err = candidate, cand_table, cand_resid, cand_err
        passed |= cand_passes

    if not passed.all():
        raise failure(f"no convergence after {max_iter} iterations (residual {err[~passed].max():.3e})")
    return UtilityVector(delta)
