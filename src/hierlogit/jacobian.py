"""Analytic derivatives of shares with respect to mean utilities.

The full Jacobian entry is assembled by the product rule

    d s_jhg / d delta_k = d s_{j|hg} * s_{h|g} * s_g
                        + s_{j|hg} * d s_{h|g} * s_g
                        + s_{j|hg} * s_{h|g} * d s_g

where each conditional derivative is one of three cases (same subgroup,
sibling subgroup in the same group, different group). ``full_jacobian``
evaluates the composed sum for all pairs at once in vectorized form.

Writing a = 1/(1-sigma1) and b = 1/(1-sigma2), the composed sum collapses
to a derivative of log shares,

    d log s_j / d delta_k = a*(1{j=k} - 1{same subgroup}*cp_k)
                          + b*(1{same subgroup}*cp_k - 1{same group}*w_k)
                          + 1{same group}*w_k - s_k

with cp the conditional product shares and w = cp * cs the share of a
product within its group; the outside option, in no product's subgroup or
group, gets d log s_0 / d delta_k = -s_k. Every term is a share times a
bounded factor, so the assembly is overflow-safe whenever the shares are.
"""

from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomainError
from .hierarchy import ChoiceHierarchy, NestingParams, _number, as_delta_array, one_market
from .shares import ShareTable, compute_shares

__all__ = [
    "ShareJacobian",
    "log_share_jacobian",
    "full_jacobian",
    "fd_jacobian",
    "max_relative_error",
]

# smallest denominator of an entry's relative error in max_relative_error
_RELATIVE_FLOOR = 1e-12
# products per compute_shares call of fd_jacobian, which bounds its memory
_FD_PRODUCTS = 1 << 14


@dataclass(frozen=True)
class ShareJacobian:
    """Derivatives of joint shares: matrix[j, k] = ds_j/ddelta_k.

    ``outside_row[k]`` holds ds_0/ddelta_k. Column sums of the matrix plus
    the outside entry vanish (shares always sum to one), and the matrix is
    symmetric: shares are the gradient of the top inclusive value, so this
    is a Hessian.
    """

    matrix: np.ndarray
    outside_row: np.ndarray


def log_share_jacobian(table: ShareTable, params: NestingParams) -> np.ndarray:
    """Jacobian of log joint shares: entry (j, k) = d log s_j / d delta_k.

    Entries are O(1/(1-sigma)) regardless of how small the shares are; Newton
    steps on log residuals solve this operator without forming it. The
    share-level Jacobian is ``joint[:, None]`` times this matrix.
    """
    one_market(table.hierarchy, "log_share_jacobian")
    products = np.arange(table.hierarchy.n_products)
    return _log_share_cells(table, params, products[:, None], products)


def _log_share_cells(table: ShareTable, params: NestingParams, row, col) -> np.ndarray:
    """d log s_row / d delta_col of ``table`` for index arrays that broadcast together;
    row ``n_products + m`` is market m's outside option, in no product's subgroup or group."""
    h, cp, a, b = table.hierarchy, table.cond_product[col], 1.0 / (1.0 - params.sigma1), 1.0 / (1.0 - params.sigma2)
    w = cp * table.cond_subgroup[h.product_subgroup[col]]
    same_sub, same_grp = (np.where(row < h.n_products, codes.take(row, mode="clip"), -1) == codes[col]
                          for codes in (h.product_subgroup, h.product_group))
    return a * ((row == col) - same_sub * cp) + b * (same_sub * cp - same_grp * w) + same_grp * w - table.joint[col]


def _solve_log_share_jacobian(table: ShareTable, params: NestingParams, r: np.ndarray) -> np.ndarray:
    """x with ``log_share_jacobian(table, params) @ x == r`` in every market, in O(N).

    The matrix is a*I minus a rank-one term per subgroup, group and market.
    With R_h = sum_{k in h} cp_k r_k, Q_g = sum_{h in g} cs_h R_h, T_m =
    sum_{g in m} s_g Q_g / s_0m and V = Q + T, x = (1-sigma1)(r + T) +
    (sigma1-sigma2)(R + T) + sigma2 V: no coefficient exceeds 1, so sigma ->
    1 amplifies no rounding. x is not finite where s_0m = 0.
    """
    h = table.hierarchy
    sums = [r]
    for level, cond in ((2, table.cond_product), (1, table.cond_subgroup), (0, table.group)):
        sums.append(np.bincount(h.parent[level], weights=cond * sums[-1], minlength=len(h.ids[level])))
    _, big_r, q, t = sums
    with np.errstate(divide="ignore", invalid="ignore"):
        t /= np.atleast_1d(table.outside)
        v = q + t[h.group_market]
        t = t[h.product_market]
        return ((1.0 - params.sigma1) * (r + t) + (params.sigma1 - params.sigma2) * (big_r[h.product_subgroup] + t)
                + params.sigma2 * v[h.product_group])


def full_jacobian(hierarchy: ChoiceHierarchy, delta, params: NestingParams) -> ShareJacobian:
    """Analytic ds/ddelta for every inside product plus the outside row."""
    one_market(hierarchy, "full_jacobian")
    table, _ = compute_shares(hierarchy, delta, params)
    rows = np.arange(hierarchy.n_products + 1)
    cells = np.append(table.joint, table.outside)[:, None] * _log_share_cells(table, params, rows[:, None], rows[:-1])
    return ShareJacobian(matrix=cells[:-1], outside_row=cells[-1])


def fd_jacobian(
    hierarchy: ChoiceHierarchy, delta, params: NestingParams, step: float = 1e-6
) -> ShareJacobian:
    """Central-difference approximation (s(delta+h e_k) - s(delta-h e_k)) / 2h.

    The two perturbed utility vectors of each k are two markets of one
    tree, in runs of about ``_FD_PRODUCTS`` products; a market gives the
    same shares alone as in any tree. ``step`` must be a positive finite
    number that moves every utility, or 1 where it is smaller, both ways and
    keeps the moved utilities in the domain of ``compute_shares``
    (OutOfDomainError).
    """
    one_market(hierarchy, "fd_jacobian")
    if not _number("step", step) > 0.0:
        raise OutOfDomainError(f"step={step!r} must be positive")
    delta = as_delta_array(hierarchy, delta)
    size = np.maximum(np.abs(delta), 1.0)
    lost = np.flatnonzero((size + step == size) | (size - step == size))
    if lost.size:
        raise _step_error(hierarchy, delta, params,
                          f"step={step!r} is lost in rounding next to utility {delta[lost[0]]:.17g}")
    n = hierarchy.n_products
    per_run = max(1, _FD_PRODUCTS // (2 * n))
    copies = _copies(hierarchy, 2 * min(per_run, n))
    matrix, outside_row = np.empty((n, n)), np.empty(n)
    for k in np.split(np.arange(n), range(per_run, n, per_run)):
        # market 2i moves utility k[i] up by step, market 2i + 1 down
        perturbed = np.tile(delta, (len(k), 2, 1))
        perturbed[np.arange(len(k)), :, k] += [step, -step]
        try:
            table, _ = compute_shares(copies.markets(0, 2 * len(k)), perturbed.ravel(), params)
        except OutOfDomainError as err:
            raise _step_error(hierarchy, delta, params,
                              f"step={step!r} moves the utilities out of the domain: {err}") from None
        shares = np.column_stack([table.joint.reshape(-1, n), table.outside]).reshape(len(k), 2, n + 1)
        columns = (shares[:, 0] - shares[:, 1]) / (2.0 * step)
        matrix[:, k], outside_row[k] = columns[:, :n].T, columns[:, n]
    return ShareJacobian(matrix=matrix, outside_row=outside_row)


def _step_error(hierarchy, delta, params, message) -> OutOfDomainError:
    """``message`` as an error, unless ``delta`` is out of the domain: ``compute_shares`` raises that."""
    compute_shares(hierarchy, delta, params)
    return OutOfDomainError(message)


def _copies(h: ChoiceHierarchy, count: int) -> ChoiceHierarchy:
    """``count`` copies of the one market of ``h``, as the markets of one tree."""
    shift = np.arange(count)[:, None]
    return ChoiceHierarchy([ids * count for ids in h.ids],
                           [(up + len(ids) * shift).ravel() for up, ids in zip(h.parent, h.ids)])


def max_relative_error(analytic: ShareJacobian, fd: ShareJacobian, row_scale) -> float:
    """Worst per-entry relative disagreement between two Jacobians.

    Each entry is compared against max(|analytic|, |fd|, 1e-12, row_scale
    of its row), where ``row_scale`` is the share level of each row, outside
    last. Central differences only resolve an entry down to roughly
    eps*share/step, so entries whose true magnitude sits below that are pure
    FD roundoff and are judged against the size of the row they live in.
    """
    a = np.vstack([analytic.matrix, analytic.outside_row])
    f = np.vstack([fd.matrix, fd.outside_row])
    den = np.maximum(np.maximum(np.abs(a), np.abs(f)), _RELATIVE_FLOOR)
    den = np.maximum(den, np.asarray(row_scale, dtype=float)[:, None])
    return float(np.max(np.abs(a - f) / den))
