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
product within its group. Every term is a share times a bounded factor,
so the assembly is overflow-safe whenever the shares are.
"""

from dataclasses import dataclass

import numpy as np

from .hierarchy import ChoiceHierarchy, NestingParams, as_delta_array
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

    Entries are O(1/(1-sigma)) regardless of how small the shares are,
    which makes this the right operator for Newton steps on log residuals;
    the share-level Jacobian is ``joint[:, None]`` times this matrix.
    """
    h = table.hierarchy
    a = 1.0 / (1.0 - params.sigma1)
    b = 1.0 / (1.0 - params.sigma2)
    cp = table.cond_product
    w = cp * table.cond_subgroup[h.product_subgroup]
    same_sub = h.product_subgroup[:, None] == h.product_subgroup[None, :]
    same_grp = h.product_group[:, None] == h.product_group[None, :]
    n = h.n_products
    return (
        a * (np.eye(n) - same_sub * cp[None, :])
        + b * (same_sub * cp[None, :] - same_grp * w[None, :])
        + same_grp * w[None, :]
        - table.joint[None, :]
    )


def full_jacobian(hierarchy: ChoiceHierarchy, delta, params: NestingParams) -> ShareJacobian:
    """Analytic ds/ddelta for every inside product plus the outside row."""
    table, _ = compute_shares(hierarchy, delta, params)
    rel = log_share_jacobian(table, params)
    return ShareJacobian(
        matrix=table.joint[:, None] * rel,
        outside_row=-table.outside * table.joint,
    )


def fd_jacobian(
    hierarchy: ChoiceHierarchy, delta, params: NestingParams, step: float = 1e-6
) -> ShareJacobian:
    """Central-difference approximation (s(delta+h e_k) - s(delta-h e_k)) / 2h."""
    delta = as_delta_array(hierarchy, delta)
    n = hierarchy.n_products
    matrix = np.empty((n, n))
    outside_row = np.empty(n)
    for k in range(n):
        up = delta.copy()
        up[k] += step
        down = delta.copy()
        down[k] -= step
        table_up, _ = compute_shares(hierarchy, up, params)
        table_down, _ = compute_shares(hierarchy, down, params)
        matrix[:, k] = (table_up.joint - table_down.joint) / (2.0 * step)
        outside_row[k] = (table_up.outside - table_down.outside) / (2.0 * step)
    return ShareJacobian(matrix=matrix, outside_row=outside_row)


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
