"""Analytic derivatives of shares with respect to mean utilities.

By the product rule on s_j = s_{j|hg} * s_{h|g} * s_g, writing a =
1/(1-sigma1) and b = 1/(1-sigma2), the derivative of log shares is

    d log s_j / d delta_k = a*(1{j=k} - 1{same subgroup}*cp_k)
                          + b*(1{same subgroup}*cp_k - 1{same group}*w_k)
                          + 1{same group}*w_k - s_k

with cp the conditional product shares and w = cp * cs the share of a
product within its group; the outside option, in no product's subgroup or
group, gets d log s_0 / d delta_k = -s_k. Every term is a share times a
bounded factor, so the assembly is overflow-safe whenever the shares are.

``_blocks`` evaluates this sum once for every cell: each market of a tree is
a block padded to its largest market, its rows the market's products, then
its outside option, its columns the products. The Jacobians of one market
and the CLI's runs of markets all read their cells from it; the CLI checks
them against ``_complex_step_columns``, good to rounding as sigma -> 1.
"""

from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomainError
from .hierarchy import ChoiceHierarchy, NestingParams, _instance, _number, _real_array, as_delta_array, one_market
from .shares import ShareTable, _log_shares, compute_shares

__all__ = [
    "ShareJacobian",
    "log_share_jacobian",
    "full_jacobian",
    "fd_jacobian",
    "max_relative_error",
]

# smallest denominator of an entry's relative error
_RELATIVE_FLOOR = 1e-12


@dataclass(frozen=True)
class ShareJacobian:
    """Derivatives of joint shares: matrix[j, k] = ds_j/ddelta_k.

    ``outside_row[k]`` holds ds_0/ddelta_k. Column sums of the matrix plus the outside entry vanish
    (shares always sum to one), and the matrix is symmetric: shares are the gradient of the top
    inclusive value, so this is a Hessian. Both are real and finite, the matrix 2-D and the row one
    entry per column; OutOfDomainError otherwise.
    """

    matrix: np.ndarray
    outside_row: np.ndarray

    def __post_init__(self):
        matrix, row = (_real_array(name, getattr(self, name), finite=True) for name in ("matrix", "outside_row"))
        if matrix.ndim != 2 or row.shape != matrix.shape[1:]:
            raise OutOfDomainError(f"a matrix of shape {matrix.shape} and an outside_row of {row.shape} do not fit")
        self.__dict__.update(matrix=matrix, outside_row=row)  # frozen: set past __setattr__


def log_share_jacobian(table: ShareTable, params: NestingParams) -> np.ndarray:
    """Jacobian of log joint shares: entry (j, k) = d log s_j / d delta_k.

    Entries are O(1/(1-sigma)) regardless of how small the shares are; with
    ``joint`` added to each row they are the Jacobian of log(s_j/s_0), whose
    Newton steps are solved without forming it. The share-level Jacobian is
    ``joint[:, None]`` times this matrix.
    """
    one_market(_instance("table", table, ShareTable).hierarchy, "log_share_jacobian")
    return _blocks(table, _instance("params", params, NestingParams))[0][0, :-1]


def _blocks(table: ShareTable, params: NestingParams) -> tuple:
    """``(cells, rows, mask)``: d log s_row / d delta_col of each market m of ``table``'s tree in
    block ``cells[m]``, its rows ``rows[m]`` (its products, then its outside option, row
    ``n_products + m``), its columns ``rows[m, :-1]``, padded to the largest; ``mask`` its real cells."""
    h, a, b = table.hierarchy, 1.0 / (1.0 - params.sigma1), 1.0 / (1.0 - params.sigma2)
    first, sizes = h.bounds[2, :-1, None], np.diff(h.bounds[2])[:, None]
    i = np.arange(sizes.max() + 1)
    rows = np.where(i < sizes, first + i, h.n_products + np.arange(h.n_markets)[:, None]).astype(np.int32)
    # a padded column points at the last product, which every index array has
    row, col = rows[:, :, None], np.minimum(rows[:, None, :-1], h.n_products - 1)
    cp = table.cond_product[col]
    w = cp * table.cond_subgroup[h.product_subgroup[col]]
    same_sub, same_grp = (np.where(row < h.n_products, codes.take(row, mode="clip"), -1) == codes[col]
                          for codes in (h.product_subgroup, h.product_group))
    cells = a * ((row == col) - same_sub * cp) + b * (same_sub * cp - same_grp * w) + same_grp * w - table.joint[col]
    return cells, rows, (i <= sizes)[:, :, None] & (i[:-1] < sizes)[:, None, :]


def full_jacobian(hierarchy: ChoiceHierarchy, delta, params: NestingParams) -> ShareJacobian:
    """Analytic ds/ddelta for every inside product plus the outside row, at real utilities."""
    one_market(hierarchy, "full_jacobian")
    table, _ = compute_shares(hierarchy, delta, params)
    cells = np.append(table.joint, table.outside)[:, None] * _blocks(table, params)[0][0]
    return ShareJacobian(matrix=cells[:-1], outside_row=cells[-1])


def fd_jacobian(hierarchy: ChoiceHierarchy, delta, params: NestingParams, step: float = 1e-6) -> ShareJacobian:
    """Central-difference approximation (s(delta+h e_k) - s(delta-h e_k)) / 2h, two
    ``compute_shares`` calls per column k. OutOfDomainError, in this order: ``step`` is not positive
    and finite; ``delta`` is out of the domain of ``compute_shares``; ``step`` is lost in rounding
    next to a utility (or 1 where that is smaller); the moved utilities leave the domain."""
    one_market(hierarchy, "fd_jacobian")
    if not _number("step", step) > 0.0:
        raise OutOfDomainError(f"step={step!r} must be positive")
    compute_shares(hierarchy, delta, params)
    delta = as_delta_array(hierarchy, delta)
    size = np.maximum(np.abs(delta), 1.0)
    lost = np.flatnonzero((size + step == size) | (size - step == size))
    if lost.size:
        raise OutOfDomainError(f"step={step!r} is lost in rounding next to utility {delta[lost[0]]:.17g}")
    columns = []
    for k, x in enumerate(delta):
        try:
            up, down = (compute_shares(hierarchy, np.where(np.arange(len(delta)) == k, x + move, delta), params)[0]
                        for move in (step, -step))
        except OutOfDomainError as err:
            raise OutOfDomainError(f"step={step!r} moves the utilities out of the domain: {err}") from None
        columns.append((np.append(up.joint, up.outside) - np.append(down.joint, down.outside)) / (2.0 * step))
    columns = np.column_stack(columns)
    return ShareJacobian(matrix=columns[:-1], outside_row=columns[-1])


def _complex_step_columns(tree: ChoiceHierarchy, delta: np.ndarray, params: NestingParams) -> np.ndarray:
    """ds/ddelta of every market of ``tree`` at a ``delta`` in the domain by the complex step, one
    ``_log_shares`` call per column: row i, share s_i (the products, then each market's outside option),
    column j, s_i Im log s_i(delta + 1e-200 i e_j) / 1e-200 for the j-th utility of its market (0 past its last)."""
    first, sizes = tree.bounds[2, :-1], np.diff(tree.bounds[2])
    columns, perturbed = np.empty((tree.n_products + tree.n_markets, sizes.max())), delta.astype(complex)
    for j in range(sizes.max()):
        perturbed.imag[first[sizes > j] + j] = 1e-200
        log_joint, *_, log_outside, _ = _log_shares(tree, perturbed, params)
        perturbed.imag = 0.0
        columns[:, j] = np.append(log_joint.imag, log_outside.imag) / 1e-200
    return columns * np.exp(np.append(log_joint.real, log_outside.real))[:, None]


def max_relative_error(analytic: ShareJacobian, fd: ShareJacobian, row_scale) -> float:
    """Worst per-entry relative disagreement between two Jacobians.

    Each entry is compared against max(|analytic|, |fd|, 1e-12, row_scale
    of its row), where ``row_scale`` is the share level of each row, outside
    last. Central differences only resolve an entry down to roughly
    eps*share/step, so entries whose true magnitude sits below that are pure
    FD roundoff and are judged against the size of the row they live in.
    OutOfDomainError for Jacobians of two shapes, or a ``row_scale`` of another length or not finite.
    """
    a, f = (np.vstack([_instance(name, j, ShareJacobian).matrix, j.outside_row])
            for name, j in (("analytic", analytic), ("fd", fd)))
    scale = _real_array("row_scale", row_scale, finite=True)
    if a.shape != f.shape or scale.shape != a.shape[:1]:
        raise OutOfDomainError(f"Jacobians of shapes {a.shape} and {f.shape} and a row_scale of {scale.shape} differ")
    return float(np.max(_relative_error(a, f, scale[:, None])))


def _relative_error(a, f, scale) -> np.ndarray:
    """Each entry's |a - f| over max(|a|, |f|, 1e-12, ``scale``), ``scale`` broadcast against them."""
    return np.abs(a - f) / np.maximum(np.maximum(np.maximum(np.abs(a), np.abs(f)), _RELATIVE_FLOOR), scale)
