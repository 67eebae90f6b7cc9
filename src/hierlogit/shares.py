"""Inclusive values and choice probabilities for the two-level logit tree.

All aggregation runs through max-shifted log-sum-exp and every share is
assembled in log space, exponentiated once at the end. The explicit ratio
forms overflow as soon as |delta| / (1 - sigma1) passes ~709; this kernel
stays finite until a utility over 1 - sigma overflows, and refuses that.

Levels, bottom to top:

* subgroup inclusive value  I_sub = (1-sigma1) * log sum exp(delta/(1-sigma1))
* group inclusive value     I_grp = (1-sigma2) * log sum exp(I_sub/(1-sigma2))
* top inclusive value       I_top = log(sum exp(I_grp) [+ 1 for the outside option])

Conditional product shares are the softmax of delta/(1-sigma1) within a
subgroup, conditional subgroup shares the softmax of I_sub/(1-sigma2)
within a group, and group shares the softmax of I_grp (outside option
entering as exp(0) = 1). The joint share of a product is the product of
the three conditionals down its branch.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateShareError, OutOfDomainError
from .hierarchy import ChoiceHierarchy, NestingParams, as_delta_array

__all__ = [
    "InclusiveValues",
    "ShareTable",
    "compute_shares",
]


@dataclass(frozen=True)
class InclusiveValues:
    """Inclusive values per subgroup, per group, and at the top level."""

    subgroup: np.ndarray
    group: np.ndarray
    top: float


@dataclass(frozen=True)
class ShareTable:
    """Joint, conditional, and aggregate shares for one market.

    Arrays are aligned to the hierarchy's canonical orders: ``joint`` and
    ``cond_product`` per product, ``cond_subgroup`` per flat subgroup,
    ``group`` per group. ``outside`` is the no-purchase share.

    The log of every field is carried alongside. The inversion routines
    work on the logs, which stay finite and accurate even when the shares
    themselves underflow (utilities on the order of +-700).
    """

    hierarchy: ChoiceHierarchy
    joint: np.ndarray
    cond_product: np.ndarray
    cond_subgroup: np.ndarray
    group: np.ndarray
    outside: float
    log_joint: np.ndarray
    log_cond_product: np.ndarray
    log_cond_subgroup: np.ndarray
    log_group: np.ndarray
    log_outside: float

    @classmethod
    def from_joint(cls, hierarchy: ChoiceHierarchy, joint, outside: float) -> "ShareTable":
        """Rebuild a full table (conditionals included) from observed joint shares.

        Intended for share data coming from outside the model, e.g. a CSV
        of observed market shares. This is the one check of the per-share
        bound: every joint share and the outside share must lie strictly
        inside (0, 1). Whether they sum to 1 is left to the caller; the CLI
        requires it within 1e-6 as a rule of its file format.

        Raises
        ------
        DegenerateShareError
            If any share is not strictly inside (0, 1), NaN included.
        """
        joint = np.asarray(joint, dtype=float)
        if joint.shape != (hierarchy.n_products,):
            raise DegenerateShareError(
                f"expected {hierarchy.n_products} joint shares, got shape {joint.shape}"
            )
        if not np.all((joint > 0.0) & (joint < 1.0)):
            raise DegenerateShareError("joint shares must lie strictly in (0, 1)")
        outside = float(outside)
        if not 0.0 < outside < 1.0:
            raise DegenerateShareError(f"outside share {outside!r} must lie strictly in (0, 1)")

        n_sub = hierarchy.n_subgroups
        subgroup_sum = np.bincount(hierarchy.product_subgroup, weights=joint, minlength=n_sub)
        group_sum = np.bincount(hierarchy.product_group, weights=joint, minlength=hierarchy.n_groups)
        cond_product = joint / subgroup_sum[hierarchy.product_subgroup]
        cond_subgroup = subgroup_sum / group_sum[hierarchy.subgroup_group]
        return cls(
            hierarchy=hierarchy,
            joint=joint,
            cond_product=cond_product,
            cond_subgroup=cond_subgroup,
            group=group_sum,
            outside=outside,
            log_joint=np.log(joint),
            log_cond_product=np.log(cond_product),
            log_cond_subgroup=np.log(cond_subgroup),
            log_group=np.log(group_sum),
            log_outside=np.log(outside),
        )


def _segment_log_softmax(x: np.ndarray, segment: np.ndarray, n_segments: int):
    """Max-shifted log-sum-exp of x per segment and log softmax of x within it.

    Returns ``(lse, log_softmax)``. The log softmax is formed from the
    shifted values x - peak and the small log of their sum, never as
    x - lse: at |x| ~ 1e6 (utilities of 700 over 1 - sigma = 1e-3) the
    rounding of lse alone would move every share of a segment by ~1e-10
    in the same direction. Every segment is nonempty by hierarchy
    construction, so the per-segment peak is finite for finite x.
    """
    peak = np.full(n_segments, -np.inf)
    np.maximum.at(peak, segment, x)
    shifted = x - peak[segment]
    log_total = np.log(np.bincount(segment, weights=np.exp(shifted), minlength=n_segments))
    return peak + log_total, shifted - log_total[segment]


def _scaled(values: np.ndarray, scale: float, what: str) -> np.ndarray:
    """values / scale, refused before dividing when the largest |value| / scale overflows."""
    peak = float(np.abs(values).max())
    if not math.isfinite(peak / scale):
        raise OutOfDomainError(f"{what} up to {peak:.6g} overflow a double when divided by {scale:.6g}")
    return values / scale


def compute_shares(hierarchy: ChoiceHierarchy, delta, params: NestingParams):
    """All shares and inclusive values of a market at mean utilities ``delta``.

    Returns
    -------
    (ShareTable, InclusiveValues)
    """
    delta = as_delta_array(hierarchy, delta)
    a1 = 1.0 - params.sigma1
    a2 = 1.0 - params.sigma2

    x = _scaled(delta, a1, "utilities")
    # log of the per-subgroup sum S = sum exp(delta/(1-sigma1)), i.e. I_sub/(1-sigma1)
    log_s, log_cond_product = _segment_log_softmax(
        x, hierarchy.product_subgroup, hierarchy.n_subgroups
    )
    iv_sub = a1 * log_s

    y = _scaled(iv_sub, a2, "subgroup inclusive values")
    log_t, log_cond_subgroup = _segment_log_softmax(
        y, hierarchy.subgroup_group, hierarchy.n_groups
    )
    iv_grp = a2 * log_t

    # the outside option is one more alternative with value 0 at the top
    top_segment = np.zeros(hierarchy.n_groups + 1, dtype=np.intp)
    log_top, log_choice = _segment_log_softmax(np.append(iv_grp, 0.0), top_segment, 1)
    iv_top = float(log_top[0])
    log_group = log_choice[:-1]
    log_outside = float(log_choice[-1])

    log_joint = (
        log_cond_product
        + log_cond_subgroup[hierarchy.product_subgroup]
        + log_group[hierarchy.product_group]
    )

    table = ShareTable(
        hierarchy=hierarchy,
        joint=np.exp(log_joint),
        cond_product=np.exp(log_cond_product),
        cond_subgroup=np.exp(log_cond_subgroup),
        group=np.exp(log_group),
        outside=float(np.exp(log_outside)),
        log_joint=log_joint,
        log_cond_product=log_cond_product,
        log_cond_subgroup=log_cond_subgroup,
        log_group=log_group,
        log_outside=log_outside,
    )
    return table, InclusiveValues(subgroup=iv_sub, group=iv_grp, top=iv_top)
