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

Every function here takes a tree of any number of markets: the market is
the top segment, so a file of many markets is one call.
"""

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
    """Inclusive values per subgroup, per group, and at the top level:
    ``top`` is a float for a one-market tree and an array over markets
    otherwise."""

    subgroup: np.ndarray
    group: np.ndarray
    top: float


def _per_market(values: np.ndarray):
    """``values`` over markets, or its one entry as a Python number for a one-market tree."""
    return values[0].item() if len(values) == 1 else values


@dataclass(frozen=True)
class ShareTable:
    """Joint, conditional, and aggregate shares for every market of a tree.

    Arrays are aligned to the hierarchy's canonical orders: ``joint`` and
    ``cond_product`` per product, ``cond_subgroup`` per flat subgroup,
    ``group`` per group. ``outside`` is the no-purchase share: a float for
    a one-market tree and an array over markets otherwise.

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
    def from_joint(cls, hierarchy: ChoiceHierarchy, joint, outside) -> "ShareTable":
        """Rebuild a full table (conditionals included) from observed joint shares.

        ``outside`` holds one outside share per market (a float will do for
        one market). Intended for share data coming from outside the model,
        e.g. a CSV of observed market shares. This is the one check of the
        per-share bound: every joint share and the outside share must lie
        strictly inside (0, 1). Whether they sum to 1 is left to the caller;
        the CLI requires it within 1e-6 as a rule of its file format.

        Raises
        ------
        DegenerateShareError
            If any share is not strictly inside (0, 1), NaN included.
        """
        joint = np.asarray(joint, dtype=float)
        outside = np.atleast_1d(np.asarray(outside, dtype=float))
        if joint.shape != (hierarchy.n_products,) or outside.shape != (hierarchy.n_markets,):
            raise DegenerateShareError(
                f"expected {hierarchy.n_products} joint and {hierarchy.n_markets} outside shares, "
                f"got shapes {joint.shape} and {outside.shape}"
            )
        if not np.all((joint > 0.0) & (joint < 1.0)):
            raise DegenerateShareError("joint shares must lie strictly in (0, 1)")
        bad = outside[~((outside > 0.0) & (outside < 1.0))]
        if bad.size:
            raise DegenerateShareError(f"outside share {float(bad[0])!r} must lie strictly in (0, 1)")

        h = hierarchy
        # products are summed straight into groups, not through subgroups
        group_sum, subgroup_sum = (np.bincount(h.above[l], weights=joint, minlength=len(h.ids[l])) for l in (1, 2))
        cond_product = joint / subgroup_sum[h.product_subgroup]
        cond_subgroup = subgroup_sum / group_sum[h.subgroup_group]
        return cls(
            hierarchy=hierarchy,
            joint=joint,
            cond_product=cond_product,
            cond_subgroup=cond_subgroup,
            group=group_sum,
            outside=_per_market(outside),
            log_joint=np.log(joint),
            log_cond_product=np.log(cond_product),
            log_cond_subgroup=np.log(cond_subgroup),
            log_group=np.log(group_sum),
            log_outside=_per_market(np.log(outside)),
        )


def _segment_log_softmax(x: np.ndarray, segment: np.ndarray, n_segments: int):
    """Max-shifted log-sum-exp of x per segment and log softmax of x within it.

    Returns ``(lse, log_softmax)``. The log softmax is formed from the
    shifted values x - peak and the small log of their sum, never as
    x - lse: at |x| ~ 1e6 (utilities of 700 over 1 - sigma = 1e-3) the
    rounding of lse alone would move every share of a segment by ~1e-10
    in the same direction. Each segment's terms are summed in the order
    they have in x, the imaginary parts of a complex x apart. Every segment
    is nonempty by hierarchy construction, so the per-segment peak, that of
    the real parts (a shift cancels), is finite for finite x.
    """
    peak = np.full(n_segments, -np.inf)
    np.maximum.at(peak, segment, x.real)
    with np.errstate(over="ignore"):  # -inf: a share that underflows to zero
        shifted = x - peak[segment]
    terms = np.exp(shifted)
    total = np.bincount(segment, weights=terms.real, minlength=n_segments)
    if np.iscomplexobj(terms):
        total = total + 1j * np.bincount(segment, weights=terms.imag, minlength=n_segments)
    log_total = np.log(total)
    return peak + log_total, shifted - log_total[segment]


def _scaled(values: np.ndarray, scale: float, what: str) -> np.ndarray:
    """values / scale, refused before dividing if the largest |real part| / scale overflows."""
    peak = float(np.max(np.abs(values.real)))
    if not np.isfinite(peak / scale):
        raise OutOfDomainError(f"{what} up to {peak:.6g} overflow a double when divided by {scale:.6g}")
    return values / scale


def compute_shares(hierarchy: ChoiceHierarchy, delta, params: NestingParams):
    """``(ShareTable, InclusiveValues)``: all shares and inclusive values of every market at mean
    utilities ``delta``, each market's those of the market computed alone, bit for bit.

    Complex utilities take a complex step (the CLI's Jacobian check): the logs and inclusive values
    are complex, the shares the exps of the logs' real parts, and only the real parts can overflow.
    """
    h = hierarchy
    values = as_delta_array(h, delta)
    # up the tree from the products, one level of parents at a time
    iv, log_cond = [None] * 3, [None] * 4
    for level, scale, what in ((2, 1.0 - params.sigma1, "utilities"),
                               (1, 1.0 - params.sigma2, "subgroup inclusive values"),
                               (0, 1.0, "group inclusive values")):
        x, segment, n = _scaled(values, scale, what), h.parent[level], len(h.ids[level])
        if level == 0:
            # each market's outside option: one more alternative, of value 0, after its groups
            x, segment = np.append(x, np.zeros(n)), np.concatenate([segment, np.arange(n)])
        lse, log_cond[level + 1] = _segment_log_softmax(x, segment, n)
        values = iv[level] = scale * lse
    with np.errstate(over="ignore"):  # -inf, as above
        log_joint = log_cond[3] + log_cond[2][h.above[2]] + log_cond[1][h.above[1]]
    log_group, log_outside = log_cond[1][:h.n_groups], log_cond[1][h.n_groups:]

    table = ShareTable(
        hierarchy=hierarchy,
        joint=np.exp(log_joint.real),
        cond_product=np.exp(log_cond[3].real),
        cond_subgroup=np.exp(log_cond[2].real),
        group=np.exp(log_group.real),
        outside=_per_market(np.exp(log_outside.real)),
        log_joint=log_joint,
        log_cond_product=log_cond[3],
        log_cond_subgroup=log_cond[2],
        log_group=log_group,
        log_outside=_per_market(log_outside),
    )
    return table, InclusiveValues(subgroup=iv[2], group=iv[1], top=_per_market(iv[0]))
