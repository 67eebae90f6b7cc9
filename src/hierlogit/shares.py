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

from .errors import OutOfDomainError
from .hierarchy import ChoiceHierarchy, NestingParams, _instance, _real_array, as_delta_array

__all__ = [
    "InclusiveValues",
    "ShareTable",
    "compute_shares",
]


@dataclass(frozen=True)
class InclusiveValues:
    """Inclusive values per subgroup, per group, and ``top`` per market, an array over markets
    for every tree (one entry for a one-market tree)."""

    subgroup: np.ndarray
    group: np.ndarray
    top: np.ndarray


@dataclass(frozen=True)
class ShareTable:
    """The log joint, conditional and aggregate shares of every market of a tree, and the shares.

    The table is its logs, aligned to the hierarchy's canonical orders: ``log_joint`` and
    ``log_cond_product`` per product, ``log_cond_subgroup`` per flat subgroup, ``log_group`` per
    group and ``log_outside``, the no-purchase share's, per market (a scalar is taken as one
    market's). Each is a real array with one entry per node of its level, -inf for a share of 0, no
    NaN and none above the log of the tree's product count; OutOfDomainError otherwise. The inversion
    routines work on the logs, which stay finite and accurate even when the shares themselves
    underflow (utilities on the order of +-700).

    The shares ``joint``, ``cond_product``, ``cond_subgroup``, ``group`` and ``outside`` are set
    on construction, each the exp of its log.
    """

    hierarchy: ChoiceHierarchy
    log_joint: np.ndarray
    log_cond_product: np.ndarray
    log_cond_subgroup: np.ndarray
    log_group: np.ndarray
    log_outside: np.ndarray

    def __post_init__(self):
        ids = _instance("hierarchy", self.hierarchy, ChoiceHierarchy).ids
        for name, level in zip(("joint", "cond_product", "cond_subgroup", "group", "outside"), (3, 3, 2, 1, 0)):
            log = _real_array(f"log_{name}", getattr(self, f"log_{name}"), len(ids[level]),
                              f"log_{name} of shape {{shape}} is not one entry per node of level {level}")
            if not log.max() <= np.log(len(ids[3])):  # a share is at most 1, a from_joint group sum below the count
                raise OutOfDomainError(f"log_{name} holds NaN" if np.isnan(log).any() else
                                       f"log_{name} holds a share above {len(ids[3])}, the tree's product count")
            self.__dict__.update({f"log_{name}": log, name: np.exp(log)})  # frozen: set past __setattr__

    @classmethod
    def from_joint(cls, hierarchy: ChoiceHierarchy, joint, outside) -> "ShareTable":
        """Rebuild a full table (conditionals included) from observed joint shares.

        ``joint`` holds one share per product and ``outside`` one per market (a
        number is one share). Intended for share data coming from outside the
        model, e.g. a CSV of observed market shares. This is the one check of the
        per-share bound: every joint share and the outside share must be a
        real number strictly inside (0, 1). Whether they sum to 1 is left to
        the caller; the CLI requires it within 1e-6 as a rule of its file format.

        Raises
        ------
        OutOfDomainError
            If a share is not a real number in the open (0, 1), NaN included, or not one per product or market.
        """
        h = _instance("hierarchy", hierarchy, ChoiceHierarchy)
        joint, outside = (
            _real_array("joint and outside shares", shares, n, f"expected {n} {what} shares, got shape {{shape}}")
            for shares, n, what in ((joint, h.n_products, "joint"), (outside, h.n_markets, "outside")))
        if not np.all((joint > 0.0) & (joint < 1.0)):
            raise OutOfDomainError("joint shares must lie strictly in (0, 1)")
        bad = outside[~((outside > 0.0) & (outside < 1.0))]
        if bad.size:
            raise OutOfDomainError(f"outside share {float(bad[0])!r} must lie strictly in (0, 1)")

        # products are summed straight into groups, not through subgroups
        group_sum, subgroup_sum = (np.bincount(h.above[l], weights=joint, minlength=len(h.ids[l])) for l in (1, 2))
        return cls(
            hierarchy=hierarchy,
            log_joint=np.log(joint),
            log_cond_product=np.log(joint / subgroup_sum[h.product_subgroup]),
            log_cond_subgroup=np.log(subgroup_sum / group_sum[h.subgroup_group]),
            log_group=np.log(group_sum),
            log_outside=np.log(outside),
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
    """``(ShareTable, InclusiveValues)``: the log shares and inclusive values of every market at real mean
    utilities ``delta``, each market's those of the market computed alone, bit for bit. The outside share
    and the top inclusive value are arrays over markets, one entry for a one-market tree."""
    *logs, iv = _log_shares(hierarchy, as_delta_array(hierarchy, delta), _instance("params", params, NestingParams))
    return ShareTable(hierarchy, *logs), InclusiveValues(subgroup=iv[2], group=iv[1], top=iv[0])


def _log_shares(h: ChoiceHierarchy, values: np.ndarray, params: NestingParams) -> tuple:
    """``compute_shares``' five logs, in the table's field order, and inclusive values ``[top, group, subgroup]``
    at checked utilities: complex at the Jacobian check's complex step, where only the real parts can overflow."""
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
    return log_joint, log_cond[3], log_cond[2], log_cond[1][:h.n_groups], log_cond[1][h.n_groups:], iv
