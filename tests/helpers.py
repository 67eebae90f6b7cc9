"""Shared instance builders and independent oracles for the test suite."""

import numpy as np
from hypothesis import strategies as st
from scipy.special import logsumexp

from hierlogit import build_hierarchy, validate_params


def random_tree(rng, max_groups=3, max_subgroups=3, max_products=4):
    """Ragged random tree: per-group subgroup counts and per-subgroup
    product counts are drawn independently, so most trees are unbalanced."""
    n_groups = int(rng.integers(1, max_groups + 1))
    rows = []
    for g in range(n_groups):
        n_sub = int(rng.integers(1, max_subgroups + 1))
        for h in range(n_sub):
            n_prod = int(rng.integers(1, max_products + 1))
            for p in range(n_prod):
                rows.append((f"g{g}", f"h{g}.{h}", f"p{g}.{h}.{p}"))
    return build_hierarchy(rows)


def random_instance(rng, dlo=-10.0, dhi=10.0, smax=0.95, **tree_kw):
    tree = random_tree(rng, **tree_kw)
    delta = rng.uniform(dlo, dhi, tree.n_products)
    params = validate_params(rng.uniform(0.0, smax), rng.uniform(0.0, smax))
    return tree, delta, params


@st.composite
def ragged_instances(draw, utility_bound=700.0, sigma_bound=0.999):
    """Trees of 1-3 groups, 1-3 subgroups each, 1-4 products each, with
    utilities anywhere in [-utility_bound, utility_bound] and sigmas up to
    ``sigma_bound``.

    The domain edges are drawn on purpose: tied utilities of 700 at
    sigma = 0.999 are where rounding in the log-sum-exp shows.
    """
    sizes = draw(
        st.lists(st.lists(st.integers(1, 4), min_size=1, max_size=3), min_size=1, max_size=3)
    )
    rows = [
        (f"g{g}", f"h{g}.{h}", f"p{g}.{h}.{p}")
        for g, subgroups in enumerate(sizes)
        for h, n_products in enumerate(subgroups)
        for p in range(n_products)
    ]
    tree = build_hierarchy(rows)
    edges = [-utility_bound, 0.0, utility_bound]
    utility = st.one_of(st.sampled_from(edges), st.floats(-utility_bound, utility_bound))
    delta = np.array(draw(st.lists(utility, min_size=tree.n_products, max_size=tree.n_products)))
    sigma = st.one_of(st.sampled_from([0.0, sigma_bound]), st.floats(0.0, sigma_bound))
    return tree, delta, validate_params(draw(sigma), draw(sigma))


def balanced_tree(n_groups, n_subgroups, n_products):
    rows = [
        (f"g{g}", f"h{g}.{h}", f"p{g}.{h}.{p}")
        for g in range(n_groups)
        for h in range(n_subgroups)
        for p in range(n_products)
    ]
    return build_hierarchy(rows)


def one_level_nested_shares(delta, sigma, nest_of, n_nests):
    """Independent one-level nested logit evaluator (outside option at 0).

    Used as the collapse oracle: the two-level model must reduce to this
    when the nesting parameters coincide or the group level is inert.
    """
    delta = np.asarray(delta, dtype=float)
    a = 1.0 - sigma
    x = delta / a
    log_sum = np.array([logsumexp(x[nest_of == k]) for k in range(n_nests)])
    iv = a * log_sum
    top = logsumexp(np.append(iv, 0.0))
    joint = np.exp(x - log_sum[nest_of] + iv[nest_of] - top)
    return joint, float(np.exp(-top))


def plain_logit_shares(delta):
    delta = np.asarray(delta, dtype=float)
    top = logsumexp(np.append(delta, 0.0))
    return np.exp(delta - top), float(np.exp(-top))


def brute_force_shares(tree, delta, sigma1, sigma2):
    """Plain exponential-ratio evaluation of the nested share formulas.

    No log-sum-exp anywhere; only valid for moderate utilities, which is
    the point: it is an independent check on the log-space kernel.
    """
    delta = np.asarray(delta, dtype=float)
    a1 = 1.0 - sigma1
    a2 = 1.0 - sigma2
    sub_sum = np.array(
        [
            np.exp(delta[tree.product_subgroup == si] / a1).sum()
            for si in range(tree.n_subgroups)
        ]
    )
    iv_sub = a1 * np.log(sub_sum)
    grp_sum = np.array(
        [
            np.exp(iv_sub[tree.subgroup_group == g] / a2).sum()
            for g in range(tree.n_groups)
        ]
    )
    iv_grp = a2 * np.log(grp_sum)
    denom = 1.0 + np.exp(iv_grp).sum()
    joint = np.empty(tree.n_products)
    for j in range(tree.n_products):
        si = tree.product_subgroup[j]
        gi = tree.product_group[j]
        cp = np.exp(delta[j] / a1) / sub_sum[si]
        cs = np.exp(iv_sub[si] / a2) / grp_sum[gi]
        gs = np.exp(iv_grp[gi]) / denom
        joint[j] = cp * cs * gs
    return joint, 1.0 / denom


# Per-entry derivative oracles: the three cases of the product rule
#
#     d s_jhg / d delta_k = d s_{j|hg} * s_{h|g} * s_g
#                         + s_{j|hg} * d s_{h|g} * s_g
#                         + s_{j|hg} * s_{h|g} * d s_g
#
# one entry at a time, addressed by canonical position. The vectorized
# ``full_jacobian`` must agree with their composition.


def d_cond_product(table, j, k, params):
    """d s_{j|hg} / d delta_k for products at positions j and k.

    a*cp_j*(1-cp_j) for k = j, -a*cp_j*cp_k for k in the same subgroup,
    zero otherwise, with a = 1/(1-sigma1).
    """
    h = table.hierarchy
    if h.product_subgroup[j] != h.product_subgroup[k]:
        return 0.0
    a = 1.0 / (1.0 - params.sigma1)
    cp = table.cond_product
    if j == k:
        return float(a * cp[j] * (1.0 - cp[j]))
    return float(-a * cp[j] * cp[k])


def d_cond_subgroup(table, sh, k, params):
    """d s_{h|g} / d delta_k for flat subgroup index sh and product position k.

    b*cs_h*cp_k*(1-cs_h) when k lies in h, and -b*cs_h*cs_h'*cp_k when k
    lies in a sibling subgroup h' of the same group, with b = 1/(1-sigma2);
    zero when k belongs to another group.
    """
    h = table.hierarchy
    sk = h.product_subgroup[k]
    if h.subgroup_group[sh] != h.subgroup_group[sk]:
        return 0.0
    b = 1.0 / (1.0 - params.sigma2)
    cs = table.cond_subgroup
    cp_k = table.cond_product[k]
    if sk == sh:
        return float(b * cs[sh] * cp_k * (1.0 - cs[sh]))
    return float(-b * cs[sh] * cs[sk] * cp_k)


def d_group(table, g, k):
    """d s_g / d delta_k for group index g and product position k.

    s_k*(1-s_g) when k lies inside g and -s_g*s_k otherwise, with s_k the
    joint share of k. g = n_groups addresses the outside option, which
    behaves as a group with inclusive value pinned at zero:
    ds_0/ddelta_k = -s_0*s_k.
    """
    h = table.hierarchy
    joint_k = table.joint[k]
    if g == h.n_groups:
        return float(-table.outside * joint_k)
    gs = table.group[g]
    if h.product_group[k] == g:
        return float(joint_k * (1.0 - gs))
    return float(-gs * joint_k)
