import dataclasses
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from hierlogit import (
    NestingParams,
    OutOfDomainError,
    ShareTable,
    berry_invert,
    build_hierarchy,
    compute_shares,
    log_share_jacobian,
    numeric_invert,
)

from hierlogit.cli import read_market_csv

from helpers import assert_same_tree, balanced_tree, brute_force_shares, random_instance, ragged_instances

HALF_LN2 = 0.34657359027997265471
# high-precision references for the asymmetric kernel examples
SUB_IV_12_HALF = 2.0634640055214862482  # 0.5*ln(e^2 + e^4)
GRP_IV_EXAMPLE = 0.71299044376964120049  # 0.75*ln(e^(0.3465736/0.75) + 1)
TOP_IV_12 = 2.4076059644443803045  # ln(1 + e + e^2)
COND_PROD_12 = (0.11920292202211755594, 0.88079707797788244406)
COND_SUB_0408 = (0.40131233988754799963, 0.59868766011245200037)
GRP_SHARE_1 = (0.73105857863000487925, 0.26894142136999512075)

# 2x2x2 tree, delta = 0.1..0.8, sigma = (0.5, 0.25), evaluated at 40 digits
JOINT_2X2X2 = np.array(
    [
        0.069328274305202413746,
        0.084677745454859060079,
        0.090515353503209994067,
        0.11055570242466347774,
        0.10342563185334964091,
        0.12632435201013956922,
        0.13503303987181894743,
        0.16492972734219184844,
    ]
)
S0_2X2X2 = 0.11521017323456504836


def one_subgroup(deltas, sigma1=0.0, sigma2=0.0):
    """compute_shares with every product in one subgroup of one group."""
    tree = build_hierarchy([("g1", "h1", f"p{i}") for i in range(len(deltas))])
    return compute_shares(tree, deltas, NestingParams(sigma1, sigma2))


def singleton_subgroups(deltas, sigma2):
    """compute_shares with one product per subgroup, all in one group.

    At sigma1 = 0 each subgroup inclusive value is its product's utility.
    """
    tree = build_hierarchy([("g1", f"h{i}", f"p{i}") for i in range(len(deltas))])
    return compute_shares(tree, deltas, NestingParams(0.0, sigma2))


def singleton_groups(deltas):
    """compute_shares with one product per group: group values are the utilities."""
    tree = build_hierarchy([(f"g{i}", f"h{i}", f"p{i}") for i in range(len(deltas))])
    return compute_shares(tree, deltas, NestingParams(0.0, 0.0))


def test_subgroup_inclusive_value():
    assert one_subgroup([0.0, 0.0], 0.5)[1].subgroup[0] == pytest.approx(HALF_LN2, abs=1e-15)
    # singleton log-sum-exp is the identity at any sigma
    assert one_subgroup([-3.7], 0.9)[1].subgroup[0] == pytest.approx(-3.7, abs=1e-15)
    assert one_subgroup([1.0, 2.0], 0.5)[1].subgroup[0] == pytest.approx(
        SUB_IV_12_HALF, abs=1e-14
    )


def test_group_inclusive_value():
    assert singleton_subgroups([0.0, 0.0], 0.5)[1].group[0] == pytest.approx(HALF_LN2, abs=1e-15)
    assert one_subgroup([2.25], 0.0, 0.3)[1].group[0] == pytest.approx(2.25, abs=1e-15)
    assert singleton_subgroups([0.3465736, 0.0], 0.25)[1].group[0] == pytest.approx(
        GRP_IV_EXAMPLE, abs=1e-14
    )


def test_top_inclusive_value():
    assert singleton_groups([0.0])[1].top == pytest.approx(np.log(2.0), abs=1e-15)
    assert singleton_groups([1.0, 2.0])[1].top == pytest.approx(TOP_IV_12, abs=1e-14)


def test_conditional_product_shares():
    np.testing.assert_allclose(one_subgroup([0.0, 0.0], 0.7)[0].cond_product, [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(one_subgroup([4.2], 0.3)[0].cond_product, [1.0], atol=0)
    np.testing.assert_allclose(
        one_subgroup([1.0, 2.0], 0.5)[0].cond_product, COND_PROD_12, atol=1e-15
    )


def test_conditional_subgroup_shares():
    np.testing.assert_allclose(
        singleton_subgroups([0.0, 0.0], 0.25)[0].cond_subgroup, [0.5, 0.5], atol=1e-15
    )
    np.testing.assert_allclose(one_subgroup([-1.0], 0.0, 0.25)[0].cond_subgroup, [1.0], atol=0)
    np.testing.assert_allclose(
        singleton_subgroups([0.2, 0.4], 0.5)[0].cond_subgroup, COND_SUB_0408, atol=1e-15
    )


def test_group_shares():
    table, _ = singleton_groups([0.0])
    np.testing.assert_allclose(np.append(table.group, table.outside), [0.5, 0.5], atol=1e-15)
    table, _ = singleton_groups([0.0, 0.0])
    np.testing.assert_allclose(
        np.append(table.group, table.outside), [1 / 3, 1 / 3, 1 / 3], atol=1e-15
    )
    table, _ = singleton_groups([1.0])
    np.testing.assert_allclose(np.append(table.group, table.outside), GRP_SHARE_1, atol=1e-15)


def test_conditional_shares_sum_to_one():
    rng = np.random.default_rng(11)
    for _ in range(50):
        tree, delta, params = random_instance(rng, dlo=-8, dhi=8)
        table, _ = compute_shares(tree, delta, params)
        per_subgroup = np.bincount(tree.product_subgroup, weights=table.cond_product)
        per_group = np.bincount(tree.subgroup_group, weights=table.cond_subgroup)
        assert np.max(np.abs(per_subgroup - 1.0)) < 1e-14
        assert np.max(np.abs(per_group - 1.0)) < 1e-14


def test_single_product_market_splits_with_outside():
    tree = build_hierarchy([("g1", "h1", "p1")])
    for sigma in ((0.0, 0.0), (0.5, 0.25), (0.9, 0.8)):
        table, iv = compute_shares(tree, [0.0], NestingParams(*sigma))
        assert table.joint[0] == pytest.approx(0.5, abs=1e-15)
        assert table.outside == pytest.approx(0.5, abs=1e-15)
        assert iv.top == pytest.approx(np.log(2.0), abs=1e-15)


def test_zero_sigma_collapses_to_thirds():
    # two unit-utility products anywhere in the tree; sigma = 0 is plain logit
    tree = build_hierarchy([("g1", "h1", "p1"), ("g2", "h2", "p2")])
    table, _ = compute_shares(tree, [0.0, 0.0], NestingParams(0.0, 0.0))
    np.testing.assert_allclose(table.joint, [1 / 3, 1 / 3], atol=1e-15)
    assert table.outside == pytest.approx(1 / 3, abs=1e-15)


def test_2x2x2_frozen_table():
    tree = balanced_tree(2, 2, 2)
    delta = np.arange(0.1, 0.81, 0.1)
    table, _ = compute_shares(tree, delta, NestingParams(0.5, 0.25))
    np.testing.assert_allclose(table.joint, JOINT_2X2X2, rtol=0, atol=1e-15)
    assert table.outside == pytest.approx(S0_2X2X2, abs=1e-15)


def test_matches_brute_force_ratios():
    rng = np.random.default_rng(23)
    for _ in range(30):
        tree, delta, params = random_instance(rng, dlo=-4, dhi=4, smax=0.9)
        table, _ = compute_shares(tree, delta, params)
        joint, s0 = brute_force_shares(tree, delta, params.sigma1, params.sigma2)
        np.testing.assert_allclose(table.joint, joint, rtol=0, atol=1e-12)
        assert abs(table.outside - s0) < 1e-12


def test_normalization_property():
    rng = np.random.default_rng(29)
    for _ in range(200):
        tree, delta, params = random_instance(rng)
        table, _ = compute_shares(tree, delta, params)
        assert abs(table.joint.sum() + table.outside - 1.0) < 1e-12


def test_share_table_factorization():
    rng = np.random.default_rng(31)
    for _ in range(50):
        tree, delta, params = random_instance(rng)
        table, iv = compute_shares(tree, delta, params)
        rebuilt = (
            table.cond_product
            * table.cond_subgroup[tree.product_subgroup]
            * table.group[tree.product_group]
        )
        np.testing.assert_allclose(table.joint, rebuilt, rtol=0, atol=1e-12)
        assert np.all(iv.top >= iv.group)  # outside keeps the top sum above each group


def test_conditional_shift_invariance():
    # adding a constant to one subgroup's utilities cannot move its
    # conditional product shares
    rng = np.random.default_rng(37)
    for _ in range(25):
        tree, delta, params = random_instance(rng, dlo=-5, dhi=5)
        table, _ = compute_shares(tree, delta, params)
        si = int(rng.integers(tree.n_subgroups))
        shifted = delta.copy()
        idx = np.flatnonzero(tree.product_subgroup == si)
        shifted[idx] += float(rng.uniform(-3, 3))
        table2, _ = compute_shares(tree, shifted, params)
        np.testing.assert_allclose(
            table.cond_product[idx], table2.cond_product[idx], rtol=0, atol=1e-12
        )


def test_extreme_utilities_stay_finite():
    tree = balanced_tree(2, 2, 2)
    delta = np.array([700.0, -700.0, 350.0, 0.0, -350.0, 700.0, -700.0, 100.0])
    table, iv = compute_shares(tree, delta, NestingParams(0.6, 0.3))
    assert np.all(np.isfinite(table.joint))
    assert np.isfinite(table.outside)
    assert np.all(np.isfinite(table.log_joint))
    assert np.isfinite(iv.top)
    assert abs(table.joint.sum() + table.outside - 1.0) < 1e-12


def test_from_joint_rebuilds_conditionals():
    rng = np.random.default_rng(41)
    for _ in range(20):
        tree, delta, params = random_instance(rng, dlo=-4, dhi=4)
        table, _ = compute_shares(tree, delta, params)
        rebuilt = ShareTable.from_joint(tree, table.joint, table.outside)
        np.testing.assert_allclose(rebuilt.cond_product, table.cond_product, atol=1e-12)
        np.testing.assert_allclose(rebuilt.cond_subgroup, table.cond_subgroup, atol=1e-12)
        np.testing.assert_allclose(rebuilt.group, table.group, atol=1e-12)
        np.testing.assert_allclose(rebuilt.log_joint, table.log_joint, atol=1e-10)


def test_from_joint_rejects_degenerate_input():
    tree = build_hierarchy([("g1", "h1", "p1"), ("g1", "h1", "p2")])
    with pytest.raises(OutOfDomainError):
        ShareTable.from_joint(tree, [0.0, 0.5], 0.5)
    with pytest.raises(OutOfDomainError):
        ShareTable.from_joint(tree, [0.2, 0.3], 0.0)
    with pytest.raises(OutOfDomainError):
        ShareTable.from_joint(tree, [0.2, -0.1], 0.9)
    with pytest.raises(OutOfDomainError):
        ShareTable.from_joint(tree, [0.2], 0.5)


@pytest.mark.parametrize("joint, outside", [
    ([0.2 + 0j, 0.3], 0.5), ([0.2, 0.3], 0.5 + 0j), (np.array([0.2, 0.3], dtype=complex), 0.5),
    ([0.2, "a"], 0.5), ([0.2, 0.3], "half"), ([0.2, [0.3, 0.1]], 0.5), (["0.2", "0.3"], 0.5),
], ids=["complex-joint", "complex-outside", "complex-array", "string-joint", "string-outside", "ragged",
        "numeric-text"])
@pytest.mark.filterwarnings("error")
def test_from_joint_refuses_shares_that_are_not_real_numbers(joint, outside):
    # complex shares once raised a raw TypeError (a complex array warned and lost its imaginary
    # parts), a string a raw ValueError; text is refused even where numpy reads it as a number
    tree = build_hierarchy([("g1", "h1", "p1"), ("g1", "h1", "p2")])
    with pytest.raises(OutOfDomainError, match="outside shares must be real numbers"):
        ShareTable.from_joint(tree, joint, outside)


def test_a_table_is_its_logs_and_each_share_the_exp_of_its_log():
    names = ("joint", "cond_product", "cond_subgroup", "group", "outside")
    assert [f.name for f in dataclasses.fields(ShareTable)] == ["hierarchy", *(f"log_{n}" for n in names)]
    tree = build_hierarchy([("g1", "h1", "p1"), ("g1", "h2", "p2"), ("g2", "h3", "p3")])
    table, iv = compute_shares(tree, [0.5, -0.25, 1.0], NestingParams(0.5, 0.25))
    # a float outside share is one market's
    observed = ShareTable.from_joint(tree, table.joint, float(table.outside[0]))
    for t in (table, observed):
        for name in names:
            assert np.array_equal(getattr(t, name), np.exp(getattr(t, f"log_{name}"))), name
    # the per-market values are arrays over markets for every tree, of one entry for one market
    assert table.outside.shape == observed.log_outside.shape == iv.top.shape == (1,)


@pytest.mark.filterwarnings("error")
def test_a_table_refuses_a_share_above_the_product_count():
    # logs of 400 are no shares of a two-product tree, and would overflow in log_share_jacobian
    tree = build_hierarchy([("g1", "h1", "p1"), ("g1", "h1", "p2")])
    logs = np.log([0.2, 0.3]), [400.0, 400.0], [400.0], np.log([0.5]), np.log([0.5])
    with pytest.raises(OutOfDomainError, match="^log_cond_product holds a share above 2, the tree's product count$"):
        log_share_jacobian(ShareTable(tree, *logs), NestingParams(0.5, 0.25))
    # from_joint's one group of shares just below 1 sums past 1, never past the product count
    below_one = np.nextafter(1.0, 0.0)
    for n in (2, 3, 50):
        table = ShareTable.from_joint(build_hierarchy([("g1", f"h{j % 2}", f"p{j}") for j in range(n)]),
                                      np.full(n, below_one), below_one)
        assert 1.0 < table.group[0] <= n
    # every model share is at most 1, at utilities of +-700 too
    for sigma in ((0.6, 0.3), (0.999, 0.5)):
        table, _ = compute_shares(balanced_tree(2, 2, 2), [700.0, -700.0] * 4, NestingParams(*sigma))
        assert max(log.max() for log in (table.log_joint, table.log_cond_product, table.log_group)) <= 0.0


@pytest.mark.parametrize(
    "sigma, delta",
    [
        # delta / (1 - sigma1) overflows
        ((0.5, 0.25), [0.0, 1e308]),
        ((0.5, 0.25), [-1e308, 0.0]),
        # delta / 1 fits, I_sub / (1 - sigma2) overflows
        ((0.0, 0.5), [1e308, 0.0]),
    ],
)
def test_overflowing_scaled_utilities_are_refused(sigma, delta):
    tree = build_hierarchy([("g1", "h1", "a"), ("g2", "h2", "b")])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfDomainError, match="overflow"):
            compute_shares(tree, delta, NestingParams(*sigma))


def test_largest_utilities_that_fit_stay_finite():
    tree = build_hierarchy([("g1", "h1", "a"), ("g2", "h2", "b")])
    table, iv = compute_shares(tree, [1e308, 0.0], NestingParams(0.0, 0.0))
    assert table.joint.tolist() == [1.0, 0.0] and table.outside == 0.0
    assert iv.top == 1e308
    table, _ = compute_shares(tree, [0.5e308, -0.5e308], NestingParams(0.5, 0.0))
    assert table.joint.tolist() == [1.0, 0.0]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ragged_instances())
def test_kernel_properties_on_ragged_trees(instance):
    tree, delta, params = instance
    table, iv = compute_shares(tree, delta, params)
    assert abs(table.joint.sum() + table.outside - 1.0) <= 1e-12

    top = float(logsumexp(np.append(iv.group, 0.0)))
    assert abs(iv.top - top) <= 1e-12 * max(1.0, abs(top))

    # log conditional shares carry delta / (1 - sigma); scaled by 1 - sigma
    # in the closed form, their rounding shrinks back to eps * |delta|
    scale = max(1.0, float(np.max(np.abs(delta))))
    recovered = berry_invert(table, params).values
    np.testing.assert_allclose(recovered, delta, rtol=0, atol=16 * np.finfo(float).eps * scale)


@st.composite
def shuffled_market_files(draw):
    """Rows of 1-4 ragged markets of different sizes, shuffled across markets,
    with utilities and sigmas either at the domain edges (+-700, 0.999) or
    where every share is a normal double (+-5, 0.9)."""
    bound, sigma_bound = draw(st.sampled_from([(700.0, 0.999), (5.0, 0.9)]))
    rows = []
    for m in range(draw(st.integers(1, 4))):
        sizes = draw(st.lists(st.lists(st.integers(1, 4), min_size=1, max_size=3), min_size=1, max_size=3))
        for g, subgroups in enumerate(sizes):
            for h, n_products in enumerate(subgroups):
                for p in range(n_products):
                    utility = draw(st.one_of(st.sampled_from([-bound, 0.0, bound]), st.floats(-bound, bound)))
                    rows.append((f"m{m}", f"g{g}", f"h{h}", f"p{g}.{h}.{p}", utility))
    sigma = st.one_of(st.sampled_from([0.0, sigma_bound]), st.floats(0.0, sigma_bound))
    return draw(st.permutations(rows)), NestingParams(draw(sigma), draw(sigma))


def _same(a, b) -> bool:
    return np.array_equal(np.asarray(a), np.asarray(b))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(shuffled_market_files())
def test_file_wide_calls_equal_one_market_calls_bitwise(instance):
    rows, params = instance
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        lines = ["market_id,group_id,subgroup_id,product_id,value"] + [",".join(map(str, r)) for r in rows]
        path.write_text("\n".join(lines) + "\n")
        tree, utilities, _ = read_market_csv(path)
    table, iv = compute_shares(tree, utilities, params)
    interior = np.all((table.joint > 0.0) & (table.joint < 1.0))
    interior &= np.all((table.outside > 0.0) & (table.outside < 1.0))
    if interior:
        observed = ShareTable.from_joint(tree, table.joint, table.outside)
        delta = berry_invert(observed, params).values
        newton = numeric_invert(tree, observed, params).values
    for m, market_id in enumerate(tree.market_ids):
        (g0, s0, p0), (g1, s1, p1) = tree.bounds[:, [m, m + 1]].T.tolist()
        market_rows = [r for r in rows if r[0] == market_id]
        one = build_hierarchy([r[1:4] for r in market_rows], market_id)
        assert one.products == tree.products[p0:p1]
        assert_same_tree(tree.markets(m, m + 1), one)
        values = dict((r[3], r[4]) for r in market_rows)
        one_table, one_iv = compute_shares(one, [values[p] for p in one.products], params)
        assert _same(one_iv.subgroup, iv.subgroup[s0:s1]) and _same(one_iv.group, iv.group[g0:g1])
        assert _same(one_iv.top, iv.top[m:m + 1])
        tables = [(one_table, table)]
        if interior:
            one_observed = ShareTable.from_joint(one, one_table.joint, one_table.outside)
            assert _same(berry_invert(one_observed, params).values, delta[p0:p1])
            assert _same(numeric_invert(one, one_observed, params).values, newton[p0:p1])
            tables.append((one_observed, observed))
        for small, big in tables:
            for name, at in (("joint", slice(p0, p1)), ("cond_product", slice(p0, p1)),
                             ("cond_subgroup", slice(s0, s1)), ("group", slice(g0, g1))):
                assert _same(getattr(small, name), getattr(big, name)[at])
                assert _same(getattr(small, "log_" + name), getattr(big, "log_" + name)[at])
            assert _same(small.outside, big.outside[m:m + 1])
            assert _same(small.log_outside, big.log_outside[m:m + 1])
