import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierlogit import (
    NestingParams,
    OutOfDomainError,
    build_hierarchy,
    compute_shares,
    fd_jacobian,
    full_jacobian,
    log_share_jacobian,
    max_relative_error,
)
from hierlogit import jacobian
from hierlogit.jacobian import _complex_step_columns, _solve_log_ratio_jacobian

from helpers import (
    balanced_tree,
    check_error,
    d_cond_product,
    d_cond_subgroup,
    d_group,
    fd_jacobian_loop,
    market_tree,
    ragged_instances,
    random_instance,
    random_tree,
)


@pytest.fixture
def pair_table():
    # p1, p2 share a subgroup; p3 sits in a second subgroup of the same group
    tree = build_hierarchy([("g1", "h1", "p1"), ("g1", "h1", "p2"), ("g1", "h2", "p3")])
    params = NestingParams(0.5, 0.25)
    table, _ = compute_shares(tree, [0.0, 0.0, 0.0], params)
    return table, params


def test_d_cond_product_cases(pair_table):
    table, params = pair_table
    # symmetric pair: cp = 1/2, scale 1/(1-0.5) = 2
    assert d_cond_product(table, 0, 0, params) == pytest.approx(0.5, abs=1e-14)
    assert d_cond_product(table, 0, 1, params) == pytest.approx(-0.5, abs=1e-14)
    assert d_cond_product(table, 0, 2, params) == 0.0


@pytest.fixture
def sibling_table():
    # two singleton subgroups in g1, plus an unrelated group g2
    tree = build_hierarchy([("g1", "h1", "p1"), ("g1", "h2", "p2"), ("g2", "h3", "p3")])
    params = NestingParams(0.0, 0.5)
    table, _ = compute_shares(tree, [0.0, 0.0, 0.0], params)
    return table, params


def test_d_cond_subgroup_cases(sibling_table):
    table, params = sibling_table
    # cs(h1|g1) = 1/2, cp = 1 in singletons, scale 1/(1-0.5) = 2
    assert d_cond_subgroup(table, 0, 0, params) == pytest.approx(0.5, abs=1e-14)
    assert d_cond_subgroup(table, 0, 1, params) == pytest.approx(-0.5, abs=1e-14)
    assert d_cond_subgroup(table, 0, 2, params) == 0.0


def test_d_group_singleton_and_outside():
    tree = build_hierarchy([("g1", "h1", "p1")])
    params = NestingParams(0.5, 0.25)
    table, _ = compute_shares(tree, [0.0], params)
    assert d_group(table, 0, 0) == pytest.approx(0.25, abs=1e-14)
    # outside option as the implicit group with inclusive value zero
    assert d_group(table, 1, 0) == pytest.approx(-0.25, abs=1e-14)


def test_d_group_cross_group():
    tree = build_hierarchy([("g1", "h1", "p1"), ("g2", "h2", "p2")])
    params = NestingParams(0.0, 0.0)
    table, _ = compute_shares(tree, [0.0, 0.0], params)
    # three-way symmetric: every share 1/3
    assert d_group(table, 0, 1) == pytest.approx(-1 / 9, abs=1e-14)
    assert d_group(table, 0, 0) == pytest.approx((1 / 3) * (2 / 3), abs=1e-14)


def test_full_jacobian_plain_logit_pair():
    tree = build_hierarchy([("g1", "h1", "p1"), ("g1", "h1", "p2")])
    jac = full_jacobian(tree, [0.0, 0.0], NestingParams(0.0, 0.0))
    np.testing.assert_allclose(jac.matrix, [[2 / 9, -1 / 9], [-1 / 9, 2 / 9]], atol=1e-14)
    np.testing.assert_allclose(jac.outside_row, [-1 / 9, -1 / 9], atol=1e-14)


def test_full_jacobian_singleton():
    tree = build_hierarchy([("g1", "h1", "p1")])
    jac = full_jacobian(tree, [0.0], NestingParams(0.5, 0.25))
    np.testing.assert_allclose(jac.matrix, [[0.25]], atol=1e-14)
    np.testing.assert_allclose(jac.outside_row, [-0.25], atol=1e-14)


def test_full_jacobian_equals_scalar_case_composition():
    """The vectorized assembly must agree with the entry-by-entry product
    rule built from the three per-entry case oracles."""
    rng = np.random.default_rng(61)
    for _ in range(5):
        tree, delta, params = random_instance(rng, dlo=-3, dhi=3, smax=0.85)
        table, _ = compute_shares(tree, delta, params)
        jac = full_jacobian(tree, delta, params)
        n = tree.n_products
        for j in range(n):
            si = tree.product_subgroup[j]
            gi = tree.product_group[j]
            for k in range(n):
                composed = (
                    d_cond_product(table, j, k, params)
                    * table.cond_subgroup[si]
                    * table.group[gi]
                    + table.cond_product[j]
                    * d_cond_subgroup(table, si, k, params)
                    * table.group[gi]
                    + table.cond_product[j]
                    * table.cond_subgroup[si]
                    * d_group(table, gi, k)
                )
                assert jac.matrix[j, k] == pytest.approx(composed, abs=1e-14)
        for k in range(n):
            assert jac.outside_row[k] == pytest.approx(
                d_group(table, tree.n_groups, k), abs=1e-15
            )


def test_matches_finite_differences():
    tree = balanced_tree(2, 2, 2)
    rng = np.random.default_rng(67)
    params = NestingParams(0.5, 0.25)
    for _ in range(5):
        delta = rng.uniform(-3, 3, 8)
        analytic = full_jacobian(tree, delta, params)
        fd = fd_jacobian(tree, delta, params, step=1e-6)
        table, _ = compute_shares(tree, delta, params)
        scale = np.append(table.joint, table.outside)
        assert max_relative_error(analytic, fd, row_scale=scale) < 1e-6


def test_fd_step_consistency():
    tree = balanced_tree(2, 2, 2)
    params = NestingParams(0.4, 0.2)
    delta = np.linspace(-1.5, 1.5, 8)
    coarse = fd_jacobian(tree, delta, params, step=1e-5)
    fine = fd_jacobian(tree, delta, params, step=1e-6)
    table, _ = compute_shares(tree, delta, params)
    scale = np.append(table.joint, table.outside)
    assert max_relative_error(coarse, fine, row_scale=scale) < 1e-7


@pytest.mark.parametrize("run_products", [1, 10, 16384])
def test_fd_jacobian_gives_the_doubles_of_one_column_at_a_time(run_products):
    # small ragged markets, and a 6x6x6 market of 216 columns, in runs of at
    # most run_products products (a larger market alone) with the sigmas of a
    # run's first market: each market its own run, a few a run, and all in one.
    # fd_jacobian of each market gives the doubles of the one-column-at-a-time
    # oracle, and its rows of the complex-step columns of its run are within
    # 1e-9 of the analytic Jacobian, each cell relative to its row's share
    rng = np.random.default_rng(5)
    instances = [random_instance(rng, dlo=-30.0, dhi=30.0) for _ in range(40)]
    instances.append((balanced_tree(6, 6, 6), rng.standard_normal(216), NestingParams(0.9, 0.3)))
    runs = [[instances[0]]]
    for instance in instances[1:]:
        if sum(tree.n_products for tree, _, _ in runs[-1]) + instance[0].n_products > run_products:
            runs.append([])
        runs[-1].append(instance)
    assert (max(map(len, runs)) > 1) == (run_products > 1)
    for run in runs:
        tree = market_tree([(f"m{m}", t.group_ids[g], t.subgroup_ids[s], product)
                            for m, (t, _, _) in enumerate(run)
                            for g, s, product in zip(t.product_group.tolist(), t.product_subgroup.tolist(), t.products)])
        delta, params = np.concatenate([d for _, d, _ in run]), run[0][2]
        columns = _complex_step_columns(tree, delta, params)
        for m, (lo, hi) in enumerate(zip(tree.bounds[2, :-1].tolist(), tree.bounds[2, 1:].tolist())):
            market = tree.markets(m, m + 1)
            matrix, outside_row = fd_jacobian_loop(market, delta[lo:hi], params, step=1e-6)
            fd = fd_jacobian(market, delta[lo:hi], params, step=1e-6)
            assert np.array_equal(fd.matrix, matrix) and np.array_equal(fd.outside_row, outside_row)
            rows = columns[[*range(lo, hi), tree.n_products + m], :hi - lo]
            assert check_error(market, delta[lo:hi], params, rows) < 1e-9


@st.composite
def ragged_markets(draw):
    """Trees of 2-5 markets, each a tree of ``ragged_instances``, with their
    utilities and the sigmas of the first."""
    instances = draw(st.lists(ragged_instances(), min_size=2, max_size=5))
    rows = [(f"m{m}", tree.group_ids[g], tree.subgroup_ids[s], product)
            for m, (tree, _, _) in enumerate(instances)
            for g, s, product in zip(tree.product_group.tolist(), tree.product_subgroup.tolist(), tree.products)]
    return market_tree(rows), np.concatenate([delta for _, delta, _ in instances]), instances[0][2]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(ragged_markets())
def test_complex_step_columns_of_a_tree_are_those_of_each_market_alone(instance):
    # row i of a market, its outside row last, holds the doubles of the market's
    # own complex-step columns in the market's columns and +0 past them, up to
    # the largest market's size
    tree, delta, params = instance
    columns = _complex_step_columns(tree, delta, params)
    sizes = np.diff(tree.bounds[2])
    assert columns.shape == (tree.n_products + tree.n_markets, sizes.max())
    for m, (lo, hi) in enumerate(zip(tree.bounds[2, :-1].tolist(), tree.bounds[2, 1:].tolist())):
        alone = _complex_step_columns(tree.markets(m, m + 1), delta[lo:hi], params)
        rows = columns[[*range(lo, hi), tree.n_products + m]]
        assert np.array_equal(rows[:, :hi - lo].view(np.int64), alone.view(np.int64))
        assert np.all(rows[:, hi - lo:].view(np.int64) == 0)


def test_complex_step_columns_agree_with_the_analytic_jacobian_near_sigma_one():
    # 300 ragged trees with one sigma 1 - 10^-U(0,7) and the other below it,
    # at utilities U(-r, r), r = 10^U(-6,1): central differences at a step of
    # 1e-6 miss 28 of them by over 1e-5 (worst 0.97); the complex step has no
    # difference to cancel, and stays under 1e-8
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(300):
        tree = random_tree(rng)
        hi = 1.0 - 10.0 ** -rng.uniform(0.0, 7.0)
        lo = rng.uniform(0.0, hi)
        params = NestingParams(*((hi, lo) if rng.random() < 0.5 else (lo, hi)))
        r = 10.0 ** rng.uniform(-6.0, 1.0)
        delta = rng.uniform(-r, r, tree.n_products)
        worst = max(worst, check_error(tree, delta, params, _complex_step_columns(tree, delta, params)))
    assert worst < 1e-8


def test_compute_shares_of_complex_utilities_carries_the_step_in_the_logs():
    # a complex step in one utility moves only the imaginary parts of the logs
    # and inclusive values: the real parts are those of the real utilities to
    # rounding, and the share fields are the exps of those real parts
    rng = np.random.default_rng(11)
    tree, delta, params = random_instance(rng)
    real, real_iv = compute_shares(tree, delta, params)
    moved = delta.astype(complex)
    moved[0] += 1e-200j
    table, iv = compute_shares(tree, moved, params)
    for name in ("log_joint", "log_cond_product", "log_cond_subgroup", "log_group"):
        got, want = getattr(table, name), getattr(real, name)
        assert got.dtype == complex and np.allclose(got.real, want, rtol=1e-14, atol=1e-14), name
        assert getattr(table, name[4:]).dtype == float
        assert np.array_equal(getattr(table, name[4:]), np.exp(got.real)), name
    assert np.allclose(iv.subgroup.real, real_iv.subgroup, rtol=1e-14, atol=1e-14)
    assert table.log_joint[0].imag != 0.0 and iv.top.imag != 0.0
    assert table.outside == np.exp(table.log_outside.real)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(ragged_markets())
def test_blocks_of_a_tree_are_the_block_of_each_market_alone(instance):
    # block m, padded to the largest market, holds the doubles of market m's own
    # block in its real cells, its products' rows and then its outside row
    tree, delta, params = instance
    cells, rows, mask = jacobian._blocks(compute_shares(tree, delta, params)[0], params)
    largest = np.diff(tree.bounds[2]).max()
    assert cells.shape == mask.shape == (tree.n_markets, largest + 1, largest)
    for m, (lo, hi) in enumerate(zip(tree.bounds[2, :-1].tolist(), tree.bounds[2, 1:].tolist())):
        table, _ = compute_shares(tree.markets(m, m + 1), delta[lo:hi], params)
        alone, _, alone_mask = jacobian._blocks(table, params)
        real = np.zeros_like(mask[m])
        real[:hi - lo + 1, :hi - lo] = True
        assert alone_mask.all() and np.array_equal(mask[m], real)
        assert rows[m, :hi - lo + 1].tolist() == [*range(lo, hi), tree.n_products + m]
        assert np.array_equal(cells[m][real].view(np.int64), alone.ravel().view(np.int64))


@pytest.mark.parametrize("step", [0.0, -1e-6, float("nan"), float("inf"), "1e-6", True])
def test_fd_jacobian_refuses_a_step_that_is_not_positive_and_finite(step):
    tree = build_hierarchy([("g1", "h1", "p1"), ("g1", "h2", "p2")])
    with pytest.raises(OutOfDomainError, match="step="):
        fd_jacobian(tree, [0.0, 1.0], NestingParams(0.5, 0.25), step=step)


@pytest.mark.parametrize("delta, step, problem", [
    ([0.0, 1.0], 1e-300, "lost in rounding"),
    ([0.0, 1e20], 1e-6, "lost in rounding"),
    # 0 + 1e-20 is a new double, yet no share moves
    ([0.0, 0.0], 1e-20, "lost in rounding"),
    ([0.0, 1.0], 1e308, "out of the domain"),
])
def test_fd_jacobian_refuses_a_step_lost_in_rounding_or_leaving_the_domain(delta, step, problem):
    tree = build_hierarchy([("g1", "h1", "p1"), ("g1", "h2", "p2")])
    with pytest.raises(OutOfDomainError, match=re.escape(f"step={step!r}") + f" .*{problem}"):
        fd_jacobian(tree, delta, NestingParams(0.5, 0.25), step=step)


def test_fd_jacobian_blames_utilities_out_of_the_domain_not_the_step():
    tree = build_hierarchy([("g1", "h1", "p1"), ("g1", "h2", "p2")])
    with pytest.raises(OutOfDomainError, match="^utilities up to"):
        fd_jacobian(tree, [0.0, 1e308], NestingParams(0.5, 0.25), step=1e-6)
    # a step that is not positive is refused before the utilities are looked at
    with pytest.raises(OutOfDomainError, match="^step=-1e-06 must be positive"):
        fd_jacobian(tree, [0.0, 1e308], NestingParams(0.5, 0.25), step=-1e-6)


def test_fd_singleton_value():
    tree = build_hierarchy([("g1", "h1", "p1")])
    fd = fd_jacobian(tree, [0.0], NestingParams(0.5, 0.25), step=1e-6)
    assert fd.matrix[0, 0] == pytest.approx(0.25, abs=1e-8)


def test_columns_sum_to_zero_and_symmetry():
    rng = np.random.default_rng(71)
    for _ in range(30):
        tree, delta, params = random_instance(rng)
        jac = full_jacobian(tree, delta, params)
        colsum = jac.matrix.sum(axis=0) + jac.outside_row
        assert np.max(np.abs(colsum)) < 1e-12
        assert np.max(np.abs(jac.matrix - jac.matrix.T)) < 1e-10


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ragged_instances())
def test_jacobian_properties_on_ragged_trees(instance):
    # the acceptance gate's bounds, over the whole domain edge the kernel
    # properties are drawn from: utilities of +-700 and sigmas up to 0.999
    tree, delta, params = instance
    jac = full_jacobian(tree, delta, params)
    assert np.max(np.abs(jac.matrix.sum(axis=0) + jac.outside_row)) <= 1e-12
    assert np.max(np.abs(jac.matrix - jac.matrix.T)) <= 1e-10


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ragged_instances())
def test_outside_row_is_minus_outside_times_joint_where_nonzero(instance):
    # the outside option is a row of the log-share expression, d log s_0 / d delta_k = -s_k
    tree, delta, params = instance
    table, _ = compute_shares(tree, delta, params)
    jac, want = full_jacobian(tree, delta, params), -table.outside * table.joint
    nonzero = want != 0.0
    assert np.array_equal(jac.outside_row[nonzero].view(np.int64), want[nonzero].view(np.int64))
    assert np.all(jac.outside_row[~nonzero] == 0.0)


def test_outside_row_cell_of_an_underflowed_share_is_positive_zero():
    # s_b underflows to 0 and the outside share, about exp(-700), does not: the row's
    # expression gives outside * (0 - s_b) = 0, where -outside * s_b is -0
    tree = build_hierarchy([("g", "h", "a"), ("g", "h", "b")])
    params = NestingParams(0.3, 0.1)
    table, _ = compute_shares(tree, [700.0, -700.0], params)
    assert table.joint[1] == 0.0 and table.outside > 0.0
    jac = full_jacobian(tree, [700.0, -700.0], params)
    assert jac.outside_row[0] == -table.outside * table.joint[0] < 0.0
    assert jac.outside_row[1] == 0.0 and not np.signbit(jac.outside_row[1])
    assert np.signbit(-table.outside * table.joint[1])


def test_full_jacobian_is_one_array_of_the_matrix_and_the_outside_row():
    tree, delta, params = random_instance(np.random.default_rng(3))
    jac = full_jacobian(tree, delta, params)
    cells = jac.matrix.base
    assert cells is not None and cells is jac.outside_row.base
    assert cells.shape == (tree.n_products + 1, tree.n_products)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ragged_instances(), st.lists(st.floats(-1.0, 1.0), min_size=36, max_size=36))
def test_structured_solve_matches_dense_solve(instance, rhs):
    # sigma up to 0.999 and utilities up to 700 included, so outside shares down
    # to about e^-700: adding the joint shares to each row cancels log s_0's -s_k,
    # the log-ratio Jacobian has no market-level term and the solve divides by no share
    tree, delta, params = instance
    table, _ = compute_shares(tree, delta, params)
    r = np.array(rhs[:tree.n_products])
    jac = log_share_jacobian(table, params) + table.joint
    dense = np.linalg.solve(jac, r)
    # the dense solve's own forward error bound, eps * cond(J) * |x|
    bound = 16 * np.finfo(float).eps * np.linalg.cond(jac) * max(1.0, float(np.max(np.abs(dense))))
    np.testing.assert_allclose(_solve_log_ratio_jacobian(table, params, r), dense, rtol=0, atol=bound)


def test_sign_structure_under_nested_ordering():
    # with sigma2 <= sigma1 own-derivatives are positive, cross ones weakly
    # negative
    rng = np.random.default_rng(73)
    for _ in range(25):
        tree, delta, _ = random_instance(rng, dlo=-4, dhi=4)
        s1 = float(rng.uniform(0.0, 0.9))
        s2 = float(rng.uniform(0.0, s1)) if s1 > 0 else 0.0
        params = NestingParams(s1, s2)
        jac = full_jacobian(tree, delta, params)
        assert np.all(np.diag(jac.matrix) > 0)
        off = jac.matrix[~np.eye(tree.n_products, dtype=bool)]
        assert np.all(off <= 1e-15)
        assert np.all(jac.outside_row < 0)


def test_shares_are_gradient_of_top_value():
    rng = np.random.default_rng(79)
    for _ in range(10):
        tree, delta, params = random_instance(rng, dlo=-5, dhi=5)
        table, _ = compute_shares(tree, delta, params)
        step = 1e-6
        grad = np.empty(tree.n_products)
        for k in range(tree.n_products):
            up = delta.copy()
            up[k] += step
            down = delta.copy()
            down[k] -= step
            _, iv_up = compute_shares(tree, up, params)
            _, iv_down = compute_shares(tree, down, params)
            grad[k] = (iv_up.top - iv_down.top) / (2 * step)
        np.testing.assert_allclose(grad, table.joint, rtol=0, atol=1e-8)


def test_log_share_jacobian_scales_full_matrix():
    rng = np.random.default_rng(83)
    tree, delta, params = random_instance(rng, dlo=-3, dhi=3)
    table, _ = compute_shares(tree, delta, params)
    rel = log_share_jacobian(table, params)
    jac = full_jacobian(tree, delta, params)
    np.testing.assert_allclose(table.joint[:, None] * rel, jac.matrix, atol=1e-14)


def test_extreme_utilities_finite_jacobian():
    tree = balanced_tree(2, 2, 2)
    delta = np.array([700.0, -700.0, 350.0, 0.0, -350.0, 700.0, -700.0, 100.0])
    jac = full_jacobian(tree, delta, NestingParams(0.5, 0.25))
    assert np.all(np.isfinite(jac.matrix))
    assert np.all(np.isfinite(jac.outside_row))
