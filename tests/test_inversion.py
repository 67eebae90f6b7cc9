import dataclasses
import re
from unittest import mock

import numpy as np
import pytest

from hierlogit import (
    NestingParams,
    NoConvergenceError,
    OutOfDomainError,
    ShareTable,
    berry_invert,
    build_hierarchy,
    compute_shares,
    numeric_invert,
    regression_rows,
)

from helpers import balanced_tree, random_instance, random_tree


def test_closed_form_symmetric_singleton():
    tree = build_hierarchy([("g1", "h1", "p1")])
    table, _ = compute_shares(tree, [0.0], NestingParams(0.5, 0.25))
    assert berry_invert(table, NestingParams(0.5, 0.25)).values[0] == pytest.approx(0.0, abs=1e-15)


def test_closed_form_plain_logit_log_ratio():
    # sigma = 0: delta_j = log(s_j / s_0) with no correction terms
    tree = build_hierarchy([("g1", "h1", "p1"), ("g1", "h1", "p2")])
    table = ShareTable.from_joint(tree, [1 / 3, 1 / 3], 1 / 3)
    delta = berry_invert(table, NestingParams(0.0, 0.0)).values
    np.testing.assert_allclose(delta, [0.0, 0.0], atol=1e-14)


def test_closed_form_round_trip_2x2x2():
    rng = np.random.default_rng(43)
    tree = balanced_tree(2, 2, 2)
    params = NestingParams(0.5, 0.25)
    for _ in range(20):
        delta = rng.uniform(-3, 3, 8)
        table, _ = compute_shares(tree, delta, params)
        np.testing.assert_allclose(berry_invert(table, params).values, delta, rtol=0, atol=1e-10)


def test_round_trips_both_directions():
    rng = np.random.default_rng(47)
    for _ in range(50):
        tree, delta, params = random_instance(rng, dlo=-6, dhi=6)
        table, _ = compute_shares(tree, delta, params)
        # shares -> delta -> shares, through the observed-data constructor
        observed = ShareTable.from_joint(tree, table.joint, table.outside)
        recovered = berry_invert(observed, params).values
        np.testing.assert_allclose(recovered, delta, rtol=0, atol=1e-10)
        table2, _ = compute_shares(tree, recovered, params)
        np.testing.assert_allclose(table2.joint, table.joint, rtol=0, atol=1e-10)
        assert table2.outside == pytest.approx(table.outside, abs=1e-10)


def test_inversion_rejects_degenerate_table():
    # a table is its logs; a scalar log_outside is the one market's, and each share the exp of its log
    tree = build_hierarchy([("g1", "h1", "p1"), ("g1", "h1", "p2")])
    bad = ShareTable(
        hierarchy=tree,
        log_joint=np.array([np.log(0.5), -np.inf]),
        log_cond_product=np.array([0.0, -np.inf]),
        log_cond_subgroup=np.array([0.0]),
        log_group=np.array([np.log(0.5)]),
        log_outside=np.log(0.5),
    )
    assert bad.log_outside.shape == bad.outside.shape == (1,) and bad.outside[0] == 0.5
    assert bad.joint.tolist() == [0.5, 0.0] and bad.cond_product.tolist() == [1.0, 0.0]
    params = NestingParams(0.3, 0.2)
    with pytest.raises(OutOfDomainError):
        berry_invert(bad, params)
    with pytest.raises(OutOfDomainError):
        regression_rows(bad)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["log_joint", "log_cond_product", "log_cond_subgroup", "log_group", "log_outside"])
def test_share_table_refuses_complex_logs(name):
    # a table of complex logs once reached the inversions: berry_invert warned ComplexWarning,
    # numeric_invert raised numpy's TypeError and regression_rows returned complex arrays
    tree = build_hierarchy([("g", "h", "a"), ("g", "k", "b")])
    table, _ = compute_shares(tree, [0.1, 0.2], NestingParams(0.5, 0.25))
    with pytest.raises(OutOfDomainError, match=f"^{name} must be real numbers$"):
        dataclasses.replace(table, **{name: getattr(table, name) + 1e-200j})


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["log_joint", "log_cond_product", "log_cond_subgroup", "log_group", "log_outside"])
def test_share_table_refuses_nan_logs(name):
    # NaN is not above the bound, so a NaN log once passed: log_share_jacobian returned a NaN column and
    # berry_invert blamed the utilities
    tree = build_hierarchy([("g", "h", "a"), ("g", "k", "b")])
    table, _ = compute_shares(tree, [0.1, 0.2], NestingParams(0.5, 0.25))
    log = getattr(table, name).copy()
    log[-1] = np.nan
    with pytest.raises(OutOfDomainError, match=f"^{name} holds NaN$"):
        dataclasses.replace(table, **{name: log})
    # -inf stays a share of 0
    log[-1] = -np.inf
    assert getattr(dataclasses.replace(table, **{name: log}), name.removeprefix("log_"))[-1] == 0.0


def test_regression_rows_symmetric_singleton():
    tree = build_hierarchy([("g1", "h1", "p1")])
    table, _ = compute_shares(tree, [0.0], NestingParams(0.4, 0.1))
    y, x1, x2 = regression_rows(table)
    assert y.shape == x1.shape == x2.shape == (1,)
    assert y[0] == pytest.approx(0.0, abs=1e-15)
    assert x1[0] == pytest.approx(0.0, abs=1e-15)
    assert x2[0] == pytest.approx(0.0, abs=1e-15)


def test_regression_rows_identical_pair():
    tree = build_hierarchy([("g1", "h1", "p1"), ("g1", "h1", "p2")])
    table, _ = compute_shares(tree, [0.7, 0.7], NestingParams(0.0, 0.0))
    _, x1, x2 = regression_rows(table)
    np.testing.assert_allclose(x1, np.log(0.5), rtol=0, atol=1e-14)
    np.testing.assert_allclose(x2, 0.0, rtol=0, atol=1e-15)


def test_regression_rows_satisfy_identity():
    rng = np.random.default_rng(53)
    for _ in range(30):
        tree, delta, params = random_instance(rng, dlo=-5, dhi=5)
        table, _ = compute_shares(tree, delta, params)
        y, x1, x2 = regression_rows(table)
        # aligned to tree.products, the order delta is given in
        assert y.shape == x1.shape == x2.shape == (tree.n_products,)
        implied = y - params.sigma1 * x1 - params.sigma2 * x2
        np.testing.assert_allclose(implied, delta, rtol=0, atol=1e-12)


def test_newton_symmetric_singleton_converges_fast():
    tree = build_hierarchy([("g1", "h1", "p1")])
    params = NestingParams(0.5, 0.25)
    table, _ = compute_shares(tree, [0.0], params)
    # the plain-logit starting point is already exact here
    delta = numeric_invert(tree, table, params, tol=1e-10, max_iter=3).values
    assert delta[0] == pytest.approx(0.0, abs=1e-10)


def test_newton_plain_logit_pair():
    tree = build_hierarchy([("g1", "h1", "p1"), ("g1", "h1", "p2")])
    params = NestingParams(0.0, 0.0)
    table, _ = compute_shares(tree, [1.3, -0.4], params)
    delta = numeric_invert(tree, table, params, tol=1e-12, max_iter=50).values
    log_ratio = table.log_joint - table.log_outside
    np.testing.assert_allclose(delta, log_ratio, atol=1e-10)
    np.testing.assert_allclose(delta, [1.3, -0.4], atol=1e-10)


def test_newton_matches_closed_form_12_products():
    tree = balanced_tree(2, 2, 3)
    params = NestingParams(0.6, 0.3)
    rng = np.random.default_rng(59)
    for _ in range(10):
        delta = rng.uniform(-3, 3, 12)
        table, _ = compute_shares(tree, delta, params)
        newton = numeric_invert(tree, table, params, tol=1e-12, max_iter=50).values
        closed = berry_invert(table, params).values
        np.testing.assert_allclose(newton, closed, rtol=0, atol=1e-8)


def test_newton_validates_tol_and_reports_no_convergence():
    tree = balanced_tree(2, 2, 2)
    params = NestingParams(0.5, 0.25)
    table, _ = compute_shares(tree, np.linspace(-1, 1, 8), params)
    with pytest.raises(OutOfDomainError):
        numeric_invert(tree, table, params, tol=0.0)
    # a tol that every residual meets is no stop rule
    for tol in (np.inf, np.nan):
        with pytest.raises(OutOfDomainError, match="finite"):
            numeric_invert(tree, table, params, tol=tol)
    with pytest.raises(NoConvergenceError) as info:
        numeric_invert(tree, table, params, tol=1e-12, max_iter=0)
    assert info.value.residual is not None
    assert np.isfinite(info.value.residual)


@pytest.mark.parametrize("max_iter, problem", [
    (1.5, "must be a finite integer"), (True, "is not a number"), (-1, "must not be negative"),
    (np.inf, "must be a finite integer"), ("50", "is not a number"),
])
def test_newton_refuses_a_max_iter_that_is_not_a_nonnegative_integer(max_iter, problem):
    tree = balanced_tree(2, 2, 2)
    params = NestingParams(0.5, 0.25)
    table, _ = compute_shares(tree, np.linspace(-1, 1, 8), params)
    with pytest.raises(OutOfDomainError, match=f"^max_iter={re.escape(repr(max_iter))} {problem}"):
        numeric_invert(tree, table, params, max_iter=max_iter)
    # an integral float or numpy integer is a count
    for count in (50.0, np.int64(50)):
        assert np.allclose(numeric_invert(tree, table, params, max_iter=count).values, np.linspace(-1, 1, 8))


def test_newton_refuses_a_target_of_another_tree():
    # a's table on b, a tree of the same size but other parents, once gave utilities
    # without a word; on a tree of another size, a raw numpy broadcast error
    params = NestingParams(0.5, 0.25)
    a = build_hierarchy([("g1", "h1", "p1"), ("g1", "h1", "p2"), ("g2", "h2", "p3")])
    b = build_hierarchy([("g1", "h1", "p1"), ("g2", "h2", "p2"), ("g3", "h3", "p3")])
    table, _ = compute_shares(a, [0.1, 0.2, 0.3], params)
    for other in (b, build_hierarchy([("g1", "h1", "p1"), ("g1", "h1", "p2")]),
                  build_hierarchy([("g1", "h1", "p1"), ("g1", "h1", "p2"), ("g2", "h2", "p4")])):
        with pytest.raises(OutOfDomainError, match="^target holds the shares of another tree"):
            numeric_invert(other, table, params)
    # an equal tree built apart is the same tree
    again = build_hierarchy([("g1", "h1", "p1"), ("g1", "h1", "p2"), ("g2", "h2", "p3")])
    assert np.allclose(numeric_invert(again, table, params).values, [0.1, 0.2, 0.3], atol=1e-12)


def test_newton_refuses_a_tol_of_one_or_more():
    # from tol = 1 on, log1p(tol) >= log 2: the stop rule would pass shares of half or twice their targets
    tree = balanced_tree(2, 2, 2)
    params = NestingParams(0.5, 0.25)
    delta = np.linspace(-1, 1, 8)
    table, _ = compute_shares(tree, delta, params)
    for tol in (1, 1.0, 10.0, 1e300):
        with pytest.raises(OutOfDomainError) as info:
            numeric_invert(tree, table, params, tol=tol)
        assert str(info.value) == f"tol={tol!r} must be below 1"
    below = numeric_invert(tree, table, params, tol=np.nextafter(1.0, 0.0)).values
    assert np.all(np.isfinite(below))


def test_newton_near_sigma1_one_stops_at_the_precision_floor():
    # at sigma1 = 1 - 1e-8 log shares carry delta / 1e-8, and their rounding
    # (~1e-8) is far above log1p(tol): the stop test's floor counts it as converged
    rng = np.random.default_rng(0)
    tree = balanced_tree(2, 2, 2)
    params = NestingParams(1.0 - 1e-8, 0.25)
    for _ in range(20):
        delta = rng.standard_normal(8)
        table, _ = compute_shares(tree, delta, params)
        newton = numeric_invert(tree, table, params, tol=1e-9).values
        np.testing.assert_allclose(newton, delta, rtol=0, atol=1e-8)
        np.testing.assert_allclose(newton, berry_invert(table, params).values, rtol=0, atol=1e-8)


def test_newton_does_not_stall_as_sigma2_nears_one():
    # sigma2 = 1 - 10^-U(5, 9) puts the plain-logit start far off, yet every market
    # passes the stop rule, at its rounding floor where that binds
    rng = np.random.default_rng(12345)
    for _ in range(200):
        tree = random_tree(rng)
        sigma2 = 1.0 - 10.0 ** -rng.uniform(5, 9)
        params = NestingParams(rng.uniform(0.0, 0.9), sigma2)
        table, _ = compute_shares(tree, rng.uniform(-5, 5, tree.n_products), params)
        assert np.all(np.isfinite(numeric_invert(tree, table, params, tol=1e-9).values))


def test_newton_matches_closed_form_at_tiny_outside_shares():
    # the log-share Jacobian's smallest eigenvalue is the outside share; the
    # log-ratio Jacobian's is not, so s_0 < 1e-6 costs Newton nothing
    rng = np.random.default_rng(34)
    markets = 0
    while markets < 300:
        tree = random_tree(rng)
        sigma2, sigma1 = sorted(rng.uniform(0.0, 0.99, 2))
        params = NestingParams(sigma1, sigma2)
        table, _ = compute_shares(tree, rng.uniform(-10, 30, tree.n_products), params)
        if table.outside >= 1e-6:
            continue
        markets += 1
        newton = numeric_invert(tree, table, params, tol=1e-9).values
        np.testing.assert_allclose(newton, berry_invert(table, params).values, rtol=0, atol=1e-8)


def test_newton_inverts_shares_that_do_not_sum_to_one():
    # every positive ratio s_j/s_0 is some utilities' ratio, as the closed form reads it
    rng = np.random.default_rng(35)
    for _ in range(100):
        tree = random_tree(rng)
        params = NestingParams(*sorted(rng.uniform(0.0, 0.95, 2), reverse=True))
        target = ShareTable.from_joint(tree, rng.uniform(0.01, 0.5, tree.n_products), rng.uniform(0.01, 0.5))
        newton = numeric_invert(tree, target, params, tol=1e-9).values
        np.testing.assert_allclose(newton, berry_invert(target, params).values, rtol=0, atol=1e-8)


def test_newton_reports_a_real_stall():
    # a solve that steps uphill: no halving lowers the residual, so the line search stalls
    tree = build_hierarchy([("g1", "h1", "p1"), ("g1", "h1", "p2")])
    target = ShareTable.from_joint(tree, [0.9, 0.9], 0.5)
    with (mock.patch("hierlogit.inversion._solve_log_ratio_jacobian", lambda table, params, resid: -resid),
          pytest.raises(NoConvergenceError, match="line search stalled at log-ratio residual") as info):
        numeric_invert(tree, target, NestingParams(0.5, 0.25))
    assert np.isfinite(info.value.residual)


def test_newton_reports_a_step_that_is_not_finite():
    # a Jacobian system whose solve gives NaN: the step is refused before any utility moves
    tree = balanced_tree(2, 2, 2)
    params = NestingParams(0.5, 0.25)
    table, _ = compute_shares(tree, np.linspace(-1, 1, 8), params)
    with (mock.patch("hierlogit.inversion._solve_log_ratio_jacobian",
                     lambda table, params, resid: np.full_like(resid, np.nan)),
          pytest.raises(NoConvergenceError) as info):
        numeric_invert(tree, table, params)
    assert str(info.value) == "Newton step failed: residual not finite"
    assert np.isfinite(info.value.residual)


def test_newton_on_a_zero_outside_share_raises_without_a_warning():
    # finite log shares, but the outside share underflows to 0: at the plain-logit start the
    # second product's log share is -inf, and the solve meets its infinite residual times its
    # share of 0, which must not warn (pytest makes a RuntimeWarning an error)
    params = NestingParams(0.5, 0.25)
    table, _ = compute_shares(build_hierarchy([("g", "h", "a"), ("g", "h", "b")]), [7e307, 0.0], params)
    assert table.outside == 0.0 and np.all(np.isfinite(table.log_joint))
    with pytest.raises(NoConvergenceError, match="^Newton step failed: residual not finite$"):
        numeric_invert(table.hierarchy, table, params)
