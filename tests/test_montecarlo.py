import dataclasses
import itertools
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hierlogit import (
    ChoiceCounts,
    NestingParams,
    OutOfDomainError,
    SimConfig,
    build_hierarchy,
    compute_shares,
    empirical_shares,
    simulate_choices,
)
from hierlogit import montecarlo
from hierlogit.montecarlo import _exact_z, _log_binomial, _upper_quantile

from helpers import (
    balanced_tree, binomial_tail_z, gumbel_from_uniform, market_tree, nested_choice_counts, ragged_instances,
)

EULER_GAMMA = 0.5772156649015329


def test_gumbel_moments():
    rng = np.random.default_rng(2024)
    draws = gumbel_from_uniform(rng.random(10**6))
    assert abs(draws.mean() - EULER_GAMMA) < 0.005
    assert abs(draws.var() - np.pi**2 / 6) < 0.02
    assert np.all(np.isfinite(draws))


def test_symmetric_singleton_frequency():
    tree = build_hierarchy([("g1", "h1", "p1")])
    params = NestingParams(0.5, 0.25)
    n = 10**6
    counts = simulate_choices(tree, [0.0], params, SimConfig(draws=n, seed=1))
    freq = counts.counts[0] / n
    assert abs(freq - 0.5) <= 4 * np.sqrt(0.25 / n)
    assert counts.counts.sum() + counts.outside_count.sum() == n


def test_plain_logit_thirds():
    tree = build_hierarchy([("g1", "h1", "p1"), ("g2", "h2", "p2")])
    params = NestingParams(0.0, 0.0)
    n = 400_000
    counts = simulate_choices(tree, [0.0, 0.0], params, SimConfig(draws=n, seed=2))
    freq, _ = empirical_shares(counts)
    bound = 4 * np.sqrt((1 / 3) * (2 / 3) / n)
    np.testing.assert_allclose(freq, [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=bound)


def test_frequencies_match_analytic_shares():
    tree = balanced_tree(2, 2, 2)
    params = NestingParams(0.55, 0.3)
    rng = np.random.default_rng(3)
    delta = rng.uniform(-1.5, 1.5, 8)
    table, _ = compute_shares(tree, delta, params)
    share = np.append(table.joint, table.outside)
    n = 300_000
    counts = simulate_choices(tree, delta, params, SimConfig(draws=n, seed=4))
    freq, se = empirical_shares(counts)
    assert np.all(np.abs(freq - share) <= 4 * np.sqrt(share * (1 - share) / n))
    assert se.shape == freq.shape


def test_one_market_counts_hold_the_outside_count_in_an_array():
    # as the table's outside share: an array over markets for every tree
    tree = build_hierarchy([("g1", "h1", "p1"), ("g1", "h2", "p2")])
    counts = simulate_choices(tree, [0.0, 0.5], NestingParams(0.5, 0.25), SimConfig(draws=1000, seed=1))
    assert counts.outside_count.shape == (1,) and counts.counts.sum() + counts.outside_count.sum() == 1000
    freq, _ = empirical_shares(counts)
    assert freq.shape == (3,) and freq[-1] == counts.outside_count[0] / 1000


def test_empirical_shares_layout():
    counts = ChoiceCounts(counts=np.array([500_000]), outside_count=500_000)
    freq, se = empirical_shares(counts)
    np.testing.assert_allclose(freq, [0.5, 0.5], atol=0)
    np.testing.assert_allclose(se, 0.0005, rtol=1e-12)


def test_empirical_shares_boundary():
    counts = ChoiceCounts(counts=np.array([1000, 0]), outside_count=0)
    freq, se = empirical_shares(counts)
    np.testing.assert_allclose(freq, [1.0, 0.0, 0.0], atol=0)
    np.testing.assert_allclose(se, 0.0, atol=0)
    with pytest.raises(OutOfDomainError):
        empirical_shares(ChoiceCounts(counts=np.array([0, 0]), outside_count=0))


def test_sim_config_validation():
    # past 2**53 a count is no longer written exactly
    for draws in (0, 2**53 + 1):
        with pytest.raises(OutOfDomainError):
            SimConfig(draws=draws)
    SimConfig(draws=2**53)
    for seed in (-1, 2**128):
        with pytest.raises(OutOfDomainError):
            SimConfig(draws=10, seed=seed)
    SimConfig(draws=10, seed=2**128 - 1)
    cfg = SimConfig(draws=10)
    assert cfg.seed == 0
    assert [f.name for f in dataclasses.fields(SimConfig)] == ["draws", "seed"]


@pytest.mark.parametrize(
    "draws, seed", [(2.7, 0), ("10", 0), (True, 0), (float("nan"), 0), (10, 1.5), (10, None)]
)
def test_sim_config_requires_integers(draws, seed):
    with pytest.raises(OutOfDomainError):
        SimConfig(draws=draws, seed=seed)


def test_sim_config_keeps_integral_values_as_ints():
    cfg = SimConfig(draws=np.int64(10), seed=3.0)
    assert (cfg.draws, cfg.seed) == (10, 3)
    assert type(cfg.draws) is int and type(cfg.seed) is int




# a one-subgroup group next to a five-subgroup one, and one-product
# subgroups next to a seven-product one
RAGGED_SIZES = {"g0": [7], "g1": [1, 7, 2, 1, 3], "g2": [1]}
RAGGED_TREE = build_hierarchy([
    (g, f"{g}.h{h}", f"{g}.h{h}.p{p}") for g, sizes in RAGGED_SIZES.items()
    for h, n in enumerate(sizes) for p in range(n)
])


TIED = build_hierarchy([("g0", "h0", "a"), ("g0", "h0", "b"), ("g0", "h1", "c"), ("g1", "h2", "d")])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(instance=ragged_instances(utility_bound=700.0, sigma_bound=0.999), draws=st.integers(1, 10**6))
# every utility tied, the outside option's 0 included, tied utilities of 700 at sigma 0.999, and
# utilities of -700 and 700 at sigma 1 - 1e-9, where every weight but the largest is 0
@example(instance=(TIED, np.zeros(4), NestingParams(0.0, 0.0)), draws=2000)
@example(instance=(TIED, np.full(4, 700.0), NestingParams(0.999, 0.999)), draws=2000)
@example(instance=(TIED, np.array([-700.0, 700.0, 700.0, -700.0]), NestingParams(1 - 1e-9, 1 - 1e-9)), draws=2000)
@pytest.mark.filterwarnings("error")
def test_counts_sum_to_the_draws_and_miss_every_alternative_of_probability_zero(instance, draws):
    # a count left off the alternatives would leave the sum short
    tree, delta, params = instance
    table, _ = compute_shares(tree, delta, params)
    never = np.append((table.cond_product == 0.0) | (table.cond_subgroup[tree.product_subgroup] == 0.0)
                      | (table.group[tree.product_group] == 0.0), table.outside == 0.0)
    counts = simulate_choices(tree, delta, params, SimConfig(draws=draws, seed=13))
    drawn = np.append(counts.counts, counts.outside_count)
    assert drawn.sum() == draws
    assert not drawn[never].any()


def test_each_market_of_a_tree_draws_the_counts_it_draws_alone():
    # ragged markets, some with ten children to a parent, in one call and one by one; at
    # 2**53 draws too, where the last bits of a row's probabilities move counts
    rng = np.random.default_rng(41)
    rows = [(f"m{m}", f"g{g}", f"h{h}", f"p{g}.{h}.{p}") for m in range(40)
            for g in range(rng.integers(1, 4)) for h in range(rng.integers(1, 4)) for p in range(rng.integers(1, 11))]
    tree = market_tree(rows)
    delta = rng.uniform(-2.0, 2.0, tree.n_products)
    params = NestingParams(0.5, 0.25)
    for draws, seed in itertools.product((10_000, 2**53), (0, 7, 2**100)):
        config = SimConfig(draws=draws, seed=seed)
        counts = simulate_choices(tree, delta, params, config)
        assert counts.counts.sum() + counts.outside_count.sum() == 40 * draws and counts.outside_count.shape == (40,)
        for m in range(tree.n_markets):
            lo, hi = tree.bounds[2, m:m + 2].tolist()
            alone = simulate_choices(tree.markets(m, m + 1), delta[lo:hi], params, config)
            np.testing.assert_array_equal(counts.counts[lo:hi], alone.counts)
            assert counts.outside_count[m] == alone.outside_count


def test_empirical_shares_refuse_the_counts_of_several_markets():
    # their total is every market's draws: dividing by it would give no market's frequencies
    tree = market_tree([("m1", "g", "h", "a"), ("m2", "g", "h", "a"), ("m2", "g", "k", "b")])
    counts = simulate_choices(tree, np.zeros(3), NestingParams(0.5, 0.25), SimConfig(draws=100))
    assert counts.counts.sum() + counts.outside_count.sum() == 200
    with pytest.raises(OutOfDomainError, match="one market"):
        empirical_shares(counts)


def test_simulate_starts_no_thread():
    tree = balanced_tree(3, 3, 4)
    with mock.patch.object(threading.Thread, "start", side_effect=AssertionError("a thread started")):
        counts = simulate_choices(tree, np.zeros(tree.n_products), NestingParams(0.5, 0.25), SimConfig(draws=10**6))
    assert counts.counts.sum() + counts.outside_count.sum() == 10**6


def test_a_market_whose_chances_sum_short_keeps_every_draw():
    # numpy's multinomial gives the last alternative the draws the others leave: a market whose
    # second product's chance over 1 - the first's is below 1 leaves about one of 2**53 draws to
    # it. 2,000 such two-product markets, the draws of each on its products and outside option
    values = np.random.default_rng(23).uniform(-1.0, 1.0, (20_000, 2))
    weight = np.exp(values - values.max(axis=1, keepdims=True))
    p = weight / weight.sum(axis=1, keepdims=True)
    short = values[p[:, 1] / (1.0 - p[:, 0]) < 1.0][:2000]
    assert len(short) == 2000
    tree = market_tree([(f"m{m}", "g", "h", product) for m in range(2000) for product in "ab"])
    for seed in range(5):
        counts = simulate_choices(tree, short.ravel(), NestingParams(0.0, 0.0), SimConfig(draws=2**53, seed=seed))
        np.testing.assert_array_equal(counts.counts.reshape(-1, 2).sum(axis=1) + counts.outside_count, 2**53)


@pytest.mark.parametrize("sigma1, sigma2", [(0.0, 0.0), (0.6, 0.3), (0.9, 0.8), (0.3, 0.7)])
def test_each_stage_draws_its_conditional_shares(sigma1, sigma2):
    # every group and subgroup is drawn at its share of all draws, so a parent expected often is
    # drawn; within each group drawn, the subgroups, and within each subgroup drawn, the products,
    # are drawn at their conditional shares
    tree, n = RAGGED_TREE, 400_000
    delta = np.random.default_rng(31).uniform(-1.5, 1.5, tree.n_products)
    table, _ = compute_shares(tree, delta, NestingParams(sigma1, sigma2))
    counts = simulate_choices(tree, delta, NestingParams(sigma1, sigma2), SimConfig(draws=n, seed=2)).counts
    subgroups = np.bincount(tree.product_subgroup, counts, minlength=tree.n_subgroups).astype(np.int64)
    groups = np.bincount(tree.subgroup_group, subgroups, minlength=tree.n_groups).astype(np.int64)
    assert np.abs(_exact_z(groups, table.group, n=n)).max() < 5.0
    assert np.abs(_exact_z(subgroups, table.cond_subgroup * table.group[tree.subgroup_group], n=n)).max() < 5.0
    for tally, share, parent in ((subgroups, table.cond_subgroup, tree.subgroup_group),
                                 (counts, table.cond_product, tree.product_subgroup)):
        for members in np.split(np.arange(len(parent)), np.flatnonzero(np.diff(parent)) + 1):
            if tally[members].sum() > 0:
                assert np.abs(_exact_z(tally[members], share[members], n=int(tally[members].sum()))).max() < 5.0


# the last: one group holding a 2,000-product subgroup beside 2,000 one-product subgroups
@pytest.mark.parametrize("tree", [balanced_tree(10, 10, 10), balanced_tree(3, 3, 4), balanced_tree(1, 1, 5000),
                                  build_hierarchy([("g", "h", f"a{j}") for j in range(2000)]
                                                  + [("g", f"h{j}", f"b{j}") for j in range(2000)])],
                         ids=["10x10x10", "3x3x4", "1x1x5000", "1x2001x2000"])
def test_traced_peak_of_the_sampler_is_below_one_megabyte(tree):
    delta = np.random.default_rng(9).uniform(-1.0, 1.0, tree.n_products)
    tracemalloc.start()
    try:
        simulate_choices(tree, delta, NestingParams(0.5, 0.25), SimConfig(draws=10**6, seed=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak traced memory {peak / 2**20:.2f} MB"


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(
    instance_seed=st.integers(0, 2**32 - 1),
    sigma1=st.floats(0.0, 0.9),
    sigma2=st.floats(0.0, 0.9),
)
def test_ragged_tree_frequencies_match_analytic_shares(instance_seed, sigma1, sigma2):
    rng = np.random.default_rng(instance_seed)
    delta = rng.uniform(-1.5, 1.5, RAGGED_TREE.n_products)
    params = NestingParams(sigma1, sigma2)
    table, _ = compute_shares(RAGGED_TREE, delta, params)
    share = np.append(table.joint, table.outside)
    n = 200_000
    counts = simulate_choices(RAGGED_TREE, delta, params, SimConfig(draws=n, seed=instance_seed))
    freq, _ = empirical_shares(counts)
    assert counts.counts.sum() + counts.outside_count.sum() == n
    assert np.all(np.abs(freq - share) <= 4 * np.sqrt(share * (1 - share) / n))


# sigma2 <= sigma1, where the nested reading exists: both zero, equal, apart and at 0.95
@pytest.mark.parametrize("sigma1, sigma2", [(0.0, 0.0), (0.5, 0.5), (0.95, 0.95), (0.6, 0.3), (0.95, 0.0), (0.9, 0.8)])
def test_nested_reading_draws_the_shares(sigma1, sigma2):
    # every product's utility at once, the largest chosen: the frequencies
    # are the shares, and the shares at sigma1 - 0.02 are rejected
    delta = np.random.default_rng(21).uniform(-1.5, 1.5, RAGGED_TREE.n_products)
    tally = nested_choice_counts(RAGGED_TREE, delta, NestingParams(sigma1, sigma2), draws=400_000, seed=1)

    def worst_z(params):
        table, _ = compute_shares(RAGGED_TREE, delta, params)
        return np.abs(_exact_z(tally, np.append(table.joint, table.outside), n=400_000)).max()

    assert worst_z(NestingParams(sigma1, sigma2)) < 5.0
    if sigma1 > 0.0:
        assert worst_z(NestingParams(sigma1 - 0.02, sigma2)) > 5.0


@st.composite
def binomial_cases(draw):
    n = draw(st.integers(1, 300))
    p = draw(st.one_of(st.floats(1e-9, 1.0 - 1e-9), st.sampled_from([0.5, 0.25, 1e-4])))
    k = draw(st.one_of(st.integers(0, n), st.just(round(n * p))))
    return n, p, k


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=binomial_cases())
def test_exact_z_matches_summed_binomial_terms(case):
    n, p, k = case
    z = _exact_z(np.array([k, n - k]), np.array([p, 1.0 - p]), n=n)
    assert z[0] == pytest.approx(binomial_tail_z(n, p, k), rel=1e-9, abs=1e-9)
    assert z[1] == pytest.approx(binomial_tail_z(n, 1.0 - p, n - k), rel=1e-9, abs=1e-9)


def test_exact_z_of_a_few_hits_on_a_rare_alternative_stays_below_five():
    # an expected count of 0.81 at 1e5 draws, drawn 6 times: the normal
    # approximation reads 5.78, the exact tail (about 2e-4) 3.5
    n, share = 100_000, 8.1e-6
    normal = (6 / n - share) / np.sqrt(share * (1 - share) / n)
    z = _exact_z(np.array([6, n - 6]), np.array([share, 1.0 - share]), n=n)
    assert normal > 5.7
    assert 3.4 < z[0] < 3.7
    assert z[1] == pytest.approx(-z[0], rel=1e-9)


def test_exact_z_of_an_alternative_does_not_depend_on_its_batch():
    # 1001 alternatives at 1e5 draws, as on a 10x10x10 tree: z summed one alternative a batch (the
    # widest, in batches of its terms), a few or all at once is the same double. A batch narrower than
    # an alternative's terms would send it to the saddle point
    rng = np.random.default_rng(17)
    share = rng.dirichlet(np.ones(1001))
    tally = rng.multinomial(100_000, share)
    z = _exact_z(tally, share, n=100_000)
    widest = int(np.ceil(10.0 * np.sqrt(100_000 * share * (1.0 - share))).max()) + 10
    for terms in (widest, 2**10, 2**20):
        with mock.patch.object(montecarlo, "_Z_TERMS", terms):
            np.testing.assert_array_equal(_exact_z(tally, share, n=100_000), z)


@pytest.mark.parametrize("n", [2**40, 2**53])
def test_exact_z_of_a_wide_alternative_stays_within_its_budget(n):
    # about 5e6 terms an alternative at 2**40 draws and 4e8 at 2**53, past _Z_TERMS: the saddle point
    share = np.array([0.2, 0.3, 0.5])
    tally = np.random.default_rng(19).multinomial(n, share)
    tracemalloc.start()
    try:
        z = _exact_z(tally, share, n=n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(z))
    assert peak <= 2**20, f"peak traced memory {peak / 2**20:.2f} MB"


def _scipy_z(tally, share, n):
    """z of each count by scipy: the normal isf of the binomial tail beyond it, and that tail."""
    from scipy.stats import binom, norm

    upper = tally / n > share
    tail = np.where(upper, binom.sf(tally - 1, n, share), binom.cdf(tally, n, share))
    z = np.where(tail < 0.5, norm.isf(np.minimum(tail, 0.5)), 0.0)
    return np.where(upper, z, -z), tail


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(log2_n=st.one_of(st.floats(3.0, 53.0), st.just(53.0)), share=st.one_of(
    st.floats(-15.0, 0.0).map(lambda e: 10.0**e), st.floats(0.0, 1.0), st.floats(-15.0, -0.31).map(lambda e: 1.0 - 10.0**e)),
    deviations=st.floats(-12.0, 12.0))
# at 2**53 draws, a count below its mean once summed n + 1 - (j + 1) with n + 1 rounded to n: z was -1.2799
# for -1.2623
@example(log2_n=53.0, share=2.6292523224008162e-14, deviations=-1.27)
def test_exact_z_is_scipys_on_both_branches_at_any_draws(log2_n, share, deviations):
    # a count some standard deviations from its mean, summed or by the saddle point: within 5e-8 of
    # scipy's z, relative to max(1, |z|), which is scipy's own error at such n
    n = int(2.0**log2_n)
    sd = np.sqrt(n * share * (1.0 - share))
    tally = int(np.clip(np.round(n * share + deviations * max(sd, 1.0)), 0, n))
    z = _exact_z(np.array([tally, n - tally]), np.array([share, 1.0 - share]), n=n)
    ref, tail = _scipy_z(np.array([float(tally), float(n - tally)]), np.array([share, 1.0 - share]), n)
    for got, want, beyond in zip(z, ref, tail):
        if beyond > 1e-300:
            assert abs(got - want) <= 5e-8 * max(1.0, abs(want)), (got, want)
        else:
            assert abs(got) > 37.0, (got, beyond)


def test_saddle_point_z_is_the_summed_tails_past_the_boundary():
    # standard deviations just past 1,637, where the saddle point is least exact, counts out to 37
    # of them and within a twentieth of one of the mean, where it is least exact, and shares from 1e-9
    # to 1 - 1e-9: within 2e-11 of the z of the tails summed in full
    rng = np.random.default_rng(29)
    worst = 0.0
    for sd, share in zip(rng.uniform(1640.0, 2500.0, 40), 10.0 ** rng.uniform(-9.0, np.log10(0.5), 40)):
        share = float(1.0 - share if rng.random() < 0.5 else share)
        n = int(round(sd**2 / (share * (1.0 - share))))
        sd = np.sqrt(n * share * (1.0 - share))
        spread = np.append(rng.uniform(-37.0, 37.0, 30), rng.uniform(-0.05, 0.05, 30))
        tally = np.unique(np.clip(np.round(n * share + spread * sd), 0, n)).astype(np.int64)
        shares = np.full(len(tally), share)
        z = _exact_z(tally, shares, n=n)
        with mock.patch.object(montecarlo, "_Z_TERMS", 2**21):
            summed = _exact_z(tally, shares, n=n)
        np.testing.assert_array_equal(np.isinf(z), np.isinf(summed))
        # a tail below the least normal double is coarse
        finite = np.abs(summed) < 37.5
        worst = max(worst, np.max(np.abs(z - summed)[finite]))
    assert worst <= 2e-11


def test_exact_z_either_side_of_the_boundary():
    # shares whose ten standard deviations and ten take _Z_TERMS terms, and one more: the first is
    # summed, the second takes the saddle point, and both are the full sum's z within 2e-11 and
    # scipy's within 5e-8 max(1, |z|)
    n = 10**9
    sd = (montecarlo._Z_TERMS - np.array([10.5, 9.5])) / 10.0
    share = (1.0 - np.sqrt(1.0 - 4.0 * sd**2 / n)) / 2.0
    assert list(np.ceil(10.0 * np.sqrt(n * share * (1.0 - share))) + 10.0) == [montecarlo._Z_TERMS,
                                                                               montecarlo._Z_TERMS + 1]
    tally = np.round(n * share + 3.0 * sd).astype(np.int64)
    with mock.patch.object(montecarlo, "_saddle_z", wraps=montecarlo._saddle_z) as saddle:
        z = _exact_z(tally, share, n=n)
    assert len(saddle.call_args.args[0]) == 1 and saddle.call_args.args[0][0] == tally[1]
    with mock.patch.object(montecarlo, "_Z_TERMS", 2**20):
        summed = _exact_z(tally, share, n=n)
    assert z[0] == summed[0]
    assert abs(z[1] - summed[1]) <= 2e-11
    ref, _ = _scipy_z(tally.astype(float), share, n)
    np.testing.assert_array_less(np.abs(z - ref), 5e-8 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.filterwarnings("error")
def test_exact_z_of_a_zero_share():
    # never drawn: z is 0 where the frequency equals the share; drawn: the tail is 0
    z = _exact_z(np.array([0, 5, 95]), np.array([0.0, 0.05, 0.95]), n=100)
    assert z[0] == 0.0
    z = _exact_z(np.array([1, 4, 95]), np.array([0.0, 0.05, 0.95]), n=100)
    assert z[0] == np.inf and np.all(np.isfinite(z[1:]))
    # a share of 1 beside shares of 0, all as drawn: every z is 0, without a warning
    np.testing.assert_array_equal(_exact_z(np.array([100, 0, 0]), np.array([1.0, 0.0, 0.0]), n=100), 0.0)


def test_first_binomial_term_is_exact_at_a_hundred_thousand_draws():
    # 1001 alternatives at 1e5 draws, as on a 10x10x10 tree: log C(n, k) from
    # lgamma is off by 4.0e-10 here, as it cancels terms near n log n
    from scipy.stats import binom

    rng = np.random.default_rng(17)
    share = rng.dirichlet(np.ones(1001))
    tally = rng.multinomial(100_000, share)
    # a count of 0 is the first term q^n, which _exact_z takes as n log q
    inner = tally > 0
    got = _log_binomial(tally[inner].astype(float), 100_000.0, share[inner], 1.0 - share[inner])
    np.testing.assert_allclose(got, np.log(binom.pmf(tally[inner], 100_000, share[inner])), rtol=0, atol=1e-12)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(t=st.one_of(st.floats(1e-300, 0.5, exclude_max=True),
                   st.floats(-300.0, -0.31).map(lambda e: 10.0**e),
                   st.floats(1e-16, 0.25).map(lambda d: 0.5 - d)))
def test_upper_quantile_is_the_normal_isf(t):
    # uniform, log-uniform from 1e-300 and near 1/2, where z is near 0
    from scipy.stats import norm

    assert _upper_quantile(t) == pytest.approx(norm.isf(t), rel=1e-13, abs=0)


TAIL = st.one_of(st.floats(5e-324, 0.5), st.floats(-323.3, -0.31).map(lambda e: 10.0**e),
                 st.floats(1e-16, 0.25).map(lambda d: 0.5 - d))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tails=st.lists(TAIL, min_size=1, max_size=40))
# the branch boundaries: a tail of 0.075 and its neighbours, where 1/2 - t passes 0.425, and
# exp(-25), where sqrt(-log t) passes 5; the least subnormal, subnormals, the least normal and 1/2
@example(tails=[np.nextafter(0.075, 0.0), 0.075, np.nextafter(0.075, 1.0), np.nextafter(np.exp(-25.0), 0.0),
                np.exp(-25.0), np.nextafter(np.exp(-25.0), 1.0), 5e-324, 1e-320, 1e-310, 2.2250738585072014e-308,
                0.5])
def test_upper_quantile_is_statistics_normal_quantile_within_two_ulp(tails):
    # AS241 over an array, each tail in the branch statistics takes it: numpy's log and the C
    # library's differ in the last bit of a few tails
    import statistics

    normal = statistics.NormalDist()
    want = np.array([-normal.inv_cdf(t) for t in tails])
    got = _upper_quantile(np.array(tails))
    assert np.all(np.abs(got - want) <= 2.0 * np.spacing(np.abs(want))), (got, want)


def test_upper_quantile_of_a_subnormal_tail_is_finite():
    # past the smallest normal double the tail is coarse, but its quantile is finite
    for t in (5e-324, 1e-320, 1e-310, 2.2e-308):
        assert 37.0 < _upper_quantile(t) < 38.5


@pytest.mark.parametrize("t, z", [(5e-324, 38.4674056171443463), (1e-320, 38.269125343032651),
                                  (1e-315, 37.9673003510673577)])
def test_upper_quantile_of_a_subnormal_tail_is_exact(t, z):
    # below the smallest normal double, against 50-digit values of the quantile
    assert _upper_quantile(t) == pytest.approx(z, rel=1e-15, abs=0)


def test_exact_z_is_never_negative_zero():
    # a count below its mean whose tail is 1/2 or more: z is +0, as at the mean
    z = _exact_z(np.array([0, 1, 0]), np.array([0.3, 0.4, 0.3]), n=1)
    assert z[1] > 0.0 and np.all(z[[0, 2]] == 0.0)
    assert not np.any(np.signbit(z[z == 0.0]))
    z = _exact_z(np.array([1, 0]), np.array([1.0 - 1e-300, 1e-300]), n=1)
    np.testing.assert_array_equal(np.signbit(z), [False, False])
