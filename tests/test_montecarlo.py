import dataclasses
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
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
from hierlogit import montecarlo, runner
from hierlogit.cli import MARKET_COLUMNS, main
from hierlogit.montecarlo import _draw_stride, _exact_z, _sibling_tables

from helpers import (
    balanced_tree, binomial_tail_z, gumbel_choice_counts, gumbel_from_uniform, on_cpus, ragged_instances,
    random_instance, random_tree,
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
    assert counts.total == n


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


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    instance_seed=st.integers(0, 2**32 - 1),
    draws=st.integers(1, 1500),
    chunk_words=st.integers(1, 60_000),
)
# one word is below any draw's stride: every chunk holds a single draw
@example(instance_seed=7, draws=1500, chunk_words=1)
def test_counts_invariant_to_chunking(instance_seed, draws, chunk_words):
    rng = np.random.default_rng(instance_seed)
    tree, delta, params = random_instance(rng, dlo=-2, dhi=2, smax=0.8)
    config = SimConfig(draws=draws, seed=11)
    # the default chunk holds every draw of these small trees at once
    assert montecarlo._CHUNK_WORDS // _draw_stride(_sibling_tables(tree)) >= draws
    reference = simulate_choices(tree, delta, params, config)
    with mock.patch.object(montecarlo, "_CHUNK_WORDS", chunk_words):
        other = simulate_choices(tree, delta, params, config)
    np.testing.assert_array_equal(reference.counts, other.counts)
    assert reference.outside_count == other.outside_count


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
    with pytest.raises(OutOfDomainError):
        SimConfig(draws=0)
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


def test_chunk_memory_does_not_grow_with_the_tree():
    # a 10x10x10 tree takes 32 shock doubles per draw, so 20,000 draws fit
    # one chunk; one subgroup of 5,000 products takes 5,004, so 4,000 draws
    # in one block would hold 160 MB per array; the threads' scratch shares
    # 2**20 words, 8 MB, however many threads there are
    assert _draw_stride(_sibling_tables(balanced_tree(10, 10, 10))) == 32
    tree = build_hierarchy([("g", "h", f"p{j}") for j in range(5000)])
    assert _draw_stride(_sibling_tables(tree)) == 5004
    delta = np.random.default_rng(5).uniform(-1.0, 1.0, tree.n_products)
    for workers in (1, 2):
        tracemalloc.start()
        try:
            with on_cpus(workers):
                simulate_choices(tree, delta, NestingParams(0.5, 0.25), SimConfig(draws=4000, seed=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, f"{workers} workers: peak traced memory {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("shape, draws", [((10, 10, 10), 100_000), ((3, 3, 4), 200_000)])
def test_traced_peak_of_the_kernel_is_its_budget(shape, draws):
    # each worker's uniforms, stage products, picks and nodes are its share of
    # _CHUNK_WORDS words, 8 MB, in several chunks a worker; 1 MB more is for
    # the stage weights, the tallies and the threads
    tree = balanced_tree(*shape)
    delta = np.random.default_rng(9).uniform(-1.0, 1.0, tree.n_products)
    for workers in (1, 2, 4):
        tracemalloc.start()
        try:
            with on_cpus(workers):
                simulate_choices(tree, delta, NestingParams(0.5, 0.25), SimConfig(draws=draws, seed=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= montecarlo._CHUNK_WORDS * 8 + 2**20, f"{workers} workers: peak {peak / 2**20:.2f} MB"


TIED = build_hierarchy([("g0", "h0", "a"), ("g0", "h0", "b"), ("g0", "h1", "c"), ("g1", "h2", "d")])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    instance=ragged_instances(utility_bound=700.0, sigma_bound=0.999),
    workers=st.sampled_from([1, 2, 3]),
    chunk_words=st.integers(1, 2000),
)
# every utility tied, the outside option's 0 included, and tied utilities of 700 at sigma 0.999
@example(instance=(TIED, np.zeros(4), NestingParams(0.0, 0.0)), workers=2, chunk_words=50)
@example(instance=(TIED, np.full(4, 700.0), NestingParams(0.999, 0.999)), workers=3, chunk_words=50)
def test_exponential_race_counts_equal_the_gumbel_argmax(instance, workers, chunk_words):
    tree, delta, params = instance
    config = SimConfig(draws=2000, seed=13)
    counts, outside = gumbel_choice_counts(tree, delta, params, config)
    with mock.patch.object(montecarlo, "_CHUNK_WORDS", chunk_words), on_cpus(workers):
        race = simulate_choices(tree, delta, params, config)
    np.testing.assert_array_equal(race.counts, counts)
    assert race.outside_count == outside


@pytest.mark.parametrize("cpus, affinity", [(1, True), (3, True), (1, False), (2, False)])
def test_threads_are_the_cpus_of_the_affinity_mask_else_the_cpu_count(cpus, affinity, tmp_path):
    served, serve, threads = [], runner.ChunkRunner._serve, threading.enumerate()

    def recorded(self):
        served.append(self)
        serve(self)

    def pools():
        """The threads each runner started, one entry per runner that started any."""
        return [served.count(pool) for pool in dict.fromkeys(served)]

    tree = build_hierarchy([("g", "h", "p")])
    # 64 words in flight: 100 draws of 4 shocks, 2 products and 2 indices take several chunks
    with on_cpus(cpus, affinity), mock.patch.object(montecarlo, "_CHUNK_WORDS", 64), \
            mock.patch.object(runner.ChunkRunner, "_serve", recorded):
        counts = simulate_choices(tree, [0.0], NestingParams(0.5, 0.25), SimConfig(draws=100, seed=1))
    assert counts.total == 100
    assert pools() == ([] if cpus == 1 else [cpus])
    # the writer: a pool for the 40,200 rows of a 200-product Jacobian, three
    # chunks; none for simulate's 1001 rows, one chunk, of 100 draws, one chunk too
    for n_products, args, want in ((200, ["jacobian"], [] if cpus == 1 else [cpus]),
                                   (1000, ["simulate", "--draws", "100"], [])):
        rows = "".join(f"m,g{j % 10},h{j % 50},p{j},0\n" for j in range(n_products))
        (tmp_path / "m.csv").write_text(",".join(MARKET_COLUMNS) + "\n" + rows)
        (tmp_path / "p.json").write_text('{"sigma1": 0.5, "sigma2": 0.25}')
        served.clear()
        with on_cpus(cpus, affinity), mock.patch.object(runner.ChunkRunner, "_serve", recorded):
            result = CliRunner().invoke(main, [*args, "--input", str(tmp_path / "m.csv"), "--params",
                                               str(tmp_path / "p.json"), "--output", str(tmp_path / "out.csv")])
        assert result.exit_code == 0, result.stderr
        assert pools() == want
    # every pool's threads are joined when its runner is done
    assert threading.enumerate() == threads


def _ceil4(words):
    return -(-words // 4) * 4


@settings(max_examples=60, derandomize=True, database=None)
@given(instance_seed=st.integers(0, 2**32 - 1))
def test_draw_stride_counts_siblings_only(instance_seed):
    tree = random_tree(np.random.default_rng(instance_seed), max_groups=6, max_subgroups=6, max_products=9)
    widest_group = np.bincount(tree.subgroup_group).max()
    widest_subgroup = np.bincount(tree.product_subgroup).max()
    stride = _draw_stride(_sibling_tables(tree))
    assert stride == _ceil4((tree.n_groups + 1) + widest_group + widest_subgroup)
    assert stride <= _ceil4((tree.n_groups + 1) + tree.n_subgroups + tree.n_products)


# a one-subgroup group next to a five-subgroup one, and one-product
# subgroups next to a seven-product one
RAGGED_SIZES = {"g0": [7], "g1": [1, 7, 2, 1, 3], "g2": [1]}
RAGGED_TREE = build_hierarchy([
    (g, f"{g}.h{h}", f"{g}.h{h}.p{p}") for g, sizes in RAGGED_SIZES.items()
    for h, n in enumerate(sizes) for p in range(n)
])


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
    assert counts.total == n
    assert np.all(np.abs(freq - share) <= 4 * np.sqrt(share * (1 - share) / n))


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
    z = _exact_z(np.array([k, n - k]), np.array([p, 1.0 - p]))
    assert z[0] == pytest.approx(binomial_tail_z(n, p, k), rel=1e-9, abs=1e-9)
    assert z[1] == pytest.approx(binomial_tail_z(n, 1.0 - p, n - k), rel=1e-9, abs=1e-9)


def test_exact_z_of_a_few_hits_on_a_rare_alternative_stays_below_five():
    # an expected count of 0.81 at 1e5 draws, drawn 6 times: the normal
    # approximation reads 5.78, the exact tail (about 2e-4) 3.5
    n, share = 100_000, 8.1e-6
    normal = (6 / n - share) / np.sqrt(share * (1 - share) / n)
    z = _exact_z(np.array([6, n - 6]), np.array([share, 1.0 - share]))
    assert normal > 5.7
    assert 3.4 < z[0] < 3.7
    assert z[1] == pytest.approx(-z[0], rel=1e-9)


def test_exact_z_of_a_zero_share():
    # never drawn: z is 0 where the frequency equals the share; drawn: the tail is 0
    z = _exact_z(np.array([0, 5, 95]), np.array([0.0, 0.05, 0.95]))
    assert z[0] == 0.0
    z = _exact_z(np.array([1, 4, 95]), np.array([0.0, 0.05, 0.95]))
    assert z[0] == np.inf and np.all(np.isfinite(z[1:]))
