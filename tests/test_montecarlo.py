import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hierlogit import (
    ChoiceCounts,
    OutOfDomainError,
    SimConfig,
    build_hierarchy,
    compute_shares,
    empirical_shares,
    simulate_choices,
    validate_params,
)
from hierlogit import montecarlo
from hierlogit.montecarlo import _draw_stride, _gumbel_from_uniform

from helpers import balanced_tree, random_instance

EULER_GAMMA = 0.5772156649015329


def test_gumbel_moments():
    rng = np.random.default_rng(2024)
    draws = _gumbel_from_uniform(rng.random(10**6))
    assert abs(draws.mean() - EULER_GAMMA) < 0.005
    assert abs(draws.var() - np.pi**2 / 6) < 0.02
    assert np.all(np.isfinite(draws))


def test_symmetric_singleton_frequency():
    tree = build_hierarchy([("g1", "h1", "p1")])
    params = validate_params(0.5, 0.25)
    n = 10**6
    counts = simulate_choices(tree, [0.0], params, SimConfig(draws=n, seed=1))
    freq = counts.counts[0] / n
    assert abs(freq - 0.5) <= 4 * np.sqrt(0.25 / n)
    assert counts.total == n


def test_plain_logit_thirds():
    tree = build_hierarchy([("g1", "h1", "p1"), ("g2", "h2", "p2")])
    params = validate_params(0.0, 0.0)
    n = 400_000
    counts = simulate_choices(tree, [0.0, 0.0], params, SimConfig(draws=n, seed=2))
    freq, _ = empirical_shares(counts)
    bound = 4 * np.sqrt((1 / 3) * (2 / 3) / n)
    np.testing.assert_allclose(freq, [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=bound)


def test_frequencies_match_analytic_shares():
    tree = balanced_tree(2, 2, 2)
    params = validate_params(0.55, 0.3)
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
    assert montecarlo._CHUNK_WORDS // _draw_stride(tree) >= draws
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
    # 10x10x10 tree: 1112 shock doubles per draw, so 20,000 draws in one
    # block would hold 178 MB per array; chunks of 2**20 doubles hold 8 MB
    tree = balanced_tree(10, 10, 10)
    delta = np.random.default_rng(5).uniform(-1.0, 1.0, tree.n_products)
    tracemalloc.start()
    try:
        simulate_choices(tree, delta, validate_params(0.5, 0.25), SimConfig(draws=20_000, seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak traced memory {peak / 2**20:.1f} MB"
