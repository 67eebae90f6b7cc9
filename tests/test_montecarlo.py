import numpy as np
import pytest

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
from hierlogit.montecarlo import _gumbel_from_uniform

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


def test_counts_invariant_to_chunking():
    rng = np.random.default_rng(7)
    tree, delta, params = random_instance(rng, dlo=-2, dhi=2, smax=0.8)
    n = 50_000
    reference = simulate_choices(tree, delta, params, SimConfig(draws=n, seed=11))
    for chunk in (1_000, 4_096, 31_337, n, n + 999):
        other = simulate_choices(
            tree, delta, params, SimConfig(draws=n, seed=11, chunk_size=chunk)
        )
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
    with pytest.raises(OutOfDomainError):
        SimConfig(draws=10, chunk_size=0)
    for seed in (-1, 2**128):
        with pytest.raises(OutOfDomainError):
            SimConfig(draws=10, seed=seed)
    SimConfig(draws=10, seed=2**128 - 1)
    cfg = SimConfig(draws=10)
    assert cfg.seed == 0 and cfg.chunk_size == 65536
