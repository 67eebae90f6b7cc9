import numpy as np
import pytest

from hierlogit import (
    NestingParams,
    OutOfDomainError,
    SingularDesignError,
    SynthConfig,
    build_hierarchy,
    compute_shares,
    estimate_linear,
    generate_market,
    regression_rows,
)


def _pipeline(config):
    tree, delta, covariates = generate_market(config)
    params = NestingParams(config.sigma1, config.sigma2)
    table, _ = compute_shares(tree, delta, params)
    return estimate_linear(regression_rows(table), covariates)


def test_generate_market_dimensions():
    tree, delta, covariates = generate_market(
        SynthConfig(2, 2, 2, beta=(1.0, -2.0), seed=1)
    )
    assert tree.n_groups == 2
    assert tree.n_subgroups == 4
    assert tree.n_products == 8
    assert covariates.shape == (8, 2)
    assert len(delta) == 8


@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 3, 4), (12, 1, 11), (3, 11, 2), (3, 1, 7), (20, 50, 100)])
def test_generate_market_tree_equals_the_tree_of_its_rows(shape):
    # numbered by first appearance, not as strings sort ("g10" < "g2"), and
    # subgroup ids repeat across groups
    tree, _, _ = generate_market(SynthConfig(*shape, beta=(1.0,)))
    rows = [(f"g{g}", f"h{h}", f"g{g}h{h}p{p}") for g in range(1, shape[0] + 1)
            for h in range(1, shape[1] + 1) for p in range(1, shape[2] + 1)]
    want = build_hierarchy(rows, market_id="synthetic")
    for name in ("market_ids", "group_ids", "subgroup_ids", "products"):
        assert getattr(tree, name) == getattr(want, name), name
    for name in ("group_market", "subgroup_group", "product_subgroup", "product_group", "product_market", "bounds"):
        a, b = getattr(tree, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_generate_market_zero_noise_is_linear():
    config = SynthConfig(2, 3, 2, beta=(0.5, 1.5, -1.0), xi_scale=0.0, seed=9)
    _, delta, covariates = generate_market(config)
    np.testing.assert_array_equal(delta.values, covariates @ np.array(config.beta))


def test_generate_market_reproducible():
    config = SynthConfig(3, 2, 2, beta=(1.0,), xi_scale=0.4, seed=77)
    tree_a, delta_a, x_a = generate_market(config)
    tree_b, delta_b, x_b = generate_market(config)
    assert tree_a.products == tree_b.products
    np.testing.assert_array_equal(delta_a.values, delta_b.values)
    np.testing.assert_array_equal(x_a, x_b)


def test_generate_market_validation():
    with pytest.raises(OutOfDomainError):
        generate_market(SynthConfig(0, 2, 2, beta=(1.0,)))
    with pytest.raises(OutOfDomainError):
        generate_market(SynthConfig(2, 2, 2, beta=()))
    with pytest.raises(OutOfDomainError):
        generate_market(SynthConfig(2, 2, 2, beta=(1.0,), x_range=(1.0, 0.0)))
    # more than 10**7 products is refused before anything is allocated
    with pytest.raises(OutOfDomainError):
        generate_market(SynthConfig(10**9, 2, 2, beta=(1.0,)))
    with pytest.raises(OutOfDomainError):
        generate_market(SynthConfig(2, 2, 2, beta=(1.0,), xi_scale=-0.1))
    with pytest.raises(OutOfDomainError):
        generate_market(SynthConfig(2, 2, 2, beta=(1.0,), seed=-1))


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((2.7, 2, 2), {}),
        (("3", 2, 2), {}),
        ((True, 2, 2), {}),
        ((2, 2, 2), {"seed": 1.5}),
        ((float("inf"), 2, 2), {}),
        ((2, 2, 2), {"xi_scale": float("nan")}),
        ((2, 2, 2), {"sigma1": 1.0}),
        ((2, 2, 2), {"sigma2": 10**400}),
        ((2, 2, 2), {"beta": None}),
        ((2, 2, 2), {"beta": (1.0, "a")}),
        ((2, 2, 2), {"x_range": ("a", "b")}),
    ],
)
def test_synth_config_refuses_non_numbers(args, kwargs):
    with pytest.raises(OutOfDomainError):
        SynthConfig(*args, **{"beta": (1.0,), **kwargs})


@pytest.mark.parametrize("kwargs", [{"x_range": (0.0,)}, {"x_range": (0.0, 1.0, 2.0)}, {"beta": []}])
def test_synth_config_refuses_bad_shapes(kwargs):
    with pytest.raises(OutOfDomainError):
        SynthConfig(2, 2, 2, **{"beta": (1.0,), **kwargs})


@pytest.mark.parametrize("x_range", [(-1e308, 1e308), (-9e307, 9e307)])
def test_synth_config_refuses_an_x_range_wider_than_a_double(x_range):
    # numpy's uniform sampler would raise OverflowError on this width
    with pytest.raises(OutOfDomainError, match="finite width"):
        SynthConfig(2, 2, 2, beta=(1.0,), x_range=x_range)
    SynthConfig(2, 2, 2, beta=(1.0,), x_range=(x_range[0] / 2, x_range[1] / 2))


def test_synth_config_normalizes_fields():
    config = SynthConfig(2.0, np.int64(2), 2, beta=[1, np.float64(2.5)], x_range=[0, 3], seed=4.0)
    assert (config.n_groups, config.n_subgroups_per_group, config.seed) == (2, 2, 4)
    assert all(type(v) is int for v in (config.n_groups, config.n_subgroups_per_group, config.seed))
    assert config.beta == (1.0, 2.5) and config.x_range == (0.0, 3.0)
    assert all(type(v) is float for v in config.beta + config.x_range)


def test_exact_fit_recovers_truth():
    result = _pipeline(
        SynthConfig(2, 2, 2, beta=(1.0, -2.0), sigma1=0.5, sigma2=0.25, xi_scale=0.0, seed=42)
    )
    np.testing.assert_allclose(result.beta_hat, [1.0, -2.0], rtol=0, atol=1e-8)
    assert result.sigma1_hat == pytest.approx(0.5, abs=1e-8)
    assert result.sigma2_hat == pytest.approx(0.25, abs=1e-8)
    assert result.residual_norm <= 1e-10


def test_exact_fit_zero_sigmas():
    result = _pipeline(
        SynthConfig(2, 2, 3, beta=(0.7, 0.3), sigma1=0.0, sigma2=0.0, xi_scale=0.0, seed=5)
    )
    assert result.sigma1_hat == pytest.approx(0.0, abs=1e-8)
    assert result.sigma2_hat == pytest.approx(0.0, abs=1e-8)


def test_single_subgroup_groups_are_singular():
    # one subgroup per group makes s_{h|g} = 1 everywhere, so x2 = 0
    with pytest.raises(SingularDesignError):
        _pipeline(SynthConfig(3, 1, 3, beta=(1.0,), sigma1=0.3, sigma2=0.2, seed=6))


def test_too_few_rows_rejected():
    with pytest.raises(SingularDesignError):
        _pipeline(SynthConfig(1, 1, 2, beta=(1.0,), sigma1=0.1, sigma2=0.1, seed=2))


def test_misaligned_covariates_rejected():
    config = SynthConfig(2, 2, 2, beta=(1.0,), sigma1=0.4, sigma2=0.2, seed=3)
    tree, delta, covariates = generate_market(config)
    table, _ = compute_shares(tree, delta, NestingParams(0.4, 0.2))
    y, x1, x2 = regression_rows(table)
    with pytest.raises(OutOfDomainError):
        estimate_linear((y, x1, x2), covariates[:-1])
    with pytest.raises(OutOfDomainError):
        estimate_linear((y, x1[:-1], x2), covariates)


def test_non_finite_regressors_rejected():
    config = SynthConfig(2, 2, 2, beta=(1.0,), sigma1=0.4, sigma2=0.2, seed=3)
    tree, delta, covariates = generate_market(config)
    table, _ = compute_shares(tree, delta, NestingParams(0.4, 0.2))
    covariates[0, 0] = np.nan
    with pytest.raises(OutOfDomainError):
        estimate_linear(regression_rows(table), covariates)
