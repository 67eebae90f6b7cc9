import numpy as np
import pytest

from hierlogit import (
    OUTSIDE_ID,
    DuplicateProductError,
    EmptyInputError,
    OutOfDomainError,
    UtilityVector,
    build_hierarchy,
    validate_params,
)
from hierlogit.hierarchy import as_delta_array

from helpers import random_tree


def test_minimal_tree():
    tree = build_hierarchy([("g1", "h1", "p1")])
    assert tree.n_groups == 1
    assert tree.n_subgroups == 1
    assert tree.n_products == 1
    assert tree.products == ("p1",)
    assert tree.subgroup_keys[tree.product_subgroup[0]] == ("g1", "h1")


def test_product_index_positions():
    tree = build_hierarchy([("g1", "h1", "p1"), ("g1", "h2", "p2"), ("g2", "h3", "p3")])
    assert tree.products.index("p3") == 2
    assert tree.subgroup_keys[tree.product_subgroup[2]] == ("g2", "h3")
    assert tree.group_ids == ("g1", "g2")
    assert tree.subgroup_keys == (("g1", "h1"), ("g1", "h2"), ("g2", "h3"))


def test_duplicate_product_rejected():
    with pytest.raises(DuplicateProductError):
        build_hierarchy([("g1", "h1", "p1"), ("g1", "h1", "p1")])
    # same id in a different subgroup is still a duplicate
    with pytest.raises(DuplicateProductError):
        build_hierarchy([("g1", "h1", "p1"), ("g2", "h2", "p1")])


def test_reserved_outside_id_rejected():
    with pytest.raises(DuplicateProductError):
        build_hierarchy([("g1", "h1", OUTSIDE_ID)])


def test_empty_input_rejected():
    with pytest.raises(EmptyInputError):
        build_hierarchy([])


def test_first_appearance_ordering_is_deterministic():
    # canonical order is grouped: groups, subgroups within each group, and
    # products within each subgroup all follow first appearance
    rows = [("g2", "hB", "x"), ("g1", "hA", "y"), ("g2", "hB", "z"), ("g2", "hC", "w")]
    t1 = build_hierarchy(rows)
    t2 = build_hierarchy(rows)
    assert t1.products == ("x", "z", "w", "y")
    assert t1.products == t2.products
    assert t1.group_ids == ("g2", "g1")
    np.testing.assert_array_equal(t1.product_subgroup, t2.product_subgroup)
    np.testing.assert_array_equal(t1.product_group, [0, 0, 0, 1])


def test_index_arrays_partition_products():
    rng = np.random.default_rng(4)
    for _ in range(25):
        tree = random_tree(rng)
        flat = np.concatenate(
            [np.flatnonzero(tree.product_subgroup == si) for si in range(tree.n_subgroups)]
        )
        assert sorted(flat) == list(range(tree.n_products))
        # subgroup/group assignment consistent between product and subgroup maps
        np.testing.assert_array_equal(
            tree.subgroup_group[tree.product_subgroup], tree.product_group
        )
        assert tree.n_products == len(tree.products)


def test_validate_params_ordering_flag():
    p = validate_params(0.5, 0.25)
    assert (p.sigma1, p.sigma2, p.ordering_ok) == (0.5, 0.25, True)
    assert validate_params(0.25, 0.5).ordering_ok is False
    assert validate_params(0.0, 0.0).ordering_ok is True


@pytest.mark.parametrize("bad", [(1.0, 0.5), (0.5, 1.0), (-0.1, 0.0), (0.0, -0.1), (float("nan"), 0.0)])
def test_validate_params_domain(bad):
    with pytest.raises(OutOfDomainError):
        validate_params(*bad)


def test_utility_vector_requires_finite():
    UtilityVector(np.array([0.0, -700.0, 700.0]))
    with pytest.raises(OutOfDomainError):
        UtilityVector(np.array([0.0, np.inf]))
    with pytest.raises(OutOfDomainError):
        UtilityVector(np.array([np.nan]))


def test_as_delta_array_checks_shape():
    tree = build_hierarchy([("g1", "h1", "p1"), ("g1", "h1", "p2")])
    np.testing.assert_array_equal(as_delta_array(tree, [1.0, 2.0]), [1.0, 2.0])
    np.testing.assert_array_equal(
        as_delta_array(tree, UtilityVector(np.array([1.0, 2.0]))), [1.0, 2.0]
    )
    with pytest.raises(OutOfDomainError):
        as_delta_array(tree, [1.0])
    with pytest.raises(OutOfDomainError):
        as_delta_array(tree, [1.0, np.nan])
