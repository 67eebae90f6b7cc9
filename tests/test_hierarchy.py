import dataclasses

import numpy as np
import pytest

from hierlogit import (
    OUTSIDE_ID,
    ChoiceHierarchy,
    DuplicateProductError,
    EmptyInputError,
    NestingParams,
    OutOfDomainError,
    UtilityVector,
    build_hierarchy,
)
from hierlogit.hierarchy import as_delta_array

from helpers import balanced_tree, market_tree, random_tree


def test_minimal_tree():
    tree = build_hierarchy([("g1", "h1", "p1")])
    assert tree.n_groups == 1
    assert tree.n_subgroups == 1
    assert tree.n_products == 1
    assert tree.products == ("p1",)
    s = tree.product_subgroup[0]
    assert (tree.group_ids[tree.subgroup_group[s]], tree.subgroup_ids[s]) == ("g1", "h1")


def test_product_index_positions():
    tree = build_hierarchy([("g1", "h1", "p1"), ("g1", "h2", "p2"), ("g2", "h3", "p3")])
    assert tree.products.index("p3") == 2
    s = tree.product_subgroup[2]
    assert (tree.group_ids[tree.subgroup_group[s]], tree.subgroup_ids[s]) == ("g2", "h3")
    assert tree.group_ids == ("g1", "g2")
    assert tree.subgroup_ids == ("h1", "h2", "h3")
    np.testing.assert_array_equal(tree.subgroup_group, [0, 0, 1])


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


@pytest.mark.parametrize("rows, bad", [
    ([("g1", "h1")], 0),
    ([("g1", "h1", "p1"), ("g1", "h1")], 1),
    ([("g1", "h1", "p1"), ["g1", "h1", "p2", "x"], ("g1",)], 1),
    (iter([("g1", "h1", "p1"), ("g1", "h2", "p2"), ()]), 2),
], ids=["pair", "ragged", "four", "empty-row"])
def test_rows_that_are_not_triples_are_named(rows, bad):
    # 2-tuples and ragged rows once raised a raw IndexError, and a 4-tuple was cut to three
    with pytest.raises(OutOfDomainError, match=f"^row {bad}, .* is not a .*triple"):
        build_hierarchy(rows)


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
    p = NestingParams(0.5, 0.25)
    assert (p.sigma1, p.sigma2, p.ordering_ok) == (0.5, 0.25, True)
    assert NestingParams(0.25, 0.5).ordering_ok is False
    assert NestingParams(0.0, 0.0).ordering_ok is True


@pytest.mark.parametrize("bad", [(1.0, 0.5), (0.5, 1.0), (-0.1, 0.0), (0.0, -0.1), (float("nan"), 0.0)])
def test_validate_params_domain(bad):
    with pytest.raises(OutOfDomainError):
        NestingParams(*bad)


@pytest.mark.parametrize(
    "bad",
    [(1.0, 0.0), (0.0, 1.0), (float("nan"), 0.0), (0.0, float("inf")), (-1e-300, 0.0),
     (True, 0.0), ("0.5", 0.0), (None, 0.0), (10**400, 0.0)],
)
def test_nesting_params_cannot_be_built_invalid(bad):
    with pytest.raises(OutOfDomainError):
        NestingParams(*bad)


def test_nesting_params_fields_and_ordering_property():
    assert [f.name for f in dataclasses.fields(NestingParams)] == ["sigma1", "sigma2"]
    p = NestingParams(np.float64(0.5), 0)
    assert (p.sigma1, p.sigma2) == (0.5, 0.0) and type(p.sigma2) is float
    assert p.ordering_ok is True
    assert NestingParams(0.25, 0.5).ordering_ok is False
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.ordering_ok = False


def test_numpy_scalars_are_read_as_the_python_numbers_they_hold():
    # numpy 2 compares a float32 with a Python float in float32 (NEP 50), so a
    # bound past float32's range overflows in the cast: the four checks below
    # each warned, which pytest's filter makes an error
    from hierlogit import SynthConfig, compute_shares, fd_jacobian, numeric_invert

    tree = balanced_tree(2, 2, 2)
    delta = np.linspace(-1.0, 1.0, 8)
    step, tol = np.float32(1e-3), np.float32(1e-6)
    params = NestingParams(np.float32(0.5), np.float32(0.25))
    assert params == NestingParams(0.5, 0.25) and type(params.sigma1) is float
    config = SynthConfig(2, 2, 2, beta=[np.float32(1.0)])
    assert config == SynthConfig(2, 2, 2, beta=[1.0]) and type(config.beta[0]) is float
    got, want = (fd_jacobian(tree, delta, params, step=h) for h in (step, float(step)))
    assert got.matrix.tobytes() == want.matrix.tobytes() and got.outside_row.tobytes() == want.outside_row.tobytes()
    table, _ = compute_shares(tree, delta, params)
    got, want = (numeric_invert(tree, table, params, tol=t).values for t in (tol, float(tol)))
    assert got.tobytes() == want.tobytes()


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


def test_as_delta_array_keeps_complex_utilities_and_checks_both_parts():
    tree = build_hierarchy([("g1", "h1", "p1"), ("g1", "h1", "p2")])
    values = as_delta_array(tree, [1.0, 2.0 + 1e-200j])
    assert values.dtype == complex and values.tolist() == [1.0, 2.0 + 1e-200j]
    assert as_delta_array(tree, np.array([1, 2], dtype=np.float32)).dtype == float
    for bad in ([1.0, complex(0.0, np.inf)], [1.0, complex(np.nan, 0.0)]):
        with pytest.raises(OutOfDomainError, match="finite"):
            as_delta_array(tree, bad)


@pytest.mark.parametrize("parent, level", [
    ([[0, 0], [0, 1], [0, 2]], 2),  # a product under a third subgroup of two
    ([[0, 0], [1, 0], [0, 1]], 1),  # a subgroup of group 1 before one of group 0
    ([[0, 0], [0, 1], [0, 1, 1]], 2),  # three products of two
    ([[0, 0], [0, 0], [0, 1]], 1),  # group 1 without a subgroup
    ([[0, 0], [0, -1], [0, 1]], 1),
])
def test_choice_hierarchy_refuses_a_parent_out_of_range_unsorted_of_the_wrong_length_or_leaving_a_node_empty(
        parent, level):
    ids = [["m"], ["g0", "g1"], ["h0", "h1"], ["p0", "p1"]]
    with pytest.raises(OutOfDomainError, match=rf"parent\[{level}\]"):
        ChoiceHierarchy(ids, parent)


def test_choice_hierarchy_refuses_a_tree_of_no_market():
    with pytest.raises(OutOfDomainError, match="at least one market"):
        ChoiceHierarchy([[], [], [], []], [[], [], []])


def test_market_level_views_and_one_market_functions():
    from hierlogit import full_jacobian

    tree = market_tree([("m1", "g", "h", "a"), ("m2", "g", "h", "a"), ("m1", "g", "h", "b"), ("m2", "g", "k", "c")])
    assert tree.market_ids == ("m1", "m2") and tree.products == ("a", "b", "a", "c")
    np.testing.assert_array_equal(tree.product_market, [0, 0, 1, 1])
    np.testing.assert_array_equal(tree.bounds, [[0, 1, 2], [0, 1, 3], [0, 2, 4]])
    second = tree.markets(1, 2)
    assert second.market_ids == ("m2",) and second.group_ids == ("g",) and second.subgroup_ids == ("h", "k")
    np.testing.assert_array_equal(second.subgroup_group, [0, 0])
    np.testing.assert_array_equal(second.product_subgroup, [0, 1])
    # a range outside 0 <= start < stop <= n_markets has no tree
    for start, stop in ((-1, 2), (0, 0), (2, 1), (1, 1), (0, 3)):
        with pytest.raises(OutOfDomainError, match="markets"):
            tree.markets(start, stop)
    # the dense Jacobian compares products across the whole tree
    with pytest.raises(OutOfDomainError, match="one-market"):
        full_jacobian(tree, np.zeros(4), NestingParams(0.5, 0.25))
