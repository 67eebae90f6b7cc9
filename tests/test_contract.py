"""The public API's contract: a call returns a result or raises the package's own error.

Each case below is a hostile but plausible call that once escaped as a raw
numpy or Python error, a warning, or a silent wrong answer.
"""

import dataclasses

import numpy as np
import pytest

from hierlogit import (
    ChoiceCounts,
    ChoiceHierarchy,
    NestingParams,
    OutOfDomainError,
    UtilityVector,
    berry_invert,
    build_hierarchy,
    compute_shares,
    empirical_shares,
    estimate_linear,
    full_jacobian,
    max_relative_error,
)

from helpers import assert_same_tree

TREE, PARAMS = build_hierarchy([("g", "h", "a"), ("g", "k", "b")]), NestingParams(0.5, 0.25)
TABLE, _ = compute_shares(TREE, [0.1, 0.2], PARAMS)
JACOBIAN = full_jacobian(TREE, [0.1, 0.2], PARAMS)
ONE = build_hierarchy([("g", "h", "a")])
ROWS = ([1.0, 2.0, 3.0], [0.1, 0.2, 0.4], [0.3, 0.5, 0.4])
IDS = [["m"], ["g0", "g1"], ["h0", "h1"], ["p0", "p1"]]

CASES = {
    # complex utilities: a raw TypeError from a list, a ComplexWarning from an array
    "utility-vector-complex-list": (lambda: UtilityVector([1 + 1j, 2.0]), "^utility values must be real numbers$"),
    "utility-vector-complex-array": (lambda: UtilityVector(np.array([1 + 1j, 2.0])), "must be real numbers"),
    # text: a raw ValueError
    "utility-vector-text": (lambda: UtilityVector(["a"]), "must be real numbers"),
    "utility-vector-numeric-text": (lambda: UtilityVector(["1.5"]), "must be real numbers"),
    "compute-shares-text": (lambda: compute_shares(TREE, ["a", "b"], PARAMS), "must be real numbers"),
    "utility-vector-ragged": (lambda: UtilityVector([1.0, [2.0, 3.0]]), "must be real numbers"),
    # kept as a 2-D array
    "utility-vector-2d": (lambda: UtilityVector(np.ones((2, 2))),
                          r"^utility values must lie in one dimension, got shape \(2, 2\)$"),
    # an empty log_outside raised an IndexError in berry_invert; two entries inverted from the first
    "share-table-empty-outside": (lambda: berry_invert(dataclasses.replace(TABLE, log_outside=np.array([])), PARAMS),
                                  r"^log_outside of shape \(0,\) is not one entry per node of level 0$"),
    "share-table-two-outside": (lambda: berry_invert(dataclasses.replace(TABLE, log_outside=np.log([0.5] * 2)), PARAMS),
                                r"^log_outside of shape \(2,\)"),
    "share-table-short-log": (lambda: dataclasses.replace(TABLE, log_joint=TABLE.log_joint[:1]),
                              r"^log_joint of shape \(1,\) is not one entry per node of level 3$"),
    "share-table-subgroups-of-groups": (lambda: dataclasses.replace(TABLE, log_cond_subgroup=TABLE.log_group),
                                        r"^log_cond_subgroup of shape \(1,\)"),
    "share-table-text": (lambda: dataclasses.replace(TABLE, log_group="a"), "^log_group must be real numbers$"),
    # a raw TypeError
    "estimate-linear-complex-rows": (lambda: estimate_linear(([1j, 2.0, 3.0], *ROWS[1:]), [[1.0], [2.0], [3.0]]),
                                     "^regression rows must be real numbers$"),
    "estimate-linear-text-covariates": (lambda: estimate_linear(ROWS, [["a"], ["b"], ["c"]]),
                                        "^covariates must be real numbers$"),
    # a raw ValueError, from unpacking
    "hierarchy-three-levels": (lambda: ChoiceHierarchy([["m"], ["g"], ["p"]], [[0], [0]]),
                               "^a tree has 4 levels of ids and 3 of parents, got 3, 2$"),
    "hierarchy-two-parents": (lambda: ChoiceHierarchy(IDS, [[0, 0], [0, 1]]), "got 4, 2$"),
    # silently truncated to 0 and 1
    "hierarchy-parent-0.9": (lambda: ChoiceHierarchy([["m"], ["g"], ["h"], ["p"]], [[0.9], [0], [0]]),
                             r"^parent\[0\]"),
    "hierarchy-parent-1.7": (lambda: ChoiceHierarchy(IDS, [[0, 0], [0, 1.7], [0, 1]]), r"^parent\[1\]"),
    # numpy's cast of NaN or inf to an integer warns, or raises a raw ValueError from a list
    "hierarchy-parent-nan": (lambda: ChoiceHierarchy(IDS, [[0, 0], [0, np.nan], [0, 1]]), r"^parent\[1\]"),
    "hierarchy-parent-inf": (lambda: ChoiceHierarchy(IDS, np.array([[0, 0], [np.inf, np.inf], [0, 1]])),
                             r"^parent\[1\]"),
    "hierarchy-parent-huge": (lambda: ChoiceHierarchy(IDS, [[0, 0], [-1e308, 1e308], [0, 1]]), r"^parent\[1\]"),
    # a ComplexWarning, and raw errors from numpy's subtraction
    "hierarchy-parent-complex": (lambda: ChoiceHierarchy(IDS, [[0, 0], [0j, 1 + 0j], [0, 1]]), r"^parent\[1\]"),
    "hierarchy-parent-text": (lambda: ChoiceHierarchy(IDS, [[0, 0], ["0", "1"], [0, 1]]), r"^parent\[1\]"),
    "hierarchy-parent-none": (lambda: ChoiceHierarchy(IDS, [[0, 0], [None, 1], [0, 1]]), r"^parent\[1\]"),
    # a raw ValueError, from broadcasting
    "max-relative-error-two-sizes": (lambda: max_relative_error(JACOBIAN, full_jacobian(ONE, [0.1], PARAMS), [1.0] * 3),
                                     r"^Jacobians of shapes \(3, 2\) and \(2, 1\)"),
    "max-relative-error-short-row-scale": (lambda: max_relative_error(JACOBIAN, JACOBIAN, [1.0, 1.0]),
                                           r"and a row_scale of \(2,\) differ$"),
    # a RuntimeWarning from sqrt
    "empirical-shares-negative-count": (lambda: empirical_shares(ChoiceCounts(np.array([5, -1]), np.array([2]))),
                                        "^empirical shares need at least one draw and no negative count$"),
    # silently took the dict's keys as the triple
    "build-hierarchy-mapping": (lambda: build_hierarchy([{"g": 1, "h": 2, "p": 3}]),
                                r"^row 0, \{'g': 1, 'h': 2, 'p': 3\}, is not a "
                                r"\(group_id, subgroup_id, product_id\) triple$"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, message", CASES.values(), ids=CASES.keys())
def test_a_hostile_call_raises_the_packages_own_error(call, message):
    with pytest.raises(OutOfDomainError, match=message):
        call()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dtype", [np.intp, np.int32, np.uint8, float])
def test_a_tree_takes_parents_of_whole_numbers_of_any_numeric_dtype(dtype):
    parent = [np.array(p, dtype=dtype) for p in ([0, 0], [0, 1], [0, 1])]
    tree = ChoiceHierarchy(IDS, parent)
    assert all(p.dtype == np.intp for p in tree.parent)
    assert [p.tolist() for p in tree.parent] == [[0, 0], [0, 1], [0, 1]]
    assert_same_tree(tree, ChoiceHierarchy(IDS, [[0, 0], [0, 1], [0, 1]]))
    # an integer array of the platform's width is kept as it is
    assert (tree.parent[1] is parent[1]) == (dtype is np.intp)
