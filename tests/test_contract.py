"""The public API's contract: a call returns a result or raises the package's own error.

Each case below is a hostile but plausible call that once escaped as a raw
numpy or Python error, a warning, or a silent wrong answer.
"""

import dataclasses
import functools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hierlogit
from hierlogit import (
    ChoiceCounts,
    ChoiceHierarchy,
    HierLogitError,
    NestingParams,
    OutOfDomainError,
    ShareJacobian,
    ShareTable,
    SimConfig,
    SynthConfig,
    UtilityVector,
    berry_invert,
    build_hierarchy,
    compute_shares,
    empirical_shares,
    estimate_linear,
    fd_jacobian,
    full_jacobian,
    generate_market,
    log_share_jacobian,
    max_relative_error,
    numeric_invert,
    regression_rows,
    simulate_choices,
)

from helpers import assert_same_tree

TREE, PARAMS = build_hierarchy([("g", "h", "a"), ("g", "k", "b")]), NestingParams(0.5, 0.25)
TABLE, _ = compute_shares(TREE, [0.1, 0.2], PARAMS)
JACOBIAN = full_jacobian(TREE, [0.1, 0.2], PARAMS)
ONE = build_hierarchy([("g", "h", "a")])
ROWS = ([1.0, 2.0, 3.0], [0.1, 0.2, 0.4], [0.3, 0.5, 0.4])
IDS = [["m"], ["g0", "g1"], ["h0", "h1"], ["p0", "p1"]]
# a group share of 0 beside finite joint logs
NO_GROUP = dataclasses.replace(TABLE, log_group=-np.inf)

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
    # an argument of the wrong type: a raw AttributeError
    "compute-shares-none-tree": (lambda: compute_shares(None, [0.1, 0.2], PARAMS),
                                 "^hierarchy must be a ChoiceHierarchy, not NoneType$"),
    "compute-shares-none-params": (lambda: compute_shares(TREE, [0.1, 0.2], None),
                                   "^params must be a NestingParams, not NoneType$"),
    "berry-invert-none-params": (lambda: berry_invert(TABLE, None), "^params must be a NestingParams, not NoneType$"),
    "berry-invert-none-table": (lambda: berry_invert(None, PARAMS), "^table must be a ShareTable, not NoneType$"),
    "regression-rows-none": (lambda: regression_rows(None), "^table must be a ShareTable, not NoneType$"),
    "numeric-invert-none-target": (lambda: numeric_invert(TREE, None, PARAMS),
                                   "^target must be a ShareTable, not NoneType$"),
    "full-jacobian-none-params": (lambda: full_jacobian(TREE, [0.1, 0.2], None),
                                  "^params must be a NestingParams, not NoneType$"),
    "fd-jacobian-none-tree": (lambda: fd_jacobian(None, [0.1, 0.2], PARAMS),
                              "^hierarchy must be a ChoiceHierarchy, not NoneType$"),
    "log-share-jacobian-none": (lambda: log_share_jacobian(None, PARAMS), "^table must be a ShareTable, not NoneType$"),
    "simulate-choices-none-config": (lambda: simulate_choices(TREE, [0.1, 0.2], PARAMS, None),
                                     "^config must be a SimConfig, not NoneType$"),
    "share-table-none-tree": (lambda: ShareTable(None, *(getattr(TABLE, f.name) for f in dataclasses.fields(TABLE)[1:])),
                              "^hierarchy must be a ChoiceHierarchy, not NoneType$"),
    "generate-market-none": (lambda: generate_market(None), "^config must be a SynthConfig, not NoneType$"),
    # a NaN log passed the bound check: log_share_jacobian returned a NaN column, berry_invert blamed the utilities
    "share-table-nan-log": (lambda: dataclasses.replace(TABLE, log_cond_product=np.array([np.nan, np.log(0.6)])),
                            "^log_cond_product holds NaN$"),
    "berry-invert-nan-group-log": (lambda: berry_invert(dataclasses.replace(TABLE, log_group=np.nan), PARAMS),
                                   "^log_group holds NaN$"),
    # a group share of 0 beside finite joint logs: berry_invert blamed the utilities, the others returned
    "berry-invert-zero-group-share": (lambda: berry_invert(NO_GROUP, PARAMS), "^inversion needs strictly positive"),
    "regression-rows-zero-group-share": (lambda: regression_rows(NO_GROUP), "^inversion needs strictly positive"),
    "numeric-invert-zero-group-share": (lambda: numeric_invert(TREE, NO_GROUP, PARAMS),
                                        "^inversion needs strictly positive shares everywhere$"),
    # accepted: max_relative_error then warned of an invalid divide, or returned NaN
    "share-jacobian-inf": (lambda: ShareJacobian(np.full((2, 2), np.inf), JACOBIAN.outside_row),
                           "^matrix must all be finite$"),
    "max-relative-error-inf": (lambda: max_relative_error(
        ShareJacobian(JACOBIAN.matrix, [np.inf, 0.0]), JACOBIAN, [1.0] * 3), "^outside_row must all be finite$"),
    "max-relative-error-nan-row-scale": (lambda: max_relative_error(JACOBIAN, JACOBIAN, [1.0, np.nan, 1.0]),
                                         "^row_scale must all be finite$"),
    # a RuntimeWarning from the sum's overflow
    "empirical-shares-overflow": (lambda: empirical_shares(ChoiceCounts([1e308, 1e308], [1e308])),
                                  r"^counts must not exceed 2\*\*53, the most draws SimConfig allows$"),
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


# arguments of every kind the public API takes, some of another size than the calls expect
TWO = ChoiceHierarchy([["m1", "m2"], ["g1", "g2"], ["h1", "h2"], ["a", "b"]], [[0, 1], [0, 1], [0, 1]])
TWO_TABLE, ONE_TABLE = compute_shares(TWO, [0.1, 0.2], PARAMS)[0], compute_shares(ONE, [0.3], PARAMS)[0]
COUNTS, SIM = ChoiceCounts(np.array([5, 3]), np.array([2])), SimConfig(draws=100, seed=1)
SYNTH = SynthConfig(2, 2, 2, beta=(1.0,), sigma1=0.4, sigma2=0.2, seed=3)
_SYNTH_TREE, _SYNTH_DELTA, COVARIATES = generate_market(SYNTH)
SYNTH_ROWS = regression_rows(compute_shares(_SYNTH_TREE, _SYNTH_DELTA, NestingParams(0.4, 0.2))[0])

# the hostile vocabulary: None, bool, complex, text, NaN and +-inf, numbers out of range, numpy
# scalars, a float where an int is meant, empty, wrongly shaped, non-finite and overflowing arrays,
# nested lists, and a tree, table or other argument of another size or kind
_ATOMS = [None, True, 1j, "a", "1.5", np.nan, np.inf, -np.inf, 0, -1, 0.5, 2.5, 1e308, 2**64,
          np.float64(0.5), np.int64(2), np.float32(np.nan), np.complex128(1j), np.array(1.0)]
HOSTILE = st.one_of(
    st.sampled_from(_ATOMS + [np.array([]), np.ones((2, 2)), np.ones((5, 1, 1)), np.array([0.1, np.nan]),
                              np.full((2, 2), np.inf), np.array([1e308, 1e308]),
                              ONE, TWO, ONE_TABLE, TWO_TABLE, PARAMS, COUNTS, JACOBIAN, SYNTH, SIM]),
    st.lists(st.sampled_from(_ATOMS) | st.lists(st.sampled_from(_ATOMS), max_size=3), max_size=3),
)

# each public callable's arguments in order, a list of good values for each; a drawn call takes one
# of them or a hostile value for every argument
ARGUMENTS = {
    **{name: [["a message"]] for name in hierlogit.__all__ if name.endswith("Error")},
    "ChoiceHierarchy": [[IDS], [[[0, 0], [0, 1], [0, 1]]]],
    "ChoiceHierarchy.markets": [[0], [2]],
    "NestingParams": [[0.5], [0.25]],
    "UtilityVector": [[[0.1, 0.2]]],
    "build_hierarchy": [[[("g", "h", "a"), ("g", "k", "b")]], ["m"]],
    "InclusiveValues": [[np.zeros(2)], [np.zeros(1)], [np.zeros(1)]],
    "ShareTable": [[TREE], *([getattr(TABLE, f.name)] for f in dataclasses.fields(ShareTable)[1:])],
    "ShareTable.from_joint": [[TREE, TWO], [TABLE.joint], [TABLE.outside]],
    "compute_shares": [[TREE, TWO], [[0.1, 0.2], UtilityVector([0.1, 0.2])], [PARAMS]],
    "berry_invert": [[TABLE, TWO_TABLE], [PARAMS]],
    "regression_rows": [[TABLE]],
    "numeric_invert": [[TREE], [TABLE], [PARAMS], [1e-9], [50]],
    "ShareJacobian": [[JACOBIAN.matrix], [JACOBIAN.outside_row]],
    "log_share_jacobian": [[TABLE], [PARAMS]],
    "full_jacobian": [[TREE], [[0.1, 0.2]], [PARAMS]],
    "fd_jacobian": [[TREE], [[0.1, 0.2]], [PARAMS], [1e-6]],
    "max_relative_error": [[JACOBIAN], [JACOBIAN], [[1.0, 1.0, 1.0]]],
    "SimConfig": [[100], [1]],
    "ChoiceCounts": [[np.array([5, 3])], [np.array([2])]],
    "simulate_choices": [[TREE, TWO], [[0.1, 0.2]], [PARAMS], [SIM]],
    "empirical_shares": [[COUNTS]],
    "SynthConfig": [[2], [2], [2], [(1.0,)], [(0.0, 1.0)], [0.0], [0.4], [0.2], [3]],
    "EstimationResult": [[np.ones(1)], [0.4], [0.2], [0.0]],
    "generate_market": [[SYNTH]],
    "estimate_linear": [[SYNTH_ROWS], [COVARIATES]],
}


def _public(name):
    """The callable of a key of ARGUMENTS: ``ChoiceHierarchy.markets`` is the method of ``TWO``."""
    return TWO.markets if name == "ChoiceHierarchy.markets" else functools.reduce(getattr, name.split("."), hierlogit)


CALLS = st.sampled_from(sorted(ARGUMENTS)).flatmap(lambda name: st.builds(
    functools.partial, st.just(_public(name)), *(st.sampled_from(good) | HOSTILE for good in ARGUMENTS[name])))

# rows, Jacobians and counts of the wrong shape or content: a raw ValueError, IndexError or AttributeError
SHAPES = {
    "estimate-linear-two-rows": (lambda: estimate_linear(SYNTH_ROWS[:2], COVARIATES), OutOfDomainError,
                                 r"^rows of shapes \[\(8,\), \(8,\)\] but covariates \(8, 1\)$"),
    "estimate-linear-three-numbers": (lambda: estimate_linear((1.0, 2.0, 3.0), COVARIATES), OutOfDomainError,
                                      r"^rows of shapes \[\(1,\), \(1,\), \(1,\)\]"),
    "estimate-linear-3d-covariates": (lambda: estimate_linear(SYNTH_ROWS, COVARIATES.reshape(-1, 1, 1)),
                                      OutOfDomainError, r"but covariates \(8, 1, 1\)$"),
    "max-relative-error-short-outside-row": (
        lambda: max_relative_error(ShareJacobian(JACOBIAN.matrix, JACOBIAN.outside_row[:1]), JACOBIAN, [1.0] * 3),
        OutOfDomainError, r"^a matrix of shape \(2, 2\) and an outside_row of \(1,\) do not fit$"),
    "empirical-shares-nan-count": (lambda: empirical_shares(ChoiceCounts(np.array([5.0, np.nan]), np.array([2]))),
                                   OutOfDomainError, "^counts must all be finite$"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, error, message", SHAPES.values(), ids=SHAPES.keys())
def test_a_call_of_the_wrong_shape_raises_the_packages_own_error(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.filterwarnings("error")
def test_counts_in_lists_are_counts():
    # once a raw AttributeError, from the list's missing .sum
    listed, arrays = (empirical_shares(ChoiceCounts(*c)) for c in (([5, 3], [2]), (np.array([5, 3]), np.array([2]))))
    assert all(map(np.array_equal, listed, arrays))


def test_the_package_has_five_errors():
    # every refused argument is an OutOfDomainError
    assert {name for name in hierlogit.__all__ if name.endswith("Error")} == {
        "HierLogitError", "OutOfDomainError", "MarketFileError", "NoConvergenceError", "SingularDesignError"}


def test_every_public_callable_has_arguments_to_draw():
    public = {name for name in hierlogit.__all__ if callable(getattr(hierlogit, name))}
    assert public <= set(ARGUMENTS), sorted(public - set(ARGUMENTS))


def _examples(test):
    """``test`` with every call of CASES and SHAPES as an explicit example."""
    for call, *_ in [*CASES.values(), *SHAPES.values()]:
        test = example(call=call)(test)
    return test


# a call that takes each kind of result: a Jacobian's comparison with itself, counts' frequencies and a
# table's log-share Jacobian
FOLLOW = {ShareJacobian: lambda j: max_relative_error(j, j, np.ones(len(j.matrix) + 1)),
          ChoiceCounts: empirical_shares, ShareTable: lambda table: log_share_jacobian(table, PARAMS)}


def _holds_nan(result) -> bool:
    """Whether a number, an array or a tuple of them holds NaN; a record's fields are its own arguments."""
    if isinstance(result, tuple):
        return any(map(_holds_nan, result))
    return isinstance(result, (float, np.ndarray)) and np.asarray(result).dtype.kind == "f" and np.isnan(result).any()


@_examples
@settings(max_examples=3000, derandomize=True, database=None, deadline=None)
@given(call=CALLS)
def test_every_public_call_returns_or_raises_the_packages_own_error(call):
    # a result holds no NaN, a silent wrong answer, and neither does what the call that takes it returns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call()
            assert not _holds_nan(result), result
            if type(result) in FOLLOW:
                assert not _holds_nan(FOLLOW[type(result)](result)), result
        except HierLogitError:
            pass
