"""Two-level choice trees (markets -> groups -> subgroups -> products) and model parameters.

The outside option is never stored as a product: it is an implicit extra
group whose inclusive value is fixed at zero by every consumer of the tree.
"""

import numbers
import sys
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomainError

#: Reserved id used for the outside option in files.
OUTSIDE_ID = "_outside"
#: The columns of a market CSV that the CLI reads.
MARKET_COLUMNS = ("market_id", "group_id", "subgroup_id", "product_id", "value")


def _number(name: str, value, integral: bool = False):
    """Finite ``value`` as a float, or as an int where ``integral``; a bool is not a number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise OutOfDomainError(f"{name}={value!r} is not a number")
    # as a Python number, compared exactly: no bound cast to float32 (NEP 50), no int past the doubles rounded
    value = value.item() if isinstance(value, np.generic) else value
    if not abs(value) <= sys.float_info.max or (integral and value != int(value)):
        raise OutOfDomainError(f"{name}={value!r} must be a finite {'integer' if integral else 'number'}")
    return int(value) if integral else float(value)


def _instance(name: str, value, kind):
    """``value`` if it is a ``kind``; OutOfDomainError naming the argument and the type it needs otherwise."""
    if not isinstance(value, kind):
        raise OutOfDomainError(f"{name} must be a {kind.__name__}, not {type(value).__name__}")
    return value


def _sequence(name: str, value, kind=tuple):
    """``kind(value)``; OutOfDomainError where that fails: None, a number or a 0-d array is no sequence."""
    try:
        return kind(value)
    except (TypeError, ValueError) as err:  # not iterable, or a ragged list made an array
        raise OutOfDomainError(f"{name} is not a sequence of what it needs: {err}") from None


def _real_array(name: str, values, length=None, mismatch="", finite=False) -> np.ndarray:
    """``values`` as a float array, else OutOfDomainError: "``name`` must be real numbers" for complex values, text,
    None or a ragged list; ``mismatch``, its ``{shape}`` filled in, unless of one dimension and ``length``
    values where that is given (-1: any; a number is one value); "``name`` must all be finite" if ``finite``."""
    try:
        if (values := np.asarray(values)).dtype.kind not in "biuf":
            raise ValueError(values.dtype)
    except ValueError:  # not of a real dtype, or a ragged list, which numpy refuses
        raise OutOfDomainError(f"{name} must be real numbers") from None
    values = values.astype(float, copy=False)
    if length is not None and ((values := np.atleast_1d(values)).ndim != 1 or length not in (-1, len(values))):
        raise OutOfDomainError(mismatch.format(shape=values.shape))
    if finite and not np.isfinite(values).all():
        raise OutOfDomainError(f"{name} must all be finite")
    return values


@dataclass(frozen=True)
class NestingParams:
    """Nesting parameters (sigma1, sigma2), each in the half-open domain [0, 1).

    sigma = 1 would zero out the scale 1 - sigma used in every exponent,
    so the boundary is excluded rather than special-cased.

    Raises
    ------
    OutOfDomainError
        If either parameter is not a number or lies outside [0, 1).
    """

    sigma1: float
    sigma2: float

    def __post_init__(self):
        for name in ("sigma1", "sigma2"):
            value = _number(name, getattr(self, name))
            if not 0.0 <= value < 1.0:
                raise OutOfDomainError(f"{name}={value!r} must lie in [0, 1)")
            object.__setattr__(self, name, value)

    @property
    def ordering_ok(self) -> bool:
        """sigma2 <= sigma1, the paper's distributional assumption: the nested reading draws a positive
        stable term per subgroup, of index (1 - sigma1) / (1 - sigma2), which must not exceed 1. For
        sigma2 > sigma1 only the sequential reading is a random-utility model, with the same shares."""
        return self.sigma2 <= self.sigma1


class ChoiceHierarchy:
    """Immutable choice tree of one or more markets, stored by level.

    Level 0 holds the markets, 1 the groups, 2 the subgroups and 3 the
    products. ``ids[l]`` are the ids of level l (group and subgroup ids may
    repeat across markets) and ``parent[l]`` the level-l node above each
    node of level l + 1. Each level is numbered market by market in order of
    first appearance (in the input rows for ``build_hierarchy``), so share
    vectors and Jacobian rows have a stable, reproducible layout; a market's
    nodes are contiguous, so each ``parent`` array is sorted, and every node
    above the products has a child. OutOfDomainError otherwise: for ids of
    other than four levels or parents of other than three, a parent value
    that is not a whole number, a ``parent`` of the wrong length, or no market.
    Instances are safe to share across threads.

    Attributes
    ----------
    ids, parent : tuples of the arguments; arrays and utility vectors align to ``ids[3]``
    above : tuple of int arrays, ``above[l]`` each product's node at level l
    market_ids, group_ids, subgroup_ids, products : ``ids`` by level
    group_market, subgroup_group, product_subgroup : ``parent`` by level
    product_market, product_group : ``above[0]`` and ``above[1]``
    n_markets, n_groups, n_subgroups, n_products : the sizes of the levels
    bounds : int array of shape (3, n_markets + 1)
        ``bounds[:, m]`` is the first group, subgroup and product of market
        m, ``bounds[:, n_markets]`` one past the last of each.
    """

    def __init__(self, ids, parent):
        self.ids = _sequence("ids", ids, lambda levels: tuple(map(tuple, levels)))
        parent = _sequence("parent", parent, lambda levels: tuple(map(np.asarray, levels)))
        if len(self.ids) != 4 or len(parent) != 3:
            raise OutOfDomainError(f"a tree has 4 levels of ids and 3 of parents, got {len(self.ids)}, {len(parent)}")
        self.market_ids, self.group_ids, self.subgroup_ids, self.products = self.ids
        self.n_markets, self.n_groups, self.n_subgroups, self.n_products = map(len, self.ids)
        if not self.n_markets:
            raise OutOfDomainError("a tree needs at least one market")
        for level, (up, below) in enumerate(zip(parent, self.ids[1:])):
            n = len(self.ids[level])
            # from node 0 to node n - 1 in steps of 0 or 1: whole numbers, sorted, and every node above has a child
            with np.errstate(invalid="ignore", over="ignore"):  # NaN, inf - inf and what is not a number: neither
                steps = np.diff(up.ravel(), prepend=-1, append=n) if up.dtype.kind in "biuf" else np.array([np.nan])
            if up.shape != (len(below),) or not steps[0] == steps[-1] == 1 or not np.all((steps == 0) | (steps == 1)):
                raise OutOfDomainError(f"parent[{level}] must give each of the {len(below)} nodes of level "
                                       f"{level + 1} one of the {n} nodes of level {level}, in sorted order, "
                                       "leaving none childless")
        self.parent = tuple(up.astype(np.intp, copy=False) for up in parent)
        self.group_market, self.subgroup_group, self.product_subgroup = self.parent
        above = [np.arange(self.n_products)]
        for up in reversed(self.parent):
            above.append(up[above[-1]])
        self.above = tuple(reversed(above))
        self.product_market, self.product_group = self.above[:2]
        bounds = [np.arange(self.n_markets + 1)]
        for up in self.parent:
            bounds.append(np.searchsorted(up, bounds[-1]))
        self.bounds = np.array(bounds[1:])

    def markets(self, start: int, stop: int) -> "ChoiceHierarchy":
        """The tree of markets ``start`` to ``stop - 1``, numbered from 0; needs ints 0 <= start < stop <= n_markets."""
        start, stop = _number("start", start, integral=True), _number("stop", stop, integral=True)
        if not 0 <= start < stop <= self.n_markets:
            raise OutOfDomainError(f"markets({start!r}, {stop!r}) needs 0 <= start < stop <= {self.n_markets}")
        lo, hi = (np.append(m, self.bounds[:, m]).tolist() for m in (start, stop))
        return ChoiceHierarchy([ids[a:b] for ids, a, b in zip(self.ids, lo, hi)],
                               [up[a:b] - first for up, a, b, first in zip(self.parent, lo[1:], hi[1:], lo)])

    def __repr__(self):
        sizes = zip(("markets", "groups", "subgroups", "products"), map(len, self.ids))
        return f"ChoiceHierarchy({', '.join(f'{level}={n}' for level, n in sizes)})"


def numbered(column) -> tuple:
    """The distinct entries of ``column`` by first appearance, and each entry's position among them."""
    table = {}
    codes = [table.setdefault(x, len(table)) for x in column]
    return list(table), np.array(codes, dtype=np.intp)


def first_repeat(key) -> int:
    """Index of the first entry of ``key`` equal to an earlier one; ``len(key)`` if none."""
    order = np.argsort(key, kind="stable")
    return int(order[1:][key[order[1:]] == key[order[:-1]]].min(initial=len(key)))


def _first_seen(parent, child) -> tuple:
    """The distinct (parent, child) code pairs of the rows, by parent and then by
    first row: the parent and the child of each pair, and each row's pair."""
    _, first, pair = np.unique(parent.astype(np.int64) * (int(child.max()) + 1) + child,
                               return_index=True, return_inverse=True)
    ranked = np.lexsort((first, parent[first]))
    number = np.empty_like(ranked)
    number[ranked] = np.arange(len(ranked))
    return parent[first[ranked]], child[first[ranked]], number[pair.ravel()]


def tree_from_codes(tables, codes) -> tuple:
    """The ChoiceHierarchy of rows given as codes into the market, group,
    subgroup and product id ``tables``, and the rows in product order.
    Markets keep their codes, and each holds a row; groups in each market and
    subgroups in each group come by first appearance, products by row."""
    row, ids, parent = codes[0], [tables[0]], []
    for table, child in zip(tables[1:3], codes[1:3]):
        up, code, row = _first_seen(row, child)
        ids.append(np.fromiter(table, object, len(table))[code])
        parent.append(up)
    order = np.argsort(row, kind="stable")
    ids.append(np.fromiter(tables[3], object, len(tables[3]))[codes[3][order]])
    tree = ChoiceHierarchy(ids, (*parent, row[order]))
    return tree, order


@dataclass(frozen=True)
class UtilityVector:
    """Mean utilities, one per inside product, aligned to hierarchy order: real and finite, in one dimension
    (a number is one value); OutOfDomainError otherwise, from ``_real_array`` as for every utility argument."""

    values: np.ndarray

    def __post_init__(self):
        one_dimension = "utility values must lie in one dimension, got shape {shape}"
        object.__setattr__(self, "values", _real_array("utility values", self.values, -1, one_dimension, finite=True))

    def __len__(self):
        return len(self.values)


def build_hierarchy(rows, market_id: str = "") -> ChoiceHierarchy:
    """Build a one-market ChoiceHierarchy from (group_id, subgroup_id, product_id) rows.

    Ordering of groups, subgroups, and products follows first appearance in
    ``rows``, so identical inputs always produce identical trees.

    Raises
    ------
    OutOfDomainError
        If ``rows`` is empty, a row is not a (group_id, subgroup_id, product_id) triple of hashable ids (the
        first such row is named), or a product id occurs twice anywhere in the market or is reserved.
    """
    rows = _sequence("rows", rows, list)
    # a string is a sequence of its characters and a mapping one of its keys, not of three ids; a 0-d array is none
    triples = [tuple(r) if isinstance(r, Iterable) and getattr(r, "ndim", 1)
               and not isinstance(r, (str, bytes, Mapping)) else () for r in rows]
    for i, row in enumerate(triples):
        if len(row) != 3:
            raise OutOfDomainError(f"row {i}, {rows[i]!r}, is not a (group_id, subgroup_id, product_id) triple")
        try:
            hash(row)
        except TypeError:
            raise OutOfDomainError(f"row {i}, {rows[i]!r}, holds an id that is not hashable") from None
    columns = list(zip(*triples))
    if not columns:
        raise OutOfDomainError("cannot build a hierarchy from zero rows")
    tables, codes = zip(*map(numbered, columns))
    products, n = columns[2], len(columns[2])
    # the first row at fault: a reserved id or a repeated one
    reserved = products.index(OUTSIDE_ID) if OUTSIDE_ID in tables[2] else n
    repeat = first_repeat(codes[2])
    if min(reserved, repeat) < n:
        raise OutOfDomainError(
            f"product id {OUTSIDE_ID!r} is reserved for the outside option" if reserved <= repeat
            else f"product id {products[repeat]!r} appears more than once")
    tree, _ = tree_from_codes(([market_id], *tables), (np.zeros(n, np.intp), *codes))
    return tree


def as_delta_array(hierarchy: ChoiceHierarchy, delta) -> np.ndarray:
    """Coerce a UtilityVector or array-like to a validated float array, one utility per product."""
    n = _instance("hierarchy", hierarchy, ChoiceHierarchy).n_products
    return _real_array("utility values", delta.values if isinstance(delta, UtilityVector) else delta, n,
                       f"expected {n} utilities, got shape {{shape}}", finite=True)


def one_market(hierarchy: ChoiceHierarchy, what: str) -> None:
    """Refuse a tree of several markets where ``what`` works on one at a time."""
    if _instance("hierarchy", hierarchy, ChoiceHierarchy).n_markets != 1:
        raise OutOfDomainError(f"{what} takes a one-market tree, got {hierarchy.n_markets} markets; "
                               "see ChoiceHierarchy.markets")
