"""Two-level choice trees (markets -> groups -> subgroups -> products) and model parameters.

The outside option is never stored as a product: it is an implicit extra
group whose inclusive value is fixed at zero by every consumer of the tree.
"""

import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DuplicateProductError, EmptyInputError, OutOfDomainError

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
    above the products has a child (OutOfDomainError otherwise, for a
    ``parent`` of the wrong length, or for a tree of no market).
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
        self.ids = tuple(map(tuple, ids))
        self.parent = tuple(np.asarray(p, dtype=np.intp) for p in parent)
        self.market_ids, self.group_ids, self.subgroup_ids, self.products = self.ids
        self.group_market, self.subgroup_group, self.product_subgroup = self.parent
        self.n_markets, self.n_groups, self.n_subgroups, self.n_products = map(len, self.ids)
        if not self.n_markets:
            raise OutOfDomainError("a tree needs at least one market")
        for level, (up, below) in enumerate(zip(self.parent, self.ids[1:])):
            n = len(self.ids[level])
            # from node 0 to node n - 1 in steps of 0 or 1: sorted, and every node above has a child
            steps = np.diff(up.ravel(), prepend=-1, append=n)
            if up.shape != (len(below),) or not steps[0] == steps[-1] == 1 or np.any((steps < 0) | (steps > 1)):
                raise OutOfDomainError(f"parent[{level}] must give each of the {len(below)} nodes of level "
                                       f"{level + 1} one of the {n} nodes of level {level}, in sorted order, "
                                       "leaving none childless")
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
        """The tree of markets ``start`` to ``stop - 1``, numbered from 0; needs 0 <= start < stop <= n_markets."""
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


def _finite_utilities(values, dtype=float) -> np.ndarray:
    values = np.atleast_1d(np.asarray(values, dtype=dtype))
    if not np.all(np.isfinite(values)):
        raise OutOfDomainError("utility values must all be finite")
    return values


@dataclass(frozen=True)
class UtilityVector:
    """Mean utilities, one per inside product, aligned to hierarchy order."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _finite_utilities(self.values))

    def __len__(self):
        return len(self.values)


def build_hierarchy(rows, market_id: str = "") -> ChoiceHierarchy:
    """Build a one-market ChoiceHierarchy from (group_id, subgroup_id, product_id) rows.

    Ordering of groups, subgroups, and products follows first appearance in
    ``rows``, so identical inputs always produce identical trees.

    Raises
    ------
    EmptyInputError
        If ``rows`` is empty.
    OutOfDomainError
        If a row is not a (group_id, subgroup_id, product_id) triple; the first such row is named.
    DuplicateProductError
        If a product id occurs twice anywhere in the market.
    """
    rows = list(map(tuple, rows))
    bad = next((i for i, row in enumerate(rows) if len(row) != 3), None)
    if bad is not None:
        raise OutOfDomainError(f"row {bad}, {rows[bad]!r}, is not a (group_id, subgroup_id, product_id) triple")
    columns = list(zip(*rows))
    if not columns:
        raise EmptyInputError("cannot build a hierarchy from zero rows")
    tables, codes = zip(*map(numbered, columns))
    products, n = columns[2], len(columns[2])
    # the first row at fault: a reserved id or a repeated one
    reserved = products.index(OUTSIDE_ID) if OUTSIDE_ID in tables[2] else n
    repeat = first_repeat(codes[2])
    if min(reserved, repeat) < n:
        raise DuplicateProductError(
            f"product id {OUTSIDE_ID!r} is reserved for the outside option" if reserved <= repeat
            else f"product id {products[repeat]!r} appears more than once")
    tree, _ = tree_from_codes(([market_id], *tables), (np.zeros(n, np.intp), *codes))
    return tree


def as_delta_array(hierarchy: ChoiceHierarchy, delta) -> np.ndarray:
    """Coerce a UtilityVector or array-like to a validated float array, complex where ``delta`` is."""
    values = delta.values if isinstance(delta, UtilityVector) else np.atleast_1d(
        np.asarray(delta, dtype=complex if np.iscomplexobj(delta) else float))
    if values.shape != (hierarchy.n_products,):
        raise OutOfDomainError(f"expected {hierarchy.n_products} utilities, got shape {values.shape}")
    return _finite_utilities(values, values.dtype)


def one_market(hierarchy: ChoiceHierarchy, what: str) -> None:
    """Refuse a tree of several markets where ``what`` works on one at a time."""
    if hierarchy.n_markets != 1:
        raise OutOfDomainError(
            f"{what} takes a one-market tree, got {hierarchy.n_markets} markets; "
            "see ChoiceHierarchy.markets"
        )
