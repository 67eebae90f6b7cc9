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
    # compared exactly, so an int past the double range is refused, not rounded
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
        """sigma2 <= sigma1, as the nested (simultaneous) reading of the model
        requires; sigma2 > sigma1 is still a valid sequential model."""
        return self.sigma2 <= self.sigma1


class ChoiceHierarchy:
    """Immutable choice tree of one or more markets, with flat index arrays.

    Markets, groups, subgroups and products are numbered market by market,
    each in order of first appearance (in the input rows for
    ``build_hierarchy``), so share vectors and Jacobian rows have a stable,
    reproducible layout. A market's groups, subgroups and products are
    contiguous. Instances are safe to share across threads.

    Attributes
    ----------
    market_ids, group_ids, subgroup_ids, products : tuples of str
        Ids in canonical order; all arrays and utility vectors are aligned
        to ``products``. Group and subgroup ids may repeat across markets.
    group_market, subgroup_group, product_subgroup : int arrays
        Flat market index of each group, group index of each subgroup and
        subgroup index of each product.
    product_group, product_market : int arrays over products
    bounds : int array of shape (3, n_markets + 1)
        ``bounds[:, m]`` is the first group, subgroup and product of market
        m, ``bounds[:, n_markets]`` one past the last of each.
    """

    def __init__(self, market_ids, group_market, group_ids, subgroup_group, subgroup_ids,
                 product_subgroup, products):
        self.market_ids = tuple(market_ids)
        self.group_ids = tuple(group_ids)
        self.subgroup_ids = tuple(subgroup_ids)
        self.products = tuple(products)
        self.group_market = np.asarray(group_market, dtype=np.intp)
        self.subgroup_group = np.asarray(subgroup_group, dtype=np.intp)
        self.product_subgroup = np.asarray(product_subgroup, dtype=np.intp)
        self.product_group = self.subgroup_group[self.product_subgroup]
        self.product_market = self.group_market[self.product_group]
        groups = np.searchsorted(self.group_market, np.arange(self.n_markets + 1))
        subgroups = np.searchsorted(self.subgroup_group, groups)
        self.bounds = np.array([groups, subgroups, np.searchsorted(self.product_subgroup, subgroups)])

    @property
    def subgroup_keys(self):
        """(group_id, subgroup_id) of every subgroup."""
        return tuple(zip((self.group_ids[g] for g in self.subgroup_group.tolist()), self.subgroup_ids))

    @property
    def n_markets(self):
        return len(self.market_ids)

    @property
    def n_products(self):
        return len(self.products)

    @property
    def n_subgroups(self):
        return len(self.subgroup_ids)

    @property
    def n_groups(self):
        return len(self.group_ids)

    def markets(self, start: int, stop: int) -> "ChoiceHierarchy":
        """The tree of markets ``start`` to ``stop - 1``, numbered from 0."""
        (g0, s0, p0), (g1, s1, p1) = self.bounds[:, [start, stop]].T.tolist()
        return ChoiceHierarchy(
            self.market_ids[start:stop], self.group_market[g0:g1] - start, self.group_ids[g0:g1],
            self.subgroup_group[s0:s1] - g0, self.subgroup_ids[s0:s1],
            self.product_subgroup[p0:p1] - s0, self.products[p0:p1],
        )

    def __repr__(self):
        return (
            f"ChoiceHierarchy(markets={self.n_markets}, groups={self.n_groups}, "
            f"subgroups={self.n_subgroups}, products={self.n_products})"
        )


@dataclass(frozen=True)
class MarketBlock:
    """The markets of a CSV: one tree, per-product values and, for shares
    input, each market's outside value (None otherwise)."""

    hierarchy: ChoiceHierarchy
    values: np.ndarray
    outside: np.ndarray | None

    def markets(self, start: int, stop: int) -> "MarketBlock":
        """The block of markets ``start`` to ``stop - 1``."""
        p0, p1 = self.hierarchy.bounds[2, [start, stop]].tolist()
        outside = None if self.outside is None else self.outside[start:stop]
        return MarketBlock(self.hierarchy.markets(start, stop), self.values[p0:p1], outside)


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
    market, group, subgroup, product = codes
    group_market, group_code, row_group = _first_seen(market, group)
    subgroup_group, subgroup_code, row_subgroup = _first_seen(row_group, subgroup)
    order = np.argsort(row_subgroup, kind="stable")
    group_ids, subgroup_ids, products = (np.fromiter(table, object, len(table))[c] for table, c in
                                         zip(tables[1:], (group_code, subgroup_code, product[order])))
    tree = ChoiceHierarchy(tables[0], group_market, group_ids, subgroup_group, subgroup_ids, row_subgroup[order],
                           products)
    return tree, order


def _finite_utilities(values) -> np.ndarray:
    values = np.atleast_1d(np.asarray(values, dtype=float))
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
    DuplicateProductError
        If a product id occurs twice anywhere in the market.
    """
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
    """Coerce a UtilityVector or array-like to a validated float array."""
    if isinstance(delta, UtilityVector):
        values = delta.values
    else:
        values = np.atleast_1d(np.asarray(delta, dtype=float))
    if values.shape != (hierarchy.n_products,):
        raise OutOfDomainError(
            f"expected {hierarchy.n_products} utilities, got shape {values.shape}"
        )
    return _finite_utilities(values)


def one_market(hierarchy: ChoiceHierarchy, what: str) -> None:
    """Refuse a tree of several markets where ``what`` works on one at a time."""
    if hierarchy.n_markets != 1:
        raise OutOfDomainError(
            f"{what} takes a one-market tree, got {hierarchy.n_markets} markets; "
            "see ChoiceHierarchy.markets"
        )
