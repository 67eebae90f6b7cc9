"""Two-level choice tree (market -> groups -> subgroups -> products) and model parameters.

The outside option is never stored as a product: it is an implicit extra
group whose inclusive value is fixed at zero by every consumer of the tree.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DuplicateProductError, EmptyInputError, OutOfDomainError

#: Reserved id used for the outside option in files.
OUTSIDE_ID = "_outside"


@dataclass(frozen=True)
class NestingParams:
    """Nesting parameters (sigma1, sigma2), each in [0, 1).

    ``ordering_ok`` is True when sigma2 <= sigma1, the ordering required by
    the nested (simultaneous) interpretation of the model. sigma2 > sigma1
    is still a valid sequential model, so it is flagged rather than
    rejected; strict callers can check the flag.
    """

    sigma1: float
    sigma2: float
    ordering_ok: bool


def validate_params(sigma1: float, sigma2: float) -> NestingParams:
    """Check both nesting parameters against the half-open domain [0, 1).

    sigma = 1 would zero out the scale 1 - sigma used in every exponent,
    so the boundary is excluded rather than special-cased.

    Raises
    ------
    OutOfDomainError
        If either parameter is outside [0, 1) or not finite.
    """
    for name, value in (("sigma1", sigma1), ("sigma2", sigma2)):
        value = float(value)
        if not 0.0 <= value < 1.0:
            raise OutOfDomainError(f"{name}={value!r} must lie in [0, 1)")
    return NestingParams(float(sigma1), float(sigma2), ordering_ok=float(sigma2) <= float(sigma1))


class ChoiceHierarchy:
    """Immutable two-level choice tree with flat index arrays.

    Built from a mapping group_id -> subgroup_id -> list of product ids.
    Products, subgroups, and groups are numbered in the mapping's order
    (first appearance of the input rows for ``build_hierarchy``), so share
    vectors and Jacobian rows have a stable, reproducible layout. Instances
    are safe to share across threads.

    Attributes
    ----------
    market_id : str
    products : tuple of str
        Product ids in canonical (first-appearance) order; all arrays and
        utility vectors are aligned to this order.
    subgroup_keys : tuple of (group_id, subgroup_id)
        Flat enumeration of subgroups; ``subgroup_keys[product_subgroup[j]]``
        names the group and subgroup of product j.
    group_ids : tuple of str
    product_subgroup, product_group : int arrays over products
        Flat subgroup/group index of each product.
    subgroup_group : int array over subgroups
        Flat group index of each subgroup.
    """

    def __init__(self, tree, market_id=""):
        self.market_id = market_id

        products = []
        subgroup_keys = []
        sub_grp = []
        sub_size = []
        for gi, (group_id, subgroups) in enumerate(tree.items()):
            for subgroup_id, product_ids in subgroups.items():
                subgroup_keys.append((group_id, subgroup_id))
                sub_grp.append(gi)
                sub_size.append(len(product_ids))
                products.extend(product_ids)

        self.products = tuple(products)
        self.subgroup_keys = tuple(subgroup_keys)
        self.group_ids = tuple(tree)
        self.subgroup_group = np.asarray(sub_grp, dtype=np.intp)
        # products of one subgroup are contiguous in canonical order
        self.product_subgroup = np.repeat(np.arange(len(subgroup_keys), dtype=np.intp), sub_size)
        self.product_group = self.subgroup_group[self.product_subgroup]

    @property
    def n_products(self):
        return len(self.products)

    @property
    def n_subgroups(self):
        return len(self.subgroup_keys)

    @property
    def n_groups(self):
        return len(self.group_ids)

    def __repr__(self):
        return (
            f"ChoiceHierarchy(market_id={self.market_id!r}, groups={self.n_groups}, "
            f"subgroups={self.n_subgroups}, products={self.n_products})"
        )


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
    """Build a ChoiceHierarchy from (group_id, subgroup_id, product_id) rows.

    Ordering of groups, subgroups, and products follows first appearance in
    ``rows``, so identical inputs always produce identical trees.

    Raises
    ------
    EmptyInputError
        If ``rows`` is empty.
    DuplicateProductError
        If a product id occurs twice anywhere in the market.
    """
    seen = set()
    tree: dict = {}
    for group_id, subgroup_id, product_id in rows:
        if product_id == OUTSIDE_ID:
            raise DuplicateProductError(
                f"product id {OUTSIDE_ID!r} is reserved for the outside option"
            )
        if product_id in seen:
            raise DuplicateProductError(f"product id {product_id!r} appears more than once")
        seen.add(product_id)
        tree.setdefault(group_id, {}).setdefault(subgroup_id, []).append(product_id)
    if not tree:
        raise EmptyInputError("cannot build a hierarchy from zero rows")
    return ChoiceHierarchy(tree, market_id=market_id)


def as_delta_array(hierarchy: ChoiceHierarchy, delta) -> np.ndarray:
    """Coerce a UtilityVector or array-like to a validated float array."""
    values = delta.values if isinstance(delta, UtilityVector) else _finite_utilities(delta)
    if values.shape != (hierarchy.n_products,):
        raise OutOfDomainError(
            f"expected {hierarchy.n_products} utilities, got shape {values.shape}"
        )
    return values
