"""Monte Carlo simulation of the sequential choice process.

Each simulated consumer walks the tree top down with independent standard
Gumbel shocks: pick the group maximizing I_g + z_g (the outside option
enters with inclusive value 0 and its own shock), then the subgroup
maximizing I_hg + (1-sigma2)*z_h within the chosen group, then the product
maximizing delta_j + (1-sigma1)*e_j within the chosen subgroup. Additive
stage constants (the Euler-constant terms of the stage value functions)
drop out of every argmax and are omitted.

Determinism is positional: consumer i always consumes the same aligned
block of the Philox counter stream for a given seed, whatever chunks the
draws run in (about 2**20 shock doubles each), so serial and chunked (or
parallel) runs produce bit-identical counts. Philox emits four 64-bit words
per counter increment, hence the per-draw block is padded to a multiple of
four doubles.
"""

from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomainError
from .hierarchy import ChoiceHierarchy, NestingParams, _number, as_delta_array
from .shares import compute_shares

__all__ = [
    "SimConfig",
    "ChoiceCounts",
    "simulate_choices",
    "empirical_shares",
]

# one Philox counter increment yields four 64-bit words, i.e. four doubles
_WORDS_PER_ADVANCE = 4
# smallest value Generator.random can emit besides 0.0; clamping keeps the
# double log transform finite
_TINY_UNIFORM = 2.0**-53
# shock doubles per chunk of draws: 8 MB per chunk-sized array
_CHUNK_WORDS = 2**20


@dataclass(frozen=True)
class SimConfig:
    """Simulation size and seed, both integers."""

    draws: int
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "draws", _number("draws", self.draws, integral=True))
        object.__setattr__(self, "seed", _number("seed", self.seed, integral=True))
        if self.draws < 1:
            raise OutOfDomainError(f"draws={self.draws!r} must be >= 1")
        # the Philox key is 128 bits wide
        if not 0 <= self.seed < 2**128:
            raise OutOfDomainError(f"seed={self.seed!r} must lie in [0, 2**128)")


@dataclass(frozen=True)
class ChoiceCounts:
    """Chosen-alternative tallies: one count per inside product plus outside."""

    counts: np.ndarray
    outside_count: int

    @property
    def total(self) -> int:
        return int(self.counts.sum()) + int(self.outside_count)


def _gumbel_from_uniform(u: np.ndarray) -> np.ndarray:
    return -np.log(-np.log(np.maximum(u, _TINY_UNIFORM)))


def _draw_stride(hierarchy: ChoiceHierarchy) -> int:
    raw = (hierarchy.n_groups + 1) + hierarchy.n_subgroups + hierarchy.n_products
    return -(-raw // _WORDS_PER_ADVANCE) * _WORDS_PER_ADVANCE


def simulate_choices(
    hierarchy: ChoiceHierarchy,
    delta,
    params: NestingParams,
    config: SimConfig,
) -> ChoiceCounts:
    """Simulate ``config.draws`` sequential choices and tally them."""
    delta = as_delta_array(hierarchy, delta)
    _, iv = compute_shares(hierarchy, delta, params)
    n_grp = hierarchy.n_groups
    n_sub = hierarchy.n_subgroups
    n_prod = hierarchy.n_products
    stride = _draw_stride(hierarchy)

    group_values = np.append(iv.group, 0.0)
    sub_scale = 1.0 - params.sigma2
    prod_scale = 1.0 - params.sigma1

    counts = np.zeros(n_prod, dtype=np.int64)
    outside_count = 0
    chunk = max(1, _CHUNK_WORDS // stride)
    start = 0
    while start < config.draws:
        m = min(chunk, config.draws - start)
        bits = np.random.Philox(key=config.seed)
        bits.advance(start * stride // _WORDS_PER_ADVANCE)
        shocks = _gumbel_from_uniform(np.random.Generator(bits).random((m, stride)))

        z_grp = shocks[:, : n_grp + 1]
        z_sub = shocks[:, n_grp + 1 : n_grp + 1 + n_sub]
        z_prod = shocks[:, n_grp + 1 + n_sub : n_grp + 1 + n_sub + n_prod]

        # index n_grp is the outside option; ties break toward lower index
        chosen_grp = np.argmax(group_values[None, :] + z_grp, axis=1)

        v_sub = iv.subgroup[None, :] + sub_scale * z_sub
        v_sub[hierarchy.subgroup_group[None, :] != chosen_grp[:, None]] = -np.inf
        chosen_sub = np.argmax(v_sub, axis=1)

        v_prod = delta[None, :] + prod_scale * z_prod
        v_prod[hierarchy.product_subgroup[None, :] != chosen_sub[:, None]] = -np.inf
        chosen_prod = np.argmax(v_prod, axis=1)

        inside = chosen_grp < n_grp
        counts += np.bincount(chosen_prod[inside], minlength=n_prod)
        outside_count += int(m - inside.sum())
        start += m

    return ChoiceCounts(counts=counts, outside_count=outside_count)


def empirical_shares(counts: ChoiceCounts):
    """Frequencies and binomial standard errors from simulated counts.

    Returns ``(freq, se)`` with the outside option as the last entry of
    both arrays; se_j = sqrt(f_j(1-f_j)/N).
    """
    total = counts.total
    if total < 1:
        raise OutOfDomainError("empirical shares need at least one draw")
    freq = np.append(counts.counts, counts.outside_count) / float(total)
    se = np.sqrt(freq * (1.0 - freq) / float(total))
    return freq, se
