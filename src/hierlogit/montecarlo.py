"""Monte Carlo simulation of the sequential choice process.

Each simulated consumer walks the tree top down: it picks a group (the
outside option enters with inclusive value 0), then a subgroup within the
chosen group, then a product within the chosen subgroup. Each stage is the
argmax of the siblings' values plus independent standard Gumbel shocks,
I_g + z_g, I_hg + (1-sigma2)*z_h and delta_j + (1-sigma1)*e_j, and so a
logit over the siblings: child c of a parent is chosen with probability
exp((v_c - m)/s) / sum_j exp((v_j - m)/s), s the stage's scale and m the
largest sibling value. Additive stage constants (the Euler-constant terms
of the stage value functions) drop out of every argmax and are omitted.

So the tally of N consumers, a chain of multinomials down the tree (N over
the groups and the outside option, each group's count over its subgroups,
each subgroup's over its products), has the law of one multinomial of N
over the alternatives, each at the product of its three stage shares: a
Multinomial(N, p) whose every count n_c is split by a Multinomial(n_c, q)
is a Multinomial(N, p q). That is what is drawn, one ``Generator.multinomial``
call a market, in memory linear in the alternatives, at the stage shares of a
``compute_shares`` table. The counts at a seed depend on numpy's binomial
sampler, which numpy's ``Generator`` policy lets change between versions, and
counts at N and N + 1 draws are not nested.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomainError
from .hierarchy import ChoiceHierarchy, NestingParams, _number
from .shares import _per_market, compute_shares

__all__ = ["SimConfig", "ChoiceCounts", "simulate_choices", "empirical_shares"]

# binomial terms per batch of the z-check, in up to four arrays: 512 KB; a wider alternative is walked
# in blocks of this many
_Z_TERMS = 2**14


@dataclass(frozen=True)
class SimConfig:
    """Simulation size and seed, both integers: ``draws`` in [1, 2**53], below which the
    CSV writer formats every count exactly, and ``seed`` in [0, 2**128), the Philox key.
    The CLI's z-check sums about 10 sqrt(draws s (1 - s)) binomial terms per alternative
    of share s."""

    draws: int
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "draws", _number("draws", self.draws, integral=True))
        object.__setattr__(self, "seed", _number("seed", self.seed, integral=True))
        if not 1 <= self.draws <= 2**53:
            raise OutOfDomainError(f"draws={self.draws!r} must lie in [1, 2**53]")
        # the Philox key is 128 bits wide
        if not 0 <= self.seed < 2**128:
            raise OutOfDomainError(f"seed={self.seed!r} must lie in [0, 2**128)")


@dataclass(frozen=True)
class ChoiceCounts:
    """Chosen-alternative tallies: one count per inside product, and the outside option's,
    an int for a one-market tree and an array over markets otherwise."""

    counts: np.ndarray
    outside_count: int

    @property
    def total(self) -> int:
        return int(self.counts.sum()) + int(np.sum(self.outside_count))


def simulate_choices(hierarchy: ChoiceHierarchy, delta, params: NestingParams, config: SimConfig) -> ChoiceCounts:
    """Simulate ``config.draws`` sequential choices in each market of a tree and tally them.

    Each product's chance is the product of its three stage shares in one ``compute_shares`` table
    for the tree, an outside option's its share; each market's tally is one multinomial over its
    alternatives in order of chance, so that numpy gives the remainder of the draws to the most
    probable. One ``Philox(key=config.seed)`` generator draws every market, its state reset to the start
    before each, so a market gets the same counts alone as in any tree. Memory grows with the
    alternatives. The CLI's z-check, against the same kernel's joint shares, checks these steps (the
    sort, the reset, each market's span, the unsort and the multinomial), not the shares.
    """
    h = hierarchy
    table, _ = compute_shares(h, delta, params)
    markets = np.arange(h.n_markets)
    # the outside options after every product; the sort puts each among its market's alternatives
    chance = np.append(table.cond_product * table.cond_subgroup[h.product_subgroup] * table.group[h.product_group],
                       table.outside)
    order = np.lexsort((chance, np.append(h.product_market, markets)))
    chance, drawn = chance[order], np.empty(len(order), np.int64)
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    start = rng.bit_generator.state
    ends = (h.bounds[2] + np.arange(h.n_markets + 1)).tolist()
    for a, b in zip(ends[:-1], ends[1:]):
        rng.bit_generator.state = start
        drawn[a:b] = rng.multinomial(config.draws, chance[a:b])
    tally = np.empty_like(drawn)
    tally[order] = drawn
    return ChoiceCounts(counts=tally[:h.n_products], outside_count=_per_market(tally[h.n_products:]))


def empirical_shares(counts: ChoiceCounts):
    """Frequencies and binomial standard errors from the simulated counts of one market.

    Returns ``(freq, se)`` with the outside option as the last entry of
    both arrays; se_j = sqrt(f_j(1-f_j)/N).
    """
    if np.ndim(counts.outside_count):
        raise OutOfDomainError("empirical shares take the counts of one market; see ChoiceHierarchy.markets")
    total = counts.total
    if total < 1:
        raise OutOfDomainError("empirical shares need at least one draw")
    freq = np.append(counts.counts, counts.outside_count) / float(total)
    se = np.sqrt(freq * (1.0 - freq) / float(total))
    return freq, se


def _exact_z(tally: np.ndarray, share: np.ndarray, n: int) -> np.ndarray:
    """Signed normal-equivalent z of each count of ``tally`` under Binomial(n, share), n its market's draws.

    |z| is the normal quantile, by AS241, of the exact tail beyond the count, away from
    n*share, summed from binomial terms: |z| > 5 still means a 5-sigma
    two-sided tail. z is +0 where freq == share or the tail is 1/2 or more,
    inf where it underflows.
    """
    freq = tally / float(n)
    below = freq < share
    # a count below its mean is the count of the other outcome above its mean
    k = np.where(below, n - tally, tally).astype(float)
    p, q = np.where(below, 1.0 - share, share), np.where(below, share, 1.0 - share)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_p = np.where(below, np.log1p(-share), np.log(share))
        log_q = np.where(below, np.log(share), np.log1p(-share))
        # the first term, C(n, k) p^k q^(n-k): q^n at k = 0, p^n at k = n
        log_tail = np.where(k == 0, n * log_q, np.where(k == n, n * log_p, _log_binomial(k, float(n), p, q)))
        odds = np.exp(log_p - log_q)
    # the terms fall from k on; those past ten standard deviations are negligible
    extra = np.minimum(n - k, np.ceil(10.0 * np.sqrt(n * share * (1.0 - share))) + 10.0).astype(np.int64)
    # each alternative's terms over its first are a row of a grid, batched with rows of similar
    # length and padded with zeros; a row's products and sums run along it alone, in any batch
    order = np.argsort(-extra, kind="stable")[:np.count_nonzero(extra)]
    while len(order):
        width = int(extra[order[0]])
        rows, order = np.split(order, [max(1, _Z_TERMS // width)])
        # the running product and sum of the terms; a row wider than _Z_TERMS is walked in blocks, each
        # starting from them, so that the products and sums stay sequential
        carry = np.array([np.ones(len(rows)), np.zeros(len(rows))])
        for start in range(0, width, _Z_TERMS):
            step = np.arange(start + 1, min(width, start + _Z_TERMS) + 1, dtype=float)
            ratio = np.empty((len(rows), len(step) + 1))
            terms = np.add(k[rows, None], step, out=ratio[:, 1:])  # j + 1, for terms j from k on
            # term j+1 over term j is (n-j)/(j+1) * p/q
            np.divide(n + 1 - terms, terms, out=terms)
            terms *= odds[rows, None]
            np.copyto(terms, 0.0, where=step > extra[rows, None])
            for running, accumulate in zip(carry, (np.cumprod, np.cumsum)):
                ratio[:, 0] = running
                running[:] = accumulate(ratio, axis=1, out=ratio)[:, -1]
        log_tail[rows] += np.log1p(carry[1])
    tail = np.exp(log_tail)
    z = np.zeros_like(tail)
    far = (tail < 0.5) & (freq != share)
    z[far] = [_upper_quantile(t) if t > 0.0 else np.inf for t in tail[far].tolist()]
    z[far & below] *= -1.0
    return z


def _log_binomial(k, n, p, q):
    """log C(n, k) p^k q^(n-k) for 0 < k < n and q = 1 - p, in Loader's saddle-point form,
    as R's dbinom takes it: no term is large, where log C(n, k) from lgamma cancels
    terms near n log n."""
    return (_stirlerr(n) - _stirlerr(k) - _stirlerr(n - k) - _bd0(k, n * p) - _bd0(n - k, n * q)
            - 0.5 * np.log(2.0 * math.pi * k * (n - k) / n))


# log x! - log(sqrt(2 pi x) (x/e)^x) at whole x from 0 to 15, below the reach of its series
_STIRLERR = np.array([0.0] + [math.lgamma(x + 1.0) - (x + 0.5) * math.log(x) + x - 0.5 * math.log(2.0 * math.pi)
                              for x in range(1, 16)])


def _stirlerr(x):
    """log x! - log(sqrt(2 pi x) (x/e)^x) at whole x >= 0: the table to 15, the Stirling series past it."""
    y = np.maximum(x, 16.0)
    w = 1.0 / (y * y)
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - w / 1188) * w) * w) * w) / y
    return np.where(x > 15, series, _STIRLERR[np.minimum(x, 15).astype(np.intp)])


def _bd0(x, mean):
    """x log(x / mean) + mean - x, by its series in v = (x - mean) / (x + mean)
    where |v| < 0.1, and there without the cancellation of the direct form."""
    v = (x - mean) / (x + mean)
    series, term = (x - mean) * v, 2.0 * x * v
    # the terms 2x v^j / j fall by v^2 < 0.01 a step: ten are exact to a double
    for j in range(3, 23, 2):
        term = term * v * v
        series = series + term / j
    return np.where(np.abs(v) < 0.1, series, x * np.log(x / mean) + mean - x)


def _upper_quantile(t: float) -> float:
    """z of upper normal tail t, erfc(z / sqrt 2) / 2 = t for 0 < t < 1/2: Wichura's AS241
    (*Applied Statistics* 37, 1988), as ``statistics.NormalDist.inv_cdf``, within 7e-16
    relative of 50-digit values on 5,000 tails from 5e-324 to 1/2."""
    import statistics  # on first use, so that only a simulation loads it
    return -statistics.NormalDist().inv_cdf(t)
