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
from .hierarchy import ChoiceHierarchy, NestingParams, _instance, _number, _real_array
from .shares import compute_shares

__all__ = ["SimConfig", "ChoiceCounts", "simulate_choices", "empirical_shares"]

# binomial terms per batch of the z-check, in up to four arrays: 512 KB; an alternative of more takes
# the saddle point
_Z_TERMS = 2**14


@dataclass(frozen=True)
class SimConfig:
    """Simulation size and seed, both integers: ``draws`` in [1, 2**53], below which the
    CSV writer formats every count exactly, and ``seed`` in [0, 2**128), the Philox key.
    The CLI's z-check costs at most 2**14 binomial terms an alternative, whatever the draws:
    an alternative of share s whose sqrt(draws s (1 - s)) is over 1,637 takes a saddle point."""

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
    """Chosen-alternative tallies: one count per inside product, and ``outside_count``, the outside
    option's per market, an array over markets for every tree that ``simulate_choices`` draws (one
    entry for a one-market tree)."""

    counts: np.ndarray
    outside_count: np.ndarray


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
    rng = np.random.Generator(np.random.Philox(key=_instance("config", config, SimConfig).seed))
    start = rng.bit_generator.state
    ends = (h.bounds[2] + np.arange(h.n_markets + 1)).tolist()
    for a, b in zip(ends[:-1], ends[1:]):
        rng.bit_generator.state = start
        drawn[a:b] = rng.multinomial(config.draws, chance[a:b])
    tally = np.empty_like(drawn)
    tally[order] = drawn
    return ChoiceCounts(counts=tally[:h.n_products], outside_count=tally[h.n_products:])


def empirical_shares(counts: ChoiceCounts):
    """Frequencies and binomial standard errors from the simulated counts of one market.

    Returns ``(freq, se)`` with the outside option as the last entry of
    both arrays; se_j = sqrt(f_j(1-f_j)/N). Each count is a finite number in
    [0, 2**53], SimConfig's draw cap, and there is one draw at least;
    OutOfDomainError otherwise.
    """
    outside = _real_array("counts", _instance("counts", counts, ChoiceCounts).outside_count, 1,
                          "empirical shares take the counts of one market; see ChoiceHierarchy.markets", finite=True)
    tally = np.append(_real_array("counts", counts.counts, -1, "counts must be one per product", finite=True), outside)
    if tally.max() > 2**53:  # more than any simulation draws; with the sign checked before it, the sum cannot overflow
        raise OutOfDomainError("counts must not exceed 2**53, the most draws SimConfig allows")
    if tally.min() < 0 or (total := tally.sum()) < 1:
        raise OutOfDomainError("empirical shares need at least one draw and no negative count")
    freq = tally / float(total)
    se = np.sqrt(freq * (1.0 - freq) / float(total))
    return freq, se


def _exact_z(tally: np.ndarray, share: np.ndarray, n: int) -> np.ndarray:
    """Signed normal-equivalent z of each count of ``tally`` under Binomial(n, share), n its market's draws.

    z is that of the tail beyond the count, away from n*share. An alternative whose tail has at most
    _Z_TERMS terms past its first within ten standard deviations sums them, and |z| is the normal
    quantile of the sum by AS241. A wider one, of standard deviation sqrt(n s (1 - s)) over 1,637,
    takes the saddle point (``_saddle_z``), within 2e-11 of the summed tail's z (9.9e-12 the largest
    seen, at |z| < 0.01 and shares near 0 or 1). So no alternative costs more than _Z_TERMS terms,
    whatever n. Against scipy's ``norm.isf`` of ``binom.sf`` at n up to 2**53, both branches are
    within 5e-8 max(1, |z|) (2.5e-8 the largest seen), which is scipy's own error: 50-digit sums put
    the summed z within 1e-14 relative. So |z| > 5 still means a 5-sigma two-sided tail. z is +0
    where freq == share or the tail is 1/2 or more, inf where it underflows.
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
    wide = extra > _Z_TERMS
    extra[wide] = 0
    # each alternative's terms over its first are a column of a grid, batched with columns of similar
    # length and padded with zeros; a column's products and sums run down it alone, in any batch
    # (in the least integer type that holds -_Z_TERMS, int16, which numpy sorts by radix)
    order = np.argsort(-extra.astype(np.min_scalar_type(-_Z_TERMS)), kind="stable")[:np.count_nonzero(extra)]
    while len(order):
        width = int(extra[order[0]])
        batch, order = np.split(order, [max(1, _Z_TERMS // width)])
        step = np.arange(width + 1.0)[:, None]
        ratio = np.empty((width + 1, len(batch)))
        # term j+1 over term j is (n-j)/(j+1) * p/q, for terms j from k on: n - k, not n + 1, which
        # rounds at n = 2**53
        terms = np.divide(n - k[batch] - step[:-1], k[batch] + step[1:], out=ratio[1:])
        terms *= odds[batch]
        np.copyto(terms, 0.0, where=step[1:] > extra[batch])
        # the running product of the ratios is each term over the first; their running sum, the last
        ratio[0] = 1.0
        np.cumprod(ratio, axis=0, out=ratio)
        ratio[0] = 0.0
        log_tail[batch] += np.log1p(np.cumsum(ratio, axis=0, out=ratio)[-1])
    tail = np.exp(log_tail)
    z = np.where(tail == 0.0, np.inf, 0.0)
    inner = (tail > 0.0) & (tail < 0.5)
    z[inner] = _upper_quantile(tail[inner])
    z[wide] = _saddle_z(tally[wide], share[wide], p[wide], q[wide], n)
    z[freq == share] = 0.0
    return np.negative(z, out=z, where=below & (z > 0.0))


def _saddle_z(tally, share, p, q, n):
    """z of counts under Binomial(n, share), each tail taken away from n*share, p the chance on that side
    and q = 1 - p: Barndorff-Nielsen's r* = w + log(u / w) / w at k - 1/2 (Daniels' second continuity
    correction), k the count on that side; u = d / sd is its standardized deviation d = |tally - n share|
    - 1/2 and w = sign(d) sqrt(2 KL) its signed root divergence, as in Lugannani and Rice's tail. A fixed
    number of passes; +0 where the tail is 1/2 or more, inf past the z of the least double."""
    # d from the smaller of n s and n (1 - s), whose rounding puts at most 2.2e-16 sd on z
    small = np.minimum(share, 1.0 - share)
    mean, rest = n * p, n * q
    # past a tenth of the smaller mean the tail is below exp(-13000), at sd > 1,637: there z is inf
    d = np.minimum(np.abs(n * small - np.where(share <= 0.5, tally, n - tally)) - 0.5, 0.1 * np.minimum(mean, rest))
    sd = np.sqrt(mean * q)
    # w**2 = u**2 (1 + rho), rho = u t: t from the series _H of each side's relative deviation, which
    # has no cancellation
    u, t = d / sd, sd * (q * np.polyval(_H, d / mean) / mean - p * np.polyval(_H, -d / rest) / rest)
    rho = u * t
    root = np.sqrt(1.0 + rho)
    # log(u / w) / w = -log1p(rho) / (2 u root) = -t (log1p(rho) / rho) / (2 root), finite at d = 0
    z = u * root - t * np.divide(np.log1p(rho), rho, out=np.ones_like(rho), where=rho != 0.0) / (2.0 * root)
    return np.where(z > _Z_MAX, np.inf, np.where(z > 0.0, z, 0.0))


# 2 ((1 + e) log1p(e) - e - e**2 / 2) / e**3 = -sum_m 2 (-e)**m / ((m + 2)(m + 3)), highest power
# first: exact to a double at |e| < 0.025, the relative deviations of tails above the least double
_H = np.array([-2.0 * (-1) ** m / ((m + 2) * (m + 3)) for m in range(15, -1, -1)])


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
        term *= v
        term *= v
        series += term / j
    return np.where(np.abs(v) < 0.1, series, x * np.log(x / mean) + mean - x)


def _upper_quantile(t):
    """z of upper normal tails t, erfc(z / sqrt 2) / 2 = t for 0 < t <= 1/2: Wichura's AS241 (*Applied
    Statistics* 37, 1988) over an array, with the coefficients and branch tests of
    ``statistics.NormalDist.inv_cdf``, whose doubles it gives but where numpy's log and the C
    library's differ in the last bit; within 7e-16 relative of 50-digit values on 5,000 tails from
    5e-324 to 1/2."""
    t = np.atleast_1d(t)
    q, r = 0.5 - t, np.sqrt(-np.log(t))
    central = q <= 0.425
    z, scale = np.empty_like(q), np.where(central, q, 1.0)
    for (num, den), x, branch in zip(_AS241, (0.180625 - q * q, r - 1.6, r - 5.0),
                                     (central, ~central & (r <= 5.0), r > 5.0)):
        z[branch] = np.polyval(num, x[branch]) * scale[branch] / np.polyval(den, x[branch])
    return z


# AS241's numerator and denominator coefficients, highest power first: of z over 1/2 - t for tails
# from 0.075 to 1/2, in 0.180625 - (1/2 - t)**2, then of z for the tails below, in sqrt(-log t) - 1.6
# up to 5 and in sqrt(-log t) - 5 past it
_AS241 = np.array([
    [[2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4, 4.5921953931549871457e+4,
      1.3731693765509461125e+4, 1.9715909503065514427e+3, 1.3314166789178437745e+2, 3.3871328727963666080e+0],
     [5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4, 2.1213794301586595867e+4,
      5.3941960214247511077e+3, 6.8718700749205790830e+2, 4.2313330701600911252e+1, 1.0]],
    [[7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1, 1.27045825245236838258e+0,
      3.64784832476320460504e+0, 5.76949722146069140550e+0, 4.63033784615654529590e+0, 1.42343711074968357734e+0],
     [1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2, 1.48103976427480074590e-1,
      6.89767334985100004550e-1, 1.67638483018380384940e+0, 2.05319162663775882187e+0, 1.0]],
    [[2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3, 2.65321895265761230930e-2,
      2.96560571828504891230e-1, 1.78482653991729133580e+0, 5.46378491116411436990e+0, 6.65790464350110377720e+0],
     [2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5, 7.86869131145613259100e-4,
      1.48753612908506148525e-2, 1.36929880922735805310e-1, 5.99832206555887937690e-1, 1.0]],
])
# the largest finite z, that of the least double tail
_Z_MAX = _upper_quantile(5e-324)[0]
