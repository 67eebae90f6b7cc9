"""Monte Carlo simulation of the sequential choice process.

Each simulated consumer walks the tree top down with independent standard
Gumbel shocks: pick the group maximizing I_g + z_g (the outside option
enters with inclusive value 0 and its own shock), then the subgroup
maximizing I_hg + (1-sigma2)*z_h within the chosen group, then the product
maximizing delta_j + (1-sigma1)*e_j within the chosen subgroup. Additive
stage constants (the Euler-constant terms of the stage value functions)
drop out of every argmax and are omitted.

Each stage compares only siblings, so shocks are addressed by position
among them. A draw's block holds G + 1 group shocks (the outside option's
last), as many subgroup shocks as the widest group has subgroups, as many
product shocks as the widest subgroup has products, and a pad to a multiple
of four doubles, as Philox emits four 64-bit words per counter increment:
32 doubles on a 10x10x10 tree, where a shock per alternative takes 1112.

A stage is an exponential race, one log per shock: with z = -log(-log u)
Gumbel, v_j + s*z_j is largest where w_j*log u_j is, w_j = exp((m - v_j)/s)
and m the largest sibling value. The weights are computed once per call,
+inf at padding; a weight near 1e300 times log u overflows to -inf, a loss
in the Gumbel form too. Both forms choose alike from the same uniforms, up
to rounding at near-ties.

Determinism is positional: consumer i always consumes the same aligned
block of the Philox counter stream for a given seed, so counts depend
neither on the chunk size nor on the workers, one thread per CPU of the
process's affinity mask. Worker w of W runs chunks w, w + W, w + 2W, ...
with one generator, advanced past the other workers' chunks, and one set
of scratch: a chunk's uniforms, stage products, picks and nodes, a draw's
stride plus its widest stage plus two words a draw. The workers share
2**18 words (2 MB) whatever the tree and the CPUs, but a chunk holds at
least one draw: where a subgroup is wider than about 2**17 / W products,
each worker's one draw is over its share, by less than one draw's scratch.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomainError
from .hierarchy import ChoiceHierarchy, NestingParams, _number, as_delta_array, one_market
from .runner import ChunkRunner
from .shares import InclusiveValues, compute_shares

__all__ = [
    "SimConfig",
    "ChoiceCounts",
    "simulate_choices",
    "empirical_shares",
]

# one Philox counter increment yields four 64-bit words, i.e. four doubles
_WORDS_PER_ADVANCE = 4
# smallest value Generator.random can emit besides 0.0; clamping keeps log u finite
_TINY_UNIFORM = 2.0**-53
# words of scratch, shared by the workers that run the chunks: 2 MB
_CHUNK_WORDS = 2**18
# binomial terms per batch of the z-check, in up to four arrays: 512 KB; a wider alternative is one batch
_Z_TERMS = 2**14


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


def _sibling_table(parent: np.ndarray, n_rows: int) -> np.ndarray:
    """Each of ``n_rows`` parents' children by position, ``len(parent)`` past
    the last; ``parent``, the parent of each child, is sorted."""
    position = np.arange(len(parent)) - np.searchsorted(parent, parent)
    table = np.full((n_rows, position.max() + 1), len(parent), dtype=np.intp)
    table[parent, position] = np.arange(len(parent))
    return table


def _race_weights(values: np.ndarray, scale: float) -> np.ndarray:
    """exp((m - v) / scale) per row of sibling values v, m the row's maximum; +inf at padding (-inf)."""
    with np.errstate(over="ignore", invalid="ignore"):
        weight = np.exp((values.max(axis=1, keepdims=True) - values) / scale)
    weight[np.isneginf(values)] = np.inf
    return weight


def _sibling_tables(hierarchy: ChoiceHierarchy) -> list:
    """Each stage's sibling table in a one-market tree: the children of each node
    the stage above may choose, the root first, the outside option the market's
    last group. A padding entry, beside the -inf appended to the values, is as a
    subgroup the all-padding product row, whose padding tallies the outside option."""
    parents = (np.append(hierarchy.group_market, 0), *hierarchy.parent[1:])
    return [_sibling_table(parent, len(ids) + 1) for parent, ids in zip(parents, hierarchy.ids)]


def _draw_stride(tables: list) -> int:
    widest = sum(at.shape[1] for at in tables)
    return -(-widest // _WORDS_PER_ADVANCE) * _WORDS_PER_ADVANCE


def simulate_choices(
    hierarchy: ChoiceHierarchy,
    delta,
    params: NestingParams,
    config: SimConfig,
    iv: InclusiveValues | None = None,
) -> ChoiceCounts:
    """Simulate ``config.draws`` sequential choices in a one-market tree and tally them.

    ``iv``, when given, are the inclusive values of ``compute_shares`` at these arguments.
    """
    one_market(hierarchy, "simulate_choices")
    delta = as_delta_array(hierarchy, delta)
    if iv is None:
        _, iv = compute_shares(hierarchy, delta, params)
    tables = _sibling_tables(hierarchy)
    stride = _draw_stride(tables)
    widest = max(at.shape[1] for at in tables)
    stages = [(at.ravel(), _race_weights(np.append(values, -np.inf)[at], scale)) for at, values, scale in
              zip(tables, (np.append(iv.group, 0.0), iv.subgroup, delta),
                  (1.0, 1.0 - params.sigma2, 1.0 - params.sigma1))]
    ends = np.cumsum([at.shape[1] for at in tables]).tolist()

    def tallies(first):
        uniforms, product = np.empty(chunk * stride), np.empty(chunk * widest)
        picks, nodes = np.empty(chunk, np.intp), np.empty(chunk, np.intp)
        bits = np.random.Philox(key=config.seed).advance(first * chunk * stride // _WORDS_PER_ADVANCE)
        draw = np.random.Generator(bits).random
        for start in range(first * chunk, config.draws, n_workers * chunk):
            n = min(chunk, config.draws - start)
            race, pick, node = uniforms[:n * stride].reshape(n, stride), picks[:n], nodes[:n]
            draw(out=race)
            # past the other workers' chunks, to the first block of this worker's next
            bits.advance((n_workers - 1) * chunk * stride // _WORDS_PER_ADVANCE)
            np.log(np.maximum(race, _TINY_UNIFORM, out=race), out=race)
            node[:] = 0
            # a weight near 1e300 times log u is -inf, a certain loss
            with np.errstate(over="ignore"):
                for (at, weight), lo, hi in zip(stages, [0] + ends, ends):
                    w = product[:n * (hi - lo)].reshape(n, hi - lo)
                    # the indices are in range; mode="raise" would copy the output first
                    np.take(weight, node, axis=0, out=w, mode="clip")
                    np.multiply(race[:, lo:hi], w, out=w)
                    # ties break toward lower index
                    np.argmax(w, axis=1, out=pick)
                    node *= hi - lo
                    pick += node
                    np.take(at, pick, out=node, mode="clip")
            yield np.bincount(node, minlength=hierarchy.n_products + 1)

    with ChunkRunner() as runner:
        # each worker's share of the budget holds its scratch: a draw's stride, its widest stage and two indices
        chunk = max(1, _CHUNK_WORDS // runner.workers // (stride + widest + 2))
        n_workers = min(runner.workers, -(-config.draws // chunk))
        counts = sum(runner.map(lambda first: sum(tallies(first)), range(n_workers)))
    return ChoiceCounts(counts=counts[:-1], outside_count=int(counts[-1]))


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


def _exact_z(tally: np.ndarray, share: np.ndarray) -> np.ndarray:
    """Signed normal-equivalent z of each count of ``tally`` under Binomial(n, share), n = tally.sum().

    |z| is the normal quantile of the exact tail beyond the count, away from
    n*share, summed from binomial terms: |z| > 5 still means a 5-sigma
    two-sided tail. z is 0 where freq == share or the tail is 1/2 or more,
    inf where it underflows.
    """
    from statistics import NormalDist  # here, so that starting the CLI does not import it

    n = int(tally.sum())
    freq = tally / float(n)
    below = freq < share
    # a count below its mean is the count of the other outcome above its mean
    k = np.where(below, n - tally, tally).astype(float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_p = np.where(below, np.log1p(-share), np.log(share))
        log_q = np.where(below, np.log(share), np.log1p(-share))
        # the first term, C(n, k) p^k q^(n-k), with 0 * log 0 = 0
        log_tail = np.array([math.lgamma(n + 1) - math.lgamma(x + 1) - math.lgamma(n - x + 1) for x in k.tolist()])
        log_tail += np.where(k > 0, k * log_p, 0.0) + np.where(k < n, (n - k) * log_q, 0.0)
        odds = np.exp(log_p - log_q)
    # the terms fall from k on; those past ten standard deviations are negligible
    extra = np.minimum(n - k, np.ceil(10.0 * np.sqrt(n * share * (1.0 - share))) + 10.0).astype(np.int64)
    # each alternative's terms over its first are a row of a grid, batched with rows of similar
    # length and padded with zeros; a row's products and sums run along it alone, in any batch
    order = np.argsort(-extra, kind="stable")[:np.count_nonzero(extra)]
    while len(order):
        width = int(extra[order[0]])
        rows, order = np.split(order, [max(1, _Z_TERMS // width)])
        up = k[rows, None] + np.arange(1, width + 1)  # j + 1, for terms j from k on
        # term j+1 over term j is (n-j)/(j+1) * p/q
        ratio = (n + 1 - up) / up * odds[rows, None]
        ratio[np.arange(width) >= extra[rows, None]] = 0.0
        log_tail[rows] += np.log1p(np.cumsum(np.cumprod(ratio, axis=1, out=up), axis=1, out=ratio)[:, -1])
    tail = np.exp(log_tail)
    z = np.zeros_like(tail)
    far = (tail < 0.5) & (freq != share)
    z[far] = [-NormalDist().inv_cdf(t) if t > 0.0 else np.inf for t in tail[far].tolist()]
    return np.where(below, -z, z)
