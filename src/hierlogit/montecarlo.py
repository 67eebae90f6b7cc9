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

A stage draws that logit by inverse CDF, which is the distribution of its
Gumbel argmax: the weights are cumulated once per call, per parent, into
thresholds in [0, 1], +inf from the last child of positive weight on, and
a consumer with uniform u takes the first child whose threshold exceeds u.
Stage s reads word s of the consumer's block, so a draw is one Philox
block of four 64-bit words, whatever the tree; the fourth is unused.

Determinism is positional: consumer i always consumes block i of the
Philox counter stream for a given seed, so counts depend neither on the
chunk size nor on the workers, one thread per CPU of the process's
affinity mask. Worker w of W runs chunks w, w + W, w + 2W, ... with one
generator, advanced past the other workers' chunks, and one set of
scratch: a chunk's blocks, stage words, gathered thresholds, comparisons,
picks and nodes, per draw a block and three words, a word and a byte per
threshold of the widest stage, and two indices. The workers share 2**18
words (2 MB) whatever the tree and the CPUs, but a chunk holds at least
one draw: where a subgroup is wider than about 233,000 / W products, each
worker's one draw is over its share, by less than one draw's scratch.
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

# one Philox counter increment yields four 64-bit words, i.e. four doubles: a draw's uniforms
_WORDS_PER_ADVANCE = 4
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


def _sibling_tables(hierarchy: ChoiceHierarchy) -> list:
    """Each stage's sibling table in a one-market tree: the children of each node
    the stage above may choose, the root first, the outside option the market's
    last group. A padding entry, beside the -inf appended to the values, is as a
    subgroup the all-padding product row, whose padding tallies the outside option."""
    parents = (np.append(hierarchy.group_market, 0), *hierarchy.parent[1:])
    return [_sibling_table(parent, len(ids) + 1) for parent, ids in zip(parents, hierarchy.ids)]


def _thresholds(at: np.ndarray, values: np.ndarray, scale: float) -> np.ndarray:
    """A stage's inverse-CDF thresholds by sibling table ``at``, one row per
    child position but the last, one column per parent: each parent's
    cumulative child weights exp((v - m) / scale) over their sum, m its largest
    child value, and +inf from its last child of positive weight on. A uniform
    u picks the child at the count of thresholds at or below it, which is the
    first child whose threshold exceeds u, the last where none does. Padding
    weighs 0; an all-padding row, whose weights are nan (-inf minus -inf), is
    +inf throughout and picks its first entry."""
    sibling = np.append(values, -np.inf)[at]
    with np.errstate(invalid="ignore"):
        cum = np.cumsum(np.exp((sibling - sibling.max(axis=1, keepdims=True)) / scale), axis=1)
        cuts = np.where(cum < cum[:, -1:], cum / cum[:, -1:], np.inf)
    return np.ascontiguousarray(cuts[:, :-1].T)


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
    stages = [(at.ravel(), _thresholds(at, values, scale)) for at, values, scale in
              zip(tables, (np.append(iv.group, 0.0), iv.subgroup, delta),
                  (1.0, 1.0 - params.sigma2, 1.0 - params.sigma1))]
    # a draw's scratch: its block and stage words, its widest stage's thresholds but the last
    # and two indices, a word each, and the thresholds' comparisons, a byte each
    cuts = max(at.shape[1] for at in tables) - 1
    words_per_draw = _WORDS_PER_ADVANCE + len(stages) + cuts + 2

    def tallies(first):
        # one allocation, which the allocator maps afresh and returns when freed, where smaller
        # ones can stay resident in a thread's arena after the call
        blocks, words, gathered, indices, below = np.split(
            np.empty(chunk * words_per_draw + -(-cuts * chunk // 8)),
            np.cumsum([_WORDS_PER_ADVANCE, len(stages), cuts, 2]) * chunk)
        blocks, words, below = blocks.reshape(chunk, -1), words.reshape(len(stages), chunk), below.view(bool)
        picks, nodes = indices.view(np.intp).reshape(2, chunk)
        bits = np.random.Philox(key=config.seed).advance(first * chunk)
        draw = np.random.Generator(bits).random
        for start in range(first * chunk, config.draws, n_workers * chunk):
            n = min(chunk, config.draws - start)
            block, word, pick, node = blocks[:n], words[:, :n], picks[:n], nodes[:n]
            draw(out=block)
            # past the other workers' chunks, to the first block of this worker's next
            bits.advance((n_workers - 1) * chunk)
            # stage s reads word s of each block, as a contiguous row
            np.copyto(word, block[:, :len(stages)].T)
            node[:] = 0
            for u, (at, thresholds) in zip(word, stages):
                rows = len(thresholds)
                bound, hit = gathered[:rows * n].reshape(rows, n), below[:rows * n].reshape(rows, n)
                # the indices are in range; mode="raise" would copy the output first
                np.take(thresholds, node, axis=1, out=bound, mode="clip")
                np.less_equal(bound, u, out=hit)
                np.add.reduce(hit, axis=0, dtype=np.intp, out=pick)
                node *= rows + 1
                pick += node
                np.take(at, pick, out=node, mode="clip")
            yield np.bincount(node, minlength=hierarchy.n_products + 1)

    with ChunkRunner() as runner:
        # each worker's share of the budget holds its scratch
        chunk = max(1, _CHUNK_WORDS * 8 // runner.workers // (8 * words_per_draw + cuts))
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
    two-sided tail. z is +0 where freq == share or the tail is 1/2 or more,
    inf where it underflows.
    """
    n = int(tally.sum())
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
        up = k[rows, None] + np.arange(1, width + 1)  # j + 1, for terms j from k on
        # term j+1 over term j is (n-j)/(j+1) * p/q
        ratio = (n + 1 - up) / up * odds[rows, None]
        ratio[np.arange(width) >= extra[rows, None]] = 0.0
        log_tail[rows] += np.log1p(np.cumsum(np.cumprod(ratio, axis=1, out=up), axis=1, out=ratio)[:, -1])
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
    """z of upper normal tail t, erfc(z / sqrt 2) / 2 = t for 0 < t < 1/2, by
    Newton's method: near the mean on erf(z / sqrt 2) / 2 = 1/2 - t, exact
    there, further out on the log of the tail = log t. Both are concave in z,
    so past its first step Newton nears z from one side."""
    central, log_t, root2, root2pi = t > 0.25, math.log(t), math.sqrt(2.0), math.sqrt(2.0 * math.pi)
    # out in the tail, log t = -z^2/2 - log(z sqrt(2 pi)) to first order
    big = -2.0 * log_t
    z = 0.0 if central else math.sqrt(max(big - math.log(big) - 2.0 * math.log(root2pi), 0.0))
    for _ in range(50):
        density = math.exp(-0.5 * z * z) / root2pi
        if central:
            step = (0.5 - t - 0.5 * math.erf(z / root2)) / density
        else:
            tail = 0.5 * math.erfc(z / root2)
            step = (math.log(tail) - log_t) * tail / density
        z += step
        # each step about doubles the exact digits: after one below 1e-9 z, z is exact to a double
        if abs(step) <= 1e-9 * z:
            break
    return z
