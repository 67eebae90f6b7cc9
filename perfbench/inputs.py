"""Seeded inputs for the benchmark workloads.

Everything here is written from the benchmark's own numpy generator, not
through ``hierlogit`` (neither ``generate_market`` nor the CLI), so that a
change to the package cannot change what the benchmark feeds it.

Utilities are standard normal and the nesting parameters are fixed at
sigma = (0.5, 0.25). Reals are written with 17 significant digits, the
format the CLI itself writes, so every double round-trips exactly.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

SIGMA = (0.5, 0.25)
HEADER = "market_id,group_id,subgroup_id,product_id,value\n"


@dataclass
class Market:
    """A market file on disk and the utilities it was written from."""

    path: str
    n_markets: int
    shape: tuple
    delta: np.ndarray  # (n_markets, n_products), tree order
    rows: int
    bytes: int

    @property
    def n_products(self) -> int:
        return int(np.prod(self.shape))


@dataclass
class Inputs:
    """Every file one workload reads, plus what the checks need to know."""

    params: str
    markets: dict = field(default_factory=dict)
    estimate_config: str = ""
    estimate_truth: dict = field(default_factory=dict)
    sim_seeds: dict = field(default_factory=dict)

    def sizes(self) -> dict:
        out = {
            name: {"markets": m.n_markets, "tree": list(m.shape), "products": m.n_products,
                   "rows": m.rows, "bytes": m.bytes}
            for name, m in self.markets.items()
        }
        if self.estimate_truth:
            out["estimate"] = {"tree": self.estimate_truth["tree"],
                               "products": int(np.prod(self.estimate_truth["tree"])),
                               "covariates": len(self.estimate_truth["beta"])}
        return out


def _fmt(values: np.ndarray) -> list:
    return [format(v, ".17g") for v in values.tolist()]


def write_market(path: str, rng: np.random.Generator, n_markets: int, shape: tuple) -> Market:
    """Write ``n_markets`` balanced G x S x P markets with N(0, 1) utilities.

    Ids are ``m<i>``, ``g<g>``, ``h<h>`` and ``p<g>_<h>_<p>``; rows are in
    tree order, so row k of a market is product k of its hierarchy.
    """
    g, s, p = shape
    n = g * s * p
    delta = rng.standard_normal((n_markets, n))
    tail = [f"g{a},h{b},p{a}_{b}_{c}," for a in range(g) for b in range(s) for c in range(p)]
    values = _fmt(delta.ravel())
    lines = [HEADER]
    k = 0
    for m in range(n_markets):
        head = f"m{m},"
        for t in tail:
            lines.append(f"{head}{t}{values[k]}\n")
            k += 1
    text = "".join(lines)
    with open(path, "w") as fh:
        fh.write(text)
    return Market(path=path, n_markets=n_markets, shape=shape, delta=delta,
                  rows=n_markets * n, bytes=len(text))


def write_params(path: str) -> str:
    with open(path, "w") as fh:
        json.dump({"sigma1": SIGMA[0], "sigma2": SIGMA[1]}, fh)
    return path


def write_estimate_config(path: str, rng: np.random.Generator, shape: tuple, n_cov: int) -> dict:
    """Synthetic-market config with noiseless utilities, so the truth is exact."""
    beta = [float(b) for b in rng.uniform(-2.0, 2.0, size=n_cov)]
    config = {
        "n_groups": shape[0], "n_subgroups_per_group": shape[1],
        "n_products_per_subgroup": shape[2], "beta": beta, "xi_scale": 0.0,
        "sigma1": SIGMA[0], "sigma2": SIGMA[1], "seed": int(rng.integers(2**31)),
    }
    with open(path, "w") as fh:
        json.dump(config, fh)
    return {"beta": beta, "sigma1": SIGMA[0], "sigma2": SIGMA[1], "tree": list(shape)}


def make_inputs(workload: str, seed: int, workdir: str) -> Inputs:
    """Write the input files of ``workload`` under ``workdir``; same seed, same bytes."""
    rng = np.random.default_rng([seed, 0x6869657220])
    inputs = Inputs(params=write_params(os.path.join(workdir, "params.json")))

    def market(name, n_markets, shape):
        path = os.path.join(workdir, f"{name}.csv")
        inputs.markets[name] = write_market(path, rng, n_markets, shape)

    if workload == "many_markets":
        market("many", 10_000, (2, 2, 2))
    elif workload == "large_market":
        market("n1000", 1, (10, 10, 10))
        market("n100k", 1, (100, 10, 100))
        path = os.path.join(workdir, "estimate.json")
        inputs.estimate_truth = write_estimate_config(path, rng, (20, 50, 100), 3)
        inputs.estimate_config = path
    elif workload == "sim_trees":
        market("deep", 1, (10, 10, 10))
        market("shallow", 1, (3, 3, 4))
        inputs.sim_seeds = {"deep": int(rng.integers(2**31)), "shallow": int(rng.integers(2**31))}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs
