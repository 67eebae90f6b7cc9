"""Fixed reference task, timed next to every job to track the host's speed.

It does the kinds of work the CLI does, without hierlogit: interpreter
start-up and numpy import, formatting and parsing 17-digit CSV rows into
dicts, and numpy passes over arrays far larger than the CPU caches, as the
simulator makes. Nothing in it depends on the package, so a change to the
package cannot change its time.
"""

import numpy as np

rng = np.random.default_rng(0)
values = rng.standard_normal(25_000).tolist()
text = "\n".join(f"m{i % 500},g{i % 3},h{i % 7},p{i},{v:.17g}" for i, v in enumerate(values))
markets = {}
for line in text.splitlines():
    market, group, subgroup, product, value = line.split(",")
    markets.setdefault(market, {}).setdefault((group, subgroup), []).append(float(value))
shocks = -np.log(-np.log(np.maximum(rng.random((4096, 2048)), 2.0**-53)))
shocks.argmax(axis=1)
