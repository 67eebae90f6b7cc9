"""Output checks, one per CLI command.

Each check reads a job's output file and returns None when it holds, or a
one-line reason when it does not. The bounds are fixed here, before any
measurement: they are the package's own acceptance-gate bounds where one
exists (1e-12 normalization, 1e-10 closed-form round trip, 1e-8 Newton
agreement, exact estimation at 1e-8).
"""

import json
import math

import numpy as np

SHARE_SUM_TOL = 1e-12
CLOSED_TOL = 1e-10
NEWTON_TOL = 1e-8
ESTIMATE_TOL = 1e-8
# Jacobian identities are checked relative to the largest |entry| of the
# column, since entries scale with s_j * s_k.
JACOBIAN_REL_TOL = 1e-12


def _rows(path: str) -> list:
    with open(path) as fh:
        lines = fh.read().splitlines()
    return [line.split(",") for line in lines[1:]]


def _market_ids(market) -> list:
    """(market, group, subgroup, product) of every input row, in file order."""
    with open(market.path) as fh:
        lines = fh.read().splitlines()
    return [line.rpartition(",")[0] for line in lines[1:]]


def shares_sum_to_one(path: str, market) -> str | None:
    """Every market's inside shares plus its outside share sum to 1."""
    rows = _rows(path)
    n = market.n_products
    if len(rows) != market.n_markets * (n + 1):
        return f"expected {market.n_markets * (n + 1)} rows, got {len(rows)}"
    ids = _market_ids(market)
    worst = 0.0
    for m in range(market.n_markets):
        block = rows[m * (n + 1):(m + 1) * (n + 1)]
        if [",".join(r[:4]) for r in block[:n]] != ids[m * n:(m + 1) * n] or block[n][3] != "_outside":
            return f"market m{m}: rows out of order"
        worst = max(worst, abs(math.fsum(float(r[4]) for r in block) - 1.0))
    if worst > SHARE_SUM_TOL:
        return f"shares sum to 1 only within {worst:.3e} (bound {SHARE_SUM_TOL:g})"
    return None


def recovers_utilities(path: str, market, tol: float) -> str | None:
    """Inverted utilities match the generated ones within ``tol``."""
    rows = _rows(path)
    if [",".join(r[:4]) for r in rows] != _market_ids(market):
        return "rows differ from the input market rows"
    got = np.array([float(r[4]) for r in rows])
    gap = float(np.max(np.abs(got - market.delta.ravel())))
    if gap > tol:
        return f"utilities recovered only within {gap:.3e} (bound {tol:g})"
    return None


def jacobian_identities(path: str, market) -> str | None:
    """Columns plus the outside entry sum to 0, and the matrix is symmetric."""
    with open(path) as fh:
        lines = fh.read().splitlines()[1:]
    n = market.n_products
    if len(lines) != n * (n + 1):
        return f"expected {n * (n + 1)} rows, got {len(lines)}"
    products = [i.rpartition(",")[2] for i in _market_ids(market)]
    expected = [f"m0,{r},{c}" for r in products + ["_outside"] for c in products]
    if [line.rpartition(",")[0] for line in lines] != expected:
        return "rows are not in (row, column) tree order"
    full = np.array([float(line.rpartition(",")[2]) for line in lines]).reshape(n + 1, n)
    jac = full[:n]
    scale = np.max(np.abs(full), axis=0)
    col_gap = float(np.max(np.abs(full.sum(axis=0)) / scale))
    sym_gap = float(np.max(np.abs(jac - jac.T) / np.minimum(scale[:, None], scale[None, :])))
    if col_gap > JACOBIAN_REL_TOL or sym_gap > JACOBIAN_REL_TOL:
        return (f"column sums off by {col_gap:.3e}, asymmetry {sym_gap:.3e} "
                f"(bound {JACOBIAN_REL_TOL:g}, relative to the column's largest entry)")
    return None


def counts_sum_to_draws(path: str, market, draws: int) -> str | None:
    """Simulated counts, outside included, add up to the number of draws."""
    rows = _rows(path)
    if len(rows) != market.n_products + 1:
        return f"expected {market.n_products + 1} rows, got {len(rows)}"
    total = sum(int(r[4]) for r in rows)
    if total != draws:
        return f"counts sum to {total}, not {draws}"
    return None


def estimate_recovers_truth(path: str, truth: dict) -> str | None:
    """(beta, sigma1, sigma2) come back within ESTIMATE_TOL."""
    with open(path) as fh:
        fit = json.load(fh)
    got = list(fit["beta_hat"]) + [fit["sigma1_hat"], fit["sigma2_hat"]]
    want = list(truth["beta"]) + [truth["sigma1"], truth["sigma2"]]
    gap = max(abs(g - w) for g, w in zip(got, want, strict=True))
    if gap > ESTIMATE_TOL:
        return f"coefficients recovered only within {gap:.3e} (bound {ESTIMATE_TOL:g})"
    return None
