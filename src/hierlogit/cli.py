"""Command-line front end and the on-disk market/params formats.

Market CSV: header ``market_id,group_id,subgroup_id,product_id,value``, one
row per product. ``value`` is a mean utility for shares, jacobian and
simulate, and an observed joint share for invert, which also needs one
``_outside`` row per market carrying the outside share. Rows may come in any
order: values are matched to products by (market_id, product_id), and the
output lists markets, then the groups, subgroups and products of each, in
order of first appearance. Extra columns are ignored, so ``shares`` output
feeds straight back into ``invert``. Params JSON is ``{"sigma1": r, "sigma2": r}``.

Checks by layer: the reader rejects non-UTF-8 or malformed CSV, unparsable
values and repeated products; every market's ``_outside`` row (required by
invert, refused by the others) is checked before any market is computed;
``ShareTable.from_joint`` bounds each share of invert's input strictly inside
(0, 1); and the CLI requires a market's shares to sum to 1 within 1e-6.

Exit codes: 0 success, 1 unreadable or malformed input (the sum rule
included), 2 values outside the model's domain, 3 failed self-check
(finite-difference mismatch, simulation z-score blowout, Newton/closed-form
disagreement, singular design). Diagnostics go to standard error. Results go
to ``--output`` or standard output market by market, so a run that fails part
way leaves the earlier markets written. Reals have 17 significant digits so
that written files round-trip doubles exactly.
"""

import csv
import functools
import itertools
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass

import click
import numpy as np

from . import __version__
from .errors import (
    HierLogitError,
    MarketFileError,
    NoConvergenceError,
    OutOfDomainError,
    SingularDesignError,
)
from .hierarchy import OUTSIDE_ID, ChoiceHierarchy, NestingParams, build_hierarchy, validate_params
from .inversion import berry_invert, numeric_invert, regression_rows
from .jacobian import fd_jacobian, full_jacobian, max_relative_error
from .montecarlo import SimConfig, empirical_shares, simulate_choices
from .shares import ShareTable, compute_shares
from .synth import SynthConfig, estimate_linear, generate_market

__all__ = [
    "main",
    "MarketBlock",
    "read_market_csv",
    "read_params_json",
    "EXIT_OK",
    "EXIT_PARSE",
    "EXIT_DOMAIN",
    "EXIT_SELFTEST",
]

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_DOMAIN = 2
EXIT_SELFTEST = 3

MARKET_COLUMNS = ("market_id", "group_id", "subgroup_id", "product_id", "value")
SHARES_COLUMNS = MARKET_COLUMNS + (
    "cond_product", "cond_subgroup", "group_share", "iv_subgroup", "iv_group", "iv_top")

# z-score beyond which a simulation run is considered a failed self-test
_Z_LIMIT = 5.0
# finite-difference relative error beyond which --check-fd fails
_FD_LIMIT = 1e-5
# rows formatted per writerows call; formatting an N=100k market or an
# N=1000 Jacobian at once would hold a string for every cell in memory
_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class MarketBlock:
    """One market parsed from a CSV: tree, per-product values, outside value."""

    market_id: str
    hierarchy: ChoiceHierarchy
    values: np.ndarray
    outside_value: float


def read_market_csv(path) -> list:
    """Parse a market CSV into MarketBlocks in first-appearance order.

    Rows may come in any order; each block's ``values`` follows its
    ``hierarchy.products``. ``outside_value`` is None for markets without
    an ``_outside`` row. Raises MarketFileError on unreadable or non-UTF-8
    files, missing columns, unparsable values, or an invalid hierarchy.
    """
    markets = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise MarketFileError(f"{path}: empty file")
            missing = [c for c in MARKET_COLUMNS if c not in reader.fieldnames]
            if missing:
                raise MarketFileError(f"{path}: missing columns: {', '.join(missing)}")
            for row in reader:
                fields = [row.get(c) for c in MARKET_COLUMNS]
                if any(v is None or v == "" for v in fields):
                    raise MarketFileError(f"{path}:{reader.line_num}: incomplete row")
                market_id, group_id, subgroup_id, product_id, raw = fields
                try:
                    value = float(raw)
                except ValueError:
                    raise MarketFileError(
                        f"{path}:{reader.line_num}: value {raw!r} is not a number"
                    ) from None
                # product id -> (group_id, subgroup_id, value), the _outside row included
                products = markets.setdefault(market_id, {})
                if product_id in products:
                    raise MarketFileError(
                        f"{path}:{reader.line_num}: market {market_id!r} repeats product {product_id!r}"
                    )
                products[product_id] = (group_id, subgroup_id, value)
    except OSError as err:
        raise MarketFileError(f"{path}: {err}") from None
    except UnicodeDecodeError:
        raise MarketFileError(f"{path}:{_undecodable_line(path)}: not UTF-8 text") from None
    except csv.Error as err:
        # DictReader.line_num is only updated once a row is parsed
        raise MarketFileError(f"{path}:{reader.reader.line_num}: {err}") from None
    if not markets:
        raise MarketFileError(f"{path}: no data rows")

    blocks = []
    for market_id, products in markets.items():
        outside = products.pop(OUTSIDE_ID, None)
        try:
            hierarchy = build_hierarchy([(g, h, p) for p, (g, h, _) in products.items()], market_id)
        except HierLogitError as err:
            raise MarketFileError(f"{path}: market {market_id!r}: {err}") from None
        values = np.array([products[p][2] for p in hierarchy.products], dtype=float)
        blocks.append(MarketBlock(market_id, hierarchy, values, None if outside is None else outside[2]))
    return blocks


def _undecodable_line(path) -> int:
    # the text reader decodes ahead in blocks, so its line count is not the error's
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as err:
        return data.count(b"\n", 0, err.start) + 1


def _read_json_object(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as err:
        raise MarketFileError(f"{path}: {err}") from None
    except (ValueError, RecursionError) as err:
        # bad syntax, non-UTF-8 bytes, integers past Python's digit limit, deep nesting
        raise MarketFileError(f"{path}: invalid JSON: {err}") from None
    if not isinstance(obj, dict):
        raise MarketFileError(f"{path}: expected a JSON object")
    return obj


def read_params_json(path) -> NestingParams:
    """Read and validate a params JSON file.

    Raises MarketFileError on parse problems and OutOfDomainError when a
    sigma falls outside [0, 1).
    """
    obj = _read_json_object(path)
    values = []
    for key in ("sigma1", "sigma2"):
        value = obj.get(key)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise MarketFileError(f"{path}: {key} missing or not a number")
        values.append(float(value))
    return validate_params(*values)


def _read_markets(input_path, params_path, shares_in=False):
    """Params and market blocks, each market checked for an ``_outside`` row
    where ``shares_in`` (invert) needs one and refused where it does not."""
    params = read_params_json(params_path)
    blocks = read_market_csv(input_path)
    for block in blocks:
        if (block.outside_value is None) == shares_in:
            problem = "no" if shares_in else "an unexpected"
            raise MarketFileError(f"{input_path}: market {block.market_id!r} has {problem} {OUTSIDE_ID} row")
    return params, blocks


def _computed(blocks, compute):
    """Yield ``(block, compute(block))`` market by market; model errors name the market."""
    for block in blocks:
        try:
            result = compute(block)
        except HierLogitError as err:
            err.args = (f"market {block.market_id!r}: {err}",)
            raise
        yield block, result


def _tree_columns(hierarchy: ChoiceHierarchy) -> tuple:
    """group_id, subgroup_id and product_id of every product, in tree order."""
    keys = hierarchy.subgroup_keys
    groups, subgroups = zip(*(keys[s] for s in hierarchy.product_subgroup.tolist()))
    return groups, subgroups, hierarchy.products


def _output(output_path):
    return nullcontext(sys.stdout) if output_path is None else open(output_path, "w")


def _write_csv(output_path, header, blocks) -> None:
    """Stream CSV rows to ``output_path`` or standard output.

    ``blocks`` yields lists of equally long columns, one market at a time,
    written in chunks of ``_CHUNK_ROWS`` rows. A float array is written with
    17 significant digits and any other sequence as it is; a float or str
    is repeated on every row, and a block of such scalars alone is one row.
    """
    with _output(output_path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for columns in blocks:
            n_rows = max((len(c) for c in columns if not isinstance(c, (str, float))), default=1)
            for start in range(0, n_rows, _CHUNK_ROWS):
                stop = min(start + _CHUNK_ROWS, n_rows)
                writer.writerows(zip(*[_cells(c, start, stop) for c in columns]))


def _cells(column, start, stop):
    if isinstance(column, np.ndarray):
        # Python floats format faster than numpy scalars
        return [format(x, ".17g") for x in column[start:stop].tolist()]
    if isinstance(column, float):
        column = format(column, ".17g")
    if isinstance(column, str):
        return itertools.repeat(column, stop - start)
    return column[start:stop]


def _die(code: int, message) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _mapped_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (MarketFileError, OSError) as err:
            _die(EXIT_PARSE, err)
        except (SingularDesignError, NoConvergenceError) as err:
            _die(EXIT_SELFTEST, err)
        except HierLogitError as err:
            _die(EXIT_DOMAIN, err)

    return wrapper


@click.group()
@click.version_option(version=__version__, prog_name="hierlogit")
def main():
    """Two-level nested logit toolkit: shares, inversion, derivatives, simulation."""


def _market_command(name, input_help="Market CSV with utilities in the value column."):
    """Register a command with --input, --params and --output; errors map to exit codes."""

    def register(fn):
        fn = click.option("--output", "output_path", default=None, type=click.Path(), help="Destination file; standard output when omitted.")(_mapped_errors(fn))
        fn = click.option("--params", "params_path", required=True, type=click.Path(), help="JSON file with sigma1 and sigma2.")(fn)
        fn = click.option("--input", "input_path", required=True, type=click.Path(), help=input_help)(fn)
        return main.command(name)(fn)

    return register


@_market_command("shares")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
def cmd_shares(input_path, params_path, output_path, fmt):
    """Compute joint, conditional, and outside shares plus inclusive values."""
    params, blocks = _read_markets(input_path, params_path)
    results = _computed(blocks, lambda b: compute_shares(b.hierarchy, b.values, params))
    if fmt == "json":
        with _output(output_path) as fh:
            fh.write(_shares_json(results, params))
    else:
        _write_csv(output_path, SHARES_COLUMNS, _shares_csv(results))


def _shares_csv(results):
    for block, (table, iv) in results:
        h = block.hierarchy
        sub, grp = h.product_subgroup, h.product_group
        yield [
            block.market_id, *_tree_columns(h), table.joint, table.cond_product,
            table.cond_subgroup[sub], table.group[grp], iv.subgroup[sub], iv.group[grp], iv.top,
        ]
        yield [block.market_id, OUTSIDE_ID, OUTSIDE_ID, OUTSIDE_ID, table.outside, "", "", "", "", "", iv.top]


def _shares_json(results, params: NestingParams) -> str:
    keys = ("product_id", "group_id", "subgroup_id", "delta", "joint", "cond_product",
            "cond_subgroup", "group_share")
    markets = []
    for block, (table, iv) in results:
        h = block.hierarchy
        groups, subgroups, products = _tree_columns(h)
        reals = (block.values, table.joint, table.cond_product,
                 table.cond_subgroup[h.product_subgroup], table.group[h.product_group])
        columns = zip(products, groups, subgroups, *(a.tolist() for a in reals))
        markets.append(
            {
                "market_id": block.market_id,
                "products": [dict(zip(keys, row)) for row in columns],
                "outside_share": table.outside,
                "inclusive_values": {
                    "subgroup": [
                        {"group_id": gid, "subgroup_id": sid, "value": value}
                        for (gid, sid), value in zip(h.subgroup_keys, iv.subgroup.tolist())
                    ],
                    "group": [
                        {"group_id": gid, "value": value}
                        for gid, value in zip(h.group_ids, iv.group.tolist())
                    ],
                    "top": iv.top,
                },
            }
        )
    payload = {"sigma1": params.sigma1, "sigma2": params.sigma2, "markets": markets}
    return json.dumps(payload, indent=2) + "\n"


@_market_command("invert", "Market CSV with joint shares and one _outside row per market.")
@click.option("--method", type=click.Choice(["closed", "newton"]), default="closed", show_default=True)
@click.option("--tol", type=float, default=1e-9, show_default=True, help="Newton stopping tolerance; closed and newton must agree within 10*tol.")
def cmd_invert(input_path, params_path, output_path, method, tol):
    """Recover mean utilities from observed shares (closed form or Newton)."""
    params, blocks = _read_markets(input_path, params_path, shares_in=True)

    def utilities(block):
        table = ShareTable.from_joint(block.hierarchy, block.values, block.outside_value)
        total = float(block.values.sum() + block.outside_value)
        if abs(total - 1.0) > 1e-6:
            raise MarketFileError(f"shares sum to {total:.9g}, expected 1 within 1e-6")
        delta = berry_invert(table, params).values
        if method == "closed":
            return delta
        newton = numeric_invert(block.hierarchy, table, params, tol=tol, max_iter=50).values
        gap = float(np.max(np.abs(newton - delta)))
        if gap > 10.0 * tol:
            raise NoConvergenceError(
                f"newton and closed-form utilities disagree by {gap:.3e} (limit {10.0 * tol:.3e})",
                residual=gap,
            )
        return newton

    rows = ([b.market_id, *_tree_columns(b.hierarchy), d] for b, d in _computed(blocks, utilities))
    _write_csv(output_path, MARKET_COLUMNS, rows)


@_market_command("jacobian")
@click.option("--check-fd", is_flag=True, help="Cross-check against central finite differences; mismatch exits 3.")
def cmd_jacobian(input_path, params_path, output_path, check_fd):
    """Write the share Jacobian ds_j/ddelta_k in long format."""
    params, blocks = _read_markets(input_path, params_path)
    fd_errors = []

    def jacobian(block):
        h = block.hierarchy
        jac = full_jacobian(h, block.values, params)
        if check_fd:
            fd = fd_jacobian(h, block.values, params, step=1e-6)
            table, _ = compute_shares(h, block.values, params)
            err = max_relative_error(jac, fd, row_scale=np.append(table.joint, table.outside))
            click.echo(
                f"market {block.market_id!r}: max relative error vs finite differences {err:.3e}",
                err=True,
            )
            fd_errors.append(err)
        return jac

    def rows():
        for block, jac in _computed(blocks, jacobian):
            ids, n = block.hierarchy.products, block.hierarchy.n_products
            yield [block.market_id, [p for p in ids for _ in range(n)], ids * n, jac.matrix.ravel()]
            yield [block.market_id, OUTSIDE_ID, ids, jac.outside_row]

    _write_csv(output_path, ["market_id", "row_id", "col_id", "value"], rows())
    if any(err > _FD_LIMIT for err in fd_errors):
        _die(EXIT_SELFTEST, f"finite-difference check exceeded {_FD_LIMIT:g}")


@_market_command("simulate")
@click.option("--draws", type=int, required=True, help="Number of simulated consumers per market.")
@click.option("--seed", type=int, default=0, show_default=True)
def cmd_simulate(input_path, params_path, output_path, draws, seed):
    """Simulate sequential choices and compare frequencies to analytic shares."""
    config = SimConfig(draws=draws, seed=seed)
    params, blocks = _read_markets(input_path, params_path)
    worst = [0.0, None]

    def simulated(block):
        counts = simulate_choices(block.hierarchy, block.values, params, config)
        table, _ = compute_shares(block.hierarchy, block.values, params)
        freq, _ = empirical_shares(counts)
        share = np.append(table.joint, table.outside)
        se = np.sqrt(share * (1.0 - share) / float(draws))
        z = (freq - share) / se
        peak = float(np.max(np.abs(z)))
        if peak > worst[0]:
            worst[:] = peak, block.market_id
        ids = [(*column, OUTSIDE_ID) for column in _tree_columns(block.hierarchy)]
        tally = np.append(counts.counts, counts.outside_count).tolist()
        return [block.market_id, *ids, tally, freq, share, se, z]

    header = [*MARKET_COLUMNS[:4], "count", "frequency", "share", "std_error", "z_score"]
    _write_csv(output_path, header, (rows for _, rows in _computed(blocks, simulated)))
    peak, market_id = worst
    if peak > _Z_LIMIT:
        _die(
            EXIT_SELFTEST,
            f"market {market_id!r}: |z|={peak:.2f} exceeds {_Z_LIMIT:g}; "
            "simulated frequencies inconsistent with analytic shares",
        )


@main.command("estimate")
@click.option("--config", "config_path", required=True, type=click.Path(), help="Synthetic-market JSON config.")
@click.option("--output", "output_path", default=None, type=click.Path())
@_mapped_errors
def cmd_estimate(config_path, output_path):
    """Generate a synthetic market and fit the inverted share equation."""
    config = _read_synth_config(config_path)
    params = validate_params(config.sigma1, config.sigma2)
    hierarchy, delta, covariates = generate_market(config)
    table, _ = compute_shares(hierarchy, delta, params)
    result = estimate_linear(regression_rows(table), covariates)
    payload = {
        "beta_hat": [float(b) for b in result.beta_hat],
        "sigma1_hat": result.sigma1_hat,
        "sigma2_hat": result.sigma2_hat,
        "residual_norm": result.residual_norm,
        "n_products": hierarchy.n_products,
    }
    with _output(output_path) as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


def _read_synth_config(path) -> SynthConfig:
    obj = _read_json_object(path)

    def number(key, value, kind=float):
        """``kind(value)`` for a finite JSON number, which must be integral for int."""
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise OutOfDomainError(f"config {key} missing or not a number")
        if isinstance(value, float) and not math.isfinite(value):
            raise OutOfDomainError(f"config {key}={value!r} is not finite")
        if kind is int and value != int(value):
            raise OutOfDomainError(f"config {key}={value!r} must be an integer")
        try:
            return kind(value)
        except OverflowError:
            raise OutOfDomainError(f"config {key} is out of range") from None

    def field(key, default=None, kind=float):
        return number(key, obj.get(key, default), kind)

    beta = obj.get("beta")
    if not isinstance(beta, list) or not beta:
        raise OutOfDomainError("config beta must be a nonempty list of numbers")
    x_range = obj.get("x_range", [0.0, 1.0])
    if not isinstance(x_range, list) or len(x_range) != 2:
        raise OutOfDomainError("config x_range must be [lo, hi]")
    return SynthConfig(
        n_groups=field("n_groups", kind=int),
        n_subgroups_per_group=field("n_subgroups_per_group", kind=int),
        n_products_per_subgroup=field("n_products_per_subgroup", kind=int),
        beta=tuple(number("beta", b) for b in beta),
        x_range=tuple(number("x_range", v) for v in x_range),
        xi_scale=field("xi_scale", 0.0),
        sigma1=field("sigma1"),
        sigma2=field("sigma2"),
        seed=field("seed", 0, int),
    )


if __name__ == "__main__":
    main()
