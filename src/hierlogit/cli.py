"""Command-line front end and the on-disk market/params formats.

Market CSV: header ``market_id,group_id,subgroup_id,product_id,value``,
one row per product. ``value`` is a mean utility for the shares, jacobian,
and simulate commands, and an observed joint share for invert; invert
additionally needs one row per market with product_id ``_outside``
carrying the outside share. Extra columns are ignored, so the output of
``shares`` feeds straight back into ``invert``. Params JSON is an object
``{"sigma1": r, "sigma2": r}``.

Exit codes: 0 success, 1 unreadable or malformed input, 2 values outside
the model's domain, 3 failed self-check (finite-difference mismatch,
simulation z-score blowout, Newton/closed-form disagreement, singular
design). Diagnostics go to standard error; results go to ``--output`` or
standard output.

Reals are serialized with 17 significant digits so that written files
round-trip doubles exactly.
"""

import csv
import functools
import io
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass

import click
import numpy as np

from .errors import (
    DegenerateShareError,
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

# z-score beyond which a simulation run is considered a failed self-test
_Z_LIMIT = 5.0
# finite-difference relative error beyond which --check-fd fails
_FD_LIMIT = 1e-5


@dataclass(frozen=True)
class MarketBlock:
    """One market parsed from a CSV: tree, per-product values, outside value."""

    market_id: str
    hierarchy: ChoiceHierarchy
    values: np.ndarray
    outside_value: float


def read_market_csv(path) -> list:
    """Parse a market CSV into MarketBlocks in first-appearance order.

    ``outside_value`` is None for markets without an ``_outside`` row.

    Raises
    ------
    MarketFileError
        On unreadable files, missing columns, unparsable values, or rows
        that do not form a valid hierarchy.
    """
    order = []
    markets = {}
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise MarketFileError(f"{path}: empty file")
            missing = [c for c in MARKET_COLUMNS if c not in reader.fieldnames]
            if missing:
                raise MarketFileError(f"{path}: missing columns: {', '.join(missing)}")
            for lineno, row in enumerate(reader, start=2):
                fields = [row.get(c) for c in MARKET_COLUMNS]
                if any(v is None or v == "" for v in fields):
                    raise MarketFileError(f"{path}:{lineno}: incomplete row")
                market_id, group_id, subgroup_id, product_id, raw = fields
                try:
                    value = float(raw)
                except ValueError:
                    raise MarketFileError(
                        f"{path}:{lineno}: value {raw!r} is not a number"
                    ) from None
                if market_id not in markets:
                    markets[market_id] = {"rows": [], "values": [], "outside": None}
                    order.append(market_id)
                entry = markets[market_id]
                if product_id == OUTSIDE_ID:
                    if entry["outside"] is not None:
                        raise MarketFileError(
                            f"{path}:{lineno}: market {market_id!r} has two {OUTSIDE_ID} rows"
                        )
                    entry["outside"] = value
                else:
                    entry["rows"].append((group_id, subgroup_id, product_id))
                    entry["values"].append(value)
    except OSError as err:
        raise MarketFileError(f"{path}: {err}") from None
    if not order:
        raise MarketFileError(f"{path}: no data rows")

    blocks = []
    for market_id in order:
        entry = markets[market_id]
        try:
            hierarchy = build_hierarchy(entry["rows"], market_id=market_id)
        except HierLogitError as err:
            raise MarketFileError(f"{path}: market {market_id!r}: {err}") from None
        blocks.append(
            MarketBlock(
                market_id=market_id,
                hierarchy=hierarchy,
                values=np.array(entry["values"], dtype=float),
                outside_value=entry["outside"],
            )
        )
    return blocks


def _read_json_object(path) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as err:
        raise MarketFileError(f"{path}: {err}") from None
    except json.JSONDecodeError as err:
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


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_text(output_path, text: str) -> None:
    if output_path is None:
        sys.stdout.write(text)
    else:
        with open(output_path, "w") as fh:
            fh.write(text)


def _die(code: int, message) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _mapped_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except MarketFileError as err:
            _die(EXIT_PARSE, err)
        except (SingularDesignError, NoConvergenceError) as err:
            _die(EXIT_SELFTEST, err)
        except HierLogitError as err:
            _die(EXIT_DOMAIN, err)
        except OSError as err:
            _die(EXIT_PARSE, err)

    return wrapper


@contextmanager
def _market_scope(market_id):
    # prefix in-model errors with the offending market id
    try:
        yield
    except HierLogitError as err:
        err.args = (f"market {market_id!r}: {err}",)
        raise


def _require_delta_mode(block: MarketBlock) -> None:
    if block.outside_value is not None:
        raise MarketFileError(
            f"market {block.market_id!r}: unexpected {OUTSIDE_ID} row in utility input"
        )


def _product_rows(hierarchy: ChoiceHierarchy):
    keys = hierarchy.subgroup_keys
    subgroups = hierarchy.product_subgroup.tolist()
    for pos, product_id in enumerate(hierarchy.products):
        group_id, subgroup_id = keys[subgroups[pos]]
        yield pos, group_id, subgroup_id, product_id


@click.group()
@click.version_option(package_name="hierlogit", prog_name="hierlogit")
def main():
    """Two-level nested logit toolkit: shares, inversion, derivatives, simulation."""


@main.command("shares")
@click.option("--input", "input_path", required=True, type=click.Path(), help="Market CSV with utilities in the value column.")
@click.option("--params", "params_path", required=True, type=click.Path(), help="JSON file with sigma1 and sigma2.")
@click.option("--output", "output_path", default=None, type=click.Path(), help="Destination file; standard output when omitted.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@_mapped_errors
def cmd_shares(input_path, params_path, output_path, fmt):
    """Compute joint, conditional, and outside shares plus inclusive values."""
    params = read_params_json(params_path)
    blocks = read_market_csv(input_path)
    results = []
    for block in blocks:
        _require_delta_mode(block)
        with _market_scope(block.market_id):
            table, iv = compute_shares(block.hierarchy, block.values, params)
        results.append((block, table, iv))
    text = _shares_csv(results) if fmt == "csv" else _shares_json(results, params)
    _write_text(output_path, text)


def _shares_csv(results) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        list(MARKET_COLUMNS)
        + ["cond_product", "cond_subgroup", "group_share", "iv_subgroup", "iv_group", "iv_top"]
    )
    for block, table, iv in results:
        h = block.hierarchy
        for pos, group_id, subgroup_id, product_id in _product_rows(h):
            si = h.product_subgroup[pos]
            gi = h.product_group[pos]
            writer.writerow(
                [
                    block.market_id,
                    group_id,
                    subgroup_id,
                    product_id,
                    _fmt(table.joint[pos]),
                    _fmt(table.cond_product[pos]),
                    _fmt(table.cond_subgroup[si]),
                    _fmt(table.group[gi]),
                    _fmt(iv.subgroup[si]),
                    _fmt(iv.group[gi]),
                    _fmt(iv.top),
                ]
            )
        writer.writerow(
            [block.market_id, OUTSIDE_ID, OUTSIDE_ID, OUTSIDE_ID, _fmt(table.outside)]
            + ["", "", "", "", "", _fmt(iv.top)]
        )
    return buf.getvalue()


def _shares_json(results, params: NestingParams) -> str:
    payload = {"sigma1": params.sigma1, "sigma2": params.sigma2, "markets": []}
    for block, table, iv in results:
        h = block.hierarchy
        products = []
        for pos, group_id, subgroup_id, product_id in _product_rows(h):
            si = h.product_subgroup[pos]
            gi = h.product_group[pos]
            products.append(
                {
                    "product_id": product_id,
                    "group_id": group_id,
                    "subgroup_id": subgroup_id,
                    "delta": float(block.values[pos]),
                    "joint": float(table.joint[pos]),
                    "cond_product": float(table.cond_product[pos]),
                    "cond_subgroup": float(table.cond_subgroup[si]),
                    "group_share": float(table.group[gi]),
                }
            )
        payload["markets"].append(
            {
                "market_id": block.market_id,
                "products": products,
                "outside_share": table.outside,
                "inclusive_values": {
                    "subgroup": [
                        {"group_id": gid, "subgroup_id": sid, "value": float(iv.subgroup[i])}
                        for i, (gid, sid) in enumerate(h.subgroup_keys)
                    ],
                    "group": [
                        {"group_id": gid, "value": float(iv.group[i])}
                        for i, gid in enumerate(h.group_ids)
                    ],
                    "top": iv.top,
                },
            }
        )
    return json.dumps(payload, indent=2) + "\n"


@main.command("invert")
@click.option("--input", "input_path", required=True, type=click.Path(), help="Market CSV with joint shares and one _outside row per market.")
@click.option("--params", "params_path", required=True, type=click.Path())
@click.option("--output", "output_path", default=None, type=click.Path())
@click.option("--method", type=click.Choice(["closed", "newton"]), default="closed", show_default=True)
@click.option("--tol", type=float, default=1e-9, show_default=True, help="Newton stopping tolerance; closed and newton must agree within 10*tol.")
@_mapped_errors
def cmd_invert(input_path, params_path, output_path, method, tol):
    """Recover mean utilities from observed shares (closed form or Newton)."""
    params = read_params_json(params_path)
    blocks = read_market_csv(input_path)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(MARKET_COLUMNS)
    for block in blocks:
        table = _share_mode_table(block)
        with _market_scope(block.market_id):
            delta = berry_invert(table, params).values
            if method == "newton":
                newton = numeric_invert(block.hierarchy, table, params, tol=tol, max_iter=50).values
                gap = float(np.max(np.abs(newton - delta)))
                if gap > 10.0 * tol:
                    raise NoConvergenceError(
                        f"newton and closed-form utilities disagree by {gap:.3e} "
                        f"(limit {10.0 * tol:.3e})",
                        residual=gap,
                    )
                delta = newton
        for pos, group_id, subgroup_id, product_id in _product_rows(block.hierarchy):
            writer.writerow(
                [block.market_id, group_id, subgroup_id, product_id, _fmt(delta[pos])]
            )
    _write_text(output_path, buf.getvalue())


def _share_mode_table(block: MarketBlock) -> ShareTable:
    if block.outside_value is None:
        raise MarketFileError(
            f"market {block.market_id!r}: missing {OUTSIDE_ID} row with the outside share"
        )
    with _market_scope(block.market_id):
        if np.any(block.values <= 0.0) or np.any(block.values >= 1.0):
            raise DegenerateShareError("observed shares must lie strictly in (0, 1)")
        if not 0.0 < block.outside_value < 1.0:
            raise DegenerateShareError(
                f"outside share {block.outside_value!r} must lie strictly in (0, 1)"
            )
        total = float(block.values.sum() + block.outside_value)
        if abs(total - 1.0) > 1e-6:
            raise MarketFileError(f"shares sum to {total:.9g}, expected 1 within 1e-6")
        return ShareTable.from_joint(block.hierarchy, block.values, block.outside_value)


@main.command("jacobian")
@click.option("--input", "input_path", required=True, type=click.Path(), help="Market CSV with utilities in the value column.")
@click.option("--params", "params_path", required=True, type=click.Path())
@click.option("--output", "output_path", default=None, type=click.Path())
@click.option("--check-fd", is_flag=True, help="Cross-check against central finite differences; mismatch exits 3.")
@_mapped_errors
def cmd_jacobian(input_path, params_path, output_path, check_fd):
    """Write the share Jacobian ds_j/ddelta_k in long format."""
    params = read_params_json(params_path)
    blocks = read_market_csv(input_path)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["market_id", "row_id", "col_id", "value"])
    failed = False
    for block in blocks:
        _require_delta_mode(block)
        h = block.hierarchy
        with _market_scope(block.market_id):
            jac = full_jacobian(h, block.values, params)
            if check_fd:
                fd = fd_jacobian(h, block.values, params, step=1e-6)
                table, _ = compute_shares(h, block.values, params)
                err = max_relative_error(
                    jac, fd, row_scale=np.append(table.joint, table.outside)
                )
                click.echo(
                    f"market {block.market_id!r}: max relative error vs finite differences "
                    f"{err:.3e}",
                    err=True,
                )
                if err > _FD_LIMIT:
                    failed = True
        for j, row_id in enumerate(h.products):
            for k, col_id in enumerate(h.products):
                writer.writerow([block.market_id, row_id, col_id, _fmt(jac.matrix[j, k])])
        for k, col_id in enumerate(h.products):
            writer.writerow([block.market_id, OUTSIDE_ID, col_id, _fmt(jac.outside_row[k])])
    _write_text(output_path, buf.getvalue())
    if failed:
        _die(EXIT_SELFTEST, f"finite-difference check exceeded {_FD_LIMIT:g}")


@main.command("simulate")
@click.option("--input", "input_path", required=True, type=click.Path(), help="Market CSV with utilities in the value column.")
@click.option("--params", "params_path", required=True, type=click.Path())
@click.option("--draws", type=int, required=True, help="Number of simulated consumers per market.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--output", "output_path", default=None, type=click.Path())
@_mapped_errors
def cmd_simulate(input_path, params_path, draws, seed, output_path):
    """Simulate sequential choices and compare frequencies to analytic shares."""
    config = SimConfig(draws=draws, seed=seed)
    params = read_params_json(params_path)
    blocks = read_market_csv(input_path)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["market_id", "group_id", "subgroup_id", "product_id", "count", "frequency", "share", "std_error", "z_score"]
    )
    worst = (0.0, None)
    for block in blocks:
        _require_delta_mode(block)
        with _market_scope(block.market_id):
            counts = simulate_choices(block.hierarchy, block.values, params, config)
            table, _ = compute_shares(block.hierarchy, block.values, params)
        freq, _ = empirical_shares(counts)
        share = np.append(table.joint, table.outside)
        se = np.sqrt(share * (1.0 - share) / float(draws))
        z = (freq - share) / se
        tally = np.append(counts.counts, counts.outside_count)
        ids = list(_product_rows(block.hierarchy)) + [(len(share) - 1, OUTSIDE_ID, OUTSIDE_ID, OUTSIDE_ID)]
        for pos, group_id, subgroup_id, product_id in ids:
            writer.writerow(
                [
                    block.market_id,
                    group_id,
                    subgroup_id,
                    product_id,
                    int(tally[pos]),
                    _fmt(freq[pos]),
                    _fmt(share[pos]),
                    _fmt(se[pos]),
                    _fmt(z[pos]),
                ]
            )
        peak = float(np.max(np.abs(z)))
        if peak > worst[0]:
            worst = (peak, block.market_id)
    _write_text(output_path, buf.getvalue())
    if worst[0] > _Z_LIMIT:
        _die(
            EXIT_SELFTEST,
            f"market {worst[1]!r}: |z|={worst[0]:.2f} exceeds {_Z_LIMIT:g}; "
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
    _write_text(output_path, json.dumps(payload, indent=2) + "\n")


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
