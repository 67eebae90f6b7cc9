"""Command-line front end and the on-disk market/params formats.

Market CSV: header ``market_id,group_id,subgroup_id,product_id,value``, one
row per product. ``value`` is a mean utility for shares, jacobian and
simulate, and an observed joint share for invert, which also needs one
``_outside`` row per market carrying the outside share. Rows may come in any
order: values are matched to products by (market_id, product_id), and the
output lists markets, then the groups, subgroups and products of each, in
order of first appearance. Extra columns are ignored, so ``shares`` output
feeds straight back into ``invert``. A value is any text ``float()`` reads
(``1_0``, ``Infinity``, non-ASCII digits; not ``0x10``). Fields may be quoted
as the csv module quotes them, and lines may end in CRLF; a field over
131,072 characters is malformed. Params JSON is ``{"sigma1": r, "sigma2": r}``.
Market, params and config files may start with a UTF-8 byte-order mark.

Each command reads the whole file into one tree whose top level is the
market, and runs each kernel once for the file, Newton and the simulation
included, the Jacobian and its finite differences once per run of markets
of at most ``_RUN_CELLS`` cells (a larger market alone). Newton stops a
market at a max log-share residual of log1p(tol) (near sigma -> 1, at the
rounding floor ``numeric_invert`` documents), takes one more step, and must
then agree with the closed form within 10*tol. Checks by layer: the reader rejects
non-UTF-8 or malformed CSV, unparsable values and repeated products,
and checks every market's ``_outside`` row (required by invert,
refused by the others) before any market is computed;
``ShareTable.from_joint`` bounds each share of invert's input strictly
inside (0, 1); and the CLI requires a market's shares to sum to 1 within
1e-6. When a step fails, the error reported is that of the first market,
in file order, at which any step fails, and the markets before it are
written: a run of markets that fails, out of memory included, is split in
halves until that market is found, since a market gives the same numbers
and errors alone as in any run.

Each command imports the kernel modules it runs when it runs; ``run`` is the
process entry point (see its docstring), ``main.main(argv)`` the in-process one.

Exit codes: 0 success, 1 a bad command line or unreadable or malformed input
(the sum rule included), 2 values outside the model's domain (utilities that
overflow a double once divided by 1 - sigma included) or too little memory for one
market (the message names it, wherever it runs out), 3 failed self-check
(finite-difference mismatch, simulation z-score blowout,
Newton/closed-form disagreement, singular design).
Diagnostics go to standard error. Results go to ``--output`` or standard
output as UTF-8 whatever the locale, CSV in chunks of rows cut from each
run of markets, formatted on the standard library's thread pool, one thread per
CPU (no thread for one chunk), and written in file order, the same bytes
whatever the CPU count. Reals are exactly ``format(x, ".17g")`` (NaN an
empty cell), so written files round-trip doubles: numpy derives the digits,
and Python formats what it cannot prove (zero, inf, near-ties; see ``csvout``).
"""

import argparse
import gc
import json
import sys
from contextlib import nullcontext
from dataclasses import MISSING, fields

import numpy as np

from . import __version__
from .errors import (
    HierLogitError,
    MarketFileError,
    NoConvergenceError,
    SingularDesignError,
)
from .hierarchy import MARKET_COLUMNS, OUTSIDE_ID, ChoiceHierarchy, MarketBlock, NestingParams
from .shares import ShareTable, compute_shares

__all__ = [
    "main",
    "run",
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

SHARES_COLUMNS = MARKET_COLUMNS + (
    "cond_product", "cond_subgroup", "group_share", "iv_subgroup", "iv_group", "iv_top")

# |z| beyond which a simulation run is a failed self-test; z being exact, a
# 5-sigma two-sided binomial tail per alternative
_Z_LIMIT = 5.0
# finite-difference relative error beyond which --check-fd fails
_FD_LIMIT = 1e-5
# Jacobian cells per run of markets: a run's columns take about 20 bytes a cell, its --check-fd differences
# (products + markets) x largest market doubles, at most ~52 MB (a ~150-product market, ~22,000 of one)
_RUN_CELLS = 1 << 16


def read_market_csv(path, outside=False) -> MarketBlock:
    """Parse a market CSV into one MarketBlock; see ``csvin.read_market_csv``."""
    from .csvin import read_market_csv  # on first use, so that start-up compiles no more
    return read_market_csv(path, outside)


def _read_json_object(path) -> dict:
    try:
        with open(path, encoding="utf-8-sig") as fh:
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
    for key in ("sigma1", "sigma2"):
        value = obj.get(key)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise MarketFileError(f"{path}: {key} missing or not a number")
    return NestingParams(obj["sigma1"], obj["sigma2"])


def _results(block, compute, cells=None):
    """Yield ``(markets, compute(markets))`` for runs of the markets of
    ``block``, in file order: the whole block, or, when ``compute`` fails on
    it or its tree has more than ``_RUN_CELLS`` ``cells``, each of its halves
    in turn. So the first market, in file order, at which ``compute`` fails
    raises its own error, named, after the markets before it are yielded."""
    n = block.hierarchy.n_markets
    if n == 1 or cells is None or cells(block.hierarchy) <= _RUN_CELLS:
        try:
            result = compute(block)
        except (HierLogitError, MemoryError) as err:
            if n == 1:
                named = f"market {block.hierarchy.market_ids[0]!r}: {err}"
                if isinstance(err, MemoryError):
                    # numpy's MemoryError formats its message from its fields, not its args
                    raise MemoryError(named) from None
                err.args = (named,)
                raise
        else:
            yield block, result
            return
    yield from _results(block.markets(0, n // 2), compute, cells)
    yield from _results(block.markets(n // 2, n), compute, cells)


def _id_columns(h: ChoiceHierarchy, outside=False) -> list:
    """Market, group, subgroup and product ids of every product as
    ``(ids, codes)`` columns, each market's outside row after its products
    where ``outside``."""
    # an outside row names its market, and the outside option at every level below
    return [(ids + (OUTSIDE_ID,), _outside_rows(h, codes, np.arange(h.n_markets) if level == 0 else len(ids)))
            if outside else (ids, codes) for level, (ids, codes) in enumerate(zip(h.ids, h.above))]


def _outside_rows(h: ChoiceHierarchy, inside, outside=np.nan) -> np.ndarray:
    """``inside`` per product with each market's ``outside`` after its products."""
    return np.insert(inside, h.bounds[2, 1:], outside)


def _output(output_path):
    """``output_path``, or standard output, opened for bytes."""
    sys.stdout.flush()
    return nullcontext(sys.stdout.buffer) if output_path is None else open(output_path, "wb")


def _write_csv(output_path, header, blocks) -> None:
    """Stream the rows of ``blocks`` (see ``csvout.write_csv``) to
    ``output_path`` or standard output."""
    from .csvout import write_csv  # on first use, so that start-up compiles no more

    with _output(output_path) as out:
        write_csv(out, header, blocks)


def _die(code: int, message) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors print one ``error:`` line and exit 1."""

    def error(self, message):
        _die(EXIT_PARSE, message)

    def main(self, args=None, prog_name=None, standalone_mode=None):
        """Run the command that ``args`` (default ``sys.argv[1:]``) names; an
        error exits with its code. ``prog_name`` and ``standalone_mode`` are
        ignored: they exist only for the call that ``perfbench/tracing.run_cli``
        makes, ``main.main(args=argv, prog_name="hierlogit", standalone_mode=True)``."""
        argv = []
        words = iter(sys.argv[1:] if args is None else args)
        for word in words:
            # an option that takes a value takes the next word, "-1e-9" too
            value = next(words, None) if word in _VALUED else None
            argv.append(word if value is None else f"{word}={value}")
        kwargs = vars(self.parse_args(argv))
        try:
            kwargs.pop("run")(**kwargs)
        except (MarketFileError, OSError) as err:
            _die(EXIT_PARSE, err)
        except (SingularDesignError, NoConvergenceError) as err:
            _die(EXIT_SELFTEST, err)
        except HierLogitError as err:
            _die(EXIT_DOMAIN, err)
        except MemoryError as err:
            _die(EXIT_DOMAIN, f"out of memory: {err}")


main = _Parser(prog="hierlogit", allow_abbrev=False,
               description="Two-level nested logit toolkit: shares, inversion, derivatives, simulation.")
main.add_argument("--version", action="version", version=f"hierlogit, version {__version__}",
                  help="Show the version and exit.")
_commands = main.add_subparsers(metavar="COMMAND", required=True)
_VALUED = set()  # the options that take a value
_DEFAULT = "[default: %(default)s]"


def _command(name, *options):
    """Register the decorated function as command ``name`` with ``options``,
    each a flag and its ``add_argument`` keywords."""

    def register(fn):
        parser = _commands.add_parser(name, help=fn.__doc__, description=fn.__doc__, allow_abbrev=False)
        for flag, kwargs in options:
            parser.add_argument(flag, **kwargs)
        _VALUED.update(flag for flag, kwargs in options if "action" not in kwargs)
        parser.set_defaults(run=fn)
        return fn

    return register


def _market_options(input_help="Market CSV with utilities in the value column."):
    return (("--input", dict(dest="input_path", required=True, metavar="PATH", help=input_help)),
            ("--params", dict(dest="params_path", required=True, metavar="PATH",
                              help="JSON file with sigma1 and sigma2.")),
            ("--output", dict(dest="output_path", metavar="PATH",
                              help="Destination file; standard output when omitted.")))


@_command("shares", *_market_options(),
          ("--format", dict(dest="fmt", choices=["csv", "json"], default="csv", help=_DEFAULT)))
def cmd_shares(input_path, params_path, output_path, fmt):
    """Compute joint, conditional, and outside shares plus inclusive values."""
    params, block = read_params_json(params_path), read_market_csv(input_path)
    runs = _results(block, lambda b: compute_shares(b.hierarchy, b.values, params))
    if fmt == "csv":
        _write_csv(output_path, SHARES_COLUMNS, (_shares_csv(b.hierarchy, table, iv) for b, (table, iv) in runs))
        return
    with _output(output_path) as out:
        # nothing is written unless every market succeeds
        for text in _shares_json(list(runs), params):
            out.write(text.encode())


def _shares_csv(h, table, iv) -> list:
    top = np.atleast_1d(iv.top)
    # a per-segment value is formatted once, then gathered by code; the
    # outside row's code points past the values, at a NaN (a blank) or its market's top
    segments = ((table.cond_subgroup, h.product_subgroup), (table.group, h.product_group),
                (iv.subgroup, h.product_subgroup), (iv.group, h.product_group))
    return [*_id_columns(h, outside=True), _outside_rows(h, table.joint, table.outside),
            _outside_rows(h, table.cond_product),
            *((np.append(values, np.nan), _outside_rows(h, codes, len(values))) for values, codes in segments),
            (top, _outside_rows(h, h.product_market, np.arange(h.n_markets)))]


def _shares_json(runs, params: NestingParams):
    """Yield ``json.dumps(payload, indent=2) + "\\n"`` market by market from
    the ``(markets, (table, iv))`` runs of a file."""
    keys = ("product_id", "group_id", "subgroup_id", "delta", "joint", "cond_product",
            "cond_subgroup", "group_share")
    yield json.dumps({"sigma1": params.sigma1, "sigma2": params.sigma2}, indent=2)[:-2] + ',\n  "markets": ['
    sep = ""
    for block, (table, iv) in runs:
        h = block.hierarchy
        ids = (h.products, *([h.ids[l][i] for i in h.above[l].tolist()] for l in (1, 2)))
        reals = (block.values, table.joint, table.cond_product,
                 table.cond_subgroup[h.product_subgroup], table.group[h.product_group])
        rows = list(zip(*ids, *(a.tolist() for a in reals)))
        subgroups = [{"group_id": gid, "subgroup_id": sid, "value": value}
                     for (gid, sid), value in zip(h.subgroup_keys, iv.subgroup.tolist())]
        groups = [{"group_id": gid, "value": value} for gid, value in zip(h.group_ids, iv.group.tolist())]
        outside, top = np.atleast_1d(table.outside).tolist(), np.atleast_1d(iv.top).tolist()
        g, s, p = h.bounds.tolist()
        for m, market_id in enumerate(h.market_ids):
            market = {
                "market_id": market_id,
                "products": [dict(zip(keys, row)) for row in rows[p[m]:p[m + 1]]],
                "outside_share": outside[m],
                "inclusive_values": {"subgroup": subgroups[s[m]:s[m + 1]], "group": groups[g[m]:g[m + 1]],
                                     "top": top[m]},
            }
            # a market sits two levels deep in the payload
            yield sep + "\n    " + json.dumps(market, indent=2).replace("\n", "\n    ")
            sep = ","
    yield "\n  ]\n}\n"


@_command("invert", *_market_options("Market CSV with joint shares and one _outside row per market."),
          ("--method", dict(choices=["closed", "newton"], default="closed", help=_DEFAULT)),
          ("--tol", dict(type=float, default=1e-9,
                         help="Newton stopping tolerance; closed and newton must agree within 10*tol.  " + _DEFAULT)))
def cmd_invert(input_path, params_path, output_path, method, tol):
    """Recover mean utilities from observed shares (closed form or Newton)."""
    from .inversion import _check_tol, berry_invert, numeric_invert

    params, block = read_params_json(params_path), read_market_csv(input_path, outside=True)
    if method == "newton":
        _check_tol(tol)

    def inverted(b):
        h = b.hierarchy
        table = ShareTable.from_joint(h, b.values, b.outside)
        total = np.bincount(h.product_market, b.values, h.n_markets) + b.outside
        bad = total[np.abs(total - 1.0) > 1e-6]
        if bad.size:
            raise MarketFileError(f"shares sum to {bad[0]:.9g}, expected 1 within 1e-6")
        delta = berry_invert(table, params).values
        if method == "closed":
            return delta
        values = numeric_invert(h, table, params, tol=tol, max_iter=50).values
        gap = float(np.max(np.abs(values - delta)))
        if gap > 10.0 * tol:
            raise NoConvergenceError(
                f"newton and closed-form utilities disagree by {gap:.3e} (limit {10.0 * tol:.3e})", residual=gap)
        return values

    runs = _results(block, inverted)
    _write_csv(output_path, MARKET_COLUMNS, ([*_id_columns(b.hierarchy), delta] for b, delta in runs))


@_command("jacobian", *_market_options(),
          ("--check-fd", dict(action="store_true",
                              help="Cross-check against central finite differences; mismatch exits 3.")))
def cmd_jacobian(input_path, params_path, output_path, check_fd):
    """Write the share Jacobian ds_j/ddelta_k in long format."""
    from .jacobian import ShareJacobian, _fd_columns, _log_share_cells, max_relative_error

    params, block = read_params_json(params_path), read_market_csv(input_path)
    fd_errors = []

    def jacobian(b):
        h = b.hierarchy
        table, _ = compute_shares(h, b.values, params)
        shares = np.append(table.joint, table.outside)
        fd = _fd_columns(h, b.values, params, 1e-6) if check_fd else None
        parts, checked = [], []
        for m, (lo, hi) in enumerate(zip(h.bounds[2, :-1].tolist(), h.bounds[2, 1:].tolist())):
            # the market's products, then its outside option, row n_products + m of the tree
            rows, n = np.append(np.arange(lo, hi, dtype=np.int32), np.int32(h.n_products + m)), hi - lo
            cells = shares[rows, None] * _log_share_cells(table, params, rows[:, None], rows[:-1])
            if check_fd:
                analytic, central = (ShareJacobian(x[:-1], x[-1]) for x in (cells, fd[rows, :n]))
                checked.append(max_relative_error(analytic, central, shares[rows]))
            parts.append((np.broadcast_to(np.int32(m), n * (n + 1)), np.repeat(rows, n), np.tile(rows[:-1], n + 1),
                          cells.ravel()))
        # printed once the run has succeeded, as a failing run is computed again in halves
        sys.stderr.writelines(f"market {market_id!r}: max relative error vs finite differences {err:.3e}\n"
                              for market_id, err in zip(h.market_ids, checked))
        fd_errors.extend(checked)
        markets, rows, cols, values = (p[0] if len(p) == 1 else np.concatenate(p) for p in zip(*parts))
        ids = h.products + (OUTSIDE_ID,) * h.n_markets
        return [(h.market_ids, markets), (ids, rows), (ids, cols), values]

    # a market of n products has n + 1 rows of n cells
    runs = _results(block, jacobian, cells=lambda h: int(np.diff(h.bounds[2]) @ np.diff(h.bounds[2])) + h.n_products)
    _write_csv(output_path, ["market_id", "row_id", "col_id", "value"], (columns for _, columns in runs))
    if any(err > _FD_LIMIT for err in fd_errors):
        _die(EXIT_SELFTEST, f"finite-difference check exceeded {_FD_LIMIT:g}")


@_command("simulate", *_market_options(),
          ("--draws", dict(type=int, required=True, help="Number of simulated consumers per market.")),
          ("--seed", dict(type=int, default=0, help=_DEFAULT)))
def cmd_simulate(input_path, params_path, output_path, draws, seed):
    """Simulate sequential choices and compare frequencies to analytic shares."""
    from .montecarlo import SimConfig, _exact_z, simulate_choices

    config = SimConfig(draws=draws, seed=seed)
    params, block = read_params_json(params_path), read_market_csv(input_path)
    worst = [0.0, None]

    def simulated(b):
        h = b.hierarchy
        table, iv = compute_shares(h, b.values, params)
        counts = simulate_choices(h, b.values, params, config, iv=iv)
        tally = _outside_rows(h, counts.counts, counts.outside_count)
        share = _outside_rows(h, table.joint, table.outside)
        z = _exact_z(tally, share, n=draws)
        columns = [*_id_columns(h, outside=True), tally, tally / float(draws), share,
                   np.sqrt(share * (1.0 - share) / float(draws)), z]
        # the first row of the largest |z| names its market, coded in the first column
        i = int(np.argmax(np.abs(z)))
        if abs(z[i]) > worst[0]:
            worst[:] = abs(float(z[i])), h.market_ids[columns[0][1][i]]
        return columns

    header = [*MARKET_COLUMNS[:4], "count", "frequency", "share", "std_error", "z_score"]
    _write_csv(output_path, header, (columns for _, columns in _results(block, simulated)))
    peak, market_id = worst
    if peak > _Z_LIMIT:
        _die(
            EXIT_SELFTEST,
            f"market {market_id!r}: |z|={peak:.2f} exceeds {_Z_LIMIT:g}; "
            "simulated frequencies inconsistent with analytic shares",
        )


@_command("estimate",
          ("--config", dict(dest="config_path", required=True, metavar="PATH", help="Synthetic-market JSON config.")),
          ("--output", dict(dest="output_path", metavar="PATH")))
def cmd_estimate(config_path, output_path):
    """Generate a synthetic market and fit the inverted share equation."""
    from .inversion import regression_rows
    from .synth import SynthConfig, estimate_linear, generate_market

    # the known keys of the config; a missing required key is None
    obj = _read_json_object(config_path)
    known = [f.name for f in fields(SynthConfig) if f.name in obj or f.default is MISSING]
    config = SynthConfig(**{key: obj.get(key) for key in known})
    params = NestingParams(config.sigma1, config.sigma2)
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
    with _output(output_path) as out:
        out.write((json.dumps(payload, indent=2) + "\n").encode())


def run():
    """The process entry point: ``main`` with the objects that exist at
    start-up moved out of the garbage collector's view, so that neither a
    collection during the command nor the ones at exit walk them again."""
    gc.freeze()
    main.main()


if __name__ == "__main__":
    run()
