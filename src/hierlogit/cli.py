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

Each command reads the whole file as ``(tree, values, outside)``, one tree
whose top level is the market and its values, and runs each kernel once for
the file, Newton and the simulation included, the Jacobian and its complex-step
check once per run of markets: every market of a run is a block padded
to its largest market of L products, L + 1 rows of L cells, and a run holds at
most ``_RUN_CELLS`` such cells (a larger market alone). Newton stops a
market once each log(s_j/s_0) is within log1p(tol) of its target (near sigma
-> 1, at the rounding floor ``numeric_invert`` documents), takes one more
step, and must then agree with the closed form within 10*tol. Checks by layer: the reader rejects
non-UTF-8 or malformed CSV, a required column named twice, unparsable values and
repeated products, and checks every market's ``_outside`` row (required by
invert, refused by the others) before any market is computed;
``ShareTable.from_joint`` bounds each share of invert's input strictly
inside (0, 1); and the CLI requires a market's shares to sum to 1 within
1e-6. When a step fails, the error reported is that of the first market,
in file order, at which any step fails, a self-check included, and the
markets before it are written, none after it: a run of markets that fails,
out of memory included, is split in halves until that market is found,
since a market gives the same numbers and errors alone as in any run.

Each command imports the kernel modules it runs when it runs; ``run`` is the
process entry point (see its docstring), ``main.main(argv)`` the in-process one.

Exit codes: 0 success, 1 a bad command line or unreadable or malformed input
(the sum rule included), 2 values outside the model's domain (utilities that
overflow a double once divided by 1 - sigma included) or too little memory for one
market (the message names it, wherever it runs out), 3 failed self-check
(a market's Newton/closed-form disagreement, complex-step mismatch or
simulation |z| over 5, each named as above; estimate's singular design).
Diagnostics go to standard error. Every market command writes CSV (the rows of
``shares`` carry every share and inclusive value), ``estimate`` JSON. Results go
to ``--output`` or standard output as UTF-8 whatever the locale, CSV in chunks
of rows cut from each run of markets, formatted by one in-order map per write
on the standard library's thread pool, one thread per CPU (no thread for one
chunk; ``shares``' per-segment tables in the calling thread), and written in
file order, the same bytes whatever the CPU count. Reals are exactly
``format(x, ".17g")`` (NaN an empty cell), so written files round-trip doubles:
numpy derives the digits, and Python formats what it cannot prove (inf,
near-ties; see ``csvout``).
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
from .hierarchy import MARKET_COLUMNS, OUTSIDE_ID, ChoiceHierarchy, NestingParams
from .shares import ShareTable, compute_shares

__all__ = [
    "main",
    "run",
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
# relative error against the complex step beyond which --check-fd fails
_FD_LIMIT = 1e-5
# padded Jacobian cells per run of markets, markets x (L + 1) x L for a largest market of L products: a run's
# columns take about 20 bytes a cell, and its --check-fd columns one double a cell, 0.5 MB
_RUN_CELLS = 1 << 16


def read_market_csv(path, outside=False) -> tuple:
    """Parse a market CSV into ``(tree, values, outside)``; see ``csvin.read_market_csv``."""
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


def _results(tree, values, outside, compute, cells=None):
    """Yield each run's result, ``compute(tree, values, outside)`` for runs of
    the markets of a file that ``read_market_csv`` read, in file order: the
    whole file, or, when ``compute`` fails on it or its tree has more than
    ``_RUN_CELLS`` ``cells``, each half with its values and outside values in
    turn. So the first market, in file order, at which ``compute`` fails
    raises its own error, named, after the results before it are yielded."""
    n = tree.n_markets
    if n == 1 or cells is None or cells(tree) <= _RUN_CELLS:
        try:
            result = compute(tree, values, outside)
        except (HierLogitError, MemoryError) as err:
            if n == 1:
                named = f"market {tree.market_ids[0]!r}: {err}"
                if isinstance(err, MemoryError):
                    # numpy's MemoryError formats its message from its fields, not its args
                    raise MemoryError(named) from None
                err.args = (named,)
                raise
        else:
            yield result
            return
    for a, b in ((0, n // 2), (n // 2, n)):
        p0, p1 = tree.bounds[2, [a, b]].tolist()
        yield from _results(tree.markets(a, b), values[p0:p1], None if outside is None else outside[a:b],
                            compute, cells)


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
    if output_path is not None:
        return open(output_path, "wb")
    if sys.stdout is None:
        raise OSError("standard output is closed")
    sys.stdout.flush()
    return nullcontext(sys.stdout.buffer)


def _write_csv(output_path, header, blocks) -> None:
    """Stream the rows of ``blocks`` (see ``csvout.write_csv``) to
    ``output_path`` or standard output."""
    from .csvout import write_csv  # on first use, so that start-up compiles no more

    with _output(output_path) as out:
        write_csv(out, header, blocks)


class _SelfCheckError(HierLogitError):
    """A market's results failed one of the CLI's cross-checks."""


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
        except (SingularDesignError, NoConvergenceError, _SelfCheckError) as err:
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


@_command("shares", *_market_options())
def cmd_shares(input_path, params_path, output_path):
    """Compute joint, conditional, and outside shares plus inclusive values."""
    params, markets = read_params_json(params_path), read_market_csv(input_path)
    _write_csv(output_path, SHARES_COLUMNS,
               _results(*markets, lambda h, values, _: _shares_csv(h, *compute_shares(h, values, params))))


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


@_command("invert", *_market_options("Market CSV with joint shares and one _outside row per market."),
          ("--method", dict(choices=["closed", "newton"], default="closed", help=_DEFAULT)),
          ("--tol", dict(type=float, default=1e-9,
                         help="Newton stops with each log(s_j/s_0) within log1p(tol) of its target and must agree "
                              "with closed within 10*tol; either method refuses a tol outside (0, 1).  " + _DEFAULT)))
def cmd_invert(input_path, params_path, output_path, method, tol):
    """Recover mean utilities from observed shares (closed form or Newton)."""
    from .inversion import _check_tol, berry_invert, numeric_invert

    params, markets = read_params_json(params_path), read_market_csv(input_path, outside=True)
    _check_tol(tol)

    def inverted(h, joint, outside):
        table = ShareTable.from_joint(h, joint, outside)
        total = np.bincount(h.product_market, joint, h.n_markets) + outside
        bad = total[np.abs(total - 1.0) > 1e-6]
        if bad.size:
            raise MarketFileError(f"shares sum to {bad[0]:.9g}, expected 1 within 1e-6")
        delta = berry_invert(table, params).values
        if method == "newton":
            values = numeric_invert(h, table, params, tol=tol, max_iter=50).values
            gap = float(np.max(np.abs(values - delta)))
            if gap > 10.0 * tol:
                raise _SelfCheckError(
                    f"newton and closed-form utilities disagree by {gap:.3e} (limit {10.0 * tol:.3e})")
            delta = values
        return [*_id_columns(h), delta]

    _write_csv(output_path, MARKET_COLUMNS, _results(*markets, inverted))


@_command("jacobian", *_market_options(),
          ("--check-fd", dict(action="store_true",
                              help="Cross-check against the complex step; mismatch exits 3.")))
def cmd_jacobian(input_path, params_path, output_path, check_fd):
    """Write the share Jacobian ds_j/ddelta_k in long format."""
    from .jacobian import _blocks, _complex_step_columns, _relative_error

    params, markets = read_params_json(params_path), read_market_csv(input_path)

    def jacobian(h, values, _):
        table, _ = compute_shares(h, values, params)
        cells, rows, mask = _blocks(table, params)
        scale = np.append(table.joint, table.outside)[rows][:, :, None]
        cells *= scale
        checked = []
        if check_fd:
            fd = _complex_step_columns(h, values, params)[rows]
            checked = np.max(_relative_error(cells, fd, scale), axis=(1, 2), initial=0.0, where=mask).tolist()
            for err in checked:
                if err > _FD_LIMIT:
                    raise _SelfCheckError(f"max relative error vs complex step {err:.3e} exceeds {_FD_LIMIT:g}")
        # each column's real cells in file order, all of them in a run of markets of one size
        keep = () if mask.all() else mask
        market, row, col, cell = (np.broadcast_to(x, cells.shape)[keep].reshape(-1) for x in (
            np.arange(h.n_markets, dtype=np.int32)[:, None, None], rows[:, :, None], rows[:, None, :-1], cells))
        # printed once the run has succeeded, as a failing run is computed again in halves
        sys.stderr.writelines(f"market {market_id!r}: max relative error vs complex step {err:.3e}\n"
                              for market_id, err in zip(h.market_ids, checked))
        ids = h.products + (OUTSIDE_ID,) * h.n_markets
        return [(h.market_ids, market), (ids, row), (ids, col), cell]

    # every market of a run is padded to its largest, of n products: n + 1 rows of n cells
    _write_csv(output_path, ["market_id", "row_id", "col_id", "value"], _results(
        *markets, jacobian, lambda h: h.n_markets * (n := int(np.diff(h.bounds[2]).max())) * (n + 1)))


@_command("simulate", *_market_options(),
          ("--draws", dict(type=int, required=True, help="Number of simulated consumers per market.")),
          ("--seed", dict(type=int, default=0, help=_DEFAULT)))
def cmd_simulate(input_path, params_path, output_path, draws, seed):
    """Simulate sequential choices and compare frequencies to analytic shares."""
    from .montecarlo import SimConfig, _exact_z, simulate_choices

    config = SimConfig(draws=draws, seed=seed)
    params, markets = read_params_json(params_path), read_market_csv(input_path)

    def simulated(h, values, _):
        table, _ = compute_shares(h, values, params)
        counts = simulate_choices(h, values, params, config)
        tally = _outside_rows(h, counts.counts, counts.outside_count)
        share = _outside_rows(h, table.joint, table.outside)
        z = _exact_z(tally, share, n=draws)
        peak = float(np.max(np.abs(z)))
        if peak > _Z_LIMIT:
            raise _SelfCheckError(
                f"|z|={peak:.2f} exceeds {_Z_LIMIT:g}; simulated frequencies inconsistent with analytic shares")
        return [*_id_columns(h, outside=True), tally, tally / float(draws), share,
                np.sqrt(share * (1.0 - share) / float(draws)), z]

    header = [*MARKET_COLUMNS[:4], "count", "frequency", "share", "std_error", "z_score"]
    _write_csv(output_path, header, _results(*markets, simulated))


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
