"""The CLI as a child process, ``python -m hierlogit.cli``, which enters through the same
``run()`` as the ``hierlogit`` console script, started by ``helpers.run_child``. The child
imports the ``hierlogit`` that these tests import: ``src`` when they run from it, the installed
package when they run without ``src`` on the path, as CI runs this module once more after
installing the package. A RuntimeWarning, numpy reporting an overflow or a NaN, is an error in
the child, as in the tests.

Each run that writes a file is made on every CPU and, where the platform can set a process's
CPU mask, on one CPU, where the CSV writer formats its chunks without threads: both give the
same exit code, standard error and output bytes."""

import json
import os

import pytest

import hierlogit
from helpers import imported_modules, run_child

CPUS = ["all", "one"] if hasattr(os, "sched_setaffinity") else ["all"]
HEADER = "market_id,group_id,subgroup_id,product_id,value\n"
ESTIMATE = {"n_groups": 2, "n_subgroups_per_group": 2, "n_products_per_subgroup": 2}


def on_every_cpu_count(args, output):
    """``(exit code, stderr text, output bytes)`` of ``args --output output.csv``, once the run on
    one CPU, to ``output_one.csv``, has given the same three."""
    runs = []
    for cpus in CPUS:
        path = f"{output}{'_one' if cpus == 'one' else ''}.csv"
        code, _, err = run_child(*args, "--output", path, cpus=cpus)
        with open(path, "rb") as fh:
            runs.append((code, err, fh.read()))
    assert all(run == runs[0] for run in runs), [(code, err[-200:], len(data)) for code, err, data in runs]
    return runs[0]


def one_error_line(err):
    return err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def _two_by_two(n_markets, value):
    """Markets of two groups of two subgroups of two products, the k-th product's value ``value(k)``."""
    return [f"m{k // 8},g{k % 8 // 4},h{k % 8 // 2},p{k % 8},{value(k)}" for k in range(8 * n_markets)]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A folder of market files and ``p.json``, the parameters of every market command here."""
    folder = tmp_path_factory.mktemp("inputs")
    files = {
        # one market of 200 products: a Jacobian of 40,200 rows in three chunks
        "m": [f"m,g{j % 10},h{j % 50},p{j},{j / 200}" for j in range(200)],
        "many": _two_by_two(500, lambda k: k % 17 / 17 - 0.5),
        # 1 to 5 products a market: a run mixes market sizes, so each smaller market's Jacobian
        # block is padded, and its padding dropped from the output and the complex-step check
        "mixed": [f"m{m},g{p % 2},h{p % 4},p{p},{(5 * m + p) % 17 / 17 - 0.5}"
                  for m in range(2000) for p in range(1 + 7 * m % 5)],
        "wide": _two_by_two(5000, lambda k: k % 17 / 17 - 0.5),
        # utilities 8 to 16, outside shares at most 6.4e-6
        "tiny": _two_by_two(100, lambda k: 8 + k % 17 / 2),
    }
    for name, rows in files.items():
        (folder / f"{name}.csv").write_text(HEADER + "".join(row + "\n" for row in rows))
    (folder / "p.json").write_text('{"sigma1": 0.5, "sigma2": 0.25}\n')
    return folder


def market_args(command, market, inputs):
    return [*command.split(), "--input", str(market), "--params", str(inputs / "p.json")]


@pytest.fixture(scope="module")
def wide_shares(inputs):
    """``shares`` of the 5,000 markets of ``wide.csv`` to ``shares.csv``: 45,000 rows whose
    per-subgroup tables hold 20,000 floats, formatted in two pieces in the calling thread."""
    return on_every_cpu_count(market_args("shares", inputs / "wide.csv", inputs), inputs / "shares")


def test_version_and_help():
    assert run_child("--version")[:2] == (0, f"hierlogit, version {hierlogit.__version__}\n".encode())
    assert run_child("shares", "--help")[0] == 0


def test_a_jacobian_in_three_chunks(inputs, tmp_path):
    code, err, data = on_every_cpu_count(market_args("jacobian", inputs / "m.csv", inputs), tmp_path / "out")
    assert (code, err, data.count(b"\n")) == (0, "", 40201)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("cpus", CPUS)
def test_a_full_device_fails_the_write_with_one_line(inputs, cpus):
    # part way through, the writer's threads joined
    code, _, err = run_child(*market_args("jacobian", inputs / "m.csv", inputs), "--output", "/dev/full", cpus=cpus)
    assert code == 1 and one_error_line(err), err


@pytest.mark.parametrize("name, command, lines, err_lines", [
    # the Jacobian in runs of whole markets, with and without its complex-step check, and
    # the simulation once for the file, as runs of rows that the writer cuts into chunks
    ("many", "jacobian", 36001, 0),
    ("many", "jacobian --check-fd", 36001, 500),
    ("many", "simulate --draws 1000 --seed 3", 4501, 0),
    # the simulation draws each market's products and outside option in one multinomial
    ("mixed", "jacobian", 28001, 0),
    ("mixed", "jacobian --check-fd", 28001, 2000),
    ("mixed", "simulate --draws 1000 --seed 3", 8001, 0),
])
def test_runs_of_markets(inputs, tmp_path, name, command, lines, err_lines):
    code, err, data = on_every_cpu_count(market_args(command, inputs / f"{name}.csv", inputs), tmp_path / "out")
    assert (code, data.count(b"\n"), err.count("\n")) == (0, lines, err_lines), err[-500:]


def test_shares_then_invert_by_both_methods(inputs, wide_shares, tmp_path):
    assert (wide_shares[0], wide_shares[1], wide_shares[2].count(b"\n")) == (0, "", 45001)
    for command in ("invert", "invert --method newton"):
        code, err, data = on_every_cpu_count(market_args(command, inputs / "shares.csv", inputs), tmp_path / "out")
        assert (code, err, data.count(b"\n")) == (0, "", 40001)


def test_crlf_line_ends_read_as_lf_ones(inputs, wide_shares, tmp_path):
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes((inputs / "wide.csv").read_bytes().replace(b"\n", b"\r\n"))
    assert on_every_cpu_count(market_args("shares", crlf, inputs), tmp_path / "out") == wide_shares


def test_a_failing_invert_writes_the_markets_before_it(inputs, wide_shares, tmp_path):
    # market m2500 holds 0.1 more outside share, after 2,500 markets of 20,000 rows
    rows = [line.split(",") for line in wide_shares[2].decode().splitlines(keepends=True)]
    for f in rows:
        if f[0] == "m2500" and f[3] == "_outside":
            f[4] = repr(float(f[4]) + 0.1)
    (tmp_path / "bad.csv").write_text("".join(",".join(f) for f in rows))
    code, err, data = on_every_cpu_count(market_args("invert", tmp_path / "bad.csv", inputs), tmp_path / "out")
    assert (code, data.count(b"\n")) == (1, 20001)
    assert err == "error: market 'm2500': shares sum to 1.1, expected 1 within 1e-6\n"


@pytest.mark.parametrize("command", ["shares", "estimate"])
def test_closed_standard_output_matters_only_when_written_to(inputs, tmp_path, command):
    if command == "estimate":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**ESTIMATE, "beta": [1.0, -2.0], "sigma1": 0.5, "sigma2": 0.25, "seed": 42}))
        args = ["estimate", "--config", str(config)]
    else:
        args = market_args("shares", inputs / "m.csv", inputs)
    code, stdout, err = run_child(*args)
    assert (code, err) == (0, "")
    assert run_child(*args, "--output", str(tmp_path / "out"), stdout_closed=True) == (0, b"", "")
    assert (tmp_path / "out").read_bytes() == stdout
    assert run_child(*args, stdout_closed=True) == (1, b"", "error: standard output is closed\n")


def test_newton_agrees_with_the_closed_form_at_tiny_outside_shares(inputs, tmp_path):
    shares = tmp_path / "shares.csv"
    assert run_child(*market_args("shares", inputs / "tiny.csv", inputs), "--output", str(shares)) == (0, b"", "")
    newton = market_args("invert --method newton", shares, inputs)
    assert run_child(*newton, "--output", str(tmp_path / "out")) == (0, b"", "")


def test_estimate_refuses_an_x_range_wider_than_a_double(tmp_path):
    config = tmp_path / "wide_x.json"
    config.write_text(json.dumps({**ESTIMATE, "beta": [1.0], "x_range": [-1e308, 1e308]}))
    code, _, err = run_child("estimate", "--config", str(config))
    assert code == 2 and one_error_line(err), err


def test_a_child_imports_the_tests_hierlogit_and_fails_on_a_runtime_warning():
    assert run_child(program=("-c", "import hierlogit; print(hierlogit.__path__)")) == (
        0, f"{hierlogit.__path__}\n".encode(), "")
    code, _, err = run_child(program=("-c", "import warnings; warnings.warn('x', RuntimeWarning)"))
    assert code != 0 and err.rstrip().endswith("RuntimeWarning: x"), err
    assert not {m for m in imported_modules(program=("-c", "pass")) if m.split(".")[0] == "hierlogit"}
