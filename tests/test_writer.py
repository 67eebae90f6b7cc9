"""The CLI's CSV writer: exact ``.17g`` reals, byte-identical rows, UTF-8 output."""

import contextlib
import csv
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import hierlogit
from hierlogit import cli, csvout, jacobian
from hierlogit.cli import EXIT_OK, main

from helpers import assert_same_read, on_cpus, per_cell_write_csv


def rendered(values) -> list:
    chars, keep = csvout._float_slots(np.asarray(values, dtype=float))
    return [bytes(c[k]).decode() for c, k in zip(chars, keep)]


def expected(values) -> list:
    return [format(x, ".17g") if x == x else "" for x in np.asarray(values).tolist()]


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_every_bit_pattern_renders_as_format(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert rendered(values) == expected(values)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1, max_size=64))
def test_every_float_renders_as_format(values):
    assert rendered(values) == expected(values)


def _near(values) -> np.ndarray:
    """``values`` and their neighbours one ulp away, with both signs."""
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):
        near = np.concatenate([np.nextafter(values, -np.inf), values, np.nextafter(values, np.inf)])
    return np.concatenate([near, -near])


def test_targeted_values_render_as_format():
    low, high = csvout._FAST_RANGE
    ten = 10.0 ** np.arange(-325, 309)
    # 16 integer digits and .25 or .75: 18 significant digits ending in 5,
    # exact ties of 17-digit rounding, resolved to even
    ties = 2.0**50 + np.arange(0, 4000, 7) + np.resize([0.25, 0.75], 572)
    values = np.concatenate([
        _near(ten),
        _near([1e-5, 1e-4, 9.9999999999999995e-5, 1e16, 1e17, 9.999999999999999e16]),
        _near([1e100, 1e-100, 1.5e-99, 9.5e99, 1.7976931348623157e308, 2.2250738585072014e-308, 5e-324]),
        _near([low, high, low * 10, high / 10]),
        ties, ties * 2.0**-60, ties * 2.0**40,
        [0.0, -0.0, np.inf, -np.inf, np.nan, 0.5, 1.0, 123.0, 0.1, 1.0 / 3.0],
    ])
    assert rendered(values) == expected(values)


def test_nan_is_an_empty_cell():
    assert rendered([np.nan, -np.nan, 1.0]) == ["", "", "1"]


def test_integers_below_2_to_the_53_render_as_str():
    values = np.array([0, 7, -7, 10, 99, 100, 10**15, 2**53 - 1, -(2**53 - 1)], dtype=np.int64)
    assert rendered(values) == [str(v) for v in values.tolist()]


def test_the_fast_path_formats_more_than_99_percent_of_normal_values():
    rng = np.random.default_rng(11)
    values = np.concatenate([rng.standard_normal(2000) * 10.0**k for k in range(-30, 31)])
    with mock.patch("hierlogit.csvout.format", create=True, side_effect=format) as fallback:
        assert rendered(values) == expected(values)
    assert fallback.call_count < 0.01 * len(values)


def test_nan_cells_are_formatted_without_the_fallback():
    values = np.where(np.arange(3000) % 3 == 0, np.nan, np.linspace(-5.0, 5.0, 3000) + 0.1)
    values[1] = -np.nan
    with mock.patch("hierlogit.csvout.format", create=True, side_effect=format) as fallback:
        assert rendered(values) == expected(values)
    assert not any(math.isnan(call.args[0]) for call in fallback.call_args_list)


# ids that need quoting, a carriage return among them, and non-ASCII ones
IDS = ["a,b", 'say "hi"', "two\nlines", "mé", "plain", "ü,\"x\"\n", "日本", "car\rriage"]


def _market_file(path, n_markets, seed=0, ids=IDS) -> str:
    rng = np.random.default_rng(seed)
    rows = []
    for m in range(n_markets):
        for g in range(rng.integers(1, 3)):
            for s in range(rng.integers(1, 3)):
                for p in range(rng.integers(1, 4)):
                    product = f"{ids[(m + p) % len(ids)]}{g}.{s}.{p}"
                    rows.append([f"{ids[m % len(ids)]}{m}", ids[g], ids[s], product, repr(float(rng.normal()))])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([list(cli.MARKET_COLUMNS)] + rows)
    return str(path)


COMMANDS = [
    ("shares", []),
    ("invert", []),
    ("invert", ["--method", "newton"]),
    ("jacobian", []),
    ("simulate", ["--draws", "2000", "--seed", "3"]),
]


@pytest.mark.parametrize("chunk_rows", [7, 4096])
@pytest.mark.parametrize("command,extra", COMMANDS)
def test_output_is_the_per_cell_writers_on_stdout_and_in_a_file(tmp_path, command, extra, chunk_rows):
    runner = CliRunner()
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"sigma1": 0.5, "sigma2": 0.25}))
    market = _market_file(tmp_path / "m.csv", n_markets=12)
    if command == "invert":
        # shares output: one _outside row per market
        result = runner.invoke(main, ["shares", "--input", market, "--params", str(params), "--output", market])
        assert result.exit_code == EXIT_OK, result.stderr
    args = [command, "--input", market, "--params", str(params), *extra]
    with mock.patch.object(cli, "_write_csv", per_cell_write_csv):
        oracle = runner.invoke(main, [*args, "--output", str(tmp_path / "oracle.csv")])
    assert oracle.exit_code == EXIT_OK, oracle.stderr
    want = (tmp_path / "oracle.csv").read_bytes()
    assert want.decode("utf-8").count("mé") > 0
    # the chunks formatted on one thread, or on two or three
    for workers in (1, 2, 3):
        with mock.patch.object(csvout, "_CHUNK_ROWS", chunk_rows), on_cpus(workers):
            piped = runner.invoke(main, args)
            written = runner.invoke(main, [*args, "--output", str(tmp_path / "out.csv")])
        assert piped.exit_code == written.exit_code == EXIT_OK, piped.stderr
        assert piped.stdout_bytes == (tmp_path / "out.csv").read_bytes() == want


def test_more_threads_than_cores_switched_often_write_the_same_bytes(tmp_path):
    # chunks of 3 rows and float tables of 3 cells, on four threads that the
    # interpreter switches every microsecond
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"sigma1": 0.5, "sigma2": 0.25}))
    market = _market_file(tmp_path / "m.csv", n_markets=30)
    args = ["shares", "--input", market, "--params", str(params)]
    with mock.patch.object(cli, "_write_csv", per_cell_write_csv):
        CliRunner().invoke(main, [*args, "--output", str(tmp_path / "oracle.csv")])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(csvout, "_CHUNK_ROWS", 3), on_cpus(4):
            result = CliRunner().invoke(main, [*args, "--output", str(tmp_path / "out.csv")])
    finally:
        sys.setswitchinterval(interval)
    assert result.exit_code == EXIT_OK, result.stderr
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


@pytest.mark.parametrize("ids", [IDS, ["m\u00e9", "plain", "\u65e5\u672c"]], ids=["quoted", "unquoted"])
@pytest.mark.parametrize("command,extra", COMMANDS)
def test_every_output_reads_back_as_the_row_reader_reads_it(tmp_path, command, extra, ids):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"sigma1": 0.5, "sigma2": 0.25}))
    market = _market_file(tmp_path / "m.csv", n_markets=12, ids=ids)
    runner = CliRunner()
    if command == "invert":
        result = runner.invoke(main, ["shares", "--input", market, "--params", str(params), "--output", market])
        assert result.exit_code == EXIT_OK, result.stderr
    out = str(tmp_path / "out.csv")
    result = runner.invoke(main, [command, "--input", market, "--params", str(params), *extra, "--output", out])
    assert result.exit_code == EXIT_OK, result.stderr
    for outside in (False, True):
        assert_same_read(out, outside)


_OWN_PEAK = """
import resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_one_long_id_costs_memory_for_itself_alone(tmp_path):
    # the CLI runs as the child of a small helper: a child's ru_maxrss counts
    # the process it was forked from, which from pytest would be pytest
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"sigma1": 0.5, "sigma2": 0.25}))
    rows = [(f"g{j // 100}", f"h{j // 10}", f"p{j}", repr(float(j % 7) / 7.0)) for j in range(5000)]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hierlogit.__file__)))
    peak_kb = {}
    for name, long_id in (("short", "p2500"), ("long", "q" * 100_000)):
        market = tmp_path / f"{name}.csv"
        with open(market, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([cli.MARKET_COLUMNS] + [("m", g, h, long_id if p == "p2500" else p, v)
                                                            for g, h, p, v in rows])
        args = ["shares", "--input", str(market), "--params", str(params), "--output", str(tmp_path / f"{name}.out")]
        own = subprocess.run([sys.executable, "-c", _OWN_PEAK, sys.executable, "-m", "hierlogit.cli", *args],
                             env=env, capture_output=True, text=True, timeout=300)
        assert own.returncode == 0, own.stderr
        peak_kb[name] = int(own.stdout)
        with mock.patch.object(cli, "_write_csv", per_cell_write_csv):
            result = CliRunner().invoke(main, [*args[:-1], str(tmp_path / f"{name}.oracle")])
        assert result.exit_code == EXIT_OK, result.stderr
        assert (tmp_path / f"{name}.out").read_bytes() == (tmp_path / f"{name}.oracle").read_bytes()
    assert peak_kb["long"] <= peak_kb["short"] + 10 * 1024, peak_kb


def test_markets_before_a_failing_one_are_written(tmp_path):
    runner = CliRunner()
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"sigma1": 0.5, "sigma2": 0.25}))
    market = _market_file(tmp_path / "m.csv", n_markets=6)
    with open(market, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    failing = rows[-1][0]
    rows = [r[:4] + ["1e308"] if r[0] == failing else r for r in rows]
    with open(market, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    for writer in (cli._write_csv, per_cell_write_csv):
        with mock.patch.object(cli, "_write_csv", writer), mock.patch.object(csvout, "_CHUNK_ROWS", 4096):
            result = runner.invoke(main, ["jacobian", "--input", market, "--params", str(params),
                                          "--output", str(tmp_path / f"{writer.__name__}.csv")])
        assert result.exit_code == cli.EXIT_DOMAIN
        assert repr(failing) in result.stderr
    assert (tmp_path / "_write_csv.csv").read_bytes() == (tmp_path / "per_cell_write_csv.csv").read_bytes()


@pytest.mark.parametrize("where", ["market", "chunk"])
def test_out_of_memory_on_a_writer_thread_leaves_what_comes_before_written(tmp_path, where):
    # chunks of 7 rows on two or three threads; the fourth market's Jacobian,
    # or the fifth chunk, runs out of memory while later chunks are in flight
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"sigma1": 0.5, "sigma2": 0.25}))
    market = _market_file(tmp_path / "m.csv", n_markets=8, ids=["m\u00e9", "plain", "\u65e5\u672c"])
    failing = cli.read_market_csv(market).hierarchy.market_ids[3]
    full_jacobian, formatted, ran_on = jacobian.full_jacobian, csvout._formatted, set()

    def failing_jacobian(tree, delta, params):
        if tree.market_ids[0] == failing:
            raise MemoryError("cannot allocate the matrix")
        return full_jacobian(tree, delta, params)

    def failing_chunk(columns, rows, limit):
        ran_on.add(threading.current_thread())
        if where == "chunk" and rows.start == 28:
            raise MemoryError("cannot allocate the cells")
        return formatted(columns, rows, limit)

    args = ["jacobian", "--input", market, "--params", str(params)]
    if where == "market":
        with mock.patch.object(jacobian, "full_jacobian", failing_jacobian), \
                mock.patch.object(cli, "_write_csv", per_cell_write_csv):
            oracle = CliRunner().invoke(main, [*args, "--output", str(tmp_path / "oracle.csv")])
        want = (tmp_path / "oracle.csv").read_bytes()
        message = f"error: out of memory: market {failing!r}: cannot allocate the matrix"
    else:
        with mock.patch.object(cli, "_write_csv", per_cell_write_csv):
            CliRunner().invoke(main, [*args, "--output", str(tmp_path / "oracle.csv")])
        # the header and the four chunks before the failing one, all of the first market
        want = b"".join((tmp_path / "oracle.csv").read_bytes().splitlines(keepends=True)[:29])
        message = "error: out of memory: cannot allocate the cells"
    for workers in (2, 3):
        threads = threading.enumerate()
        with mock.patch.object(jacobian, "full_jacobian", failing_jacobian if where == "market" else full_jacobian), \
                mock.patch.object(csvout, "_formatted", failing_chunk), mock.patch.object(csvout, "_CHUNK_ROWS", 7), \
                on_cpus(workers):
            result = CliRunner().invoke(main, [*args, "--output", str(tmp_path / "out.csv")])
        assert threading.enumerate() == threads
        assert result.exit_code == cli.EXIT_DOMAIN and result.stderr.splitlines() == [message], result.stderr
        assert (tmp_path / "out.csv").read_bytes() == want
    assert threading.main_thread() not in ran_on


def test_traced_peak_of_a_million_row_jacobian_is_the_same_on_one_and_two_workers(tmp_path):
    # 1,001,000 rows, 62 chunks, written more slowly than they are formatted:
    # a worker takes its next chunk only when its last one is written, and a
    # chunk on two CPUs keeps to half the shared budget of padded cells
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"sigma1": 0.5, "sigma2": 0.25}))
    rows = [("m", f"g{j % 10}", f"h{j % 50}", f"p{j}", repr(j / 1000.0)) for j in range(1000)]
    with open(tmp_path / "m.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([cli.MARKET_COLUMNS] + rows)
    args = ["jacobian", "--input", str(tmp_path / "m.csv"), "--params", str(params), "--output", str(tmp_path / "out.csv")]
    output = cli._output

    @contextlib.contextmanager
    def slow_output(path):
        with output(path) as out:
            yield SimpleNamespace(write=lambda data: time.sleep(0.01) or out.write(data))

    peaks = {}
    for workers in (1, 2):
        tracemalloc.start()
        try:
            with on_cpus(workers), mock.patch.object(cli, "_output", slow_output):
                result = CliRunner().invoke(main, args)
            _, peaks[workers] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.exit_code == EXIT_OK, result.stderr
        assert os.path.getsize(tmp_path / "out.csv") > 30 * 2**20
    assert abs(peaks[2] - peaks[1]) < csvout._CHUNK_BYTES, peaks


def _run_under_ascii_locale(args, **extra):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONIOENCODING"}
    env.update(PYTHONPATH=os.path.dirname(os.path.dirname(hierlogit.__file__)), LC_ALL="C", LANG="C",
               PYTHONCOERCECLOCALE="0", PYTHONUTF8="0", **extra)
    return subprocess.run([sys.executable, "-m", "hierlogit.cli", *args], env=env, capture_output=True, timeout=120)


def test_non_ascii_ids_are_written_as_utf8_under_an_ascii_locale(tmp_path):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"sigma1": 0.5, "sigma2": 0.25}))
    market = _market_file(tmp_path / "m.csv", n_markets=4)
    args = ["shares", "--input", market, "--params", str(params)]
    to_file = _run_under_ascii_locale([*args, "--output", str(tmp_path / "out.csv")])
    assert (to_file.returncode, to_file.stderr) == (0, b"")
    piped = _run_under_ascii_locale(args, PYTHONIOENCODING="ascii")
    assert (piped.returncode, piped.stderr) == (0, b"")
    assert piped.stdout == (tmp_path / "out.csv").read_bytes()
    assert "mé" in piped.stdout.decode("utf-8")
    # the output reads back
    block = cli.read_market_csv(str(tmp_path / "out.csv"), outside=True)
    assert block.hierarchy.market_ids == ("a,b0", 'say "hi"1', "two\nlines2", "mé3")
    as_json = _run_under_ascii_locale([*args, "--format", "json", "--output", str(tmp_path / "out.json")])
    assert (as_json.returncode, as_json.stderr) == (0, b"")
    assert json.loads((tmp_path / "out.json").read_bytes().decode("utf-8"))["markets"][0]["market_id"] == "a,b0"


def test_cli_start_up_does_not_load_the_writer():
    # imported on first use: --help compiles no more source than it did
    probe = "import sys, hierlogit.cli; print('hierlogit.csvout' in sys.modules)"
    src = os.path.dirname(os.path.dirname(hierlogit.__file__))
    out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
