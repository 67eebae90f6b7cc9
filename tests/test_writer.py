"""The CLI's CSV writer: exact ``.17g`` reals, byte-identical rows, UTF-8 output."""

import contextlib
import csv
import errno
import io
import json
import math
import os
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierlogit import HierLogitError, cli, csvout, jacobian
from hierlogit.cli import EXIT_OK

from helpers import CLI, assert_same_read, imported_modules, invoke, on_cpus, per_cell_write_csv, run_child


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


def test_nan_and_zero_cells_are_formatted_without_the_fallback():
    values = np.where(np.arange(3000) % 3 == 0, np.nan, np.linspace(-5.0, 5.0, 3000) + 0.1)
    values[1] = -np.nan
    values[2:8] = [0.0, -0.0, np.inf, -np.inf, 1.0, -0.0]
    with mock.patch("hierlogit.csvout.format", create=True, side_effect=format) as fallback:
        assert rendered(values) == expected(values)
    assert not any(math.isnan(call.args[0]) or call.args[0] == 0.0 for call in fallback.call_args_list)


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
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"sigma1": 0.5, "sigma2": 0.25}))
    market = _market_file(tmp_path / "m.csv", n_markets=12)
    if command == "invert":
        # shares output: one _outside row per market
        result = invoke(["shares", "--input", market, "--params", str(params), "--output", market])
        assert result.exit_code == EXIT_OK, result.stderr
    args = [command, "--input", market, "--params", str(params), *extra]
    with mock.patch.object(cli, "_write_csv", per_cell_write_csv):
        oracle = invoke([*args, "--output", str(tmp_path / "oracle.csv")])
    assert oracle.exit_code == EXIT_OK, oracle.stderr
    want = (tmp_path / "oracle.csv").read_bytes()
    assert want.decode("utf-8").count("mé") > 0
    # the chunks formatted on one thread, or on two or three
    for workers in (1, 2, 3):
        with mock.patch.object(csvout, "_CHUNK_ROWS", chunk_rows), on_cpus(workers):
            piped = invoke(args)
            written = invoke([*args, "--output", str(tmp_path / "out.csv")])
        assert piped.exit_code == written.exit_code == EXIT_OK, piped.stderr
        assert piped.stdout_bytes == (tmp_path / "out.csv").read_bytes() == want


def _one_market(tmp_path, n_products) -> list:
    """The ``--input`` and ``--params`` of one market of ``n_products`` products in 10 groups of 5 subgroups."""
    rows = "".join(f"m,g{j % 10},h{j % 50},p{j},0\n" for j in range(n_products))
    (tmp_path / "m.csv").write_text(",".join(cli.MARKET_COLUMNS) + "\n" + rows)
    (tmp_path / "p.json").write_text('{"sigma1": 0.5, "sigma2": 0.25}')
    return ["--input", str(tmp_path / "m.csv"), "--params", str(tmp_path / "p.json")]


@pytest.mark.parametrize("cpus, affinity", [(1, True), (3, True), (1, False), (2, False)])
def test_threads_are_the_cpus_of_the_affinity_mask_else_the_cpu_count(cpus, affinity, tmp_path):
    formatted, ran_on, threads = csvout._formatted, set(), threading.enumerate()

    def recorded(columns, rows, limit):
        ran_on.add(threading.current_thread())
        return formatted(columns, rows, limit)

    # the 40,200 rows of a 200-product Jacobian are three chunks; simulate's 1001 rows are one
    for n_products, args in ((200, ["jacobian"]), (1000, ["simulate", "--draws", "100"])):
        ran_on.clear()
        with on_cpus(cpus, affinity), mock.patch.object(csvout, "_formatted", recorded):
            result = invoke([*args, *_one_market(tmp_path, n_products), "--output", str(tmp_path / "out.csv")])
        assert result.exit_code == EXIT_OK, result.stderr
        if cpus == 1 or args[0] == "simulate":
            assert ran_on == {threading.main_thread()}
        else:
            assert ran_on and len(ran_on) <= cpus and threading.main_thread() not in ran_on, ran_on
        # every thread is joined when the write is done
        assert threading.enumerate() == threads


def test_more_threads_than_cores_switched_often_write_the_same_bytes(tmp_path):
    # chunks of 3 rows and float tables of 3 cells, on four threads that the
    # interpreter switches every microsecond
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"sigma1": 0.5, "sigma2": 0.25}))
    market = _market_file(tmp_path / "m.csv", n_markets=30)
    args = ["shares", "--input", market, "--params", str(params)]
    with mock.patch.object(cli, "_write_csv", per_cell_write_csv):
        invoke([*args, "--output", str(tmp_path / "oracle.csv")])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(csvout, "_CHUNK_ROWS", 3), on_cpus(4):
            result = invoke([*args, "--output", str(tmp_path / "out.csv")])
    finally:
        sys.setswitchinterval(interval)
    assert result.exit_code == EXIT_OK, result.stderr
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_shares_formats_its_float_tables_in_the_calling_thread(tmp_path):
    # float tables of several 3-cell pieces, made while chunks of 3 rows run on two threads
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"sigma1": 0.5, "sigma2": 0.25}))
    market = _market_file(tmp_path / "m.csv", n_markets=30)
    args = ["shares", "--input", market, "--params", str(params)]
    with mock.patch.object(cli, "_write_csv", per_cell_write_csv):
        invoke([*args, "--output", str(tmp_path / "oracle.csv")])
    packed, formatted, packed_on, formatted_on = csvout._packed, csvout._formatted, [], set()

    def recorded_packed(values):
        packed_on.append(threading.current_thread())
        return packed(values)

    def recorded_formatted(columns, rows, limit):
        formatted_on.add(threading.current_thread())
        return formatted(columns, rows, limit)

    with mock.patch.object(csvout, "_CHUNK_ROWS", 3), on_cpus(2), \
            mock.patch.object(csvout, "_packed", recorded_packed), \
            mock.patch.object(csvout, "_formatted", recorded_formatted):
        result = invoke([*args, "--output", str(tmp_path / "out.csv")])
    assert result.exit_code == EXIT_OK, result.stderr
    assert len(packed_on) > 4 and set(packed_on) == {threading.main_thread()}
    assert formatted_on and threading.main_thread() not in formatted_on
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_a_stream_that_fails_mid_write_leaves_its_first_writes_and_joins_the_threads(tmp_path):
    # a 200-product Jacobian, 40,200 rows in three chunks on two threads: the
    # header and the first chunk are written, and the second chunk's write runs out of space
    args = ["jacobian", *_one_market(tmp_path, 200), "--output", str(tmp_path / "out.csv")]
    output, written = cli._output, []

    @contextlib.contextmanager
    def full_output(path):
        with output(path) as out:
            def write(data):
                if len(written) == 2:
                    raise OSError(errno.ENOSPC, "No space left on device")
                written.append(bytes(data))
                return out.write(data)

            yield SimpleNamespace(write=write)

    threads = threading.enumerate()
    with on_cpus(2), mock.patch.object(cli, "_output", full_output):
        result = invoke(args)
    assert threading.enumerate() == threads
    assert result.exit_code == cli.EXIT_PARSE
    assert result.stderr.splitlines() == [f"error: [Errno {errno.ENOSPC}] No space left on device"], result.stderr
    assert len(written) == 2 and (tmp_path / "out.csv").read_bytes() == b"".join(written)
    assert written[0].startswith(b"market_id,") and written[1].count(b"\n") == csvout._CHUNK_ROWS


@pytest.mark.parametrize("ids", [IDS, ["m\u00e9", "plain", "\u65e5\u672c"]], ids=["quoted", "unquoted"])
@pytest.mark.parametrize("command,extra", COMMANDS)
def test_every_output_reads_back_as_the_row_reader_reads_it(tmp_path, command, extra, ids):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"sigma1": 0.5, "sigma2": 0.25}))
    market = _market_file(tmp_path / "m.csv", n_markets=12, ids=ids)
    if command == "invert":
        result = invoke(["shares", "--input", market, "--params", str(params), "--output", market])
        assert result.exit_code == EXIT_OK, result.stderr
    out = str(tmp_path / "out.csv")
    result = invoke([command, "--input", market, "--params", str(params), *extra, "--output", out])
    assert result.exit_code == EXIT_OK, result.stderr
    for outside in (False, True):
        assert_same_read(out, outside)


# the program of argv[1:] as the child of a small helper, which prints its resident peak in kB:
# a child's ru_maxrss counts the process it was forked from, which from pytest would be pytest
_OWN_PEAK = """
import resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


# the CLI in a child that finds as many CPUs as its first argument says
_ON_CPUS = """
import os, runpy, sys
cpus = int(sys.argv.pop(1))
os.sched_getaffinity = lambda pid: set(range(cpus))
runpy.run_module("hierlogit.cli", run_name="__main__", alter_sys=True)
"""


def _own_peak_kb(*program) -> int:
    code, out, err = run_child(sys.executable, *program, program=("-c", _OWN_PEAK))
    assert code == 0, err
    return int(out)


def test_a_write_of_one_chunk_loads_no_thread_pool(tmp_path):
    # the thread pool's import loads logging: a start, or a write of one chunk, does without both
    pool = {"concurrent.futures", "logging"}
    out = ["--output", str(tmp_path / "out.csv")]
    on_two = ("-c", _ON_CPUS, "2")
    assert not pool & imported_modules("--help", program=on_two)
    assert not pool & imported_modules("simulate", "--draws", "100", *_one_market(tmp_path, 1000), *out, program=on_two)
    # 40,200 rows, three chunks
    assert "concurrent.futures" in imported_modules("jacobian", *_one_market(tmp_path, 200), *out, program=on_two)


def test_the_writers_resident_peak_grows_little_with_its_threads(tmp_path):
    # an N = 1000 Jacobian, 1,001,000 rows, on one worker and on four; each
    # thread holds its chunk's working set and an allocator arena
    args = ["jacobian", *_one_market(tmp_path, 1000), "--output", str(tmp_path / "out.csv")]
    peak_kb = {workers: _own_peak_kb("-c", _ON_CPUS, str(workers), *args) for workers in (1, 4)}
    assert peak_kb[4] <= peak_kb[1] + 32 * 1024, peak_kb


def test_one_long_id_costs_memory_for_itself_alone(tmp_path):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"sigma1": 0.5, "sigma2": 0.25}))
    rows = [(f"g{j // 100}", f"h{j // 10}", f"p{j}", repr(float(j % 7) / 7.0)) for j in range(5000)]
    peak_kb = {}
    for name, long_id in (("short", "p2500"), ("long", "q" * 100_000)):
        market = tmp_path / f"{name}.csv"
        with open(market, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([cli.MARKET_COLUMNS] + [("m", g, h, long_id if p == "p2500" else p, v)
                                                            for g, h, p, v in rows])
        args = ["shares", "--input", str(market), "--params", str(params), "--output", str(tmp_path / f"{name}.out")]
        peak_kb[name] = _own_peak_kb(*CLI, *args)
        with mock.patch.object(cli, "_write_csv", per_cell_write_csv):
            result = invoke([*args[:-1], str(tmp_path / f"{name}.oracle")])
        assert result.exit_code == EXIT_OK, result.stderr
        assert (tmp_path / f"{name}.out").read_bytes() == (tmp_path / f"{name}.oracle").read_bytes()
    assert peak_kb["long"] <= peak_kb["short"] + 10 * 1024, peak_kb


def test_markets_before_a_failing_one_are_written(tmp_path):
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
            result = invoke(["jacobian", "--input", market, "--params", str(params),
                             "--output", str(tmp_path / f"{writer.__name__}.csv")])
        assert result.exit_code == cli.EXIT_DOMAIN
        assert repr(failing) in result.stderr
    assert (tmp_path / "_write_csv.csv").read_bytes() == (tmp_path / "per_cell_write_csv.csv").read_bytes()


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("failing", [0, 1, 2])
def test_blocks_that_fail_leave_the_rows_before_written_and_join_the_threads(failing, workers):
    # blocks of 5 rows, in chunks of 2, that raise after their 0th, 1st or 2nd block
    error, formatted, ran_on = HierLogitError("market 'm2': refused"), csvout._formatted, set()

    def recorded(columns, rows, limit):
        ran_on.add(threading.current_thread())
        return formatted(columns, rows, limit)

    def blocks():
        for b in range(failing):
            yield [np.arange(5.0) / 4 + b, (["a", "b,c"], np.array([0, 1, 0, 1, 0]))]
        raise error

    out, threads = io.BytesIO(), threading.enumerate()
    with mock.patch.object(csvout, "_CHUNK_ROWS", 2), mock.patch.object(csvout, "_formatted", recorded), \
            mock.patch("concurrent.futures.ThreadPoolExecutor", wraps=ThreadPoolExecutor) as pool, on_cpus(workers):
        with pytest.raises(HierLogitError) as raised:
            csvout.write_csv(out, ["value", "id"], blocks())
    assert raised.value is error
    assert threading.enumerate() == threads
    quoted = ["a", '"b,c"']
    rows = "".join(f"{format(i / 4 + b, '.17g')},{quoted[i % 2]}\n" for b in range(failing) for i in range(5))
    assert out.getvalue() == ("value,id\n" + rows).encode()
    # a failure before the first chunk formats nothing and starts no pool
    assert pool.call_count == (workers > 1 and failing > 0)
    if failing == 0:
        assert not ran_on
    elif workers == 1:
        assert ran_on == {threading.main_thread()}
    else:
        assert ran_on and threading.main_thread() not in ran_on


@pytest.mark.parametrize("where", ["market", "chunk"])
def test_out_of_memory_on_a_writer_thread_leaves_what_comes_before_written(tmp_path, where):
    # chunks of 7 rows on two or three threads; the fourth market's Jacobian,
    # or the fifth chunk, runs out of memory while later chunks are in flight
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"sigma1": 0.5, "sigma2": 0.25}))
    market = _market_file(tmp_path / "m.csv", n_markets=8, ids=["m\u00e9", "plain", "\u65e5\u672c"])
    failing = cli.read_market_csv(market)[0].market_ids[3]
    blocks, formatted, ran_on = jacobian._blocks, csvout._formatted, set()

    def failing_jacobian(table, params):
        if failing in table.hierarchy.market_ids:
            raise MemoryError("cannot allocate the matrix")
        return blocks(table, params)

    def failing_chunk(columns, rows, limit):
        ran_on.add(threading.current_thread())
        if where == "chunk" and rows.start == 28:
            raise MemoryError("cannot allocate the cells")
        return formatted(columns, rows, limit)

    args = ["jacobian", "--input", market, "--params", str(params)]
    if where == "market":
        with mock.patch.object(jacobian, "_blocks", failing_jacobian), \
                mock.patch.object(cli, "_write_csv", per_cell_write_csv):
            oracle = invoke([*args, "--output", str(tmp_path / "oracle.csv")])
        want = (tmp_path / "oracle.csv").read_bytes()
        message = f"error: out of memory: market {failing!r}: cannot allocate the matrix"
    else:
        with mock.patch.object(cli, "_write_csv", per_cell_write_csv):
            invoke([*args, "--output", str(tmp_path / "oracle.csv")])
        # the header and the four chunks before the failing one, all of the first market
        want = b"".join((tmp_path / "oracle.csv").read_bytes().splitlines(keepends=True)[:29])
        message = "error: out of memory: cannot allocate the cells"
    for workers in (2, 3):
        threads = threading.enumerate()
        cells = failing_jacobian if where == "market" else blocks
        with mock.patch.object(jacobian, "_blocks", cells), \
                mock.patch.object(csvout, "_formatted", failing_chunk), mock.patch.object(csvout, "_CHUNK_ROWS", 7), \
                on_cpus(workers):
            result = invoke([*args, "--output", str(tmp_path / "out.csv")])
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
                result = invoke(args)
            _, peaks[workers] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.exit_code == EXIT_OK, result.stderr
        assert os.path.getsize(tmp_path / "out.csv") > 30 * 2**20
    assert abs(peaks[2] - peaks[1]) < csvout._CHUNK_BYTES, peaks


def test_traced_peak_of_a_jacobian_is_the_same_at_twice_the_markets(tmp_path):
    # markets of 100 products, 10,100 cells each, in files of two and of four times the cells of
    # a run: each run holds a few markets, and no more of them are held at once in the larger file.
    # On one worker: on two, how their chunks overlap in time spreads the peak of one file over
    # more than the bound (the million-row test bounds the peak on two workers)
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"sigma1": 0.5, "sigma2": 0.25}))
    peaks = {}
    for runs in (2, 4):
        rows = [(f"m{m}", f"g{j % 10}", f"h{j % 50}", f"p{j}", repr(j / 100.0))
                for m in range(-(-runs * cli._RUN_CELLS // 10_100)) for j in range(100)]
        with open(tmp_path / "m.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([cli.MARKET_COLUMNS] + rows)
        tracemalloc.start()
        try:
            with on_cpus(1):
                result = invoke(["jacobian", "--input", str(tmp_path / "m.csv"), "--params", str(params),
                                 "--output", str(tmp_path / "out.csv")])
            _, peaks[runs] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.exit_code == EXIT_OK, result.stderr
    assert abs(peaks[4] - peaks[2]) < 2**20, peaks


def _run_under_ascii_locale(args, **extra):
    return run_child(*args, drop=("PYTHONIOENCODING",), LC_ALL="C", LANG="C", PYTHONCOERCECLOCALE="0",
                     PYTHONUTF8="0", **extra)


def test_non_ascii_ids_are_written_as_utf8_under_an_ascii_locale(tmp_path):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"sigma1": 0.5, "sigma2": 0.25}))
    market = _market_file(tmp_path / "m.csv", n_markets=4)
    args = ["shares", "--input", market, "--params", str(params)]
    assert _run_under_ascii_locale([*args, "--output", str(tmp_path / "out.csv")]) == (0, b"", "")
    code, piped, err = _run_under_ascii_locale(args, PYTHONIOENCODING="ascii")
    assert (code, err) == (0, "")
    assert piped == (tmp_path / "out.csv").read_bytes()
    assert "mé" in piped.decode("utf-8")
    # the output reads back
    tree, _, _ = cli.read_market_csv(str(tmp_path / "out.csv"), outside=True)
    assert tree.market_ids == ("a,b0", 'say "hi"1', "two\nlines2", "mé3")


def test_cli_start_up_does_not_load_the_writer():
    # imported on first use: --help compiles no more source than it did
    assert "hierlogit.csvout" not in imported_modules(program=("-c", "import hierlogit.cli"))
