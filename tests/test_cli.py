import csv
import importlib
import importlib.metadata
import io
import json
import math
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hierlogit
from hierlogit import NestingParams, compute_shares, full_jacobian
from hierlogit.cli import (
    _RUN_CELLS, EXIT_DOMAIN, EXIT_OK, EXIT_PARSE, EXIT_SELFTEST, _results, main, read_market_csv,
    read_params_json,
)
from hierlogit.jacobian import _complex_step_columns
from hierlogit.shares import _log_shares
from helpers import (
    assert_same_read, binomial_tail_z, check_error, imported_modules, invoke, market_tree, run_child,
)

HEADER = "market_id,group_id,subgroup_id,product_id,value"


def write_market(path, rows):
    lines = [HEADER] + [",".join(str(c) for c in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def write_params(path, sigma1, sigma2):
    path.write_text(json.dumps({"sigma1": sigma1, "sigma2": sigma2}))
    return str(path)


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def run_ok(args):
    result = invoke(args)
    assert result.exit_code == EXIT_OK, result.stderr
    return result


def test_shares_plain_pair(tmp_path):
    market = write_market(tmp_path / "m.csv", [("m1", "g", "h", "a", 0.0), ("m1", "g", "h", "b", 0.0)])
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    result = run_ok(["shares", "--input", market, "--params", params])
    rows = parse_csv(result.output)
    assert [r["product_id"] for r in rows] == ["a", "b", "_outside"]
    for row in rows[:2]:
        assert float(row["value"]) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert float(row["cond_product"]) == 0.5
        assert float(row["cond_subgroup"]) == 1.0
        assert float(row["group_share"]) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert float(row["iv_top"]) == pytest.approx(math.log(3.0), abs=1e-15)
    assert float(rows[2]["value"]) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert rows[2]["group_id"] == "_outside"


def test_shares_output_file_matches_stdout(tmp_path):
    market = write_market(tmp_path / "m.csv", [("m1", "g", "h", "a", 0.3)])
    params = write_params(tmp_path / "p.json", 0.2, 0.1)
    piped = run_ok(["shares", "--input", market, "--params", params])
    out = tmp_path / "out.csv"
    run_ok(["shares", "--input", market, "--params", params, "--output", str(out)])
    assert out.read_text() == piped.output


def test_shares_outside_row_carries_the_outside_share_and_top(tmp_path):
    market = write_market(tmp_path / "m.csv", [("m1", "g", "h", "a", 0.0), ("m1", "g", "h", "b", 0.0)])
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    outside = parse_csv(run_ok(["shares", "--input", market, "--params", params]).output)[-1]
    assert (outside["market_id"], outside["product_id"]) == ("m1", "_outside")
    assert float(outside["value"]) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert float(outside["iv_top"]) == pytest.approx(math.log(3.0), abs=1e-15)


def test_shares_has_no_format_option(tmp_path):
    market = write_market(tmp_path / "m.csv", [("m1", "g", "h", "a", 0.0)])
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    result = invoke(["shares", "--input", market, "--params", params, "--format", "json"])
    assert "--format" in _assert_one_error_line(result, EXIT_PARSE)
    assert result.stdout_bytes == b""


def test_reals_serialized_canonically(tmp_path):
    # every numeric field must round-trip exactly through float()
    market = write_market(
        tmp_path / "m.csv",
        [("m1", "g1", "h1", "a", 1.0 / 3.0), ("m1", "g1", "h2", "b", -0.7), ("m1", "g2", "h3", "c", 2.25)],
    )
    params = write_params(tmp_path / "p.json", 0.35, 0.15)
    result = run_ok(["shares", "--input", market, "--params", params])
    for row in parse_csv(result.output):
        for field in row.values():
            if field in ("", None) or not field.replace(".", "").lstrip("-").replace("e", "").replace("+", "").isdigit():
                continue
            assert format(float(field), ".17g") == field


def test_missing_input_exits_parse(tmp_path):
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    result = invoke(["shares", "--input", str(tmp_path / "nope.csv"), "--params", params])
    assert result.exit_code == EXIT_PARSE
    assert result.stderr.startswith("error:")


def test_malformed_value_exits_parse(tmp_path):
    market = tmp_path / "m.csv"
    market.write_text(HEADER + "\nm1,g,h,a,abc\n")
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    result = invoke(["shares", "--input", str(market), "--params", params])
    assert result.exit_code == EXIT_PARSE
    assert ":2:" in result.stderr


def test_missing_column_exits_parse(tmp_path):
    market = tmp_path / "m.csv"
    market.write_text("market_id,group_id,product_id,value\nm1,g,a,0\n")
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    result = invoke(["shares", "--input", str(market), "--params", params])
    assert result.exit_code == EXIT_PARSE
    assert "subgroup_id" in result.stderr


def test_sigma_at_one_exits_domain(tmp_path):
    market = write_market(tmp_path / "m.csv", [("m1", "g", "h", "a", 0.0)])
    params = write_params(tmp_path / "p.json", 1.0, 0.0)
    result = invoke(["shares", "--input", market, "--params", params])
    assert result.exit_code == EXIT_DOMAIN


def test_invalid_params_json_exits_parse(tmp_path):
    market = write_market(tmp_path / "m.csv", [("m1", "g", "h", "a", 0.0)])
    params = tmp_path / "p.json"
    params.write_text("{not json")
    result = invoke(["shares", "--input", market, "--params", str(params)])
    assert result.exit_code == EXIT_PARSE


@pytest.mark.parametrize("text, want", [
    (None, "No such file or directory"),
    ("[0.5, 0.25]", "expected a JSON object"),
    ('{"sigma2": 0.25}', "sigma1 missing or not a number"),
    ('{"sigma1": true, "sigma2": 0.25}', "sigma1 missing or not a number"),
    ('{"sigma1": "0.5", "sigma2": 0.25}', "sigma1 missing or not a number"),
], ids=["missing-file", "array", "missing-sigma1", "bool-sigma1", "string-sigma1"])
def test_unusable_params_file_exits_parse_with_one_line(tmp_path, text, want):
    market = write_market(tmp_path / "m.csv", [("m1", "g", "h", "a", 0.0)])
    params = tmp_path / "p.json"
    if text is not None:
        params.write_text(text)
    line = _assert_one_error_line(invoke(["shares", "--input", market, "--params", str(params)]), EXIT_PARSE)
    assert line.startswith(f"error: {params}: ") and want in line, line


def test_outside_row_rejected_in_utility_input(tmp_path):
    market = write_market(
        tmp_path / "m.csv", [("m1", "g", "h", "a", 0.0), ("m1", "_outside", "_outside", "_outside", 0.4)]
    )
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    result = invoke(["shares", "--input", market, "--params", params])
    assert result.exit_code == EXIT_PARSE


def _round_trip_market(tmp_path):
    rng = np.random.default_rng(31)
    rows = []
    deltas = {}
    for market in ("m1", "m2"):
        for g in range(2):
            for h in range(2):
                for p in range(2):
                    pid = f"p{g}{h}{p}"
                    d = float(rng.uniform(-2.0, 2.0))
                    rows.append((market, f"g{g}", f"h{g}{h}", pid, repr(d)))
                    deltas[(market, pid)] = d
    market = write_market(tmp_path / "m.csv", rows)
    params = write_params(tmp_path / "p.json", 0.5, 0.25)
    return market, params, deltas


def test_shares_then_invert_round_trip(tmp_path):
    market, params, deltas = _round_trip_market(tmp_path)
    shares_out = tmp_path / "shares.csv"
    run_ok(["shares", "--input", market, "--params", params, "--output", str(shares_out)])
    result = run_ok(["invert", "--input", str(shares_out), "--params", params])
    rows = parse_csv(result.output)
    assert [r["market_id"] for r in rows] == ["m1"] * 8 + ["m2"] * 8
    for row in rows:
        want = deltas[(row["market_id"], row["product_id"])]
        assert float(row["value"]) == pytest.approx(want, abs=1e-9)


def test_invert_newton_matches_closed(tmp_path):
    market, params, _ = _round_trip_market(tmp_path)
    shares_out = tmp_path / "shares.csv"
    run_ok(["shares", "--input", market, "--params", params, "--output", str(shares_out)])
    closed = run_ok(["invert", "--input", str(shares_out), "--params", params])
    newton = run_ok(
        ["invert", "--input", str(shares_out), "--params", params, "--method", "newton", "--tol", "1e-12"],
    )
    a = [float(r["value"]) for r in parse_csv(closed.output)]
    b = [float(r["value"]) for r in parse_csv(newton.output)]
    np.testing.assert_allclose(b, a, rtol=0, atol=1e-8)


def test_invert_requires_outside_row(tmp_path):
    market = write_market(tmp_path / "m.csv", [("m1", "g", "h", "a", 0.4), ("m1", "g", "h", "b", 0.3)])
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    result = invoke(["invert", "--input", market, "--params", params])
    assert result.exit_code == EXIT_PARSE
    assert "_outside" in result.stderr


def test_invert_zero_share_exits_domain(tmp_path):
    market = write_market(
        tmp_path / "m.csv",
        [("m1", "g", "h", "a", 0.0), ("m1", "g", "h", "b", 0.5), ("m1", "_outside", "_outside", "_outside", 0.5)],
    )
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    result = invoke(["invert", "--input", market, "--params", params])
    assert result.exit_code == EXIT_DOMAIN


def test_invert_sum_violation_exits_parse(tmp_path):
    market = write_market(
        tmp_path / "m.csv",
        [("m1", "g", "h", "a", 0.3), ("m1", "g", "h", "b", 0.3), ("m1", "_outside", "_outside", "_outside", 0.2)],
    )
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    result = invoke(["invert", "--input", market, "--params", params])
    assert result.exit_code == EXIT_PARSE
    assert "sum" in result.stderr


def test_invert_error_names_offending_market(tmp_path):
    rows = [
        ("m1", "g", "h", "a", 0.4),
        ("m1", "g", "h", "b", 0.3),
        ("m1", "_outside", "_outside", "_outside", 0.3),
        ("m2", "g", "h", "a", 1.2),
        ("m2", "_outside", "_outside", "_outside", 0.3),
    ]
    market = write_market(tmp_path / "m.csv", rows)
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    result = invoke(["invert", "--input", market, "--params", params])
    assert result.exit_code == EXIT_DOMAIN
    assert "m2" in result.stderr


def test_jacobian_singleton(tmp_path):
    market = write_market(tmp_path / "m.csv", [("m1", "g", "h", "a", 0.0)])
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    result = run_ok(["jacobian", "--input", market, "--params", params])
    rows = parse_csv(result.output)
    assert [(r["row_id"], r["col_id"]) for r in rows] == [("a", "a"), ("_outside", "a")]
    assert float(rows[0]["value"]) == pytest.approx(0.25, abs=1e-15)
    assert float(rows[1]["value"]) == pytest.approx(-0.25, abs=1e-15)


def test_jacobian_fd_check_passes(tmp_path):
    market = write_market(
        tmp_path / "m.csv",
        [("m1", "g1", "h1", "a", 0.5), ("m1", "g1", "h1", "b", -0.5), ("m1", "g2", "h2", "c", 1.0)],
    )
    params = write_params(tmp_path / "p.json", 0.4, 0.2)
    result = run_ok(["jacobian", "--input", market, "--params", params, "--check-fd"])
    assert "complex step" in result.stderr


def test_jacobian_fd_check_computes_the_shares_of_each_market_once(tmp_path):
    params = write_params(tmp_path / "p.json", 0.4, 0.2)
    cases = [
        # markets of 2 and 3 products: the run's shares, then a call per column of the
        # larger market on the run itself
        ([("m1", "g1", "h1", "a", 0.5), ("m1", "g1", "h1", "b", -0.5), ("m2", "g1", "h1", "a", 1.0),
          ("m2", "g2", "h2", "c", 0.0), ("m2", "g2", "h2", "d", 0.25)], [(2, 5)] * 4),
        # 3,000 one-product markets in one run: two calls
        ([(f"m{m}", "g", "h", "a", m / 3000) for m in range(3000)], [(3000, 3000)] * 2),
    ]
    for i, (rows, calls) in enumerate(cases):
        market = write_market(tmp_path / f"m{i}.csv", rows)
        trees = []

        def counted(kernel):
            def call(tree, delta, params):
                trees.append((tree.n_markets, tree.n_products))
                return kernel(tree, delta, params)
            return call

        # the run's shares, then the complex step's kernel once per column
        with (mock.patch("hierlogit.cli.compute_shares", counted(compute_shares)),
              mock.patch("hierlogit.jacobian._log_shares", counted(_log_shares))):
            result = run_ok(["jacobian", "--input", market, "--params", params, "--check-fd"])
        assert result.stderr.count("complex step") == len({r[0] for r in rows})
        assert trees == calls


def test_jacobian_fd_check_prints_each_markets_error_alone(tmp_path):
    # markets in more than one run: each stderr line is the number that the
    # analytic Jacobian and the complex-step columns of the market alone give
    market = write_market(tmp_path / "m.csv", _ragged_markets(np.random.default_rng(13), 200))
    params = write_params(tmp_path / "p.json", 0.6, 0.3)
    result = run_ok(["jacobian", "--input", market, "--params", params, "--check-fd"])
    (h, values, _), nesting = read_market_csv(market), read_params_json(params)
    want = []
    for m in range(h.n_markets):
        lo, hi = h.bounds[2, m:m + 2].tolist()
        alone, delta = h.markets(m, m + 1), values[lo:hi]
        err = check_error(alone, delta, nesting, _complex_step_columns(alone, delta, nesting))
        want.append(f"market {h.market_ids[m]!r}: max relative error vs complex step {err:.3e}\n")
    assert int(np.diff(h.bounds[2]) @ np.diff(h.bounds[2])) + h.n_products > _RUN_CELLS
    assert result.stderr == "".join(want)


def test_jacobian_extreme_utilities_finite(tmp_path):
    market = write_market(tmp_path / "m.csv", [("m1", "g", "h", "a", 700.0), ("m1", "g", "h", "b", -700.0)])
    params = write_params(tmp_path / "p.json", 0.3, 0.1)
    result = run_ok(["jacobian", "--input", market, "--params", params])
    values = [float(r["value"]) for r in parse_csv(result.output)]
    assert len(values) == 6
    assert all(math.isfinite(v) for v in values)


def _ragged_markets(rng, n_markets):
    """Rows of ``n_markets`` ragged markets of 1-4 groups, 1-3 subgroups each and 1-6 products each."""
    return [(f"m{m}", f"g{g}", f"h{h}", f"p{g}.{h}.{p}", repr(rng.uniform(-5.0, 5.0)))
            for m in range(n_markets) for g in range(rng.integers(1, 5)) for h in range(rng.integers(1, 4))
            for p in range(rng.integers(1, 7))]


def test_jacobian_cells_are_the_full_jacobian_of_each_market_alone(tmp_path):
    # markets in more than one run: every cell, the outside rows' too, is the double
    # that full_jacobian gives its market alone
    market = write_market(tmp_path / "m.csv", _ragged_markets(np.random.default_rng(11), 200))
    params = write_params(tmp_path / "p.json", 0.6, 0.3)
    got = parse_csv(run_ok(["jacobian", "--input", market, "--params", params]).output)
    (h, values, _), nesting = read_market_csv(market), read_params_json(params)
    want = []
    for m in range(h.n_markets):
        lo, hi = h.bounds[2, m:m + 2].tolist()
        jac = full_jacobian(h.markets(m, m + 1), values[lo:hi], nesting)
        ids = [*h.products[lo:hi], "_outside"]
        want += [(h.market_ids[m], ids[j], ids[k], x)
                 for (j, k), x in np.ndenumerate(np.vstack([jac.matrix, jac.outside_row]))]
    assert len(want) > _RUN_CELLS
    assert [(r["market_id"], r["row_id"], r["col_id"]) for r in got] == [w[:3] for w in want]
    values = np.array([float(r["value"]) for r in got])
    assert np.array_equal(values.view(np.int64), np.array([w[3] for w in want]).view(np.int64))


def test_simulate_deterministic_and_consistent(tmp_path):
    market = write_market(
        tmp_path / "m.csv",
        [("m1", "g1", "h1", "a", 0.5), ("m1", "g1", "h1", "b", 0.0), ("m1", "g2", "h2", "c", -0.5)],
    )
    params = write_params(tmp_path / "p.json", 0.4, 0.2)
    args = ["simulate", "--input", market, "--params", params, "--draws", "20000", "--seed", "7"]
    first = run_ok(args)
    second = run_ok(args)
    assert first.output == second.output
    rows = parse_csv(first.output)
    assert rows[-1]["product_id"] == "_outside"
    assert sum(int(r["count"]) for r in rows) == 20000
    assert max(abs(float(r["z_score"])) for r in rows) <= 5.0


def test_simulate_rejects_nonpositive_draws(tmp_path):
    market = write_market(tmp_path / "m.csv", [("m1", "g", "h", "a", 0.0)])
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    result = invoke(["simulate", "--input", market, "--params", params, "--draws", "0"])
    assert result.exit_code == EXIT_DOMAIN


def test_simulate_refuses_draws_past_2_to_the_53(tmp_path):
    market = write_market(tmp_path / "m.csv", [("m1", "g", "h", "a", 0.0)])
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    line = _assert_one_error_line(invoke(["simulate", "--input", market, "--params", params,
                                          "--draws", str(2**53 + 1)]), EXIT_DOMAIN)
    assert "2**53" in line


def test_simulate_writes_exact_counts_at_2_to_the_40_draws(tmp_path):
    market = write_market(tmp_path / "m.csv", [("m1", "g", "h", "a", 0.0)])
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    result = run_ok(["simulate", "--input", market, "--params", params, "--draws", str(2**40)])
    assert sum(int(r["count"]) for r in parse_csv(result.stdout)) == 2**40


@pytest.mark.parametrize("seed", ["-1", str(2**128)])
def test_simulate_seed_out_of_range_exits_domain(tmp_path, seed):
    market = write_market(tmp_path / "m.csv", [("m1", "g", "h", "a", 0.0)])
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    result = invoke(["simulate", "--input", market, "--params", params, "--draws", "10", "--seed", seed])
    assert result.exit_code == EXIT_DOMAIN
    assert result.stderr.startswith("error:") and len(result.stderr.splitlines()) == 1


@pytest.mark.parametrize("command", ["shares", "jacobian", "simulate"])
@pytest.mark.parametrize(
    "sigma",
    # delta / (1 - sigma1) overflows; then I_sub / (1 - sigma2) does
    [(0.5, 0.25), (0.0, 0.5)],
)
def test_overflowing_utilities_exit_domain(tmp_path, command, sigma):
    market = write_market(tmp_path / "m.csv", [("m1", "g", "h", "a", 0.0), ("m2", "g", "h", "a", 1e308)])
    params = write_params(tmp_path / "p.json", *sigma)
    out = tmp_path / "out.csv"
    args = [command, "--input", market, "--params", params, "--output", str(out)]
    if command == "simulate":
        args += ["--draws", "100"]
    line = _assert_one_error_line(invoke(args), EXIT_DOMAIN)
    assert "'m2'" in line and "overflow" in line
    # the market before the one that overflows is written
    assert {r["market_id"] for r in parse_csv(out.read_text())} == {"m1"}


@pytest.mark.parametrize("command, code", [
    (["shares"], EXIT_OK), (["jacobian"], EXIT_OK), (["simulate", "--draws", "100"], EXIT_OK),
    (["jacobian", "--check-fd"], EXIT_OK),
], ids=["shares", "jacobian", "simulate", "jacobian-check-fd"])
def test_utilities_further_apart_than_a_double_warn_of_nothing(tmp_path, command, code):
    # a - b overflows to inf: b's share is exp(-inf) = 0, with no RuntimeWarning;
    # the complex step moves no real part, so the check passes at any utilities
    market = write_market(tmp_path / "m.csv", [("m", "g", "h", "a", 1e308), ("m", "g", "h", "b", -1e308)])
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    result = invoke([command[0], "--input", market, "--params", params, *command[1:]])
    checked = "market 'm': max relative error vs complex step 0.000e+00\n" if "--check-fd" in command else ""
    assert (result.exit_code, result.stderr) == (code, checked)
    if command == ["shares"]:
        assert result.stdout.splitlines()[1:3] == ["m,g,h,a,1,1,1,1,1e+308,1e+308,1e+308",
                                                   "m,g,h,b,0,0,1,1,1e+308,1e+308,1e+308"]


def test_simulate_z_score_is_zero_for_an_underflowed_share_never_drawn(tmp_path):
    market = write_market(tmp_path / "m.csv", [("m", "g", "h", "a", 0.0), ("m", "g", "h", "b", -800.0)])
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    result = run_ok(["simulate", "--input", market, "--params", params, "--draws", "1000"])
    assert result.output.splitlines()[2] == "m,g,h,b,0,0,0,0,0"
    assert result.stderr == ""


def test_simulate_z_score_is_never_negative_zero(tmp_path):
    # one draw on a 3x3x4 market leaves 36 of 37 alternatives below their mean, with a
    # tail of 1/2 or more; at +-700 the outside option is never drawn and its share is
    # below every double but 0: each such z is 0, written "0"
    rows = [("m", f"g{g}", f"h{g}.{h}", f"p{g}.{h}.{j}", round(0.1 * (g - h + j), 1))
            for g in range(3) for h in range(3) for j in range(4)]
    extreme = [("x", "g", "h", "a", 700.0), ("x", "g", "h", "b", -700.0), ("x", "f", "k", "c", 700.0)]
    market = write_market(tmp_path / "m.csv", rows + extreme)
    params = write_params(tmp_path / "p.json", 0.5, 0.25)
    for draws in ("1", "1000"):
        result = run_ok(["simulate", "--input", market, "--params", params, "--draws", draws])
        z = [r["z_score"] for r in parse_csv(result.stdout)]
        assert "-0" not in z and z.count("0") >= (36 if draws == "1" else 2)


def test_simulate_computes_shares_for_the_whole_file_at_once(tmp_path):
    rows = [(f"m{m}", g, h, f"{g}{h}", 0.1 * m) for m in range(3) for g, h in (("g", "h"), ("g", "k"), ("f", "h"))]
    market = write_market(tmp_path / "m.csv", rows)
    params = write_params(tmp_path / "p.json", 0.4, 0.2)
    shares = mock.Mock(wraps=compute_shares)
    with mock.patch("hierlogit.cli.compute_shares", shares), mock.patch("hierlogit.montecarlo.compute_shares", shares):
        run_ok(["simulate", "--input", market, "--params", params, "--draws", "1000"])
    # the analytic shares, then the simulator's stage shares, each for all three markets
    assert [call.args[0].n_markets for call in shares.call_args_list] == [3, 3]


def _plain_logit(simulate, hierarchy, delta, params, config):
    return simulate(hierarchy, delta, NestingParams(0.0, 0.0), config)


def _reversed_counts(simulate, hierarchy, delta, params, config):
    # the right shares, the one market's counts reversed over its alternatives
    counts = simulate(hierarchy, delta, params, config)
    tally = np.append(counts.counts, counts.outside_count)[::-1]
    return hierlogit.ChoiceCounts(counts=tally[:-1], outside_count=int(tally[-1]))


@pytest.mark.parametrize("faulty", [_plain_logit, _reversed_counts], ids=["wrong-sigma", "reversed-counts"])
def test_simulate_against_a_wrong_sigma_exits_selftest(tmp_path, faulty):
    market = write_market(
        tmp_path / "m.csv",
        [("m1", "g1", "h1", "a", 1.0), ("m1", "g1", "h1", "b", 0.0), ("m1", "g1", "h2", "c", 0.5),
         ("m1", "g2", "h3", "d", 0.0)],
    )
    params = write_params(tmp_path / "p.json", 0.7, 0.3)
    args = ["simulate", "--input", market, "--params", params, "--draws", "20000", "--seed", "3"]
    run_ok(args)
    simulate = hierlogit.montecarlo.simulate_choices
    with mock.patch("hierlogit.montecarlo.simulate_choices", lambda *sample: faulty(simulate, *sample)):
        line = _assert_one_error_line(invoke(args), EXIT_SELFTEST)
    assert "market 'm1': |z|=" in line and "exceeds 5" in line


def test_simulate_z_score_is_the_exact_tail_z(tmp_path):
    # a rare product: its expected count at 2000 draws is about 0.9
    market = write_market(tmp_path / "m.csv", [("m", "g", "h", "a", 0.0), ("m", "g", "h", "b", -7.0)])
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    result = run_ok(["simulate", "--input", market, "--params", params, "--draws", "2000", "--seed", "1"])
    for row in parse_csv(result.output):
        expected = binomial_tail_z(2000, float(row["share"]), int(row["count"]))
        assert float(row["z_score"]) == pytest.approx(expected, rel=1e-9, abs=1e-9)


def _run_with_address_space_limit(args, limit_bytes):
    # the limit is set inside the child, before the CLI runs; this process
    # and the machine keep theirs
    code = (
        "import resource, sys\n"
        "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit_bytes}, hard))\n"
        "from hierlogit.cli import main\n"
        "main.main()\n"
    )
    return run_child(*args, program=("-c", code), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


def _sixteen_thousand_products(tmp_path, value, outside=None):
    ids = [(f"g{j // 400}", f"h{j // 20}", f"p{j}") for j in range(16_000)]
    rows = [("m1", *i, value) for i in ids]
    if outside is not None:
        rows.append(("m1", "_outside", "_outside", "_outside", outside))
    return write_market(tmp_path / "m.csv", rows), write_params(tmp_path / "p.json", 0.5, 0.25)


@pytest.mark.parametrize("command", ["jacobian"])
def test_out_of_memory_exits_domain_with_one_line(tmp_path, command):
    # 16,000 products: the dense N x N Jacobian needs 2 GB, twice the limit
    market, params = _sixteen_thousand_products(tmp_path, 0.0)
    args = [command, "--input", market, "--params", params, "--output", str(tmp_path / "out.csv")]
    code, _, err = _run_with_address_space_limit(args, 2**30)
    assert code == EXIT_DOMAIN, err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out of memory: market 'm1':"), err


def test_out_of_memory_in_the_sampler_names_its_market_after_the_markets_before(tmp_path):
    market = write_market(tmp_path / "m.csv", [("m1", "g", "h", "p", 0.0), ("m2", "g", "h", "p", 0.0),
                                               ("m2", "f", "k", "q", 0.0)])
    params = write_params(tmp_path / "p.json", 0.5, 0.25)

    class Generator(np.random.Generator):
        # a market's first stage draws from the generator's starting state, over its groups and the
        # outside option: m2's, over three, runs out of memory in every run of markets that holds it
        def multinomial(self, n, pvals, *args, **kwargs):
            state = self.bit_generator.state
            if state["buffer_pos"] == 4 and not state["state"]["counter"].any() and np.shape(pvals)[-1] == 3:
                raise MemoryError("cannot allocate the counts")
            return super().multinomial(n, pvals, *args, **kwargs)

    with mock.patch.object(np.random, "Generator", Generator):
        result = invoke(["simulate", "--draws", "100", "--input", market, "--params", params])
    line = _assert_one_error_line(result, EXIT_DOMAIN)
    assert line == "error: out of memory: market 'm2': cannot allocate the counts"
    assert [r["market_id"] for r in parse_csv(result.stdout)] == ["m1", "m1"]


def test_newton_on_a_16000_product_market_fits_in_1_gib(tmp_path):
    # Newton solves its Jacobian system in O(N): no N x N matrix is formed
    market, params = _sixteen_thousand_products(tmp_path, repr(0.5 / 16_000), outside=0.5)
    out = tmp_path / "newton.csv"
    args = ["invert", "--method", "newton", "--input", market, "--params", params, "--output", str(out)]
    code, _, err = _run_with_address_space_limit(args, 2**30)
    assert code == EXIT_OK, err
    closed = parse_csv(run_ok(["invert", "--input", market, "--params", params]).output)
    newton = parse_csv(out.read_text())
    assert [r["product_id"] for r in newton] == [r["product_id"] for r in closed]
    np.testing.assert_allclose([float(r["value"]) for r in newton], [float(r["value"]) for r in closed],
                               rtol=0, atol=1e-8)


def _estimate_config(tmp_path, **overrides):
    config = {
        "n_groups": 2,
        "n_subgroups_per_group": 2,
        "n_products_per_subgroup": 2,
        "beta": [1.0, -2.0],
        "xi_scale": 0.0,
        "sigma1": 0.5,
        "sigma2": 0.25,
        "seed": 42,
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_estimate_recovers_exact_coefficients(tmp_path):
    config = _estimate_config(tmp_path)
    result = run_ok(["estimate", "--config", config])
    payload = json.loads(result.output)
    np.testing.assert_allclose(payload["beta_hat"], [1.0, -2.0], rtol=0, atol=1e-8)
    assert payload["sigma1_hat"] == pytest.approx(0.5, abs=1e-8)
    assert payload["sigma2_hat"] == pytest.approx(0.25, abs=1e-8)
    assert payload["residual_norm"] <= 1e-10
    assert payload["n_products"] == 8


def test_estimate_same_seed_same_output(tmp_path):
    config = _estimate_config(tmp_path, xi_scale=0.3)
    first = run_ok(["estimate", "--config", config])
    second = run_ok(["estimate", "--config", config])
    assert first.output == second.output


def test_estimate_singular_design_exits_selftest(tmp_path):
    config = _estimate_config(tmp_path, n_subgroups_per_group=1)
    result = invoke(["estimate", "--config", config])
    assert result.exit_code == EXIT_SELFTEST


def test_estimate_malformed_config_exits_parse(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{oops")
    result = invoke(["estimate", "--config", str(path)])
    assert result.exit_code == EXIT_PARSE


def test_estimate_bad_sigma_exits_domain(tmp_path):
    config = _estimate_config(tmp_path, sigma1=1.5)
    result = invoke(["estimate", "--config", config])
    assert result.exit_code == EXIT_DOMAIN


def test_estimate_bad_dimensions_exits_domain(tmp_path):
    config = _estimate_config(tmp_path, n_groups=0)
    result = invoke(["estimate", "--config", config])
    assert result.exit_code == EXIT_DOMAIN


@pytest.mark.parametrize(
    "key, raw",
    [
        ("n_groups", "2.7"),
        ("seed", "1.5"),
        ("n_groups", "1e400"),
        ("seed", "-1"),
        ("x_range", '["a", "b"]'),
        # 4e9 products: rejected before anything is allocated
        ("n_groups", "1e9"),
        ("n_groups", "1" + "0" * 400),
        ("n_groups", "true"),
        ("beta", "null"),
        ("beta", "3"),
        ("beta", "[]"),
        ("x_range", "[0, 1, 2]"),
        ("sigma1", '"0.5"'),
        # hi - lo overflows a double
        ("x_range", "[-1e308, 1e308]"),
        ("x_range", "[-9e307, 9e307]"),
    ],
)
def test_estimate_invalid_config_value_exits_domain(tmp_path, key, raw):
    config = json.loads(Path(_estimate_config(tmp_path)).read_text())
    config.pop(key, None)
    path = tmp_path / "bad.json"
    # raw JSON text, so that 1e400 reaches the parser as written
    path.write_text(json.dumps(config)[:-1] + f', "{key}": {raw}}}')
    result = invoke(["estimate", "--config", str(path)])
    assert result.exit_code == EXIT_DOMAIN
    assert result.stderr.startswith("error:") and len(result.stderr.splitlines()) == 1


@pytest.mark.parametrize("beta", [[1e308, 1e308], [1e308, -1e308]], ids=["overflow", "inf-minus-inf"])
def test_estimate_utilities_past_a_double_exit_domain_without_a_warning(tmp_path, beta):
    config = _estimate_config(tmp_path, beta=beta, x_range=[1e308, 1e308])
    line = _assert_one_error_line(invoke(["estimate", "--config", config]), EXIT_DOMAIN)
    assert line == "error: utility values must all be finite"


@pytest.mark.parametrize("key, value", [("x_range", [-1e308, 1e308]), ("x_range", [0.5]), ("beta", [1e308, -1e308]),
                                        ("beta", [-1e308]), ("xi_scale", 1e308), ("xi_scale", -1e308),
                                        ("seed", 2**64), ("x_range", [0, 1e200])])
def test_estimate_at_the_edges_of_its_config_prints_no_traceback(tmp_path, key, value):
    # invoke lets an exception that the CLI does not map propagate, as the script would print its traceback
    result = invoke(["estimate", "--config", _estimate_config(tmp_path, **{key: value})])
    assert result.exit_code in (EXIT_OK, EXIT_PARSE, EXIT_DOMAIN, EXIT_SELFTEST)
    assert len(result.stderr.splitlines()) <= 1 and "Traceback" not in result.stderr
    if result.exit_code == EXIT_OK:  # strict JSON: json.dumps writes a float past a double as Infinity or NaN
        json.loads(result.stdout, parse_constant=lambda constant: pytest.fail(f"{constant} in {result.stdout}"))


def test_estimate_missing_required_key_exits_domain(tmp_path):
    config = json.loads(Path(_estimate_config(tmp_path)).read_text())
    del config["n_groups"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**config, "unknown_key": [1, 2]}))
    line = _assert_one_error_line(invoke(["estimate", "--config", str(path)]), EXIT_DOMAIN)
    assert "n_groups" in line


def test_params_integer_past_double_range_exits_domain(tmp_path):
    market = write_market(tmp_path / "m.csv", [("m1", "g", "h", "a", 0.0)])
    params = tmp_path / "p.json"
    params.write_text('{"sigma1": 1' + "0" * 400 + ', "sigma2": 0}')
    result = invoke(["shares", "--input", market, "--params", str(params)])
    _assert_one_error_line(result, EXIT_DOMAIN)


def test_cli_import_loads_no_scipy():
    assert not {m for m in imported_modules(program=("-c", "import hierlogit.cli")) if m.split(".")[0] == "scipy"}


def test_cli_import_loads_no_statistics(tmp_path):
    # nor does any command, simulate included: its z-check takes the normal quantile by AS241 in numpy
    assert "statistics" not in imported_modules(program=("-c", "import hierlogit.cli"))
    market = write_market(tmp_path / "m.csv", [("m1", "g", "h", "a", 0.0), ("m1", "g", "k", "b", 1.0)])
    shares = write_market(tmp_path / "s.csv", [("m1", "g", "h", "a", 0.5), ("m1", "_outside", "_outside",
                                                                              "_outside", 0.5)])
    params = write_params(tmp_path / "p.json", 0.5, 0.25)
    for args in (["shares", "--input", market], ["invert", "--input", shares], ["jacobian", "--input", market],
                 ["simulate", "--input", market, "--draws", "1000", "--output", str(tmp_path / "out.csv")]):
        assert "statistics" not in imported_modules(*args, "--params", params), args[0]
    assert "statistics" not in imported_modules("estimate", "--config", _estimate_config(tmp_path))


def test_cli_runs_its_module_once_and_starts_without_threads_or_csv(tmp_path):
    # run as __main__, the CLI would run a second time as hierlogit.cli if the reader imported it
    market = write_market(tmp_path / "m.csv", [("m1", "g", "h", "a", 0.0)])
    params = write_params(tmp_path / "p.json", 0.5, 0.25)
    shares = imported_modules("shares", "--input", market, "--params", params)
    assert "hierlogit.csvin" in shares and "hierlogit.cli" not in shares
    # a one-row output is one chunk, which the writer formats without threads
    assert "hierlogit.csvout" in shares and "concurrent.futures" not in shares
    started = imported_modules("--help")
    assert not started & {"concurrent.futures", "hierlogit.csvin", "hierlogit.csvout"}
    # each command loads the kernels it runs, and only those
    unused = {"hierlogit.inversion", "hierlogit.jacobian", "hierlogit.montecarlo", "hierlogit.synth"}
    assert not started & unused and not shares & unused
    # the command line is the standard library's: past what a bare start
    # loads, no installed distribution but numpy provides a module
    loaded = (started | shares) - imported_modules(program=("-c", "pass"))
    owners = importlib.metadata.packages_distributions()
    assert {d for m in loaded for d in owners.get(m.split(".")[0], ())} <= {"numpy", "hierlogit"}


@pytest.mark.parametrize("args, kernels", [
    (["shares"], set()), (["invert"], {"inversion"}), (["invert", "--method", "newton"], {"inversion"}),
    (["jacobian"], {"jacobian"}), (["jacobian", "--check-fd"], {"jacobian"}),
    (["simulate", "--draws", "100"], {"montecarlo"}), (["estimate"], {"inversion", "synth"}),
], ids=["shares", "invert", "invert-newton", "jacobian", "jacobian-check-fd", "simulate", "estimate"])
def test_each_command_imports_only_the_kernels_it_runs(tmp_path, args, kernels):
    # neither inversion compiles the Jacobian module: Newton's O(N) solve is in the inversion module
    if args[0] == "estimate":
        args = [*args, "--config", _estimate_config(tmp_path)]
    else:
        rows = ([("m1", "g", "h", "a", 0.5), ("m1", "_outside", "_outside", "_outside", 0.5)] if args[0] == "invert"
                else [("m1", "g", "h", "a", 0.0), ("m1", "g", "k", "b", 1.0)])
        args = [*args, "--input", write_market(tmp_path / "m.csv", rows),
                "--params", write_params(tmp_path / "p.json", 0.5, 0.25), "--output", str(tmp_path / "out.csv")]
    unused = {"inversion", "jacobian", "montecarlo", "synth"}
    loaded = imported_modules(*args)
    assert {k for k in unused if f"hierlogit.{k}" in loaded} == kernels


def test_package_import_loads_only_its_errors():
    loaded = imported_modules(program=("-c", "import hierlogit"))
    assert {m for m in loaded if m.split(".")[0] in ("hierlogit", "numpy")} == {"hierlogit", "hierlogit.errors"}


def test_package_names_are_those_of_their_home_modules():
    assert len(hierlogit.__all__) == 30 and set(hierlogit.__all__) <= set(dir(hierlogit))
    for name in set(hierlogit.__all__) - {"__version__"} | {"validate_params"}:
        value = getattr(hierlogit, name)
        # OUTSIDE_ID, a str, names no module
        home = importlib.import_module(getattr(value, "__module__", "hierlogit.hierarchy"))
        assert vars(home)[getattr(value, "__name__", name)] is value
    assert hierlogit.validate_params is hierlogit.NestingParams
    with pytest.raises(AttributeError, match="no_such_name"):
        hierlogit.no_such_name


def test_run_freezes_the_start_up_heap_before_main():
    calls = mock.Mock()
    with mock.patch("hierlogit.cli.gc.freeze", calls.freeze), mock.patch("hierlogit.cli.main", calls.main):
        hierlogit.cli.run()
    assert calls.mock_calls == [mock.call.freeze(), mock.call.main.main()]


def test_version_works_without_installation():
    result = run_ok(["--version"])
    assert result.output.strip() == f"hierlogit, version {hierlogit.__version__}"


def _shuffled_copy(path, name):
    # every row, _outside rows included, moves within and across markets
    header, *rows = Path(path).read_text().splitlines()
    order = np.random.default_rng(5).permutation(len(rows))
    out = Path(path).with_name(name)
    out.write_text("\n".join([header] + [rows[i] for i in order]) + "\n")
    return str(out)


def _assert_same_per_key(tree_text, shuffled_text, keys, fields):
    tree_rows, shuffled_rows = parse_csv(tree_text), parse_csv(shuffled_text)
    assert [[r[k] for k in keys] for r in shuffled_rows] != [[r[k] for k in keys] for r in tree_rows]
    by_key = {tuple(r[k] for k in keys): r for r in shuffled_rows}
    assert len(by_key) == len(tree_rows)
    for row in tree_rows:
        other = by_key[tuple(row[k] for k in keys)]
        if "group_id" in row:
            assert (other["group_id"], other["subgroup_id"]) == (row["group_id"], row["subgroup_id"])
        for field in fields:
            if row[field] == "":
                assert other[field] == ""
            else:
                assert float(other[field]) == pytest.approx(float(row[field]), rel=1e-12, abs=1e-15)


def test_shuffled_rows_give_the_same_values_per_product(tmp_path):
    # values are matched to products by (market, product) id, not by row position
    market, params, _ = _round_trip_market(tmp_path)
    shuffled = _shuffled_copy(market, "shuffled.csv")
    product = ("market_id", "product_id")

    def both(command, tree_input, shuffled_input, *extra):
        return [
            run_ok([command, "--input", path, "--params", params, *extra]).output
            for path in (tree_input, shuffled_input)
        ]

    shares = both("shares", market, shuffled)
    columns = ["value", "cond_product", "cond_subgroup", "group_share", "iv_subgroup", "iv_group", "iv_top"]
    _assert_same_per_key(*shares, product, columns)

    shares_path = tmp_path / "shares.csv"
    shares_path.write_text(shares[0])
    _assert_same_per_key(*both("invert", str(shares_path), _shuffled_copy(shares_path, "s.csv")), product, ["value"])
    _assert_same_per_key(*both("jacobian", market, shuffled), ("market_id", "row_id", "col_id"), ["value"])
    # simulated draws are addressed by position in the tree, so only the
    # analytic columns are comparable
    simulated = both("simulate", market, shuffled, "--draws", "1000", "--seed", "3")
    _assert_same_per_key(*simulated, product, ["share", "std_error"])


def test_every_market_is_mode_checked_before_any_is_computed(tmp_path):
    # m1 alone would exit 2 (non-finite utility); m2's _outside row is found first
    rows = [("m1", "g", "h", "a", "nan"), ("m2", "g", "h", "a", 0.0), ("m2", "_outside", "_outside", "_outside", 0.5)]
    market = write_market(tmp_path / "m.csv", rows)
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    out = tmp_path / "out.csv"
    result = invoke(["shares", "--input", market, "--params", params, "--output", str(out)])
    assert result.exit_code == EXIT_PARSE
    assert "'m2'" in result.stderr
    assert not out.exists()


def _assert_one_error_line(result, code):
    assert result.exit_code == code
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr
    return lines[0]


@pytest.mark.parametrize(
    "name, data, where",
    [
        ("m.csv", HEADER.encode() + b"\nm1,g,h,a,0\nm1,g,h,\xff,0\n", "m.csv:3:"),
        ("m.csv", (HEADER + "\nm1,g,h," + "a" * 131073 + ",0\n").encode(), "m.csv:2:"),
        ("p.json", b'{"sigma1": 0.5, "sigma2": \xff}', "p.json:"),
        ("config.json", b'{"n_groups": \xfe}', "config.json:"),
    ],
    ids=["csv-not-utf8", "csv-field-too-large", "params-not-utf8", "config-not-utf8"],
)
def test_undecodable_or_oversized_input_exits_parse(tmp_path, name, data, where):
    market = write_market(tmp_path / "m.csv", [("m1", "g", "h", "a", 0.0)])
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    (tmp_path / name).write_bytes(data)
    if name == "config.json":
        args = ["estimate", "--config", str(tmp_path / name)]
    else:
        args = ["shares", "--input", market, "--params", params]
    assert where in _assert_one_error_line(invoke(args), EXIT_PARSE)


@pytest.mark.parametrize("product", ["p", '"p"'], ids=["split", "csv-reader"])
def test_a_repeated_required_column_exits_parse(tmp_path, product):
    from hierlogit import csvin

    # numpy splits the plain file; a quoted field sends it to csv.reader
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    market = tmp_path / "m.csv"
    market.write_bytes(_lines(HEADER + ",value", f"m,g,h,{product},0.5,9"))
    with mock.patch.object(csvin, "_read_rows", wraps=csvin._read_rows) as read_rows:
        result = invoke(["shares", "--input", str(market), "--params", params])
    assert read_rows.called == (product != "p")
    assert _assert_one_error_line(result, EXIT_PARSE) == f"error: {market}: column 'value' appears more than once"
    assert result.stdout_bytes == b""
    # a column of another name may repeat, and is ignored
    market.write_bytes(_lines("extra," + HEADER + ",extra", f"x,m,g,h,{product},0.5,y"))
    assert read_market_csv(str(market))[1].tolist() == [0.5]


@pytest.mark.parametrize("row, read_rows, message", [
    ("m,g,h,b,2,x", False, None),
    ("m,g,h,b,2,", False, None),
    ("m,g,,b,2,x", True, "{}:4: incomplete row"),
    ("m,g,h,b,\uff12,x", True, None),
    ("m,g,h,b,2x,x", True, "{}:4: value '2x' is not a number"),
], ids=["plain", "blank-ignored-field", "blank-required-field", "non-ascii-digit", "not-a-number"])
def test_numpy_splits_only_files_with_no_fault_in_a_required_field(tmp_path, row, read_rows, message):
    from hierlogit import csvin

    # csv.reader alone reads, and names, a row whose required fields numpy cannot take
    market = tmp_path / "m.csv"
    market.write_bytes(_lines(HEADER + ",extra", "m,g,h,a,1,x", "", row))
    with mock.patch.object(csvin, "_read_rows", wraps=csvin._read_rows) as wrapped:
        try:
            got = read_market_csv(str(market))[1].tolist()
        except hierlogit.MarketFileError as err:
            got = str(err)
    assert wrapped.called == read_rows
    assert got == (message.format(market) if message else [1.0, 2.0])


@pytest.mark.parametrize("args", [
    [],
    ["bogus", "--input", "M", "--params", "P"],
    ["shares", "--params", "P"],
    ["shares", "--input", "M"],
    ["simulate", "--input", "M", "--params", "P", "--draws", "abc"],
    ["invert", "--input", "M", "--params", "P", "--method", "bogus"],
    ["invert", "--input", "M", "--params", "P", "--tol", "x"],
    ["shares", "--inp", "M", "--params", "P"],
    ["shares", "stray", "--input", "M", "--params", "P"],
], ids=["no-command", "unknown-command", "no-input", "no-params", "draws-not-int", "unknown-method",
        "tol-not-float", "abbreviated-option", "stray-argument"])
def test_bad_command_line_exits_parse_with_one_line(tmp_path, args):
    # the files are valid, so that the command line alone is at fault
    paths = {"M": write_market(tmp_path / "m.csv", [("m1", "g", "h", "a", 0.5)]),
             "P": write_params(tmp_path / "p.json", 0.5, 0.25)}
    result = invoke([paths.get(arg, arg) for arg in args])
    _assert_one_error_line(result, EXIT_PARSE)
    assert result.stdout_bytes == b""


# a valid invert input: shares in (0, 1) summing to 1 with the _outside row
_FUZZ_BASE = [
    ["m1", "g1", "h1", "a", "0.2"],
    ["m1", "g1", "h2", "b", "0.3"],
    ["m1", "g2", "h3", "c", "0.1"],
    ["m1", "_outside", "_outside", "_outside", "0.4"],
    ["m2", "g1", "h1", "a", "0.25"],
    ["m2", "g1", "h1", "b", "0.25"],
    ["m2", "_outside", "_outside", "_outside", "0.5"],
]
_FUZZ_VALUES = ["nan", "inf", "-inf", "abc", "1e400", "1e308", "-1e308", "0", "1", "-0.5", "", "5e-324",
                "1_0", " 1.5", "Infinity", "\uff11\uff12", "0x10"]
_FUZZ_BYTES = [b"\xff", b"\xc3", b"\x00", b",", b'"', b"\n", b"\r", b" ", b"\xe2\x80\xa8", b"_outside"]
# ids the csv module quotes (a comma, a quote, a newline, a carriage return),
# non-ASCII ones, and one long enough that the file spans more than one 8 KiB block
_FUZZ_IDS = ["a,b", 'say "hi"', "two\nlines", "car\rriage", "m\u00e9", "\u65e5\u672c", "x" * 10_000]


@st.composite
def mutated_market_files(draw):
    rows = [list(row) for row in _FUZZ_BASE]
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["drop", "duplicate", "shuffle", "blank", "value", "outside", "no_outside", "id"]))
        index = draw(st.integers(0, max(len(rows) - 1, 0)))
        if op == "outside":
            market = draw(st.sampled_from(["m1", "m2", "m3"]))
            rows.insert(index, [market, "_outside", "_outside", "_outside", draw(st.sampled_from(_FUZZ_VALUES))])
        elif op == "no_outside":
            rows = [row for row in rows if row[3] != "_outside"]
        elif op == "shuffle":
            rows = draw(st.permutations(rows))
        elif not rows:
            continue
        elif op == "drop":
            rows.pop(index)
        elif op == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), list(rows[index]))
        elif op == "blank":
            rows[index][draw(st.integers(0, 4))] = ""
        elif op == "id":
            rows[index][draw(st.integers(0, 3))] = draw(st.sampled_from(_FUZZ_IDS))
        else:
            rows[index][4] = draw(st.sampled_from(_FUZZ_VALUES))
    header = HEADER.split(",")
    if draw(st.booleans()):
        # the columns in another order, and one more
        header = draw(st.permutations(header + ["extra"]))
        rows = [[dict(zip(HEADER.split(","), row), extra="x")[c] for c in header] for row in rows]
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    if draw(st.booleans()):
        # quoted as the csv module quotes
        lines = []
        csv.writer(SimpleNamespace(write=lines.append), lineterminator=ending).writerows([header] + rows)
    else:
        lines = [",".join(row) + ending for row in [header] + rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), ending)
    text = "".join(lines)
    if draw(st.booleans()):
        text = text[:-len(ending)]
    data = (draw(st.sampled_from(["", "", "\ufeff"])) + text).encode()
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, len(data)))
        junk = draw(st.one_of(st.sampled_from(_FUZZ_BYTES), st.binary(min_size=1, max_size=3)))
        data = data[:at] + junk + data[at:]
    return data


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=mutated_market_files())
def test_cli_fuzz_malformed_markets_never_traceback(tmp_path, data):
    market = tmp_path / "fuzz.csv"
    market.write_bytes(data)
    params = write_params(tmp_path / "p.json", 0.5, 0.25)
    for command in (["shares"], ["invert"], ["invert", "--method", "newton"], ["jacobian"]):
        result = invoke([*command, "--input", str(market), "--params", params])
        assert result.exit_code in (EXIT_OK, EXIT_PARSE, EXIT_DOMAIN, EXIT_SELFTEST)
        if result.exit_code != EXIT_OK:
            _assert_one_error_line(result, result.exit_code)


@settings(max_examples=400, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=mutated_market_files(), outside=st.booleans())
def test_reader_matches_the_row_reader(tmp_path, data, outside):
    market = tmp_path / "fuzz.csv"
    market.write_bytes(data)
    assert_same_read(str(market), outside)


# no test file reaches the reader's 1 MiB block: in blocks of 1 and 64 bytes
# every file is split across blocks, a row or a single field to a block
@pytest.mark.parametrize("block", [1, 64])
@settings(max_examples=100, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=mutated_market_files(), outside=st.booleans())
def test_reader_matches_the_row_reader_in_small_blocks(tmp_path, data, outside, block):
    from hierlogit import csvin

    market = tmp_path / "fuzz.csv"
    market.write_bytes(data)
    with mock.patch.object(csvin, "_BLOCK", block):
        assert_same_read(str(market), outside)


_ROWS = ["m1,g1,h1,a,0.2", "m1,g1,h2,b,0.3", "m1,_outside,_outside,_outside,0.5",
         "m2,g1,h1,a,0.25", "m2,_outside,_outside,_outside,0.75"]
_FILLER = [f"m{m},g,h,p,0.5" for m in range(3, 800)]


def _lines(*lines, end="\n"):
    return "".join(line + end for line in lines).encode()


_EDGE_FILES = [
    _lines(HEADER, *_ROWS),
    b"\xef\xbb\xbf" + _lines(HEADER, *_ROWS),
    _lines(HEADER, *_ROWS, end="\r\n"),
    _lines(HEADER, "", *_ROWS[:2], "", "", *_ROWS[2:], ""),
    _lines(HEADER, *_ROWS)[:-1],
    _lines("value,extra,product_id,subgroup_id,market_id,group_id", *(
        ",".join([v, "x", p, s, m, g]) for m, g, s, p, v in (r.split(",") for r in _ROWS))),
    _lines(HEADER, "m\u00e9,g1,h1,\u65e5\u672c,\uff11\uff12", "m\u00e9,g1,h1,b,1_0", "m\u00e9,g2,h,c, 1.5",
           "m\u00e9,g2,h,d,Infinity", "m\u00e9,g2,h,e,-iNF"),
    _lines(HEADER, "m1,g1,h1," + "x" * 10_000 + ",0.5", *_ROWS[1:]),
    _lines(HEADER, '"m,1",g1,h1,"say ""hi""",0.2', 'm1,g1,h1,"two\nlines",0.2', 'm1,g1,h1,"car\rriage",0.2'),
    _lines(HEADER, "m1,g1,h1,a,abc", *_FILLER) + b"m9,g,h,\xff,0\n",
    _lines(HEADER, "m1,g1,h1,a,abc", *_FILLER[:5]) + b"m9,g,h,\xff,0\n",
    _lines(HEADER, "m1,g1,h1,a,1", "m1,g1,h1,,2", *_FILLER[:5]) + b'"',
    _lines(HEADER, "m1,g1,h1,a,1", "m1,g1,h1,,2", "m1,g1,h1,b,abc"),
    _lines(HEADER, "m1,g1,h1,a,abc", "m1,g1,,b,2"),
    _lines(HEADER, "m1,g1,h1,a,0x10", "m1,g1,h1,b,1__0"),
    _lines(HEADER, "m1,g1,h1,a,1,surplus", "m1,g1,h1,b,2"),
    _lines(HEADER, "m1,g1,h1,a,1", " ", "m1,g1,h1,b,2"),
    _lines(HEADER, "m1,g1,h1," + "a" * 131_073 + ",0"),
    _lines(HEADER + ",value", "m1,g1,h1,a,abc,1"),
    _lines(HEADER, *_ROWS[:2], _ROWS[0]),
    _lines(HEADER),
    b"",
    b"\xef\xbb\xbf",
    _lines("", HEADER, *_ROWS),
]
_EDGE_IDS = ["plain", "bom", "crlf", "blank-lines", "no-final-newline", "columns-reordered", "non-ascii",
             "long-id", "quoted", "bad-value-before-late-bad-byte", "bad-byte-after-bad-value", "incomplete-then-quote",
             "incomplete", "bad-value-then-incomplete", "value-not-a-number", "more-fields-than-header",
             "blank-field-row", "field-too-large", "repeated-column-name", "repeated-product", "header-only", "empty",
             "bom-only", "blank-header"]


@pytest.mark.parametrize("outside", [False, True])
@pytest.mark.parametrize("data", _EDGE_FILES, ids=_EDGE_IDS)
def test_reader_matches_the_row_reader_on_edge_files(tmp_path, data, outside):
    market = tmp_path / "m.csv"
    market.write_bytes(data)
    assert_same_read(str(market), outside)


@pytest.mark.parametrize("block", [1, 64])
@pytest.mark.parametrize("outside", [False, True])
@pytest.mark.parametrize("data", _EDGE_FILES, ids=_EDGE_IDS)
def test_reader_matches_the_row_reader_on_edge_files_in_small_blocks(tmp_path, data, outside, block):
    from hierlogit import csvin

    market = tmp_path / "m.csv"
    market.write_bytes(data)
    with mock.patch.object(csvin, "_BLOCK", block):
        assert_same_read(str(market), outside)


def test_reader_memory_grows_with_the_file_not_with_its_values(tmp_path):
    import tracemalloc

    from hierlogit.csvin import read_market_csv

    # the same 80,000 rows with values of 3 and of 200 bytes, all 0.5: the file
    # grows by 15 MiB, which a reader holding every value's bytes adds again
    def traced(value):
        market = tmp_path / f"{len(value)}.csv"
        market.write_text(HEADER + "\n" + "".join(
            f"m{r // 8},g{r % 8 // 4},h{r % 8 // 2},p{r % 8},{value}\n" for r in range(80_000)))
        tracemalloc.start()
        try:
            tree, values, _ = read_market_csv(str(market))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tree.n_products == 80_000 and np.all(values == 0.5)
        return market.stat().st_size, peak

    (tmp_path / "warm.csv").write_text(HEADER + "\nm,g,h,p,0.5\n")
    read_market_csv(str(tmp_path / "warm.csv"))  # the reader's imports, untraced
    (short_size, short_peak), (long_size, long_peak) = traced("0.5"), traced("0.5" + "0" * 196 + "1")
    assert long_peak - short_peak <= long_size - short_size


@pytest.mark.parametrize("data, read_rows", [
    (_lines(HEADER, *_ROWS, end="\r\n"), False),
    (_lines(HEADER, *_ROWS[:2]) + _lines("", *_ROWS[2:], end="\r\n")[:-2], False),
    (_lines(HEADER, *_ROWS, end="\r\n") + b"\r", True),
    (_lines(HEADER, "m1,g1,h1,a\r,0.2", *_ROWS[1:], end="\r\n"), True),
    (_lines(HEADER, *_ROWS, end="\r\r\n"), True),
], ids=["crlf", "mixed-ends", "trailing-cr", "cr-in-a-field", "cr-cr-lf"])
def test_numpy_splits_lines_that_end_in_crlf(tmp_path, data, read_rows):
    from hierlogit import csvin

    # a CR before an LF ends its line; any other CR sends the file to csv.reader
    market = tmp_path / "m.csv"
    market.write_bytes(data)
    with mock.patch.object(csvin, "_read_rows", wraps=csvin._read_rows) as wrapped:
        assert_same_read(str(market), outside=True)
    assert wrapped.called == read_rows


def _three_markets(tmp_path):
    # ragged markets of different sizes, rows shuffled across markets
    rows = [
        ("m1", "g1", "h1", "a", 0.3), ("m2", "g1", "h1", "a", -1.2), ("m3", "x", "y", "z", 0.7),
        ("m1", "g1", "h2", "b", -0.4), ("m2", "g2", "h2", "b", 0.9), ("m1", "g2", "h3", "c", 1.1),
        ("m2", "g1", "h1", "c", 0.2), ("m1", "g1", "h1", "d", 0.0), ("m2", "g2", "h3", "d", -2.5),
    ]
    return rows, write_params(tmp_path / "p.json", 0.5, 0.25)


def test_multi_market_file_is_the_concatenation_of_one_market_runs(tmp_path):
    rows, params = _three_markets(tmp_path)
    market_ids = ["m1", "m2", "m3"]

    def run(command, market_rows, name, *extra):
        path = write_market(tmp_path / f"{name}.csv", market_rows)
        return run_ok([command, "--input", path, "--params", params, *extra])

    def shares_of(market_rows, name):
        # invert input: the shares output's first five columns
        text = run("shares", market_rows, name).stdout
        return [r.split(",")[:5] for r in text.splitlines()[1:]]

    # markets of 4, 4 and 1 products: the file's Jacobian run pads the third market's block
    for command, extra in (("shares", ()), ("jacobian", ()), ("jacobian", ("--check-fd",)),
                           ("simulate", ("--draws", "500", "--seed", "4")), ("invert", ())):
        if command == "invert":
            whole = run(command, shares_of(rows, "all"), "all_in")
            parts = [run(command, shares_of([r for r in rows if r[0] == m], m), f"{m}_in") for m in market_ids]
        else:
            whole = run(command, rows, "all", *extra)
            parts = [run(command, [r for r in rows if r[0] == m], m, *extra) for m in market_ids]
        header = parts[0].stdout.splitlines(keepends=True)[0]
        assert whole.stdout == header + "".join(p.stdout[len(header):] for p in parts), (command, extra)
        assert whole.stderr == "".join(p.stderr for p in parts), (command, extra)


def test_newton_passes_the_closed_form_check_on_3000_random_markets(tmp_path):
    # 17-digit shares of N(0,1) utilities: before Newton took one more step
    # after its stop test, about 1% of such markets missed the 10*tol check
    rng = np.random.default_rng(2026)
    n_markets = 3000
    keys = [(f"g{g}", f"h{h}", f"p{g}{h}{p}") for g in range(2) for h in range(2) for p in range(2)]
    rows = [(f"m{m}", *key, repr(x)) for m in range(n_markets) for key, x in zip(keys, rng.standard_normal(8).tolist())]
    params = write_params(tmp_path / "p.json", 0.5, 0.25)
    shares = tmp_path / "shares.csv"
    run_ok(["shares", "--input", write_market(tmp_path / "m.csv", rows), "--params", params,
                    "--output", str(shares)])
    result = run_ok(["invert", "--method", "newton", "--input", str(shares), "--params", params])
    assert len(parse_csv(result.output)) == 8 * n_markets


def _shares_of_2x2x2_markets(tmp_path, values):
    """The ``shares`` output file of one 2x2x2 market per row of ``values`` at sigma (0.5, 0.25), and its params."""
    keys = [(f"g{g}", f"h{h}", f"p{g}{h}{p}") for g in range(2) for h in range(2) for p in range(2)]
    rows = [(f"m{m}", *key, repr(x)) for m, market in enumerate(values.tolist()) for key, x in zip(keys, market)]
    params = write_params(tmp_path / "p.json", 0.5, 0.25)
    shares = tmp_path / "shares.csv"
    run_ok(["shares", "--input", write_market(tmp_path / "m.csv", rows), "--params", params, "--output", str(shares)])
    return shares, params


def _assert_newton_agrees_with_closed_form(shares, params):
    closed = run_ok(["invert", "--input", str(shares), "--params", params])
    newton = invoke(["invert", "--method", "newton", "--input", str(shares), "--params", params])
    assert newton.exit_code == EXIT_OK and newton.stderr == ""
    np.testing.assert_allclose([float(r["value"]) for r in parse_csv(newton.stdout)],
                               [float(r["value"]) for r in parse_csv(closed.stdout)], rtol=0, atol=1e-8)


def test_newton_passes_the_closed_form_check_at_tiny_outside_shares(tmp_path):
    # utilities U(8, 16) give outside shares of about 7e-8 to 2e-6: the closed form
    # reads each market's level of utility from log s_0, and so must Newton's residual
    shares, params = _shares_of_2x2x2_markets(tmp_path, np.random.default_rng(8).uniform(8, 16, (20, 8)))
    _assert_newton_agrees_with_closed_form(shares, params)


def test_newton_reads_the_outside_share_as_the_closed_form_does(tmp_path):
    # one outside share raised by 5e-7, inside the sum rule's 1e-6: that market's
    # shares are no model's shares, and both methods invert its ratios s_j/s_0
    shares, params = _shares_of_2x2x2_markets(tmp_path, np.random.default_rng(9).standard_normal((20, 8)))
    rows = list(csv.reader(io.StringIO(shares.read_text())))
    row = next(r for r in rows if r[0] == "m3" and r[3] == "_outside")
    row[4] = repr(float(row[4]) + 5e-7)
    shares.write_text("".join(",".join(r) + "\n" for r in rows))
    _assert_newton_agrees_with_closed_form(shares, params)


def test_invert_reports_the_first_failing_market_in_file_order(tmp_path):
    # m2 breaks the sum rule (exit 1); m3 holds a zero share (exit 2)
    rows = [
        ("m1", "g", "h", "a", 0.4), ("m1", "_outside", "_outside", "_outside", 0.6),
        ("m2", "g", "h", "a", 0.3), ("m2", "_outside", "_outside", "_outside", 0.3),
        ("m3", "g", "h", "a", 0.0), ("m3", "_outside", "_outside", "_outside", 1.0),
    ]
    market = write_market(tmp_path / "m.csv", rows)
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    out = tmp_path / "out.csv"
    result = invoke(["invert", "--input", market, "--params", params, "--output", str(out)])
    line = _assert_one_error_line(result, EXIT_PARSE)
    assert "'m2'" in line and "sum" in line
    assert [r["market_id"] for r in parse_csv(out.read_text())] == ["m1"]


def _self_check_markets(tmp_path):
    """Four markets and their params: m1 a lone product, whose shares plain logit
    also gives, then three nested markets, rows shuffled across markets; plain
    logit's frequencies are further from m3's shares than from m2's."""
    rows = [
        ("m1", "g", "h", "a", 0.2), ("m2", "g1", "h1", "a", -3.5), ("m3", "g1", "h1", "a", 1.0),
        ("m4", "g1", "h1", "a", 0.5), ("m3", "g1", "h1", "b", 0.0), ("m2", "g1", "h2", "b", -3.5),
        ("m3", "g1", "h2", "c", 0.5), ("m4", "g2", "h2", "b", -0.5), ("m3", "g2", "h3", "d", 0.0),
        ("m4", "g2", "h3", "c", 0.0),
    ]
    return rows, write_params(tmp_path / "p.json", 0.7, 0.3)


def _assert_fails_at_m2(tmp_path, args, rows, patch, want):
    """``args`` on ``rows`` under ``patch`` exits 3 with one error line, ``want``
    about m2, after m1's rows and standard error as m1 alone gives them, and nothing of m3 or m4."""
    market = write_market(tmp_path / "m.csv", rows)
    alone = run_ok([*args, "--input", write_market(tmp_path / "m1.csv", [r for r in rows if r[0] == "m1"])])
    with patch:
        result = invoke([*args, "--input", market])
    assert result.exit_code == EXIT_SELFTEST
    errors = [line for line in result.stderr.splitlines() if line.startswith("error:")]
    assert errors == [f"error: market 'm2': {want}"], result.stderr
    assert result.stderr == alone.stderr + errors[0] + "\n"
    assert result.stdout == alone.stdout


def _in_market(h, market_id):
    """The indices of ``market_id``'s products in tree ``h``, then of its outside option
    among the products and the markets' outside options, as ``_complex_step_columns`` orders its rows."""
    m = h.market_ids.index(market_id)
    return np.r_[h.bounds[2, m]:h.bounds[2, m + 1], h.n_products + m]


def test_jacobian_fd_mismatch_names_the_first_failing_market_after_the_markets_before(tmp_path):
    rows, params = _self_check_markets(tmp_path)
    complex_step_columns = importlib.import_module("hierlogit.jacobian")._complex_step_columns

    def off_in_m2(tree, delta, params):
        columns = complex_step_columns(tree, delta, params)
        if "m2" in tree.market_ids:
            columns[_in_market(tree, "m2")] *= 1.0 + 1e-4
        return columns

    # m2's columns are 1e-4 off, each cell's error 1e-4 / (1 + 1e-4); m3's and m4's exact
    _assert_fails_at_m2(tmp_path, ["jacobian", "--check-fd", "--params", params], rows,
                        mock.patch("hierlogit.jacobian._complex_step_columns", off_in_m2),
                        "max relative error vs complex step 9.999e-05 exceeds 1e-05")


def test_simulate_z_blowout_names_the_first_failing_market_not_the_worst(tmp_path):
    rows, params = _self_check_markets(tmp_path)
    simulate = importlib.import_module("hierlogit.montecarlo").simulate_choices

    def plain_logit(hierarchy, delta, params, config):
        return simulate(hierarchy, delta, NestingParams(0.0, 0.0), config)

    args = ["simulate", "--params", params, "--draws", "20000", "--seed", "3"]
    run_ok([*args, "--input", write_market(tmp_path / "all.csv", rows)])
    # m2, m3 and m4 all fail under plain logit, m3 the worst
    z = {}
    for market_id in ("m2", "m3", "m4"):
        with mock.patch("hierlogit.montecarlo.simulate_choices", plain_logit):
            line = _assert_one_error_line(invoke(
                [*args, "--input", write_market(tmp_path / "one.csv", [r for r in rows if r[0] == market_id])]),
                EXIT_SELFTEST)
        z[market_id] = float(line.split("|z|=")[1].split()[0])
    assert max(z, key=z.get) == "m3"
    _assert_fails_at_m2(tmp_path, args, rows, mock.patch("hierlogit.montecarlo.simulate_choices", plain_logit),
                        f"|z|={z['m2']:.2f} exceeds 5; simulated frequencies inconsistent with analytic shares")


def test_newton_gap_names_the_first_failing_market_after_the_markets_before(tmp_path):
    rows, params = _self_check_markets(tmp_path)
    shares = run_ok(["shares", "--input", write_market(tmp_path / "u.csv", rows), "--params", params]).stdout
    share_rows = [line.split(",")[:5] for line in shares.splitlines()[1:]]
    numeric_invert = importlib.import_module("hierlogit.inversion").numeric_invert

    def shifted_in_m2(h, table, params, tol, max_iter):
        values = numeric_invert(h, table, params, tol=tol, max_iter=max_iter).values.copy()
        if "m2" in h.market_ids:
            values[_in_market(h, "m2")[:-1]] += 1e-6
        return SimpleNamespace(values=values)

    _assert_fails_at_m2(tmp_path, ["invert", "--method", "newton", "--params", params], share_rows,
                        mock.patch("hierlogit.inversion.numeric_invert", shifted_in_m2),
                        "newton and closed-form utilities disagree by 1.000e-06 (limit 1.000e-08)")


@pytest.mark.parametrize("tol", ["0", "-1e-9"])
def test_newton_refuses_a_nonpositive_tol_before_any_market(tmp_path, tol):
    rows = [("m1", "g", "h", "a", 0.4), ("m1", "_outside", "_outside", "_outside", 0.6),
            ("m2", "g", "h", "a", 0.0), ("m2", "_outside", "_outside", "_outside", 1.0)]
    market = write_market(tmp_path / "m.csv", rows)
    params = write_params(tmp_path / "p.json", 0.5, 0.25)
    out = tmp_path / "out.csv"
    result = invoke(["invert", "--method", "newton", "--tol", tol, "--input", market,
                     "--params", params, "--output", str(out)])
    assert _assert_one_error_line(result, EXIT_DOMAIN) == f"error: tol={float(tol)!r} must be positive"
    assert not out.exists()


@pytest.mark.parametrize("tol", ["inf", "Infinity", "nan"])
def test_newton_refuses_a_tol_that_is_not_finite(tmp_path, tol):
    # at tol = inf every residual passes and the 10*tol check cannot fail: utilities
    # far from the closed form were written with exit 0
    rows = [("m1", "g", "h", "a", 0.4), ("m1", "_outside", "_outside", "_outside", 0.6)]
    market = write_market(tmp_path / "m.csv", rows)
    params = write_params(tmp_path / "p.json", 0.5, 0.25)
    out = tmp_path / "out.csv"
    result = invoke(["invert", "--method", "newton", "--tol", tol, "--input", market,
                     "--params", params, "--output", str(out)])
    line = _assert_one_error_line(result, EXIT_DOMAIN)
    assert line == f"error: tol={float(tol)!r} must be a finite number"
    assert not out.exists()


@pytest.mark.parametrize("tol", ["1", "10", "1e300"])
def test_newton_refuses_a_tol_of_one_or_more(tmp_path, tol):
    # from tol = 1 on, the stop rule's log1p(tol) >= log 2 passes shares of half or twice
    # their targets, and the 10*tol check passes utilities 10 or more from the closed form
    rows = [("m1", "g", "h", "a", 0.4), ("m1", "_outside", "_outside", "_outside", 0.6)]
    market = write_market(tmp_path / "m.csv", rows)
    params = write_params(tmp_path / "p.json", 0.5, 0.25)
    out = tmp_path / "out.csv"
    args = ["invert", "--method", "newton", "--input", market, "--params", params, "--output", str(out)]
    result = invoke([*args, "--tol", tol])
    assert _assert_one_error_line(result, EXIT_DOMAIN) == f"error: tol={float(tol)!r} must be below 1"
    assert not out.exists()
    # tols below 1 run as before
    run_ok([*args, "--tol", "0.5"])


@pytest.mark.parametrize("tol, message", [("-1e-9", "must be positive"), ("1", "must be below 1")])
def test_the_closed_form_refuses_the_tols_that_newton_refuses(tmp_path, tol, message):
    # the closed form does not use the tol, but a tol outside (0, 1) is refused,
    # before any market, whatever the method
    rows = [("m1", "g", "h", "a", 0.4), ("m1", "_outside", "_outside", "_outside", 0.6)]
    market = write_market(tmp_path / "m.csv", rows)
    params = write_params(tmp_path / "p.json", 0.5, 0.25)
    out = tmp_path / "out.csv"
    result = invoke(["invert", "--method", "closed", "--tol", tol, "--input", market,
                     "--params", params, "--output", str(out)])
    assert _assert_one_error_line(result, EXIT_DOMAIN) == f"error: tol={float(tol)!r} {message}"
    assert not out.exists()
    run_ok(["invert", "--method", "closed", "--tol", "0.5", "--input", market, "--params", params])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sizes=st.lists(st.integers(1, 3), min_size=1, max_size=40), data=st.data(),
       error=st.sampled_from([hierlogit.HierLogitError, MemoryError]))
def test_results_halves_a_failing_file_down_to_its_first_failing_market(sizes, data, error):
    n_markets = len(sizes)
    failing = data.draw(st.sets(st.integers(0, n_markets - 1)))
    # product j of the market at position m has value m + j / 4, and the market's outside value is -m
    tree = market_tree([(f"m{m}", "g", "h", f"p{j}") for m, size in enumerate(sizes) for j in range(size)])
    values = np.array([m + j / 4 for m, size in enumerate(sizes) for j in range(size)])
    outside = data.draw(st.sampled_from([None, -np.arange(n_markets, dtype=float)]))
    # a run of more than `bound` products is over _RUN_CELLS
    bound = data.draw(st.none() | st.integers(1, sum(sizes)))
    cells = None if bound is None else lambda h: h.n_products - bound + _RUN_CELLS
    calls = []

    def compute(h, run_values, run_outside):
        calls.append(h)
        positions = [int(market_id[1:]) for market_id in h.market_ids]
        assert run_values.tolist() == [m + j / 4 for m in positions for j in range(sizes[m])]
        assert run_outside is None if outside is None else run_outside.tolist() == [-m for m in positions]
        assert bound is None or h.n_markets == 1 or h.n_products <= bound
        if failing.intersection(positions):
            raise error("boom")
        return positions

    first = min(failing, default=n_markets)
    yielded = []
    try:
        for positions in _results(tree, values, outside, compute, cells):
            yielded += positions
    except error as err:
        assert str(err) == f"market 'm{first}': boom"
    else:
        assert not failing
    assert yielded == list(range(first))
    if bound is None:
        assert len(calls) <= 2 * math.ceil(math.log2(n_markets)) + 1


@st.composite
def faulty_market_files(draw):
    """Rows of 2-4 small ragged markets, shuffled across markets, and 1-3
    faults as (market, row pick, bad utility, bad share)."""
    n_markets = draw(st.integers(2, 4))
    rows = []
    for m in range(n_markets):
        sizes = draw(st.lists(st.lists(st.integers(1, 3), min_size=1, max_size=2), min_size=1, max_size=2))
        for g, subgroups in enumerate(sizes):
            for h, n_products in enumerate(subgroups):
                for p in range(n_products):
                    rows.append([f"m{m}", f"g{g}", f"h{h}", f"p{g}.{h}.{p}", repr(draw(st.floats(-1.0, 1.0)))])
    faults = st.tuples(st.integers(0, n_markets - 1), st.integers(0, 100),
                       st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308"]),
                       st.sampled_from(["0", "1", "-0.25", "1.5", "nan", "0.75"]))
    return draw(st.permutations(rows)), draw(st.lists(faults, min_size=1, max_size=3))


def _with_faults(rows, faults, column):
    rows = [list(row) for row in rows]
    for market, pick, *values in faults:
        at = [i for i, row in enumerate(rows) if row[0] == f"m{market}"]
        rows[at[pick % len(at)]][4] = values[column]
    return rows


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(instance=faulty_market_files())
def test_failing_multi_market_file_matches_its_one_market_runs(tmp_path, instance):
    rows, faults = instance
    params = write_params(tmp_path / "p.json", 0.5, 0.25)

    def run(args, market_rows):
        path = write_market(tmp_path / "in.csv", market_rows)
        return invoke([*args, "--input", path, "--params", params])

    clean_shares = run(["shares"], rows).stdout
    share_rows = [line.split(",")[:5] for line in clean_shares.splitlines()[1:]]
    for args in (["shares"], ["jacobian"], ["jacobian", "--check-fd"],
                 ["simulate", "--draws", "2000", "--seed", "5"], ["invert"], ["invert", "--method", "newton"]):
        faulty = _with_faults(share_rows if args[0] == "invert" else rows, faults, args[0] == "invert")
        whole = run(args, faulty)
        parts = []
        for market_id in dict.fromkeys(row[0] for row in faulty):
            parts.append(run(args, [row for row in faulty if row[0] == market_id]))
            if parts[-1].exit_code != EXIT_OK:
                break
        assert parts[-1].exit_code != EXIT_OK, args
        assert (whole.exit_code, whole.stderr) == (parts[-1].exit_code, "".join(p.stderr for p in parts)), args
        header = parts[-1].stdout
        assert whole.stdout == header + "".join(p.stdout[len(header):] for p in parts[:-1]), args


@pytest.mark.parametrize("command", ["shares", "estimate"])
def test_utf8_byte_order_mark_is_accepted(tmp_path, command):
    bom = "\ufeff"
    if command == "estimate":
        config = Path(_estimate_config(tmp_path))
        config.write_text(bom + config.read_text(), encoding="utf-8")
        run_ok(["estimate", "--config", str(config)])
        return
    plain = write_market(tmp_path / "m.csv", [("m1", "g", "h", "a", 0.5)])
    params = write_params(tmp_path / "p.json", 0.5, 0.25)
    marked = tmp_path / "bom.csv"
    marked.write_text(bom + Path(plain).read_text(), encoding="utf-8")
    marked_params = tmp_path / "bom.json"
    marked_params.write_text(bom + Path(params).read_text(), encoding="utf-8")
    want = run_ok(["shares", "--input", plain, "--params", params]).output
    assert run_ok(["shares", "--input", str(marked), "--params", params]).output == want
    assert run_ok(["shares", "--input", plain, "--params", str(marked_params)]).output == want
