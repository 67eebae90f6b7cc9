import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hierlogit
from hierlogit.cli import EXIT_DOMAIN, EXIT_OK, EXIT_PARSE, EXIT_SELFTEST, main

HEADER = "market_id,group_id,subgroup_id,product_id,value"


@pytest.fixture
def runner():
    return CliRunner()


def write_market(path, rows):
    lines = [HEADER] + [",".join(str(c) for c in r) for r in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def write_params(path, sigma1, sigma2):
    path.write_text(json.dumps({"sigma1": sigma1, "sigma2": sigma2}))
    return str(path)


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def run_ok(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == EXIT_OK, result.stderr
    return result


def test_shares_plain_pair(runner, tmp_path):
    market = write_market(tmp_path / "m.csv", [("m1", "g", "h", "a", 0.0), ("m1", "g", "h", "b", 0.0)])
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    result = run_ok(runner, ["shares", "--input", market, "--params", params])
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


def test_shares_output_file_matches_stdout(runner, tmp_path):
    market = write_market(tmp_path / "m.csv", [("m1", "g", "h", "a", 0.3)])
    params = write_params(tmp_path / "p.json", 0.2, 0.1)
    piped = run_ok(runner, ["shares", "--input", market, "--params", params])
    out = tmp_path / "out.csv"
    run_ok(runner, ["shares", "--input", market, "--params", params, "--output", str(out)])
    assert out.read_text() == piped.output


def test_shares_json_format(runner, tmp_path):
    market = write_market(tmp_path / "m.csv", [("m1", "g", "h", "a", 0.0), ("m1", "g", "h", "b", 0.0)])
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    result = run_ok(runner, ["shares", "--input", market, "--params", params, "--format", "json"])
    payload = json.loads(result.output)
    assert payload["sigma1"] == 0.0
    market_obj = payload["markets"][0]
    assert market_obj["market_id"] == "m1"
    assert market_obj["outside_share"] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert [p["product_id"] for p in market_obj["products"]] == ["a", "b"]
    assert market_obj["inclusive_values"]["top"] == pytest.approx(math.log(3.0), abs=1e-15)


def test_reals_serialized_canonically(runner, tmp_path):
    # every numeric field must round-trip exactly through float()
    market = write_market(
        tmp_path / "m.csv",
        [("m1", "g1", "h1", "a", 1.0 / 3.0), ("m1", "g1", "h2", "b", -0.7), ("m1", "g2", "h3", "c", 2.25)],
    )
    params = write_params(tmp_path / "p.json", 0.35, 0.15)
    result = run_ok(runner, ["shares", "--input", market, "--params", params])
    for row in parse_csv(result.output):
        for field in row.values():
            if field in ("", None) or not field.replace(".", "").lstrip("-").replace("e", "").replace("+", "").isdigit():
                continue
            assert format(float(field), ".17g") == field


def test_missing_input_exits_parse(runner, tmp_path):
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    result = runner.invoke(main, ["shares", "--input", str(tmp_path / "nope.csv"), "--params", params])
    assert result.exit_code == EXIT_PARSE
    assert result.stderr.startswith("error:")


def test_malformed_value_exits_parse(runner, tmp_path):
    market = tmp_path / "m.csv"
    market.write_text(HEADER + "\nm1,g,h,a,abc\n")
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    result = runner.invoke(main, ["shares", "--input", str(market), "--params", params])
    assert result.exit_code == EXIT_PARSE
    assert ":2:" in result.stderr


def test_missing_column_exits_parse(runner, tmp_path):
    market = tmp_path / "m.csv"
    market.write_text("market_id,group_id,product_id,value\nm1,g,a,0\n")
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    result = runner.invoke(main, ["shares", "--input", str(market), "--params", params])
    assert result.exit_code == EXIT_PARSE
    assert "subgroup_id" in result.stderr


def test_sigma_at_one_exits_domain(runner, tmp_path):
    market = write_market(tmp_path / "m.csv", [("m1", "g", "h", "a", 0.0)])
    params = write_params(tmp_path / "p.json", 1.0, 0.0)
    result = runner.invoke(main, ["shares", "--input", market, "--params", params])
    assert result.exit_code == EXIT_DOMAIN


def test_invalid_params_json_exits_parse(runner, tmp_path):
    market = write_market(tmp_path / "m.csv", [("m1", "g", "h", "a", 0.0)])
    params = tmp_path / "p.json"
    params.write_text("{not json")
    result = runner.invoke(main, ["shares", "--input", market, "--params", str(params)])
    assert result.exit_code == EXIT_PARSE


def test_outside_row_rejected_in_utility_input(runner, tmp_path):
    market = write_market(
        tmp_path / "m.csv", [("m1", "g", "h", "a", 0.0), ("m1", "_outside", "_outside", "_outside", 0.4)]
    )
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    result = runner.invoke(main, ["shares", "--input", market, "--params", params])
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


def test_shares_then_invert_round_trip(runner, tmp_path):
    market, params, deltas = _round_trip_market(tmp_path)
    shares_out = tmp_path / "shares.csv"
    run_ok(runner, ["shares", "--input", market, "--params", params, "--output", str(shares_out)])
    result = run_ok(runner, ["invert", "--input", str(shares_out), "--params", params])
    rows = parse_csv(result.output)
    assert [r["market_id"] for r in rows] == ["m1"] * 8 + ["m2"] * 8
    for row in rows:
        want = deltas[(row["market_id"], row["product_id"])]
        assert float(row["value"]) == pytest.approx(want, abs=1e-9)


def test_invert_newton_matches_closed(runner, tmp_path):
    market, params, _ = _round_trip_market(tmp_path)
    shares_out = tmp_path / "shares.csv"
    run_ok(runner, ["shares", "--input", market, "--params", params, "--output", str(shares_out)])
    closed = run_ok(runner, ["invert", "--input", str(shares_out), "--params", params])
    newton = run_ok(
        runner,
        ["invert", "--input", str(shares_out), "--params", params, "--method", "newton", "--tol", "1e-12"],
    )
    a = [float(r["value"]) for r in parse_csv(closed.output)]
    b = [float(r["value"]) for r in parse_csv(newton.output)]
    np.testing.assert_allclose(b, a, rtol=0, atol=1e-8)


def test_invert_requires_outside_row(runner, tmp_path):
    market = write_market(tmp_path / "m.csv", [("m1", "g", "h", "a", 0.4), ("m1", "g", "h", "b", 0.3)])
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    result = runner.invoke(main, ["invert", "--input", market, "--params", params])
    assert result.exit_code == EXIT_PARSE
    assert "_outside" in result.stderr


def test_invert_zero_share_exits_domain(runner, tmp_path):
    market = write_market(
        tmp_path / "m.csv",
        [("m1", "g", "h", "a", 0.0), ("m1", "g", "h", "b", 0.5), ("m1", "_outside", "_outside", "_outside", 0.5)],
    )
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    result = runner.invoke(main, ["invert", "--input", market, "--params", params])
    assert result.exit_code == EXIT_DOMAIN


def test_invert_sum_violation_exits_parse(runner, tmp_path):
    market = write_market(
        tmp_path / "m.csv",
        [("m1", "g", "h", "a", 0.3), ("m1", "g", "h", "b", 0.3), ("m1", "_outside", "_outside", "_outside", 0.2)],
    )
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    result = runner.invoke(main, ["invert", "--input", market, "--params", params])
    assert result.exit_code == EXIT_PARSE
    assert "sum" in result.stderr


def test_invert_error_names_offending_market(runner, tmp_path):
    rows = [
        ("m1", "g", "h", "a", 0.4),
        ("m1", "g", "h", "b", 0.3),
        ("m1", "_outside", "_outside", "_outside", 0.3),
        ("m2", "g", "h", "a", 1.2),
        ("m2", "_outside", "_outside", "_outside", 0.3),
    ]
    market = write_market(tmp_path / "m.csv", rows)
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    result = runner.invoke(main, ["invert", "--input", market, "--params", params])
    assert result.exit_code == EXIT_DOMAIN
    assert "m2" in result.stderr


def test_jacobian_singleton(runner, tmp_path):
    market = write_market(tmp_path / "m.csv", [("m1", "g", "h", "a", 0.0)])
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    result = run_ok(runner, ["jacobian", "--input", market, "--params", params])
    rows = parse_csv(result.output)
    assert [(r["row_id"], r["col_id"]) for r in rows] == [("a", "a"), ("_outside", "a")]
    assert float(rows[0]["value"]) == pytest.approx(0.25, abs=1e-15)
    assert float(rows[1]["value"]) == pytest.approx(-0.25, abs=1e-15)


def test_jacobian_fd_check_passes(runner, tmp_path):
    market = write_market(
        tmp_path / "m.csv",
        [("m1", "g1", "h1", "a", 0.5), ("m1", "g1", "h1", "b", -0.5), ("m1", "g2", "h2", "c", 1.0)],
    )
    params = write_params(tmp_path / "p.json", 0.4, 0.2)
    result = run_ok(runner, ["jacobian", "--input", market, "--params", params, "--check-fd"])
    assert "finite differences" in result.stderr


def test_jacobian_extreme_utilities_finite(runner, tmp_path):
    market = write_market(tmp_path / "m.csv", [("m1", "g", "h", "a", 700.0), ("m1", "g", "h", "b", -700.0)])
    params = write_params(tmp_path / "p.json", 0.3, 0.1)
    result = run_ok(runner, ["jacobian", "--input", market, "--params", params])
    values = [float(r["value"]) for r in parse_csv(result.output)]
    assert len(values) == 6
    assert all(math.isfinite(v) for v in values)


def test_simulate_deterministic_and_consistent(runner, tmp_path):
    market = write_market(
        tmp_path / "m.csv",
        [("m1", "g1", "h1", "a", 0.5), ("m1", "g1", "h1", "b", 0.0), ("m1", "g2", "h2", "c", -0.5)],
    )
    params = write_params(tmp_path / "p.json", 0.4, 0.2)
    args = ["simulate", "--input", market, "--params", params, "--draws", "20000", "--seed", "7"]
    first = run_ok(runner, args)
    second = run_ok(runner, args)
    assert first.output == second.output
    rows = parse_csv(first.output)
    assert rows[-1]["product_id"] == "_outside"
    assert sum(int(r["count"]) for r in rows) == 20000
    assert max(abs(float(r["z_score"])) for r in rows) <= 5.0


def test_simulate_rejects_nonpositive_draws(runner, tmp_path):
    market = write_market(tmp_path / "m.csv", [("m1", "g", "h", "a", 0.0)])
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    result = runner.invoke(main, ["simulate", "--input", market, "--params", params, "--draws", "0"])
    assert result.exit_code == EXIT_DOMAIN


@pytest.mark.parametrize("seed", ["-1", str(2**128)])
def test_simulate_seed_out_of_range_exits_domain(runner, tmp_path, seed):
    market = write_market(tmp_path / "m.csv", [("m1", "g", "h", "a", 0.0)])
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    result = runner.invoke(
        main, ["simulate", "--input", market, "--params", params, "--draws", "10", "--seed", seed]
    )
    assert result.exit_code == EXIT_DOMAIN
    assert result.stderr.startswith("error:") and len(result.stderr.splitlines()) == 1


@pytest.mark.parametrize("command", ["shares", "jacobian", "simulate"])
@pytest.mark.parametrize(
    "sigma",
    # delta / (1 - sigma1) overflows; then I_sub / (1 - sigma2) does
    [(0.5, 0.25), (0.0, 0.5)],
)
def test_overflowing_utilities_exit_domain(runner, tmp_path, command, sigma):
    market = write_market(tmp_path / "m.csv", [("m1", "g", "h", "a", 0.0), ("m2", "g", "h", "a", 1e308)])
    params = write_params(tmp_path / "p.json", *sigma)
    args = [command, "--input", market, "--params", params]
    if command == "simulate":
        args += ["--draws", "100"]
    line = _assert_one_error_line(runner.invoke(main, args), EXIT_DOMAIN)
    assert "'m2'" in line and "overflow" in line


def test_simulate_z_score_is_zero_for_an_underflowed_share_never_drawn(runner, tmp_path):
    market = write_market(tmp_path / "m.csv", [("m", "g", "h", "a", 0.0), ("m", "g", "h", "b", -800.0)])
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    result = run_ok(runner, ["simulate", "--input", market, "--params", params, "--draws", "1000"])
    assert result.output.splitlines()[2] == "m,g,h,b,0,0,0,0,0"
    assert result.stderr == ""


def _run_with_address_space_limit(args, limit_bytes):
    # the limit is set inside the child, before the CLI runs; this process
    # and the machine keep theirs
    code = (
        "import resource, sys\n"
        "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit_bytes}, hard))\n"
        "from hierlogit.cli import main\n"
        "main(prog_name='hierlogit')\n"
    )
    src = os.path.dirname(os.path.dirname(hierlogit.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("command", ["jacobian", "newton"])
def test_out_of_memory_exits_domain_with_one_line(tmp_path, command):
    # 16,000 products: the dense N x N Jacobian needs 2 GB, twice the limit
    n = 16_000
    ids = [(f"g{j // 400}", f"h{j // 20}", f"p{j}") for j in range(n)]
    if command == "jacobian":
        rows = [("m1", *i, 0.0) for i in ids]
        args = ["jacobian"]
    else:
        rows = [("m1", *i, repr(0.5 / n)) for i in ids] + [("m1", "_outside", "_outside", "_outside", 0.5)]
        args = ["invert", "--method", "newton"]
    market = write_market(tmp_path / "m.csv", rows)
    params = write_params(tmp_path / "p.json", 0.5, 0.25)
    args += ["--input", market, "--params", params, "--output", str(tmp_path / "out.csv")]
    result = _run_with_address_space_limit(args, 2**30)
    assert result.returncode == EXIT_DOMAIN, result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out of memory: market 'm1':"), result.stderr


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


def test_estimate_recovers_exact_coefficients(runner, tmp_path):
    config = _estimate_config(tmp_path)
    result = run_ok(runner, ["estimate", "--config", config])
    payload = json.loads(result.output)
    np.testing.assert_allclose(payload["beta_hat"], [1.0, -2.0], rtol=0, atol=1e-8)
    assert payload["sigma1_hat"] == pytest.approx(0.5, abs=1e-8)
    assert payload["sigma2_hat"] == pytest.approx(0.25, abs=1e-8)
    assert payload["residual_norm"] <= 1e-10
    assert payload["n_products"] == 8


def test_estimate_same_seed_same_output(runner, tmp_path):
    config = _estimate_config(tmp_path, xi_scale=0.3)
    first = run_ok(runner, ["estimate", "--config", config])
    second = run_ok(runner, ["estimate", "--config", config])
    assert first.output == second.output


def test_estimate_singular_design_exits_selftest(runner, tmp_path):
    config = _estimate_config(tmp_path, n_subgroups_per_group=1)
    result = runner.invoke(main, ["estimate", "--config", config])
    assert result.exit_code == EXIT_SELFTEST


def test_estimate_malformed_config_exits_parse(runner, tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{oops")
    result = runner.invoke(main, ["estimate", "--config", str(path)])
    assert result.exit_code == EXIT_PARSE


def test_estimate_bad_sigma_exits_domain(runner, tmp_path):
    config = _estimate_config(tmp_path, sigma1=1.5)
    result = runner.invoke(main, ["estimate", "--config", config])
    assert result.exit_code == EXIT_DOMAIN


def test_estimate_bad_dimensions_exits_domain(runner, tmp_path):
    config = _estimate_config(tmp_path, n_groups=0)
    result = runner.invoke(main, ["estimate", "--config", config])
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
    ],
)
def test_estimate_invalid_config_value_exits_domain(runner, tmp_path, key, raw):
    config = json.loads(Path(_estimate_config(tmp_path)).read_text())
    config.pop(key, None)
    path = tmp_path / "bad.json"
    # raw JSON text, so that 1e400 reaches the parser as written
    path.write_text(json.dumps(config)[:-1] + f', "{key}": {raw}}}')
    result = runner.invoke(main, ["estimate", "--config", str(path)])
    assert result.exit_code == EXIT_DOMAIN
    assert result.stderr.startswith("error:") and len(result.stderr.splitlines()) == 1


def test_estimate_missing_required_key_exits_domain(runner, tmp_path):
    config = json.loads(Path(_estimate_config(tmp_path)).read_text())
    del config["n_groups"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**config, "unknown_key": [1, 2]}))
    line = _assert_one_error_line(runner.invoke(main, ["estimate", "--config", str(path)]), EXIT_DOMAIN)
    assert "n_groups" in line


def test_params_integer_past_double_range_exits_domain(runner, tmp_path):
    market = write_market(tmp_path / "m.csv", [("m1", "g", "h", "a", 0.0)])
    params = tmp_path / "p.json"
    params.write_text('{"sigma1": 1' + "0" * 400 + ', "sigma2": 0}')
    result = runner.invoke(main, ["shares", "--input", market, "--params", str(params)])
    _assert_one_error_line(result, EXIT_DOMAIN)


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(hierlogit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, hierlogit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_version_works_without_installation(runner):
    result = run_ok(runner, ["--version"])
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


def test_shuffled_rows_give_the_same_values_per_product(runner, tmp_path):
    # values are matched to products by (market, product) id, not by row position
    market, params, _ = _round_trip_market(tmp_path)
    shuffled = _shuffled_copy(market, "shuffled.csv")
    product = ("market_id", "product_id")

    def both(command, tree_input, shuffled_input, *extra):
        return [
            run_ok(runner, [command, "--input", path, "--params", params, *extra]).output
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


def test_every_market_is_mode_checked_before_any_is_computed(runner, tmp_path):
    # m1 alone would exit 2 (non-finite utility); m2's _outside row is found first
    rows = [("m1", "g", "h", "a", "nan"), ("m2", "g", "h", "a", 0.0), ("m2", "_outside", "_outside", "_outside", 0.5)]
    market = write_market(tmp_path / "m.csv", rows)
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    out = tmp_path / "out.csv"
    result = runner.invoke(main, ["shares", "--input", market, "--params", params, "--output", str(out)])
    assert result.exit_code == EXIT_PARSE
    assert "'m2'" in result.stderr
    assert not out.exists()


def _assert_one_error_line(result, code):
    assert result.exit_code == code
    assert result.exception is None or isinstance(result.exception, SystemExit)
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
def test_undecodable_or_oversized_input_exits_parse(runner, tmp_path, name, data, where):
    market = write_market(tmp_path / "m.csv", [("m1", "g", "h", "a", 0.0)])
    params = write_params(tmp_path / "p.json", 0.0, 0.0)
    (tmp_path / name).write_bytes(data)
    if name == "config.json":
        args = ["estimate", "--config", str(tmp_path / name)]
    else:
        args = ["shares", "--input", market, "--params", params]
    assert where in _assert_one_error_line(runner.invoke(main, args), EXIT_PARSE)


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
_FUZZ_VALUES = ["nan", "inf", "-inf", "abc", "1e400", "1e308", "-1e308", "0", "1", "-0.5", "", "5e-324"]
_FUZZ_BYTES = [b"\xff", b"\xc3", b"\x00", b",", b'"', b"\n", b"\r", b" ", b"\xe2\x80\xa8", b"_outside"]


@st.composite
def mutated_market_files(draw):
    rows = [list(row) for row in _FUZZ_BASE]
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["drop", "duplicate", "shuffle", "blank", "value", "outside", "no_outside"]))
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
        else:
            rows[index][4] = draw(st.sampled_from(_FUZZ_VALUES))
    data = ("\n".join([HEADER] + [",".join(row) for row in rows]) + "\n").encode()
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
    for command in ("shares", "invert", "jacobian"):
        result = CliRunner().invoke(main, [command, "--input", str(market), "--params", params])
        assert result.exit_code in (EXIT_OK, EXIT_PARSE, EXIT_DOMAIN, EXIT_SELFTEST)
        if result.exit_code != EXIT_OK:
            _assert_one_error_line(result, result.exit_code)
        else:
            assert result.exception is None
