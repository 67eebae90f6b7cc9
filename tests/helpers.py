"""Shared instance builders and independent oracles for the test suite."""

import contextlib
import csv
import io
import itertools
import math
import operator
import os
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import strategies as st
from scipy.special import logsumexp
from scipy.stats import norm

import hierlogit
from hierlogit import OUTSIDE_ID, ChoiceHierarchy, MarketFileError, NestingParams, build_hierarchy, compute_shares
from hierlogit.cli import MARKET_COLUMNS, main, read_market_csv
from hierlogit.hierarchy import numbered, tree_from_codes
from hierlogit import csvout


def invoke(args):
    """Run the CLI on ``args`` in this process, as ``main.main(args)``: its
    ``exit_code``, its standard output as text (``stdout``) and as bytes
    (``stdout_bytes``), its ``stderr``, and ``output``, standard output
    then standard error, so that a test of ``output`` also fails on stray
    error text. Standard output has a ``.buffer``, as the CLI's CSV writer
    needs. An exception that the CLI does not map to an exit code
    propagates, so that its traceback fails the test."""
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args)
            code = 0
        except SystemExit as stop:
            code = stop.code or 0
    out.flush()
    data = out.buffer.getvalue()
    stdout, stderr = data.decode("utf-8"), err.getvalue()
    return SimpleNamespace(exit_code=code, output=stdout + stderr, stdout=stdout, stdout_bytes=data, stderr=stderr)


# A child imports the hierlogit that the tests import: src when they run from it, the installed
# package when they run without src on the path. A RuntimeWarning, numpy reporting an overflow or a
# NaN, is an error in the child, as in the tests, and so is a deprecated call.
CHILD_ENV = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(os.path.abspath(hierlogit.__file__))),
                 PYTHONWARNINGS="error::RuntimeWarning,error::DeprecationWarning,error::FutureWarning")
CLI = ("-m", "hierlogit.cli")


def run_child(*args, program=CLI, drop=(), cpus="all", stdout_closed=False, **env):
    """``(exit code, stdout bytes, stderr text)`` of ``python *program *args``, the CLI by default, in
    ``CHILD_ENV`` less the keys in ``drop`` and with ``env`` added; on one CPU of the mask if ``cpus``
    is ``"one"``, with its standard output closed if ``stdout_closed``: both act in the child alone,
    between its fork and its exec. This is the suite's one way to start a process."""
    def preexec():
        if cpus == "one":
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        if stdout_closed:
            os.close(1)
    done = subprocess.run([sys.executable, *program, *args], capture_output=True, timeout=600,
                          env={**{k: v for k, v in CHILD_ENV.items() if k not in drop}, **env},
                          preexec_fn=preexec if cpus == "one" or stdout_closed else None)
    return done.returncode, done.stdout, done.stderr.decode()


def imported_modules(*args, program=CLI) -> set:
    """The modules that ``run_child(*args, program=program)`` imports, by name, read from the
    interpreter's ``-X importtime`` report; the child must exit 0."""
    code, _, err = run_child(*args, program=("-X", "importtime", *program))
    assert code == 0, err
    return {line.rsplit("|", 1)[1].strip() for line in err.splitlines() if line.startswith("import time:")}


def random_tree(rng, max_groups=3, max_subgroups=3, max_products=4):
    """Ragged random tree: per-group subgroup counts and per-subgroup
    product counts are drawn independently, so most trees are unbalanced."""
    n_groups = int(rng.integers(1, max_groups + 1))
    rows = []
    for g in range(n_groups):
        n_sub = int(rng.integers(1, max_subgroups + 1))
        for h in range(n_sub):
            n_prod = int(rng.integers(1, max_products + 1))
            for p in range(n_prod):
                rows.append((f"g{g}", f"h{g}.{h}", f"p{g}.{h}.{p}"))
    return build_hierarchy(rows)


def random_instance(rng, dlo=-10.0, dhi=10.0, smax=0.95, **tree_kw):
    tree = random_tree(rng, **tree_kw)
    delta = rng.uniform(dlo, dhi, tree.n_products)
    params = NestingParams(rng.uniform(0.0, smax), rng.uniform(0.0, smax))
    return tree, delta, params


@st.composite
def ragged_instances(draw, utility_bound=700.0, sigma_bound=0.999):
    """Trees of 1-3 groups, 1-3 subgroups each, 1-4 products each, with
    utilities anywhere in [-utility_bound, utility_bound] and sigmas up to
    ``sigma_bound``.

    The domain edges are drawn on purpose: tied utilities of 700 at
    sigma = 0.999 are where rounding in the log-sum-exp shows.
    """
    sizes = draw(
        st.lists(st.lists(st.integers(1, 4), min_size=1, max_size=3), min_size=1, max_size=3)
    )
    rows = [
        (f"g{g}", f"h{g}.{h}", f"p{g}.{h}.{p}")
        for g, subgroups in enumerate(sizes)
        for h, n_products in enumerate(subgroups)
        for p in range(n_products)
    ]
    tree = build_hierarchy(rows)
    edges = [-utility_bound, 0.0, utility_bound]
    utility = st.one_of(st.sampled_from(edges), st.floats(-utility_bound, utility_bound))
    delta = np.array(draw(st.lists(utility, min_size=tree.n_products, max_size=tree.n_products)))
    sigma = st.one_of(st.sampled_from([0.0, sigma_bound]), st.floats(0.0, sigma_bound))
    return tree, delta, NestingParams(draw(sigma), draw(sigma))


def market_tree(rows):
    """The ChoiceHierarchy of (market_id, group_id, subgroup_id, product_id)
    rows, markets in order of first appearance."""
    tables, codes = zip(*map(numbered, zip(*rows)))
    return tree_from_codes(tables, codes)[0]


def balanced_tree(n_groups, n_subgroups, n_products):
    rows = [
        (f"g{g}", f"h{g}.{h}", f"p{g}.{h}.{p}")
        for g in range(n_groups)
        for h in range(n_subgroups)
        for p in range(n_products)
    ]
    return build_hierarchy(rows)


def one_level_nested_shares(delta, sigma, nest_of, n_nests):
    """Independent one-level nested logit evaluator (outside option at 0).

    Used as the collapse oracle: the two-level model must reduce to this
    when the nesting parameters coincide or the group level is inert.
    """
    delta = np.asarray(delta, dtype=float)
    a = 1.0 - sigma
    x = delta / a
    log_sum = np.array([logsumexp(x[nest_of == k]) for k in range(n_nests)])
    iv = a * log_sum
    top = logsumexp(np.append(iv, 0.0))
    joint = np.exp(x - log_sum[nest_of] + iv[nest_of] - top)
    return joint, float(np.exp(-top))


def plain_logit_shares(delta):
    delta = np.asarray(delta, dtype=float)
    top = logsumexp(np.append(delta, 0.0))
    return np.exp(delta - top), float(np.exp(-top))


def brute_force_shares(tree, delta, sigma1, sigma2):
    """Plain exponential-ratio evaluation of the nested share formulas.

    No log-sum-exp anywhere; only valid for moderate utilities, which is
    the point: it is an independent check on the log-space kernel.
    """
    delta = np.asarray(delta, dtype=float)
    a1 = 1.0 - sigma1
    a2 = 1.0 - sigma2
    sub_sum = np.array(
        [
            np.exp(delta[tree.product_subgroup == si] / a1).sum()
            for si in range(tree.n_subgroups)
        ]
    )
    iv_sub = a1 * np.log(sub_sum)
    grp_sum = np.array(
        [
            np.exp(iv_sub[tree.subgroup_group == g] / a2).sum()
            for g in range(tree.n_groups)
        ]
    )
    iv_grp = a2 * np.log(grp_sum)
    denom = 1.0 + np.exp(iv_grp).sum()
    joint = np.empty(tree.n_products)
    for j in range(tree.n_products):
        si = tree.product_subgroup[j]
        gi = tree.product_group[j]
        cp = np.exp(delta[j] / a1) / sub_sum[si]
        cs = np.exp(iv_sub[si] / a2) / grp_sum[gi]
        gs = np.exp(iv_grp[gi]) / denom
        joint[j] = cp * cs * gs
    return joint, 1.0 / denom


# Per-entry derivative oracles: the three cases of the product rule
#
#     d s_jhg / d delta_k = d s_{j|hg} * s_{h|g} * s_g
#                         + s_{j|hg} * d s_{h|g} * s_g
#                         + s_{j|hg} * s_{h|g} * d s_g
#
# one entry at a time, addressed by canonical position. The vectorized
# ``full_jacobian`` must agree with their composition.


def d_cond_product(table, j, k, params):
    """d s_{j|hg} / d delta_k for products at positions j and k.

    a*cp_j*(1-cp_j) for k = j, -a*cp_j*cp_k for k in the same subgroup,
    zero otherwise, with a = 1/(1-sigma1).
    """
    h = table.hierarchy
    if h.product_subgroup[j] != h.product_subgroup[k]:
        return 0.0
    a = 1.0 / (1.0 - params.sigma1)
    cp = table.cond_product
    if j == k:
        return float(a * cp[j] * (1.0 - cp[j]))
    return float(-a * cp[j] * cp[k])


def d_cond_subgroup(table, sh, k, params):
    """d s_{h|g} / d delta_k for flat subgroup index sh and product position k.

    b*cs_h*cp_k*(1-cs_h) when k lies in h, and -b*cs_h*cs_h'*cp_k when k
    lies in a sibling subgroup h' of the same group, with b = 1/(1-sigma2);
    zero when k belongs to another group.
    """
    h = table.hierarchy
    sk = h.product_subgroup[k]
    if h.subgroup_group[sh] != h.subgroup_group[sk]:
        return 0.0
    b = 1.0 / (1.0 - params.sigma2)
    cs = table.cond_subgroup
    cp_k = table.cond_product[k]
    if sk == sh:
        return float(b * cs[sh] * cp_k * (1.0 - cs[sh]))
    return float(-b * cs[sh] * cs[sk] * cp_k)


def d_group(table, g, k):
    """d s_g / d delta_k for group index g and product position k.

    s_k*(1-s_g) when k lies inside g and -s_g*s_k otherwise, with s_k the
    joint share of k. g = n_groups addresses the outside option, which
    behaves as a group with inclusive value pinned at zero:
    ds_0/ddelta_k = -s_0*s_k.
    """
    h = table.hierarchy
    joint_k = table.joint[k]
    if g == h.n_groups:
        return float(-table.outside[0] * joint_k)
    gs = table.group[g]
    if h.product_group[k] == g:
        return float(joint_k * (1.0 - gs))
    return float(-gs * joint_k)


def binomial_tail_z(n, p, k):
    """Normal-equivalent z of count ``k`` under Binomial(n, p), the oracle of
    the CLI's exact-tail z-check.

    Every binomial term is summed in exact rational arithmetic over the side
    of n*p where k/n falls; z = +-isf(tail), 0 where k/n == p or the tail
    holds half the mass or more, infinite where the tail underflows.
    """
    if k / n == p:
        return 0.0
    # p = a/b exactly; term j is C(n, j) a^j (b-a)^(n-j) / b^n. From term k outwards, each
    # numerator is the last one times an exact integer ratio: an upper tail never has b == a
    # (p == 1), nor a lower one a == 0 (p == 0)
    a, b = float(p).as_integer_ratio()
    upper = k / n > p
    term = total = math.comb(n, k) * a**k * (b - a) ** (n - k)
    for j in range(k, n) if upper else range(k, 0, -1):
        term = term * (n - j) * a // ((j + 1) * (b - a)) if upper else term * j * (b - a) // ((n - j + 1) * a)
        total += term
    tail = float(Fraction(total, b**n))
    z = 0.0 if tail >= 0.5 else (norm.isf(tail) if tail > 0.0 else math.inf)
    return z if upper else -z


def on_cpus(n, affinity=True):
    """Patch the CPUs that the CSV writer finds to ``n``: the affinity mask,
    or where the platform has none, the CPU count."""
    if affinity:
        return mock.patch.object(csvout, "os", SimpleNamespace(sched_getaffinity=lambda pid: set(range(n))))
    return mock.patch.object(csvout, "os", SimpleNamespace(cpu_count=lambda: n))


# smallest value Generator.random can emit besides 0.0; clamping keeps log u finite
_TINY_UNIFORM = 2.0**-53


def gumbel_from_uniform(u):
    """Standard Gumbel draws from uniforms, two logs each."""
    return -np.log(-np.log(np.maximum(u, _TINY_UNIFORM)))


def log_positive_stable(u, v, alpha):
    """log S of positive stable draws, E exp(-tS) = exp(-t**alpha) with 0 < alpha <= 1, each from
    two uniforms by Kanter's form of the Chambers-Mallows-Stuck method: with U = pi*u and E = -log v,
    S = sin(alpha U) / sin(U)**(1/alpha) * (sin((1-alpha) U) / E)**((1-alpha)/alpha), 1 at alpha = 1."""
    if alpha == 1.0:
        return np.zeros_like(u)
    angle = np.pi * np.maximum(u, _TINY_UNIFORM)
    exponential = -np.log(np.maximum(v, _TINY_UNIFORM))
    return (np.log(np.sin(alpha * angle)) - np.log(np.sin(angle)) / alpha
            + (1.0 - alpha) / alpha * (np.log(np.sin((1.0 - alpha) * angle)) - np.log(exponential)))


def nested_choice_counts(hierarchy, delta, params, draws, seed, block=20_000):
    """Choice counts of the nested reading of the model, the oracle of ``compute_shares`` that
    shares no derivation with it or with the sequential simulator. Each draw gives every product
    at once the utility delta_j + (1-sigma2) log S_g + (1-sigma1) log S'_h + (1-sigma1) eta_j, and
    the outside option eta_0, and takes the largest: eta is standard Gumbel, S_g positive stable of
    index 1-sigma2 per group and S'_h of index (1-sigma1)/(1-sigma2) per subgroup (Cardell,
    Econometric Theory 13, 1997), so every group's best product is Gumbel with the group's
    inclusive value as location. Such an S'_h exists only where sigma2 <= sigma1."""
    delta, rng = np.asarray(delta, dtype=float), np.random.default_rng(seed)
    a1, a2 = 1.0 - params.sigma1, 1.0 - params.sigma2
    n_grp, n_sub, n_prod = hierarchy.n_groups, hierarchy.n_subgroups, hierarchy.n_products
    tally = np.zeros(n_prod + 1, dtype=np.int64)
    for start in range(0, draws, block):
        n = min(block, draws - start)
        group = a2 * log_positive_stable(rng.random((n, n_grp)), rng.random((n, n_grp)), a2)
        subgroup = a1 * log_positive_stable(rng.random((n, n_sub)), rng.random((n, n_sub)), a1 / a2)
        utility = gumbel_from_uniform(rng.random((n, n_prod + 1)))
        utility[:, :n_prod] *= a1
        utility[:, :n_prod] += delta + group[:, hierarchy.product_group] + subgroup[:, hierarchy.product_subgroup]
        tally += np.bincount(np.argmax(utility, axis=1), minlength=n_prod + 1)
    return tally


def fd_jacobian_loop(hierarchy, delta, params, step=1e-6):
    """``fd_jacobian`` one column at a time, two ``compute_shares`` calls per
    column: the oracle of the batched evaluation, which must give the same
    doubles."""
    delta = np.asarray(delta, dtype=float)
    n = hierarchy.n_products
    matrix = np.empty((n, n))
    outside_row = np.empty(n)
    for k in range(n):
        up = delta.copy()
        up[k] += step
        down = delta.copy()
        down[k] -= step
        table_up, _ = compute_shares(hierarchy, up, params)
        table_down, _ = compute_shares(hierarchy, down, params)
        matrix[:, k] = (table_up.joint - table_down.joint) / (2.0 * step)
        outside_row[k] = (table_up.outside[0] - table_down.outside[0]) / (2.0 * step)
    return matrix, outside_row


def check_error(tree, delta, params, columns):
    """The worst relative error of one market's ``columns`` (its products' rows, then its outside
    option's) against its analytic share Jacobian, each cell relative to its row's share, as the
    CLI's ``--check-fd`` measures the complex-step columns."""
    from hierlogit import ShareJacobian, full_jacobian, max_relative_error

    table, _ = compute_shares(tree, delta, params)
    return max_relative_error(full_jacobian(tree, delta, params), ShareJacobian(columns[:-1], columns[-1]),
                              np.append(table.joint, table.outside))


def per_cell_write_csv(output_path, header, blocks):
    """The CLI's CSV writer cell by cell in Python, the oracle of the bytes of
    ``hierlogit.cli._write_csv``: same arguments, each str quoted by the csv
    module as the row ``(str, "")`` ending in ``,\r\n`` (so that a carriage
    return is quoted too), rows joined by "," and written block by block
    through a UTF-8 text stream."""

    def quoted(field):
        lines = []
        csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n").writerow((field, ""))
        return lines[0][:-3]

    def cells(column):
        if isinstance(column, tuple):
            table, codes = column
            table = cells(table) if isinstance(table, np.ndarray) else [quoted(f) for f in table]
            return [table[i] for i in codes.tolist()]
        if column.dtype.kind != "f":
            return [str(x) for x in column.tolist()]
        return [format(x, ".17g") if x == x else "" for x in column.tolist()]

    with open(output_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for columns in blocks:
            fh.writelines(",".join(row) + "\n" for row in zip(*map(cells, columns)))


def row_read_market_csv(path, outside=False) -> tuple:
    """The market CSV reader row by row in Python, the oracle of
    ``hierlogit.cli.read_market_csv``: the same ``(tree, values, outside)``,
    or the same MarketFileError, for every file. ``csv.reader`` reads the
    file as a text stream, and a nested dict walk builds the tree."""
    # ids (one object per distinct id) and value text of every row before the first at fault
    market, group, subgroup, product, raw = [], [], [], [], []
    canon, problem = {}, None
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise MarketFileError(f"{path}: empty file")
            at = {name: i for i, name in enumerate(header)}
            missing = [c for c in MARKET_COLUMNS if c not in at]
            if missing:
                raise MarketFileError(f"{path}: missing columns: {', '.join(missing)}")
            repeated = [c for c in MARKET_COLUMNS if header.count(c) > 1]
            if repeated:
                raise MarketFileError(f"{path}: column {repeated[0]!r} appears more than once")
            # blank lines are skipped; a short row raises IndexError, and so
            # does a row with an empty field: both end reading as incomplete
            for m, g, s, p, v in map(operator.itemgetter(*(at[c] for c in MARKET_COLUMNS)), filter(None, reader)):
                if "" in (m, g, s, p, v):
                    raise IndexError
                market.append(canon.setdefault(m, m))
                group.append(canon.setdefault(g, g))
                subgroup.append(canon.setdefault(s, s))
                product.append(canon.setdefault(p, p))
                raw.append(v)
    except OSError as err:
        raise MarketFileError(f"{path}: {err}") from None
    except UnicodeDecodeError:
        problem = f"{path}:{_undecodable_line(path)}: not UTF-8 text"
    except IndexError:
        problem = f"{path}:{reader.line_num}: incomplete row"
    except csv.Error as err:
        problem = f"{path}:{reader.line_num}: {err}"

    try:
        values = np.array(raw, dtype=float)
        bad = len(raw)
    except ValueError:
        bad = next(i for i, text in enumerate(raw) if not _is_number(text))
    seen = set()
    repeat = next((i for i, key in enumerate(zip(market, product)) if key in seen or seen.add(key)), len(raw))
    # the rows read all come before the one that stopped reading
    if min(bad, repeat) < len(raw):
        what = (f"value {raw[bad]!r} is not a number" if bad <= repeat
                else f"market {market[repeat]!r} repeats product {product[repeat]!r}")
        raise MarketFileError(f"{path}:{_line_of(path, min(bad, repeat))}: {what}")
    if problem or not raw:
        raise MarketFileError(problem or f"{path}: no data rows")

    tree = {m: {} for m in dict.fromkeys(market)}  # markets in order of first appearance
    outside_row = {}
    for i, (m, g, s, p) in enumerate(zip(market, group, subgroup, product)):
        if p == OUTSIDE_ID:
            outside_row[m] = i
        else:
            tree[m].setdefault(g, {}).setdefault(s, []).append(i)
    for m in (m for m, groups in tree.items() if not groups):
        raise MarketFileError(f"{path}: market {m!r}: cannot build a hierarchy from zero rows")
    for m in (m for m in tree if (m in outside_row) != outside):
        raise MarketFileError(f"{path}: market {m!r} has {'no' if outside else 'an unexpected'} {OUTSIDE_ID} row")
    groups, subgroups, order = [], [], []
    for m, market_groups in enumerate(tree.values()):
        for group_id, members in market_groups.items():
            groups.append((m, group_id))
            for subgroup_id, rows in members.items():
                subgroups.append((len(groups) - 1, subgroup_id, len(rows)))
                order.extend(rows)
    group_market, group_ids = zip(*groups)
    subgroup_group, subgroup_ids, sizes = zip(*subgroups)
    product_subgroup = np.repeat(np.arange(len(sizes), dtype=np.intp), sizes)
    hierarchy = ChoiceHierarchy((tuple(tree), group_ids, subgroup_ids, [product[i] for i in order]),
                                (group_market, subgroup_group, product_subgroup))
    outside_values = values[[outside_row[m] for m in tree]] if outside else None
    return hierarchy, values[order], outside_values


def _is_number(text) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _line_of(path, row) -> int:
    """Line on which data row ``row`` (counted from 0, blank lines skipped) ends."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(itertools.islice(filter(None, reader), row + 1, None))
        return reader.line_num


def _undecodable_line(path) -> int:
    # the text reader decodes ahead in blocks, so its line count is not the error's
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as err:
        return data.count(b"\n", 0, err.start) + 1


def assert_same_tree(got, want):
    """Two trees have the same ids, and the same ``parent``, ``above`` and
    ``bounds`` arrays, dtype included."""
    assert got.ids == want.ids
    for name in ("parent", "above", "bounds"):
        a, b = getattr(got, name), getattr(want, name)
        assert len(a) == len(b), name
        assert all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(a, b)), name


def assert_same_read(path, outside):
    """``read_market_csv`` and the row reader give the same ``(tree, values,
    outside)``, the tree and each array bit for bit, or the same error."""
    reads = []
    for read in (read_market_csv, row_read_market_csv):
        try:
            reads.append(read(path, outside))
        except MarketFileError as err:
            reads.append(err)
    got, want = reads
    if isinstance(want, MarketFileError) or isinstance(got, MarketFileError):
        assert (type(got), str(got)) == (type(want), str(want))
        return
    assert len(got) == len(want) == 3
    assert_same_tree(got[0], want[0])
    for a, b in zip(got[1:], want[1:]):
        assert (a is None) == (b is None) and (a is None or (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()))
