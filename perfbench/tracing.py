"""In-process traced run: per-layer self times and counts.

The CLI is driven through ``hierlogit.cli.main`` in this process. For a
traced pass, timing wrappers are patched over the public functions each
package module exposes, under every name a ``hierlogit`` module imported
them as (so ``cli.compute_shares`` and ``inversion.compute_shares`` are
both caught), and removed afterwards. The package source is not touched.

Spans are kept in memory as ``[job, name, parent, start, end, count]`` and
turned into metrics at the end. A span's self time is its duration minus
the durations of its direct children; the command itself is the root span
of each job, so its self time is the ``cli`` layer's own work: argument
handling, output formatting and writing.
"""

import contextlib
import functools
import importlib
import io
import sys
import time

# (layer, class, function) of every wrapped function; ``ShareTable.from_joint``
# is a classmethod and is wrapped on its class.
TRACED = (
    ("cli", None, "read_market_csv"),
    ("hierarchy", None, "build_hierarchy"),
    ("shares", None, "compute_shares"),
    ("shares", "ShareTable", "from_joint"),
    ("inversion", None, "berry_invert"),
    ("inversion", None, "numeric_invert"),
    ("inversion", None, "regression_rows"),
    ("jacobian", None, "log_share_jacobian"),
    ("jacobian", None, "full_jacobian"),
    ("montecarlo", None, "simulate_choices"),
    ("synth", None, "generate_market"),
    ("synth", None, "estimate_linear"),
)
LAYERS = ("cli", "hierarchy", "shares", "inversion", "jacobian", "montecarlo", "synth")

# Per-layer metrics, in the order they are reported.
METRICS = (
    ("cli.read_market_csv.s", "s"), ("cli.rows_in", "count"),
    ("cli.self.s", "s"), ("cli.bytes_out", "bytes"),
    ("hierarchy.build_hierarchy.s", "s"), ("hierarchy.build_hierarchy.calls", "count"),
    ("shares.compute_shares.s", "s"), ("shares.compute_shares.calls", "count"),
    ("shares.from_joint.s", "s"),
    ("inversion.berry_invert.s", "s"), ("inversion.numeric_invert.s", "s"),
    ("jacobian.log_share_jacobian.s", "s"),
    ("inversion.newton_iters", "count"), ("inversion.newton_evals", "count"),
    ("inversion.newton_failed", "count"),
    ("jacobian.full_jacobian.s", "s"), ("jacobian.dense_bytes", "bytes"),
    ("montecarlo.simulate_choices.s", "s"), ("montecarlo.draws_per_s", "1/s"),
    ("synth.generate_market.s", "s"), ("synth.estimate_linear.s", "s"),
    ("inversion.regression_rows.s", "s"),
    ("trace.overhead_s", "s"),
)


def _count(name, args, kwargs, result) -> int:
    """Work done by one call, measured at the boundary; 0 if the call has none."""
    try:
        return _count_work(name, args, kwargs, result)
    except (AttributeError, IndexError, KeyError, TypeError):
        # a changed signature or return type must not fail the traced job
        return 0


def _count_work(name, args, kwargs, result) -> int:
    if name == "cli.read_market_csv":
        return sum(len(b.values) + (b.outside_value is not None) for b in result)
    if name in ("jacobian.full_jacobian", "jacobian.log_share_jacobian"):
        # computed as N^2 * 8 for the dense float64 N x N result, not measured
        matrix = result.matrix if name == "jacobian.full_jacobian" else result
        return matrix.shape[0] * matrix.shape[1] * 8
    if name == "montecarlo.simulate_choices":
        return int(args[3].draws if len(args) > 3 else kwargs["config"].draws)
    return 0


class Tracer:
    """Span recorder; ``patched()`` installs the wrappers for one pass."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.job = -1
        self.missing = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        record = [self.job, name, parent, time.perf_counter(), 0.0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                record[5] = _count(name, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        modules = [importlib.import_module("hierlogit")]
        modules += [importlib.import_module(f"hierlogit.{layer}") for layer in LAYERS]
        undo = []
        try:
            for layer, owner_name, fn_name in TRACED:
                name = f"{layer}.{fn_name}"
                home = importlib.import_module(f"hierlogit.{layer}")
                if owner_name:
                    owner = getattr(home, owner_name, None)
                    raw = vars(owner).get(fn_name) if owner is not None else None
                    targets = [(owner, classmethod(self._wrap(name, raw.__func__)), raw)
                               ] if isinstance(raw, classmethod) else []
                else:
                    original = getattr(home, fn_name, None)
                    wrapper = self._wrap(name, original) if original is not None else None
                    targets = [(m, wrapper, original) for m in modules
                               if original is not None and getattr(m, fn_name, None) is original]
                if not targets:
                    self.missing.append(name)
                for target, new, old in targets:
                    undo.append((target, fn_name, old))
                    setattr(target, fn_name, new)
            yield
        finally:
            for target, fn_name, old in reversed(undo):
                setattr(target, fn_name, old)


def run_cli(argv: list) -> tuple:
    """Run one CLI command in process; returns (exit code, stderr text)."""
    from hierlogit.cli import main

    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            main.main(args=argv, prog_name="hierlogit", standalone_mode=True)
            code = 0
        except SystemExit as stop:
            code = stop.code if isinstance(stop.code, int) else (0 if stop.code is None else 1)
        except Exception as crash:  # noqa: BLE001 - a traceback is a failed job, as in a child
            code = 1
            print(f"uncaught {type(crash).__name__}: {crash}", file=sys.stderr)
    return code, err.getvalue()


def layer_metrics(spans: list, bytes_out: int, newton_failed: int) -> dict:
    """Per-layer metrics of one traced pass (without ``trace.overhead_s``)."""
    child_time = [0.0] * len(spans)
    for _, _, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s = {}
    calls = {}
    counts = {}
    inclusive = {}
    newton_iters = newton_evals = 0
    for i, (_, name, parent, start, end, count) in enumerate(spans):
        key = "cli.self" if parent < 0 else name
        self_s[key] = self_s.get(key, 0.0) + (end - start) - child_time[i]
        calls[key] = calls.get(key, 0) + 1
        counts[key] = counts.get(key, 0) + count
        inclusive[key] = inclusive.get(key, 0.0) + (end - start)
        if parent >= 0 and spans[parent][1] == "inversion.numeric_invert":
            newton_iters += name == "jacobian.log_share_jacobian"
            newton_evals += name == "shares.compute_shares"

    def s(key):
        return self_s.get(key, 0.0)

    sim_s = inclusive.get("montecarlo.simulate_choices", 0.0)
    return {
        "cli.read_market_csv.s": s("cli.read_market_csv"),
        "cli.rows_in": counts.get("cli.read_market_csv", 0),
        "cli.self.s": s("cli.self"),
        "cli.bytes_out": bytes_out,
        "hierarchy.build_hierarchy.s": s("hierarchy.build_hierarchy"),
        "hierarchy.build_hierarchy.calls": calls.get("hierarchy.build_hierarchy", 0),
        "shares.compute_shares.s": s("shares.compute_shares"),
        "shares.compute_shares.calls": calls.get("shares.compute_shares", 0),
        "shares.from_joint.s": s("shares.from_joint"),
        "inversion.berry_invert.s": s("inversion.berry_invert"),
        "inversion.numeric_invert.s": s("inversion.numeric_invert"),
        "jacobian.log_share_jacobian.s": s("jacobian.log_share_jacobian"),
        "inversion.newton_iters": newton_iters,
        "inversion.newton_evals": newton_evals,
        "inversion.newton_failed": newton_failed,
        "jacobian.full_jacobian.s": s("jacobian.full_jacobian"),
        "jacobian.dense_bytes": counts.get("jacobian.full_jacobian", 0)
        + counts.get("jacobian.log_share_jacobian", 0),
        "montecarlo.simulate_choices.s": s("montecarlo.simulate_choices"),
        "montecarlo.draws_per_s": counts.get("montecarlo.simulate_choices", 0) / sim_s if sim_s else 0.0,
        "synth.generate_market.s": s("synth.generate_market"),
        "synth.estimate_linear.s": s("synth.estimate_linear"),
        "inversion.regression_rows.s": s("inversion.regression_rows"),
    }

